//! The stress report (`reports/BENCH_stress.json`), and the JSON value
//! every `BENCH_*.json` report is built as: one writer
//! ([`Json::render`]), one parser ([`parse_json`]) and
//! [`write_report`]. The workspace deliberately has no JSON dependency.
//! A report's structure is its type's; what a run must show before its
//! report is written is that report's `check()`.

use crate::driver::StressResult;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Schema tag of the stress report.
pub const SCHEMA: &str = "doclite-stress/v1";

/// One workload × deployment × thread-count × mode measurement.
#[derive(Clone, Debug)]
pub struct CellResult {
    pub workload: String,
    pub deployment: String,
    pub threads: usize,
    pub mode: String,
    pub ops: u64,
    pub errors: u64,
    pub elapsed_s: f64,
    pub throughput_ops_s: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub max_us: f64,
    pub mean_us: f64,
}

impl CellResult {
    /// Extracts a cell from a finished run.
    pub fn from_run(
        workload: &str,
        deployment: &str,
        threads: usize,
        mode: &str,
        r: &StressResult,
    ) -> Self {
        CellResult {
            workload: workload.to_owned(),
            deployment: deployment.to_owned(),
            threads,
            mode: mode.to_owned(),
            ops: r.ops,
            errors: r.errors,
            elapsed_s: r.elapsed.as_secs_f64(),
            throughput_ops_s: r.throughput(),
            p50_us: r.p_us(50.0),
            p90_us: r.p_us(90.0),
            p99_us: r.p_us(99.0),
            p999_us: r.p_us(99.9),
            max_us: r.hist.max() as f64 / 1_000.0,
            mean_us: r.hist.mean() / 1_000.0,
        }
    }
}

/// Read-only max-throughput scaling between two thread counts on one
/// deployment (the acceptance headline).
#[derive(Clone, Debug)]
pub struct Scaling {
    pub workload: String,
    pub deployment: String,
    pub threads_lo: usize,
    pub threads_hi: usize,
    pub ratio: f64,
}

/// The full report.
#[derive(Clone, Debug, Default)]
pub struct StressReport {
    pub sf: f64,
    pub thread_counts: Vec<usize>,
    pub cells: Vec<CellResult>,
    pub scaling: Vec<Scaling>,
}

/// Escapes a string for embedding inside a JSON string literal: quotes,
/// backslashes, and every control character U+0000–U+001F (as `\n` /
/// `\t` / `\r` or `\u00XX`). The writers used to interpolate raw —
/// a workload name with a newline produced unparseable output.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl StressReport {
    /// The gates a run must pass before its report is written: every
    /// cell's percentiles in order, and each of the two deployments
    /// measured at two or more thread counts.
    pub fn check(&self) -> std::result::Result<(), String> {
        let mut threads_by_deployment: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
        for c in &self.cells {
            let (p50, p90, p99, p999, max) = (c.p50_us, c.p90_us, c.p99_us, c.p999_us, c.max_us);
            if !(p50 <= p90 && p90 <= p99 && p99 <= p999 && p999 <= max) {
                return Err(format!(
                    "percentiles out of order: p50={p50} p90={p90} p99={p99} p99.9={p999} max={max}"
                ));
            }
            threads_by_deployment.entry(&c.deployment).or_default().insert(c.threads);
        }
        for dep in ["standalone", "sharded"] {
            let counts = threads_by_deployment
                .get(dep)
                .ok_or_else(|| format!("no cells for deployment '{dep}'"))?;
            if counts.len() < 2 {
                return Err(format!(
                    "deployment '{dep}' needs >=2 distinct thread counts, got {counts:?}"
                ));
            }
        }
        Ok(())
    }

    /// The `doclite-stress/v1` document.
    pub fn to_json(&self) -> Json {
        let cells = self.cells.iter().map(|c| {
            Json::obj([
                ("workload", c.workload.as_str().into()),
                ("deployment", c.deployment.as_str().into()),
                ("threads", c.threads.into()),
                ("mode", c.mode.as_str().into()),
                ("ops", c.ops.into()),
                ("errors", c.errors.into()),
                ("elapsed_s", Json::rounded(c.elapsed_s, 3)),
                ("throughput_ops_s", Json::rounded(c.throughput_ops_s, 3)),
                ("p50_us", Json::rounded(c.p50_us, 3)),
                ("p90_us", Json::rounded(c.p90_us, 3)),
                ("p99_us", Json::rounded(c.p99_us, 3)),
                ("p999_us", Json::rounded(c.p999_us, 3)),
                ("max_us", Json::rounded(c.max_us, 3)),
                ("mean_us", Json::rounded(c.mean_us, 3)),
            ])
        });
        let scaling = self.scaling.iter().map(|s| {
            Json::obj([
                ("workload", s.workload.as_str().into()),
                ("deployment", s.deployment.as_str().into()),
                ("threads_lo", s.threads_lo.into()),
                ("threads_hi", s.threads_hi.into()),
                ("ratio", Json::rounded(s.ratio, 3)),
            ])
        });
        Json::obj([
            ("schema", SCHEMA.into()),
            ("sf", Json::rounded(self.sf, 3)),
            ("thread_counts", Json::Arr(self.thread_counts.iter().map(|&t| t.into()).collect())),
            ("cells", Json::Arr(cells.collect())),
            ("scaling", Json::Arr(scaling.collect())),
        ])
    }
}

/// Renders `report`, writes it to `reports/<file>` at the repository
/// root and prints it and the path. For the report binaries: an I/O
/// error is a panic.
pub fn write_report(file: &str, report: &Json) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../reports");
    std::fs::create_dir_all(dir).expect("create reports dir");
    let path = format!("{dir}/{file}");
    let text = report.render();
    std::fs::write(&path, &text).expect("write report");
    println!("{text}");
    println!("wrote {path}");
}

// ----- JSON values: the one writer and a minimal parser -----------------

/// A JSON value. Objects keep insertion order; numbers are `f64`.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array, if this is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// An object with `members` in the order given.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// `v` rounded to `decimals` places: a report states a measurement
    /// to the precision it means.
    pub fn rounded(v: f64, decimals: i32) -> Json {
        let scale = 10f64.powi(decimals);
        Json::Num((v * scale).round() / scale)
    }

    /// The value as JSON text — the one writer of every `BENCH_*.json`.
    /// Strings go through [`escape_json`], finite numbers print in Rust's
    /// shortest round-trip form and non-finite ones as `null`, object
    /// members keep their order. A nested array or object that holds
    /// only scalars sits on one line; any other container puts each
    /// member on its own line, indented two spaces per level. For a value
    /// whose numbers are finite, `parse_json(&v.render()) == Ok(v)`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => render_str(out, s),
            Json::Arr(items) => {
                render_members(out, depth, ['[', ']'], items.iter().map(|v| (None, v)))
            }
            Json::Obj(members) => render_members(
                out,
                depth,
                ['{', '}'],
                members.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

fn render_str(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&escape_json(s));
    out.push('"');
}

fn render_members<'a>(
    out: &mut String,
    depth: usize,
    [open, close]: [char; 2],
    members: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) {
    let inline = members.len() == 0
        || depth > 0 && members.clone().all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", depth));
    };
    out.push(open);
    for (i, (key, v)) in members.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if !inline {
            newline(out, depth + 1);
        } else if i > 0 {
            out.push(' ');
        }
        if let Some(key) = key {
            render_str(out, key);
            out.push_str(": ");
        }
        v.render_into(out, depth + 1);
    }
    if !inline {
        newline(out, depth);
    }
    out.push(close);
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

/// Counts in a report stay far below 2^53, where `f64` is exact.
macro_rules! json_from_count {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}

json_from_count!(u64, usize, i64);

/// Parses a JSON text. Supports the full value grammar the reports use,
/// including `\uXXXX` escapes; raw control characters inside strings
/// are rejected (RFC 8259 forbids them).
pub fn parse_json(text: &str) -> std::result::Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> std::result::Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> std::result::Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                members.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(
    b: &[u8],
    pos: &mut usize,
    lit: &str,
    v: Json,
) -> std::result::Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> std::result::Result<String, String> {
    expect(b, pos, b'"')?;
    // Accumulate raw UTF-8 bytes and decode once at the closing quote,
    // so multi-byte characters survive (the old byte-at-a-time `as
    // char` push read them as Latin-1).
    let mut out = Vec::new();
    let push_char = |out: &mut Vec<u8>, ch: char| {
        let mut buf = [0u8; 4];
        out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
    };
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".into());
            }
            b'\\' => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                if esc == b'u' {
                    let hex = b
                        .get(*pos + 1..*pos + 5)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .ok_or("truncated \\u escape")?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| format!("invalid \\u escape at byte {}", *pos))?;
                    let ch = char::from_u32(code)
                        .ok_or_else(|| format!("\\u{hex} is not a scalar value"))?;
                    push_char(&mut out, ch);
                    *pos += 5;
                    continue;
                }
                let ch = match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    other => other as char,
                };
                push_char(&mut out, ch);
                *pos += 1;
            }
            c if c < 0x20 => {
                return Err(format!(
                    "raw control character 0x{c:02x} in string at byte {}",
                    *pos
                ));
            }
            c => {
                out.push(c);
                *pos += 1;
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> std::result::Result<Json, String> {
    let start = *pos;
    while *pos < b.len()
        && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cell(dep: &str, threads: usize) -> CellResult {
        CellResult {
            workload: "read_only".into(),
            deployment: dep.into(),
            threads,
            mode: "max".into(),
            ops: 1000,
            errors: 0,
            elapsed_s: 1.0,
            throughput_ops_s: 1000.0,
            p50_us: 10.0,
            p90_us: 20.0,
            p99_us: 30.0,
            p999_us: 40.0,
            max_us: 50.0,
            mean_us: 12.0,
        }
    }

    fn full_report() -> StressReport {
        StressReport {
            sf: 0.002,
            thread_counts: vec![1, 4],
            cells: vec![
                cell("standalone", 1),
                cell("standalone", 4),
                cell("sharded", 1),
                cell("sharded", 4),
            ],
            scaling: vec![Scaling {
                workload: "read_only".into(),
                deployment: "sharded".into(),
                threads_lo: 1,
                threads_hi: 4,
                ratio: 3.1,
            }],
        }
    }

    #[test]
    fn a_full_report_passes_its_checks_and_reads_back() {
        let r = full_report();
        r.check().unwrap();
        let json = r.to_json();
        assert_eq!(parse_json(&json.render()), Ok(json.clone()));
        let Json::Obj(members) = &json else { panic!("not an object") };
        assert_eq!(members[0], ("schema".to_owned(), Json::from(SCHEMA)));
    }

    #[test]
    fn parser_handles_nested_values() {
        let v = parse_json(r#"{"a": [1, 2.5, "x", true, null], "b": {"c": -3e2}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 5);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_num(), Some(-300.0));
    }

    #[test]
    fn parser_rejects_malformed() {
        assert!(parse_json("{").is_err());
        assert!(parse_json(r#"{"a": }"#).is_err());
        assert!(parse_json("[1, 2] trailing").is_err());
    }

    #[test]
    fn check_rejects_missing_deployment() {
        let mut r = full_report();
        r.cells.retain(|c| c.deployment != "sharded");
        let err = r.check().unwrap_err();
        assert!(err.contains("sharded"), "{err}");
    }

    #[test]
    fn check_rejects_single_thread_count() {
        let mut r = full_report();
        r.cells.retain(|c| c.deployment != "standalone" || c.threads == 1);
        let err = r.check().unwrap_err();
        assert!(err.contains("thread counts"), "{err}");
    }

    #[test]
    fn check_rejects_unordered_percentiles() {
        let mut r = full_report();
        r.cells[0].p99_us = 5.0; // below p90
        let err = r.check().unwrap_err();
        assert!(err.contains("out of order"), "{err}");
    }

    #[test]
    fn control_characters_round_trip() {
        let mut r = full_report();
        let nasty = "a\nb\tc\rd\u{1}e\u{1f}f\"g\\h";
        for c in &mut r.cells {
            c.workload = nasty.to_owned();
        }
        for s in &mut r.scaling {
            s.workload = nasty.to_owned();
        }
        let parsed = parse_json(&r.to_json().render()).unwrap();
        let cell0 = &parsed.get("cells").unwrap().as_arr().unwrap()[0];
        assert_eq!(cell0.get("workload").and_then(Json::as_str), Some(nasty));
    }

    #[test]
    fn render_puts_scalar_only_containers_on_one_line() {
        let v = Json::obj([
            ("a", 1u64.into()),
            ("b", Json::obj([("c", "x".into()), ("t", Json::rounded(0.013_052_4, 6))])),
            ("d", Json::Arr(vec![Json::obj([("e", 0.5.into())]), Json::Arr(vec![])])),
            ("f", Json::obj([])),
        ]);
        assert_eq!(
            v.render(),
            "{\n  \"a\": 1,\n  \"b\": {\"c\": \"x\", \"t\": 0.013052},\n  \"d\": [\n    \
             {\"e\": 0.5},\n    []\n  ],\n  \"f\": {}\n}\n"
        );
        assert_eq!(Json::obj([]).render(), "{}\n");
    }

    #[test]
    fn non_finite_numbers_are_written_as_null() {
        let v = Json::Arr(vec![f64::NAN.into(), f64::INFINITY.into(), f64::NEG_INFINITY.into()]);
        assert_eq!(v.render(), "[\n  null,\n  null,\n  null\n]\n");
        assert_eq!(Json::rounded(f64::NAN, 3).render(), "null\n");
    }

    /// Characters that must be escaped, ASCII, the BMP and beyond it.
    fn arb_string() -> impl Strategy<Value = String> {
        let ch = prop_oneof![
            (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
            Just('"'),
            Just('\\'),
            (0x20u32..0x80).prop_map(|c| char::from_u32(c).unwrap()),
            any::<char>(),
            (0x1_0000u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap()),
        ];
        prop::collection::vec(ch, 0..8).prop_map(|cs| cs.into_iter().collect())
    }

    fn arb_json() -> impl Strategy<Value = Json> {
        let leaf = prop_oneof![
            Just(Json::Null),
            any::<bool>().prop_map(Json::Bool),
            any::<f64>().prop_map(|n| Json::Num(if n.is_finite() { n } else { 0.0 })),
            any::<i64>().prop_map(|n| Json::Num(n as f64)),
            (0.0..1.0e3).prop_map(Json::Num),
            arb_string().prop_map(Json::Str),
        ];
        leaf.prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..4).prop_map(Json::Arr),
                prop::collection::vec((arb_string(), inner), 0..4).prop_map(Json::Obj),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn render_then_parse_is_the_identity(v in arb_json()) {
            prop_assert_eq!(parse_json(&v.render()), Ok(v));
        }
    }

    #[test]
    fn parser_rejects_raw_control_characters() {
        let err = parse_json("{\"a\": \"x\u{1}y\"}").unwrap_err();
        assert!(err.contains("control character"), "{err}");
        assert!(parse_json("{\"a\nb\": 1}").is_err(), "raw newline in key");
    }

    #[test]
    fn parser_decodes_unicode_escapes() {
        let v = parse_json("{\"a\": \"\\u0041\\u001f\\u00e9\u{00e9}\"}").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_str), Some("A\u{1f}\u{e9}\u{e9}"));
        assert!(parse_json(r#""\ud800""#).is_err(), "lone surrogate");
        assert!(parse_json(r#""\u12""#).is_err(), "truncated escape");
    }

    #[test]
    fn escape_json_escapes_exactly_the_must_escape_set() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("\n\t\r"), "\\n\\t\\r");
        assert_eq!(escape_json("\u{0}\u{1f}"), "\\u0000\\u001f");
        assert_eq!(escape_json("é→"), "é→"); // non-ASCII passes through
    }
}
