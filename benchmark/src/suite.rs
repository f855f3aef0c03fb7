//! Checks over the saved outputs of several workload runs: metric names
//! against `BENCHMARK.json`, answers across deployments, and run-to-run
//! spread against the bounds.

use crate::stats::{median, summarize as summary_of, Summary};
use doclite_stress::report::{parse_json, Json};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// One saved run: the `workload name value unit` lines and the result.
struct RunOutput {
    path: String,
    workload: String,
    /// Note and metric lines: name → (value text, unit).
    lines: BTreeMap<String, (String, String)>,
    correct: bool,
    /// The result object's metrics, in order: (name, value, unit).
    metrics: Vec<(String, f64, String)>,
}

fn read_run(path: &str) -> Result<RunOutput, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let last = text.lines().last().ok_or(format!("{path}: empty"))?;
    let result = parse_json(last).map_err(|e| format!("{path}: last line is not JSON: {e}"))?;
    let Some(Json::Obj(members)) = result.get("metrics") else {
        return Err(format!("{path}: the result has no metrics object"));
    };
    let metrics = members
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_num);
            let unit = m.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(v), Some(u)) => Ok((name.clone(), v, u.to_owned())),
                _ => Err(format!("{path}: {name} lacks a value or a unit")),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut lines = BTreeMap::new();
    let mut workload = String::new();
    for line in text.lines().filter(|l| !l.starts_with('{')) {
        let mut words = line.splitn(3, ' ');
        let (Some(w), Some(name), Some(rest)) = (words.next(), words.next(), words.next()) else {
            continue;
        };
        workload = w.to_owned();
        let (value, unit) = rest.rsplit_once(' ').unwrap_or((rest, ""));
        lines.insert(name.to_owned(), (value.to_owned(), unit.to_owned()));
    }
    Ok(RunOutput {
        path: path.to_owned(),
        workload,
        lines,
        correct: result.get("correct") == Some(&Json::Bool(true)),
        metrics,
    })
}

/// `(name, unit, better, bound)` of every metric under `key`.
type Declared = Vec<(String, String, String, f64)>;

fn declared(manifest: &Json, key: &str) -> Result<Declared, String> {
    manifest
        .get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json has no {key}"))?
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_owned);
            match (text("name"), text("unit"), text("better")) {
                (Some(n), Some(u), Some(b)) => Ok((
                    n,
                    u,
                    b,
                    m.get("bound").and_then(Json::as_num).unwrap_or(0.0),
                )),
                _ => Err(format!(
                    "BENCHMARK.json: a {key} entry lacks name, unit or better"
                )),
            }
        })
        .collect()
}

fn read_manifest(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn verdict(problems: Vec<String>, ok: &str) -> Result<ExitCode, String> {
    if problems.is_empty() {
        println!("{ok}");
        return Ok(ExitCode::SUCCESS);
    }
    for p in &problems {
        println!("FAIL {p}");
    }
    Ok(ExitCode::FAILURE)
}

/// Every run emitted exactly the `end_to_end` or exactly the `per_layer`
/// names of `BENCHMARK.json`, with its units, and every workload of the
/// manifest appears.
pub fn check_names(args: &[String]) -> Result<ExitCode, String> {
    let (manifest_path, outputs) = args
        .split_first()
        .ok_or("check-names needs BENCHMARK.json")?;
    let manifest = read_manifest(manifest_path)?;
    let lists = [
        declared(&manifest, "end_to_end")?,
        declared(&manifest, "per_layer")?,
    ];
    let mut problems = Vec::new();
    let mut seen = Vec::new();
    for path in outputs {
        let run = read_run(path)?;
        seen.push(run.workload.clone());
        let emitted: Vec<(&str, &str)> = run
            .metrics
            .iter()
            .map(|(n, _, u)| (n.as_str(), u.as_str()))
            .collect();
        let matches = |list: &Declared| {
            list.iter()
                .map(|(n, u, _, _)| (n.as_str(), u.as_str()))
                .eq(emitted.iter().copied())
        };
        if !lists.iter().any(matches) {
            problems.push(format!(
                "{path}: metric names or units differ from BENCHMARK.json"
            ));
        }
        if !run.correct {
            problems.push(format!("{path}: the run reports itself incorrect"));
        }
    }
    for w in manifest
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or_default()
    {
        let name = w.get("name").and_then(Json::as_str).unwrap_or_default();
        if !seen.iter().any(|s| s == name) {
            problems.push(format!("workload {name} of BENCHMARK.json was not run"));
        }
    }
    verdict(problems, "names and units match BENCHMARK.json")
}

/// Every run is correct, and for one seed `norm_standalone` and
/// `norm_sharded` computed the same answers.
pub fn check_suite(outputs: &[String]) -> Result<ExitCode, String> {
    let runs = outputs
        .iter()
        .map(|p| read_run(p))
        .collect::<Result<Vec<_>, _>>()?;
    let mut problems: Vec<String> = runs
        .iter()
        .filter(|r| !r.correct)
        .map(|r| format!("{}: the run reports itself incorrect", r.path))
        .collect();
    let of = |name: &'static str| runs.iter().filter(move |r| r.workload == name);
    for a in of("norm_standalone") {
        for b in of("norm_sharded").filter(|b| b.lines.get("seed") == a.lines.get("seed")) {
            for q in crate::metrics::QUERIES {
                let key = format!("fingerprint.{q}");
                if a.lines.get(&key) != b.lines.get(&key) {
                    problems.push(format!("{q}: {} and {} disagree", a.path, b.path));
                }
            }
        }
    }
    verdict(
        problems,
        "all runs correct; stand-alone and sharded answers agree",
    )
}

/// One (workload, end-to-end metric) pair over a set of runs.
struct Spread {
    values: Vec<f64>,
    summary: Summary,
    first_half: f64,
    second_half: f64,
    /// By how much of the first half's median the second half is worse.
    drift: f64,
}

fn spread_of(values: Vec<f64>, higher_is_better: bool) -> Spread {
    let (first, second) = values.split_at(values.len() / 2);
    let (m1, m2) = (median(first), median(second));
    let drift = if higher_is_better {
        (m1 - m2) / m1
    } else {
        (m2 - m1) / m1
    };
    Spread {
        summary: summary_of(&values),
        first_half: m1,
        second_half: m2,
        drift,
        values,
    }
}

/// Per (workload, end-to-end metric): median, quartiles and spread over
/// the runs given, and the medians of the first and second half of them.
/// Fails if a spread exceeds its bound or the second half is worse than
/// the first by more than the bound — the acceptance check, on one set.
/// With a leading `--json PATH` the recording is also written there.
pub fn summarize(args: &[String]) -> Result<ExitCode, String> {
    let (json_path, args) = match args {
        [flag, path, rest @ ..] if flag == "--json" => (Some(path), rest),
        _ => (None, args),
    };
    let (manifest_path, outputs) = args.split_first().ok_or("summarize needs BENCHMARK.json")?;
    let bounds = declared(&read_manifest(manifest_path)?, "end_to_end")?;
    let mut by_workload: BTreeMap<String, Vec<RunOutput>> = BTreeMap::new();
    for path in outputs {
        let run = read_run(path)?;
        by_workload
            .entry(run.workload.clone())
            .or_default()
            .push(run);
    }
    let mut problems = Vec::new();
    let mut recorded = Vec::new();
    println!("workload metric n median q1 q3 spread bound first_half second_half unit");
    for (workload, runs) in &by_workload {
        for (name, unit, better, bound) in &bounds {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.1))
                .collect();
            if values.len() < 2 {
                continue;
            }
            let sp = spread_of(values, better == "higher");
            let s = sp.summary;
            println!(
                "{workload} {name} {} {} {} {} {:.4} {bound} {} {} {unit}",
                s.n,
                s.median,
                s.q1,
                s.q3,
                s.spread(),
                sp.first_half,
                sp.second_half
            );
            // setup_s is exempt from the spread rule, not from the drift rule.
            if name != "setup_s" && s.spread() > *bound {
                problems.push(format!(
                    "{workload} {name}: spread {:.4} > bound {bound}",
                    s.spread()
                ));
            }
            if sp.drift > *bound {
                problems.push(format!(
                    "{workload} {name}: second half worse than first by {:.4} > {bound}",
                    sp.drift
                ));
            }
            let values: Vec<String> = sp.values.iter().map(f64::to_string).collect();
            recorded.push(format!(
                "    {{\"workload\": \"{workload}\", \"metric\": \"{name}\", \"unit\": \"{unit}\", \
                 \"bound\": {bound}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"spread\": {:.4}, \
                 \"first_half_median\": {}, \"second_half_median\": {}, \"values\": [{}]}}",
                s.median,
                s.q1,
                s.q3,
                s.spread(),
                sp.first_half,
                sp.second_half,
                values.join(", ")
            ));
        }
    }
    if let Some(path) = json_path {
        let text = recording(&by_workload, &recorded);
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    }
    verdict(problems, "every spread and drift is within its bound")
}

/// The recording `BASELINE.json` holds: the environment of the first run,
/// each workload's settings and per-run counts, and the summaries.
fn recording(by_workload: &BTreeMap<String, Vec<RunOutput>>, summaries: &[String]) -> String {
    let environment = by_workload
        .values()
        .flatten()
        .find_map(|r| r.lines.get("environment"))
        .map_or("{}", |(json, _)| json.as_str());
    let settings: Vec<String> = by_workload
        .iter()
        .map(|(workload, runs)| {
            let note = |run: &RunOutput, key: &str| {
                run.lines.get(key).map_or(String::new(), |(v, _)| v.clone())
            };
            let per_run = |key: &str| {
                let values: Vec<String> = runs.iter().map(|r| note(r, key)).collect();
                values.join(", ")
            };
            // The loop of a matrix workload is counted in iterations, the
            // OLTP mix in operations.
            let work = if runs[0].lines.contains_key("timed_iterations") {
                "timed_iterations"
            } else {
                "measured_ops"
            };
            format!(
                "    {{\"workload\": \"{workload}\", \"sf\": {}, \"clients\": \"{}\", \
                 \"sync_policy\": \"{}\", \"seeds\": [{}], \"{work}\": [{}]}}",
                note(&runs[0], "sf"),
                note(&runs[0], "clients"),
                note(&runs[0], "sync_policy"),
                per_run("seed"),
                per_run(work)
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"doclite-benchmark-baseline/v1\",\n  \"environment\": {environment},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ]\n}}\n",
        settings.join(",\n"),
        summaries.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_is_the_share_by_which_the_second_half_is_worse() {
        let lower = spread_of(vec![10.0, 10.0, 12.0, 12.0], false);
        assert!((lower.drift - 0.2).abs() < 1e-12);
        let higher = spread_of(vec![10.0, 10.0, 12.0, 12.0], true);
        assert!(
            (higher.drift + 0.2).abs() < 1e-12,
            "a higher-is-better metric improved"
        );
        assert_eq!((lower.first_half, lower.second_half), (10.0, 12.0));
    }

    #[test]
    fn a_saved_run_parses_into_lines_and_metrics() {
        let dir =
            std::env::temp_dir().join(format!("doclite-benchmark-suite-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.log");
        let text = "w environment {\"git_rev\": \"abc\", \"seconds\": 1} json\n\
                    w clients 2 closed-loop, max throughput \n\
                    w seed 7 seed\n\
                    w q7_ms 1.5 ms\n\
                    {\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                    {\"q7_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}\n";
        std::fs::write(&path, text).unwrap();
        let run = read_run(path.to_str().unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(run.correct);
        assert_eq!(run.workload, "w");
        assert_eq!(
            run.metrics,
            vec![("q7_ms".to_owned(), 1.5, "ms".to_owned())]
        );
        assert_eq!(run.lines["seed"], ("7".to_owned(), "seed".to_owned()));
        assert_eq!(
            run.lines["environment"].0,
            "{\"git_rev\": \"abc\", \"seconds\": 1}"
        );
        assert_eq!(run.lines["clients"].0, "2 closed-loop, max throughput");
    }
}
