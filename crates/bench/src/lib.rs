//! Shared harness for the report binaries and criterion benches: scale
//! factors, the paper's published numbers (for side-by-side printing),
//! shape checks, and the timing rule, header and gate of the
//! `BENCH_*.json` bench reports.
//!
//! Absolute runtimes are not expected to match the paper — its substrate
//! was a 5-node EC2 cluster with EBS disks, ours is an in-process
//! simulator — but the *shape* must hold; [`ShapeCheck`] encodes each of
//! the Section 4.3 observations as an assertion over measured data.

pub mod figures;

use doclite_core::experiment::QueryTiming;
use doclite_stress::report::Json;
use doclite_tpcds::QueryId;
use std::time::{Duration, Instant};

/// Scale factor standing in for the paper's 1 GB dataset
/// (`DOCLITE_SF_SMALL`, default 0.01 — `store_sales` ≈ 28.8k rows).
pub fn sf_small() -> f64 {
    env_f64("DOCLITE_SF_SMALL", 0.01)
}

/// Scale factor standing in for the paper's 5 GB dataset
/// (`DOCLITE_SF_LARGE`, default 0.05 — the paper's 1:5 ratio).
pub fn sf_large() -> f64 {
    env_f64("DOCLITE_SF_LARGE", 0.05)
}

/// Timed runs per query (`DOCLITE_RUNS`, default 5 as in the thesis).
pub fn runs() -> usize {
    env_f64("DOCLITE_RUNS", 5.0) as usize
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Best-of-`n` wall time of `f` in seconds (the thesis reports best-of-5
/// with warm caches; the bench bins' smoke modes take fewer).
pub fn best_of<R>(n: usize, f: impl FnMut() -> R) -> f64 {
    best_of_after(n, || {}, f)
}

/// [`best_of`] with `prep` run, untimed, before each repetition.
pub fn best_of_after<R>(n: usize, mut prep: impl FnMut(), mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..n {
        prep();
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// The members every bench report opens with: its schema tag, the
/// configuration it ran (`smoke` or `full`), and the cores it had.
pub fn report_header(schema: &str, smoke: bool) -> Vec<(String, Json)> {
    vec![
        ("schema".into(), schema.into()),
        ("mode".into(), (if smoke { "smoke" } else { "full" }).into()),
        ("available_parallelism".into(), doclite_docstore::parallel_workers().into()),
    ]
}

/// The gate on a bench report's numbers: fails unless each named timing
/// or speedup of `section` is positive and finite.
pub fn check_positive(section: &str, values: &[(&str, f64)]) -> Result<(), String> {
    match values.iter().find(|(_, v)| !(v.is_finite() && *v > 0.0)) {
        Some((key, v)) => Err(format!("'{section}.{key}' must be positive, got {v}")),
        None => Ok(()),
    }
}

/// The paper's Table 4.5 (query execution runtimes, seconds), rows =
/// experiments 1–6, columns = Q7, Q21, Q46, Q50.
pub const PAPER_TABLE_4_5: [[f64; 4]; 6] = [
    [15.71, 33.77, 198.00, 26.08],  // Exp 1: 9.94GB normalized sharded
    [7.30, 26.84, 63.93, 52.61],    // Exp 2: 9.94GB normalized stand-alone
    [0.62, 0.17, 3.43, 1.25],       // Exp 3: 9.94GB denormalized stand-alone
    [37.02, 159.00, 665.00, 117.00],// Exp 4: 41.93GB normalized sharded
    [22.55, 107.00, 376.00, 276.00],// Exp 5: 41.93GB normalized stand-alone
    [2.71, 0.52, 11.12, 5.12],      // Exp 6: 41.93GB denormalized stand-alone
];

/// The paper's Table 4.4 (query selectivity, MB), rows = {9.94GB,
/// 41.93GB}, columns = Q7, Q21, Q46, Q50.
pub const PAPER_TABLE_4_4: [[f64; 4]; 2] = [
    [0.60, 0.34, 2.48, 0.003],
    [2.28, 1.55, 11.84, 0.003],
];

/// The paper's total data load times (Fig 4.9): 47m20.14s and
/// 3h31m53.72s.
pub const PAPER_TOTAL_LOAD_SECS: [f64; 2] = [2840.14, 12_713.72];

/// One shape observation from thesis Section 4.3, checkable against
/// measured timings.
#[derive(Clone, Debug)]
pub struct ShapeCheck {
    pub description: String,
    pub holds: bool,
}

fn best(timings: &[QueryTiming], q: QueryId) -> Duration {
    timings
        .iter()
        .find(|t| t.query == q)
        .map(|t| t.best)
        .expect("query timed")
}

/// `a` beats (or effectively ties) `b`, within a noise floor of
/// 15 ms + 15% — several cells are tens of milliseconds at reproduction
/// scale, where scheduler jitter on a single-core box exceeds the true
/// difference (the orderings are decisive at the larger scale).
fn beats(a: Duration, b: Duration) -> bool {
    a <= b.mul_f64(1.15) + Duration::from_millis(15)
}

/// Evaluates the Section 4.3 observations over the measured matrix
/// (indexed by experiment id 1–6).
pub fn shape_checks(measured: &[(u8, Vec<QueryTiming>)]) -> Vec<ShapeCheck> {
    let get = |id: u8| -> &Vec<QueryTiming> {
        &measured.iter().find(|(i, _)| *i == id).expect("experiment present").1
    };
    let mut checks = Vec::new();

    // (i) Denormalized stand-alone is fastest per scale, for every query.
    for (denorm, others, scale) in [(3u8, [1u8, 2u8], "small"), (6, [4, 5], "large")] {
        for q in QueryId::ALL {
            let d = best(get(denorm), q);
            let holds = others.iter().all(|&o| beats(d, best(get(o), q)));
            checks.push(ShapeCheck {
                description: format!(
                    "{q} ({scale}): denormalized (exp {denorm}) fastest"
                ),
                holds,
            });
        }
    }

    // (ii) Normalized stand-alone beats normalized sharded for Q7/21/46.
    for (sharded, standalone, scale) in [(1u8, 2u8, "small"), (4, 5, "large")] {
        for q in [QueryId::Q7, QueryId::Q21, QueryId::Q46] {
            checks.push(ShapeCheck {
                description: format!(
                    "{q} ({scale}): stand-alone (exp {standalone}) beats sharded (exp {sharded})"
                ),
                holds: beats(best(get(standalone), q), best(get(sharded), q)),
            });
        }
    }

    // (iii) Q50 inverts: sharded beats stand-alone (shard-key predicate).
    for (sharded, standalone, scale) in [(1u8, 2u8, "small"), (4, 5, "large")] {
        checks.push(ShapeCheck {
            description: format!(
                "Query 50 ({scale}): sharded (exp {sharded}) beats stand-alone (exp {standalone})"
            ),
            holds: beats(
                best(get(sharded), QueryId::Q50),
                best(get(standalone), QueryId::Q50),
            ),
        });
    }
    checks
}

/// Prints shape checks with ✓/✗ markers; returns the failure count.
pub fn print_shape_checks(checks: &[ShapeCheck]) -> usize {
    let mut failures = 0;
    println!("shape checks (thesis Section 4.3 observations):");
    for c in checks {
        let mark = if c.holds { "✓" } else { "✗" };
        if !c.holds {
            failures += 1;
        }
        println!("  {mark} {}", c.description);
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    // The index walks columns across several rows at once; iterator
    // zips would obscure the row/column structure.
    #[allow(clippy::needless_range_loop)]
    fn paper_constants_have_expected_shape() {
        // The paper's own data satisfies its own observations.
        for q in 0..4 {
            assert!(PAPER_TABLE_4_5[2][q] < PAPER_TABLE_4_5[0][q]);
            assert!(PAPER_TABLE_4_5[2][q] < PAPER_TABLE_4_5[1][q]);
            assert!(PAPER_TABLE_4_5[5][q] < PAPER_TABLE_4_5[3][q]);
            assert!(PAPER_TABLE_4_5[5][q] < PAPER_TABLE_4_5[4][q]);
        }
        for q in 0..3 {
            assert!(PAPER_TABLE_4_5[1][q] < PAPER_TABLE_4_5[0][q]);
            assert!(PAPER_TABLE_4_5[4][q] < PAPER_TABLE_4_5[3][q]);
        }
        // Q50 inversion.
        assert!(PAPER_TABLE_4_5[0][3] < PAPER_TABLE_4_5[1][3]);
        assert!(PAPER_TABLE_4_5[3][3] < PAPER_TABLE_4_5[4][3]);
    }

    #[test]
    fn check_positive_rejects_zero_negative_and_non_finite_numbers() {
        assert!(check_positive("s", &[("a_s", 0.1), ("speedup", 2.0)]).is_ok());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = check_positive("s", &[("a_s", 0.1), ("b_s", bad)]).unwrap_err();
            assert!(err.contains("'s.b_s'"), "{err}");
        }
    }

    #[test]
    fn scale_factors_keep_paper_ratio_by_default() {
        // Don't read env here (tests may run with overrides); check the
        // defaults directly.
        assert!((0.05 / 0.01 - 5.0f64).abs() < 1e-9);
    }
}
