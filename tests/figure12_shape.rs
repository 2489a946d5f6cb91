//! Figure 12's shape as an invariant: a rank-aware plan's cost grows with
//! `k`, not with the table size, while the traditional plan reads every
//! table whole.
//!
//! The measure is `tuples_scanned` (tuples the plan's scans emitted), a
//! count that does not depend on the machine, the thread count or timing,
//! so the paper's headline claim fails a test here, not a benchmark, if a
//! change quietly turns the rank-aware plan into a full scan.

use ranksql::workload::SyntheticConfig;
use ranksql_bench::{run_fig12a, run_fig12d, ExperimentSeries, PaperPlan};

/// The scaled-down base configuration `paper-experiments` sweeps from.
fn base() -> SyntheticConfig {
    SyntheticConfig {
        table_size: 5_000,
        join_selectivity: 0.002,
        predicate_cost: 1,
        k: 10,
        ..SyntheticConfig::default()
    }
}

/// Tuples scanned by `plan` at swept value `x`.
fn scanned(series: &ExperimentSeries, plan: PaperPlan, x: usize) -> u64 {
    let row = series
        .rows
        .iter()
        .find(|m| m.plan == plan.name() && m.x == x as f64)
        .unwrap_or_else(|| panic!("{} has no {} row at {x}", series.id, plan.name()));
    row.tuples_scanned
}

/// Plan 2 (rank-scans, µ and HRJN throughout) at `k = 10` scans 4 791 of
/// 3 × 5 000 tuples and 5 548 of 3 × 20 000: the table grew 4×, the depth
/// 1.16×, a growth exponent of log 1.16 / log 4 ≈ 0.11 in the table size.
/// The bound asserted is 1.5×, an exponent below 0.29; pulling round-robin
/// instead of from the binding side grew 1.92× (exponent 0.47).
#[test]
fn rank_aware_depth_is_sublinear_in_the_table_size() {
    let d = run_fig12d(&base(), &[5_000, 20_000]).unwrap();
    let (small, large) = (
        scanned(&d, PaperPlan::Plan2, 5_000),
        scanned(&d, PaperPlan::Plan2, 20_000),
    );
    assert!(
        (large as f64) < 1.5 * small as f64,
        "4× the table grew plan 2's depth {small} → {large}"
    );
}

/// Plan 2's depth rises with `k` (1 511 / 4 791 / 8 053 at k = 1 / 10 /
/// 100), and plan 1, the materialise-then-sort baseline, scans all three
/// tables exactly once whatever `k` is.
#[test]
fn rank_aware_depth_grows_with_k_and_traditional_scans_everything() {
    let cfg = base();
    let ks = [1, 10, 100];
    let a = run_fig12a(&cfg, &ks).unwrap();
    let depths: Vec<u64> = ks
        .iter()
        .map(|&k| scanned(&a, PaperPlan::Plan2, k))
        .collect();
    assert!(
        depths.windows(2).all(|w| w[0] < w[1]),
        "plan 2 depth over k = {ks:?}: {depths:?}"
    );
    for k in ks {
        assert_eq!(
            scanned(&a, PaperPlan::Plan1, k),
            3 * cfg.table_size as u64,
            "plan 1 at k = {k}"
        );
    }
}
