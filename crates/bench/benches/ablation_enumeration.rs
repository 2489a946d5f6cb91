//! Ablation (beyond the paper's figures): optimization time and explored
//! plan count of the exhaustive two-dimensional enumeration vs the Figure 10
//! heuristics vs the traditional (ranking-blind) baseline.
//!
//! Every timed iteration builds its own sampling estimator, as a cold
//! `prepare` does: one estimator shared across iterations would answer every
//! iteration after the first from its memo and time memo hits.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ranksql_optimizer::{optimize_traditional, CostModel, DpOptimizer, SamplingEstimator};
use ranksql_workload::{SyntheticConfig, SyntheticWorkload};

fn bench_enumeration(c: &mut Criterion) {
    let config = SyntheticConfig {
        table_size: 1_500,
        join_selectivity: 0.01,
        predicate_cost: 2,
        k: 10,
        ..SyntheticConfig::default()
    };
    let workload = SyntheticWorkload::generate(config).expect("workload");
    let estimator = || {
        Arc::new(
            SamplingEstimator::build(&workload.query, &workload.catalog, 0.02, 1)
                .expect("estimator"),
        )
    };
    let dp = |heuristic: bool| {
        DpOptimizer::new(
            &workload.query,
            &workload.catalog,
            &estimator(),
            CostModel::default(),
            heuristic,
        )
        .optimize()
        .expect("plan")
        .stats
    };

    // Report the explored-plan and sample-operator counts once.
    for (label, heuristic) in [("exhaustive", false), ("heuristic", true)] {
        let stats = dp(heuristic);
        eprintln!(
            "{label}: {} plans considered, {} sample operators run ({} rows), {} signatures",
            stats.plans_considered, stats.operator_runs, stats.sample_rows, stats.signatures_kept
        );
    }

    let mut group = c.benchmark_group("ablation_enumeration");
    group.sample_size(10);
    for (label, heuristic) in [("exhaustive_2d", false), ("heuristic_fig10", true)] {
        group.bench_with_input(
            BenchmarkId::new("dp", label),
            &heuristic,
            |b, &heuristic| b.iter(|| dp(heuristic).plans_considered),
        );
    }
    group.bench_function("traditional_baseline", |b| {
        b.iter(|| {
            optimize_traditional(
                &workload.query,
                &workload.catalog,
                &estimator(),
                &CostModel::default(),
            )
            .expect("plan")
            .stats
            .plans_considered
        })
    });
    group.finish();
}

criterion_group!(benches, bench_enumeration);
criterion_main!(benches);
