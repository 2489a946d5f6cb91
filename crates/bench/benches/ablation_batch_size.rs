//! Ablation: how the configured execution batch size affects wall-clock on
//! the membership-heavy plan shapes (scan, scan+filter, hash join) and on a
//! rank-aware top-k plan, whose operators draw one input tuple at a time
//! whatever the batch size.
//!
//! Batch size 1 is tuple-at-a-time execution (the paper's `GetNext`); larger
//! sizes amortize per-pull dispatch, metric updates and budget accounting.
//! The membership plans are expected to improve steeply up to a few hundred
//! tuples per batch and flatten after; the rank-aware plan is expected to be
//! insensitive — its cost is dominated by ranking queues and probe
//! scheduling, which the batch size does not touch.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ranksql_algebra::{JoinAlgorithm, LogicalPlan, PhysicalPlan};
use ranksql_executor::{build_operator, drain_batched, ExecutionContext};
use ranksql_expr::{BoolExpr, CompareOp, ScalarExpr};
use ranksql_workload::{SyntheticConfig, SyntheticWorkload};

const BATCH_SIZES: [usize; 6] = [1, 16, 64, 256, 1024, 4096];

fn bench_batch_size(c: &mut Criterion) {
    let config = SyntheticConfig {
        table_size: 5_000,
        join_selectivity: 0.002,
        predicate_cost: 1,
        k: 10,
        ..SyntheticConfig::default()
    };
    let workload = SyntheticWorkload::generate(config).expect("workload");
    let catalog = &workload.catalog;
    let a = catalog.table("A").expect("A");
    let b = catalog.table("B").expect("B");
    let ranking = Arc::clone(&workload.query.ranking);

    let plans = [
        ("seq_scan", LogicalPlan::scan(&a)),
        (
            "filter",
            LogicalPlan::scan(&a).select(BoolExpr::compare(
                ScalarExpr::col("A.p1"),
                CompareOp::GtEq,
                ScalarExpr::lit(0.25),
            )),
        ),
        (
            "hash_join",
            LogicalPlan::scan(&a).join(
                LogicalPlan::scan(&b),
                Some(BoolExpr::col_eq_col("A.jc1", "B.jc1")),
                JoinAlgorithm::Hash,
            ),
        ),
        (
            "hrjn_topk",
            LogicalPlan::rank_scan(&a, 0)
                .rank(1)
                .join(
                    LogicalPlan::rank_scan(&b, 2).rank(3),
                    Some(BoolExpr::col_eq_col("A.jc1", "B.jc1")),
                    JoinAlgorithm::HashRankJoin,
                )
                .limit(workload.query.k),
        ),
    ];

    for (name, logical) in plans {
        let physical = PhysicalPlan::from_logical(&logical).expect("lowering");
        let mut group = c.benchmark_group(format!("ablation_batch_size/{name}"));
        group.sample_size(10);
        group.measurement_time(std::time::Duration::from_millis(100));
        for batch_size in BATCH_SIZES {
            group.bench_with_input(
                BenchmarkId::from_parameter(batch_size),
                &batch_size,
                |bench, &batch_size| {
                    bench.iter(|| {
                        let exec =
                            ExecutionContext::new(Arc::clone(&ranking)).with_batch_size(batch_size);
                        let mut root = build_operator(&physical, catalog, &exec).expect("build");
                        black_box(
                            drain_batched(root.as_mut(), batch_size)
                                .expect("drain")
                                .len(),
                        )
                    })
                },
            );
        }
        group.finish();
    }
}

criterion_group!(benches, bench_batch_size);
criterion_main!(benches);
