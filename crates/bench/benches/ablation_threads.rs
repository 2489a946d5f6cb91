//! Ablation: morsel-driven parallel execution vs worker-thread count.
//!
//! The measured plan is the acceptance workload of the parallel engine: a
//! filtered sequential scan feeding a hash join, fully drained through a
//! fused top-k sort — `SortLimit(HashJoin(σ(SeqScan A), SeqScan B))`.  The
//! plan is the same at every thread count; above one thread the executor
//! runs the top-k per morsel of `A` and merges the runs, and drains the
//! build side `B` per morsel too.  A second plan has `paperq-sort`'s shape,
//! `SortLimit(HashJoin(σA, HashJoin(σB, C)))` on Q's data at 5 000 rows a
//! table: its build side `σB ⋈ C` is held factored — `σB` drained per
//! morsel of `B`, `C` per morsel of `C`, each `σB` row linked to its pairs
//! in `C` — so the inner join builds none of its pairs.
//!
//! Two claims are asserted here, every run, before the timed group (which
//! is preceded by a line per plan with the join results built per thread
//! count, and for the second plan the inner join's beside the outer's):
//!
//! 1. **Determinism**: each plan's top-k output is byte-identical across
//!    all measured thread counts, and only one thread runs no morsels.
//! 2. **Two workers are not slower than one**: on a machine with at least
//!    two hardware threads, the median of five executions of the first
//!    plan at `threads=2` must not exceed the median of five at
//!    `threads=1`, the two alternating within this run — a ratio, so no
//!    absolute time is pinned.
//!
//! The timed group then *measures* the first plan at threads 1/2/4/8.  No
//! scaling law is promised: the probe side splits into 1024-row morsels
//! that workers claim whole, morsel 0 first and alone, then waves of 8, 16,
//! … morsels, while a build side splits into a power of two (at least
//! four) of equal morsels whatever the thread count; the curve flattens at
//! the machine's core count.  The `threads=1` row is the serial baseline.

use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ranksql_algebra::{JoinAlgorithm, LogicalPlan, PhysicalPlan};
use ranksql_common::BitSet64;
use ranksql_executor::{execute_physical_plan, ExecutionContext, ExecutionResult};
use ranksql_expr::{BoolExpr, CompareOp, RankingContext, ScalarExpr};
use ranksql_workload::{SyntheticConfig, SyntheticWorkload};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn bench_threads(c: &mut Criterion) {
    let config = SyntheticConfig {
        table_size: 30_000,
        join_selectivity: 0.001,
        predicate_cost: 2,
        k: 10,
        ..SyntheticConfig::default()
    };
    let workload = SyntheticWorkload::generate(config).expect("workload");
    let catalog = &workload.catalog;
    let a = catalog.table("A").expect("A");
    let b = catalog.table("B").expect("B");
    let ranking = Arc::clone(&workload.query.ranking);
    // Predicates f1..f4 live on A and B; f5 (on C) stays unevaluated and
    // contributes its maximum to every upper bound uniformly.
    let preds = BitSet64::all(4);

    // Serial plan: filtered seq-scan ⋈ seq-scan, fused top-k sort on top.
    let logical = LogicalPlan::scan(&a)
        .select(BoolExpr::compare(
            ScalarExpr::col("A.b"),
            CompareOp::Eq,
            ScalarExpr::lit(true),
        ))
        .join(
            LogicalPlan::scan(&b),
            Some(BoolExpr::col_eq_col("A.jc1", "B.jc1")),
            JoinAlgorithm::Hash,
        )
        .sort(preds)
        .limit(workload.query.k);
    let plan = PhysicalPlan::from_logical(&logical).expect("lowering");
    let run = |threads: usize| {
        let exec = ExecutionContext::new(Arc::clone(&ranking)).with_threads(threads);
        execute_physical_plan(&plan, catalog, &exec).expect("execution")
    };

    // `paperq-sort`'s shape: the build side is `σB ⋈ C`.
    let q = SyntheticWorkload::generate(SyntheticConfig {
        table_size: 5000,
        join_selectivity: 1.0 / 250.0,
        predicate_cost: 0,
        k: 10,
        build_indexes: false,
        ..SyntheticConfig::default()
    })
    .expect("workload");
    let flagged = |rel: &str| {
        let table = q.catalog.table(rel).expect("table");
        LogicalPlan::scan(&table).select(BoolExpr::compare(
            ScalarExpr::col(&format!("{rel}.b")),
            CompareOp::Eq,
            ScalarExpr::lit(true),
        ))
    };
    let table_c = q.catalog.table("C").expect("C");
    let nested = flagged("A")
        .join(
            flagged("B").join(
                LogicalPlan::scan(&table_c),
                Some(BoolExpr::col_eq_col("B.jc2", "C.jc2")),
                JoinAlgorithm::Hash,
            ),
            Some(BoolExpr::col_eq_col("A.jc1", "B.jc1")),
            JoinAlgorithm::Hash,
        )
        .sort(BitSet64::all(5))
        .limit(q.query.k);
    let nested = PhysicalPlan::from_logical(&nested).expect("lowering");
    let run_nested = |threads: usize| {
        let exec = ExecutionContext::new(Arc::clone(&q.query.ranking)).with_threads(threads);
        execute_physical_plan(&nested, &q.catalog, &exec).expect("execution")
    };

    // Determinism gate: byte-identical top-k output for every measured
    // thread count, on both plans.
    let outcome = |result: ExecutionResult, ranking: &RankingContext, threads: usize| {
        assert_eq!(result.morsels > 0, threads > 1, "threads={threads}");
        result
            .tuples
            .iter()
            .map(|t| (t.tuple.id().clone(), ranking.upper_bound(&t.state)))
            .collect::<Vec<_>>()
    };
    let fingerprint = |threads: usize| outcome(run(threads), &ranking, threads);
    let nested_fingerprint = |threads| outcome(run_nested(threads), &q.query.ranking, threads);
    let reference = fingerprint(1);
    assert_eq!(reference.len(), workload.query.k);
    let nested_reference = nested_fingerprint(1);
    assert_eq!(nested_reference.len(), q.query.k);
    for threads in THREAD_COUNTS {
        assert_eq!(
            fingerprint(threads),
            reference,
            "parallel output diverged at {threads} threads"
        );
        assert_eq!(
            nested_fingerprint(threads),
            nested_reference,
            "parallel output of the nested build side diverged at {threads} threads"
        );
    }

    // Scaling gate: within this run, two workers must not lose to one.
    if std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2 {
        let mut samples = [Vec::new(), Vec::new()];
        for _ in 0..5 {
            for (threads, samples) in [1, 2].into_iter().zip(&mut samples) {
                let start = Instant::now();
                black_box(fingerprint(threads));
                samples.push(start.elapsed());
            }
        }
        let [one, two] = samples.map(|mut s| {
            s.sort();
            s[s.len() / 2]
        });
        println!(
            "ablation_threads: median of 5, threads=1 {one:?}, threads=2 {two:?}, ratio {:.2}",
            one.as_secs_f64() / two.as_secs_f64()
        );
        assert!(
            two <= one,
            "two workers ({two:?}) are slower than one ({one:?})"
        );
    }

    // What the hash joins built at each thread count, in post-order (the
    // inner join first): seeded morsels build about what one thread does,
    // and a factored build side builds none of its pairs.
    let built = |result: ExecutionResult, threads: usize| {
        let actuals = result.operator_actuals();
        let joins = actuals.iter().filter(|a| a.label.starts_with("HashJoin"));
        let built: Vec<String> = joins.map(|a| a.built.to_string()).collect();
        format!("threads={threads} {}", built.join(" → "))
    };
    let flat = THREAD_COUNTS.map(|threads| built(run(threads), threads));
    println!("ablation_threads: join results built, {}", flat.join(", "));
    let nested = THREAD_COUNTS.map(|threads| built(run_nested(threads), threads));
    println!(
        "ablation_threads: nested build side, inner → outer join results built, {}",
        nested.join(", ")
    );

    let mut group = c.benchmark_group("ablation_threads/seq_scan_hash_join");
    group.sample_size(10);
    for threads in THREAD_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |bench, &threads| bench.iter(|| black_box(run(threads).tuples.len())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_threads);
criterion_main!(benches);
