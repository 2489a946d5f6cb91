//! Ablation: morsel-driven parallel execution vs worker-thread count.
//!
//! The measured plan is the acceptance workload of the parallel engine: a
//! filtered sequential scan feeding a hash join, fully drained through a
//! fused top-k sort — `SortLimit(HashJoin(σ(SeqScan A), SeqScan B))`.  The
//! plan is the same at every thread count; above one thread the executor
//! runs the top-k per morsel of `A` and merges the runs, and drains the
//! build side `B` per morsel too.
//!
//! Two claims are asserted here, every run, before the timed group (which
//! is preceded by a line with the join results built per thread count):
//!
//! 1. **Determinism**: the top-k output is byte-identical across all
//!    measured thread counts, and only one thread runs no morsels.
//! 2. **Two workers are not slower than one**: on a machine with at least
//!    two hardware threads, the median of five executions at `threads=2`
//!    must not exceed the median of five at `threads=1`, the two
//!    alternating within this run — a ratio, so no absolute time is pinned.
//!
//! The timed group then *measures* threads 1/2/4/8.  No scaling law is
//! promised: the driving table splits into 1024-row morsels that workers
//! claim whole, so the curve is a staircase set by how the morsel count
//! divides among the workers, and it flattens at the machine's core count.
//! The `threads=1` row is the serial baseline.

use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ranksql_algebra::{JoinAlgorithm, LogicalPlan, PhysicalPlan};
use ranksql_common::BitSet64;
use ranksql_executor::{execute_physical_plan, ExecutionContext};
use ranksql_expr::{BoolExpr, CompareOp, ScalarExpr};
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

    // Determinism gate: byte-identical top-k output for every measured
    // thread count.
    let fingerprint = |threads: usize| {
        let result = run(threads);
        assert_eq!(result.morsels > 0, threads > 1, "threads={threads}");
        result
            .tuples
            .iter()
            .map(|t| (t.tuple.id().clone(), ranking.upper_bound(&t.state)))
            .collect::<Vec<_>>()
    };
    let reference = fingerprint(1);
    assert_eq!(reference.len(), workload.query.k);
    for threads in THREAD_COUNTS {
        assert_eq!(
            fingerprint(threads),
            reference,
            "parallel output diverged at {threads} threads"
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

    // What the hash join built at each thread count: seeded morsels build
    // about what one thread does.
    let built = THREAD_COUNTS.map(|threads| {
        let actuals = run(threads).operator_actuals();
        let join = actuals.iter().rfind(|a| a.label.starts_with("HashJoin"));
        format!("threads={threads} {}", join.map_or(0, |a| a.built))
    });
    println!("ablation_threads: join results built, {}", built.join(", "));

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
