//! Micro-benchmarks of the individual rank-aware operators against their
//! traditional counterparts: µ + rank-scan vs sort, HRJN vs hash-join + sort
//! — plus the sequential scan's filter spine and its compare kernel.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ranksql_algebra::{JoinAlgorithm, LogicalPlan, PhysicalPlan};
use ranksql_common::BitSet64;
use ranksql_executor::kernel;
use ranksql_executor::{
    build_operator, drain_batched, execute_physical_plan, execute_query_plan, operator::take,
    ExecutionContext,
};
use ranksql_expr::{BoolExpr, CompareOp, ScalarExpr};
use ranksql_workload::{SyntheticConfig, SyntheticWorkload};

/// The per-row branchy selection loop `kernel::select_f64` replaced: one
/// total-order comparison and one data-dependent branch per row (the
/// historical `ColumnScan` filter code).  Kept here as the measured
/// baseline for the within-run kernel-speedup gate.
fn branchy_select_f64(vals: &[f64], base: u32, sel: &mut Vec<u32>, op: CompareOp, rhs: f64) {
    use std::cmp::Ordering;
    for (i, v) in vals.iter().enumerate() {
        let ord = ranksql_common::cmp_f64_total(*v, rhs);
        let keep = match op {
            CompareOp::Eq => ord == Ordering::Equal,
            CompareOp::NotEq => ord != Ordering::Equal,
            CompareOp::Lt => ord == Ordering::Less,
            CompareOp::LtEq => ord != Ordering::Greater,
            CompareOp::Gt => ord == Ordering::Greater,
            CompareOp::GtEq => ord != Ordering::Less,
        };
        if keep {
            sel.push(base + i as u32);
        }
    }
}

fn bench_operators(c: &mut Criterion) {
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
    let k = workload.query.k;

    // Single-table top-k over A's two predicates.
    let mut single = workload.query.clone();
    single.tables = vec!["A".into()];
    single.bool_predicates = vec![];
    let single_sort = LogicalPlan::scan(&a)
        .sort(BitSet64::from_indices([0, 1]))
        .limit(k);
    let single_rank = LogicalPlan::rank_scan(&a, 0).rank(1).limit(k);

    // Two-table top-k join.
    let mut join_query = workload.query.clone();
    join_query.tables = vec!["A".into(), "B".into()];
    join_query.bool_predicates = vec![BoolExpr::col_eq_col("A.jc1", "B.jc1")];
    let jc1 = BoolExpr::col_eq_col("A.jc1", "B.jc1");
    let join_traditional = LogicalPlan::scan(&a)
        .join(
            LogicalPlan::scan(&b),
            Some(jc1.clone()),
            JoinAlgorithm::Hash,
        )
        .sort(BitSet64::from_indices([0, 1, 2, 3]))
        .limit(k);
    let join_hrjn = LogicalPlan::rank_scan(&a, 0)
        .rank(1)
        .join(
            LogicalPlan::rank_scan(&b, 2).rank(3),
            Some(jc1),
            JoinAlgorithm::HashRankJoin,
        )
        .limit(k);

    let mut group = c.benchmark_group("operators_micro");
    group.sample_size(10);
    for (label, query, plan) in [
        ("single_table/sort", &single, &single_sort),
        ("single_table/rank_scan_mu", &single, &single_rank),
        ("join/hash_join_sort", &join_query, &join_traditional),
        ("join/hrjn", &join_query, &join_hrjn),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), plan, |bench, plan| {
            bench.iter(|| {
                execute_query_plan(query, plan, catalog)
                    .expect("execution")
                    .tuples
                    .len()
            })
        });
    }
    group.finish();

    // ------------------------------------------------------------------
    // The sequential scan's σ spine (`ColumnScan[σ ..]`: typed-vector
    // comparisons, zone maps, tuples materialised only for passing rows),
    // drained at batch size 1024.  The filter keeps ~25 % of the rows.  A
    // second bench adds the top-k spine, where zone-map score pruning
    // additionally skips whole blocks.
    // ------------------------------------------------------------------
    let ranking = Arc::clone(&workload.query.ranking);
    let mut cvr = c.benchmark_group("columnar_vs_row");
    cvr.sample_size(10);
    let filter_spine = LogicalPlan::scan(&a).select(BoolExpr::compare(
        ScalarExpr::col("A.p1"),
        CompareOp::GtEq,
        ScalarExpr::lit(0.75),
    ));
    let columnarize = |logical: &LogicalPlan| {
        let physical = PhysicalPlan::from_logical(logical).expect("lowering");
        ranksql_optimizer::columnarize(physical, &ranksql_optimizer::CostModel::default())
    };
    let col_plan = columnarize(&filter_spine);
    cvr.bench_function("columnar/scan_filter", |bench| {
        bench.iter(|| {
            let exec = ExecutionContext::new(Arc::clone(&ranking)).with_batch_size(1024);
            let mut root = build_operator(&col_plan, catalog, &exec).expect("build");
            black_box(drain_batched(root.as_mut(), 1024).expect("drain").len())
        })
    });
    // Top-k spine: SortLimit over the filtered scan, which zone-prunes
    // blocks against the heap's threshold.
    let col_topk = columnarize(&filter_spine.sort(BitSet64::from_indices([0, 1])).limit(k));
    cvr.bench_function("columnar/scan_filter_topk", |bench| {
        bench.iter(|| {
            let exec = ExecutionContext::new(Arc::clone(&ranking)).with_batch_size(1024);
            execute_physical_plan(&col_topk, catalog, &exec)
                .expect("execution")
                .tuples
                .len()
        })
    });

    // Raw compare kernels: the auto-vectorised branch-free select
    // (`ranksql_executor::kernel`) against the per-row branchy loop it
    // replaced, on data whose pass/fail pattern is unpredictable (the
    // branchy loop's worst case and the common one for real filters).
    // `scripts/bench_compare.py` gates the within-run speedup at >= 1.15x.
    let kernel_vals: Vec<f64> = {
        // SplitMix64-style mix keeps the branch outcome pattern-free.
        let mut state = 0x9E3779B97F4A7C15u64;
        (0..64 * 1024)
            .map(|_| {
                state = state.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                (z ^ (z >> 31)) as f64 / u64::MAX as f64
            })
            .collect()
    };
    let rhs = 0.5; // ~50 % selectivity: maximally unpredictable branches
    let mut branchy_sel: Vec<u32> = Vec::new();
    let mut kernel_sel: Vec<u32> = Vec::new();
    kernel::select_f64(&kernel_vals, 0, &mut kernel_sel, CompareOp::GtEq, rhs);
    branchy_select_f64(&kernel_vals, 0, &mut branchy_sel, CompareOp::GtEq, rhs);
    assert_eq!(branchy_sel, kernel_sel, "kernel and baseline must agree");
    cvr.bench_function("row/kernel_select_f64", |bench| {
        bench.iter(|| {
            let mut sel = Vec::new();
            branchy_select_f64(
                black_box(&kernel_vals),
                0,
                &mut sel,
                CompareOp::GtEq,
                black_box(rhs),
            );
            black_box(sel.len())
        })
    });
    cvr.bench_function("kernel/select_f64", |bench| {
        bench.iter(|| {
            let mut sel = Vec::new();
            kernel::select_f64(
                black_box(&kernel_vals),
                0,
                &mut sel,
                CompareOp::GtEq,
                black_box(rhs),
            );
            black_box(sel.len())
        })
    });
    cvr.finish();

    // Physical-plan execution (the IR path the Database uses end to end).
    let mut physical_group = c.benchmark_group("physical_plan_execution");
    physical_group.sample_size(10);
    let physical = PhysicalPlan::from_logical(&join_hrjn).expect("lowering");
    physical_group.bench_function("hrjn_topk_via_physical_ir", |bench| {
        bench.iter(|| {
            let exec = ExecutionContext::new(Arc::clone(&workload.query.ranking));
            execute_physical_plan(&physical, catalog, &exec)
                .expect("execution")
                .tuples
                .len()
        })
    });
    physical_group.finish();

    // ------------------------------------------------------------------
    // The rank-join itself, in the shape the paper's Q puts it in: HRJN
    // over two rank-scans, nothing above it.  `take10` stops after ten
    // results, `full_drain` takes every result of the same join; their
    // within-run ratio (printed by `scripts/bench_compare.py`) is what
    // "cost proportional to k" buys on this operator.  It collapses if
    // the join stops terminating early; `take10` alone is the number that
    // moves with the per-draw and per-match cost.
    // ------------------------------------------------------------------
    let mut topk_group = c.benchmark_group("rank_join_topk");
    topk_group.measurement_time(std::time::Duration::from_millis(200));
    let rank_join = PhysicalPlan::from_logical(&LogicalPlan::rank_scan(&a, 0).join(
        LogicalPlan::rank_scan(&b, 2),
        Some(BoolExpr::col_eq_col("A.jc1", "B.jc1")),
        JoinAlgorithm::HashRankJoin,
    ))
    .expect("lowering");
    let run_rank_join = |limit: Option<usize>| {
        let exec = ExecutionContext::new(Arc::clone(&ranking));
        let mut join = build_operator(&rank_join, catalog, &exec).expect("operator tree");
        match limit {
            Some(k) => take(join.as_mut(), k),
            None => drain_batched(join.as_mut(), exec.batch_size()),
        }
        .expect("execution")
        .len()
    };
    let join_size = run_rank_join(None);
    assert!(join_size > 1_000, "the join has only {join_size} results");
    topk_group.bench_function("take10", |bench| {
        bench.iter(|| assert_eq!(run_rank_join(black_box(Some(10))), 10))
    });
    topk_group.bench_function("full_drain", |bench| {
        bench.iter(|| assert_eq!(run_rank_join(black_box(None)), join_size))
    });
    topk_group.finish();

    // Prepared-statement plan cache: a cache hit (re-bind a cached shape)
    // vs a cold execution that pays the full parse + optimize every time.
    let mut prepared_group = c.benchmark_group("prepared_vs_cold");
    prepared_group.sample_size(10);
    let db = workload.database().expect("database");
    let sql = "SELECT * FROM A, B WHERE A.jc1 = B.jc1 AND A.p1 > ? \
               ORDER BY f1(A.p1) + f2(A.p2) + f3(B.p1) + f4(B.p2) LIMIT 10";
    let session = db.session();
    let prepared = session.prepare(sql).expect("prepare");
    // Warm the cache once so the hot path below measures pure re-binding.
    prepared
        .bind(ranksql_core::Params::new().set(0, 0.1f64))
        .expect("bind")
        .execute()
        .expect("execute");
    prepared_group.bench_function("plan_cache_hit", |bench| {
        bench.iter(|| {
            let result = prepared
                .bind(ranksql_core::Params::new().set(0, black_box(0.1f64)))
                .expect("bind")
                .execute()
                .expect("execute");
            assert!(result.plan_cache.expect("prepared").hit);
            black_box(result.rows.len())
        })
    });
    prepared_group.bench_function("cold_parse_optimize_execute", |bench| {
        bench.iter(|| {
            // Dropping the cached shapes forces the full parse + optimize
            // on every iteration — the cost a hit amortises away.
            db.clear_plan_cache();
            let result = db
                .session()
                .prepare(sql)
                .expect("prepare")
                .bind(ranksql_core::Params::new().set(0, black_box(0.1f64)))
                .expect("bind")
                .execute()
                .expect("execute");
            assert!(!result.plan_cache.expect("prepared").hit);
            black_box(result.rows.len())
        })
    });
    prepared_group.finish();
}

criterion_group!(benches, bench_operators);
criterion_main!(benches);
