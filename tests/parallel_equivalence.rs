//! Cross-thread determinism of morsel-driven parallel execution.
//!
//! The parallel engine promises that execution is a pure *scheduling*
//! choice: for every plan mode, one plan — the same at every thread count —
//! run across worker threads must produce exactly the ordered top-k result
//! of serial batch execution and of tuple-at-a-time execution — same
//! tuples, same order, same scores — for any worker-thread count, any batch
//! size and any morsel size.  In the spirit of black-box
//! equivalence checkers (the snapshot-isolation checker and HISTEX lineage
//! in PAPERS.md), these properties drive randomized workloads through all
//! four `PlanMode`s and compare the executions pairwise.
//!
//! A companion regression test pins the metrics-aggregation contract: the
//! per-operator `rows_out` / `batches_out` / `mean_batch_fill` series of
//! `explain_analyze` must be *identical* (not merely summable) across any
//! thread count above one, because morsel partitioning — never the worker
//! count — determines what each operator processes.

use proptest::prelude::*;

use ranksql::executor::{execute_physical_plan, ExecutionContext};
use ranksql::expr::RankPredicate;
use ranksql::workload::{SyntheticConfig, SyntheticWorkload};
use ranksql::{
    BoolExpr, CompareOp, DataType, Database, Field, Params, PlanMode, QueryBuilder, RankQuery,
    ScalarExpr, Schema, Value,
};

const ALL_MODES: [PlanMode; 4] = [
    PlanMode::Canonical,
    PlanMode::Traditional,
    PlanMode::RankAware,
    PlanMode::RankAwareExhaustive,
];

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A randomly generated two-table join workload plus execution knobs.
#[derive(Debug, Clone)]
struct Workload {
    /// Rows of table R: (join column, p1 score, boolean flag).
    r_rows: Vec<(i64, f64, bool)>,
    /// Rows of table S: (join column, p2 score).
    s_rows: Vec<(i64, f64)>,
    /// Requested result size.
    k: usize,
    /// Batch size for the parallel executions.
    batch_size: usize,
    /// Morsel size for the parallel executions.
    morsel_size: usize,
}

fn workload() -> impl Strategy<Value = Workload> {
    (
        proptest::collection::vec((0..6i64, 0.0..1.0f64, any::<bool>()), 1..30),
        proptest::collection::vec((0..6i64, 0.0..1.0f64), 1..30),
        1..10usize,
        1..512usize,
        1..64usize,
    )
        .prop_map(|(r_rows, s_rows, k, batch_size, morsel_size)| Workload {
            r_rows,
            s_rows,
            k,
            batch_size,
            morsel_size,
        })
}

fn build_database(w: &Workload) -> (Database, RankQuery) {
    let db = Database::new();
    db.create_table(
        "R",
        Schema::new(vec![
            Field::new("jc", DataType::Int64),
            Field::new("p1", DataType::Float64),
            Field::new("flag", DataType::Bool),
        ]),
    )
    .unwrap();
    db.create_table(
        "S",
        Schema::new(vec![
            Field::new("jc", DataType::Int64),
            Field::new("p2", DataType::Float64),
        ]),
    )
    .unwrap();
    for &(jc, p1, flag) in &w.r_rows {
        db.insert(
            "R",
            vec![Value::from(jc), Value::from(p1), Value::from(flag)],
        )
        .unwrap();
    }
    for &(jc, p2) in &w.s_rows {
        db.insert("S", vec![Value::from(jc), Value::from(p2)])
            .unwrap();
    }
    let query = QueryBuilder::new()
        .tables(["R", "S"])
        .filter(BoolExpr::col_eq_col("R.jc", "S.jc"))
        .rank_predicate(RankPredicate::attribute("p1", "R.p1"))
        .rank_predicate(RankPredicate::attribute("p2", "S.p2"))
        .limit(w.k)
        .build()
        .unwrap();
    (db, query)
}

/// The modes whose plan for the two-table join is a sort over a spine, so
/// that above one thread the sort runs per morsel.
fn sorts_over_a_spine(mode: PlanMode) -> bool {
    matches!(mode, PlanMode::Canonical | PlanMode::Traditional)
}

/// `(tuple id, score)` fingerprint of an ordered result.
fn fingerprint(
    query: &RankQuery,
    tuples: &[ranksql::expr::RankedTuple],
) -> Vec<(ranksql::Tuple, f64)> {
    tuples
        .iter()
        .map(|t| (t.tuple.clone(), query.ranking.upper_bound(&t.state).value()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Parallel execution ≡ serial batch execution ≡ tuple-mode execution,
    /// for all four plan modes, sweeping thread counts {1, 2, 4, 8} under
    /// random batch and morsel sizes.
    #[test]
    fn parallel_equals_serial_and_tuple_mode_for_all_plan_modes(w in workload()) {
        let (db, query) = build_database(&w);
        for mode in ALL_MODES {
            // One plan, whatever the session's thread count.
            let plan = db
                .session()
                .with_mode(mode)
                .with_threads(1)
                .plan(&query)
                .unwrap()
                .physical;
            let at_four = db.session().with_mode(mode).with_threads(4).plan(&query);
            prop_assert_eq!(&at_four.unwrap().physical, &plan);

            // The serial reference, executed two ways.
            let serial = |exec: ExecutionContext| {
                execute_physical_plan(&plan, db.catalog(), &exec.with_threads(1)).unwrap()
            };
            let reference = fingerprint(&query, &serial(ExecutionContext::new(query.ranking.clone())).tuples);
            let tuple = serial(ExecutionContext::new(query.ranking.clone()).with_batch_size(1));
            prop_assert_eq!(
                &fingerprint(&query, &tuple.tuples),
                &reference,
                "mode {:?}: tuple mode diverged from serial batch mode",
                mode
            );

            // The same plan executed across the thread sweep.
            for threads in THREAD_COUNTS {
                let exec = ExecutionContext::new(query.ranking.clone())
                    .with_threads(threads)
                    .with_batch_size(w.batch_size)
                    .with_morsel_size(w.morsel_size);
                let parallel = execute_physical_plan(&plan, db.catalog(), &exec).unwrap();
                prop_assert_eq!(
                    &fingerprint(&query, &parallel.tuples),
                    &reference,
                    "mode {:?}, threads {}, batch {}, morsel {}: parallel diverged",
                    mode,
                    threads,
                    w.batch_size,
                    w.morsel_size
                );
                if threads == 1 {
                    prop_assert_eq!(parallel.morsels, 0);
                } else if sorts_over_a_spine(mode) {
                    prop_assert!(parallel.morsels > 0, "mode {:?}: no morsels", mode);
                }
            }
        }
    }
}

/// Regression: the per-operator actuals of `explain_analyze` (`rows_out`,
/// `batches_out`, `mean_batch_fill`, and a hash join's `built`) are identical
/// across any thread count above one — aggregation across workers must
/// neither lose nor duplicate updates, and the counts are a function of the
/// (fixed) morsel and batch sizes only.  One thread runs the plan serially:
/// every operator reports, the scans read every row and the sort emits the
/// same rows.  The `Traditional` plan's hash join sits
/// beneath a per-morsel `SortLimit` and builds only what that morsel's own
/// heap has not excluded, so its `built` is morsel-determined as well.  An
/// empty driving table makes zero morsels: the spine is still lowered once
/// (over an empty range), so every node reports and the build side is
/// drained exactly once.
#[test]
fn per_operator_actuals_are_identical_across_thread_counts() {
    let w = Workload {
        r_rows: (0..120)
            .map(|i| (i % 7, ((i * 37 % 100) as f64) / 100.0, i % 3 != 0))
            .collect(),
        s_rows: (0..90)
            .map(|i| (i % 7, ((i * 61 % 100) as f64) / 100.0))
            .collect(),
        k: 6,
        batch_size: 16,
        morsel_size: 8,
    };
    let empty_driver = Workload {
        r_rows: Vec::new(),
        ..w.clone()
    };
    for (w, mode) in [
        (&w, PlanMode::Canonical),
        (&w, PlanMode::Traditional),
        (&empty_driver, PlanMode::Canonical),
        (&empty_driver, PlanMode::Traditional),
    ] {
        let (db, query) = build_database(w);
        let plan = db
            .session()
            .with_mode(mode)
            .with_threads(4)
            .plan(&query)
            .unwrap()
            .physical;

        let run = |threads: usize| {
            let exec = ExecutionContext::new(query.ranking.clone())
                .with_threads(threads)
                .with_batch_size(w.batch_size)
                .with_morsel_size(w.morsel_size);
            let result = execute_physical_plan(&plan, db.catalog(), &exec).unwrap();
            assert_eq!(result.morsels > 0, threads > 1, "threads={threads}");
            (result.operator_actuals(), result.tuples.len())
        };

        let (serial, serial_rows) = run(1);
        let (reference, rows) = run(2);
        assert_eq!(rows, serial_rows);
        assert_eq!(serial.len(), plan.node_count());
        assert_eq!(reference.len(), plan.node_count());
        for (a, s) in reference.iter().zip(serial.iter()) {
            assert_eq!(a.label, s.label);
            if a.label.starts_with("ColumnScan") {
                assert_eq!(a.rows, s.rows, "{mode:?}: {} reads every row", a.label);
            }
        }
        if w.r_rows.is_empty() {
            let build_scan = reference
                .iter()
                .find(|a| a.label == "ColumnScan(S)")
                .unwrap_or_else(|| panic!("no scan of S:\n{}", plan.explain(None)));
            assert_eq!(
                build_scan.rows,
                w.s_rows.len() as u64,
                "{mode:?}: the build side is drained once\n{}",
                plan.explain(None)
            );
        } else {
            assert!(reference.iter().any(|a| a.batches > 0));
        }
        if mode == PlanMode::Traditional && !w.r_rows.is_empty() {
            let join = reference
                .iter()
                .find(|a| a.label.starts_with("HashJoin"))
                .unwrap_or_else(|| panic!("no hash join:\n{}", plan.explain(None)));
            assert!(
                0 < join.built && join.built < join.rows,
                "the join prunes against its sort: built {} of {}",
                join.built,
                join.rows
            );
        }
        for threads in [4, 8] {
            let (actuals, _) = run(threads);
            assert_eq!(actuals.len(), reference.len(), "threads={threads}");
            for (a, r) in actuals.iter().zip(reference.iter()) {
                let at = format!("{mode:?}, threads={threads}, op {}", a.label);
                assert_eq!(a.label, r.label, "{at}");
                assert_eq!(a.rows, r.rows, "{at}");
                assert_eq!(a.batches, r.batches, "{at}");
                assert_eq!(a.built, r.built, "{at}");
                assert!(
                    (a.mean_batch_fill - r.mean_batch_fill).abs() < 1e-12,
                    "{at}: {} vs {}",
                    a.mean_batch_fill,
                    r.mean_batch_fill
                );
            }
        }
    }
}

/// The paper's Q under materialise-then-sort at k = 10: the hash join beneath
/// the sort *decides* every join result (its `rows`), but scores each input
/// once — A's predicates per probe row that finds a group, B's per σB row
/// with a pair in C, C's per C row — and builds at most 2 % of the results:
/// serially, and the same ones at every thread count above one.  Its build
/// side `σB ⋈ C` is held factored: the inner join decides its pairs and
/// builds none of them.
#[test]
fn q_builds_a_sliver_of_the_join_results_it_decides() {
    let workload = SyntheticWorkload::generate(SyntheticConfig {
        table_size: 5000,
        join_selectivity: 1.0 / 250.0,
        predicate_cost: 0,
        k: 10,
        build_indexes: false,
        ..SyntheticConfig::default()
    })
    .unwrap();
    let db = workload.database().unwrap();
    let query = &workload.query;

    // |A ⋈ B ⋈ C| under Q's filters, counted without the engine.
    let rows = |name: &str| db.catalog().table(name).unwrap().scan();
    let (jc1, jc2, flag) = (0, 1, 2);
    let int = |t: &ranksql::Tuple, col: usize| t.value(col).as_i64().unwrap();
    let mut c_by_jc2 = std::collections::HashMap::<i64, u64>::new();
    for c in rows("C") {
        *c_by_jc2.entry(int(&c, jc2)).or_default() += 1;
    }
    let mut bc_by_jc1 = std::collections::HashMap::<i64, u64>::new();
    let mut b_with_a_pair = 0;
    for b in rows("B") {
        if b.value(flag) == &Value::from(true) {
            let pairs = c_by_jc2.get(&int(&b, jc2)).copied().unwrap_or(0);
            *bc_by_jc1.entry(int(&b, jc1)).or_default() += pairs;
            b_with_a_pair += u64::from(pairs > 0);
        }
    }
    let matches = |a: &ranksql::Tuple| bc_by_jc1.get(&int(a, jc1)).copied().unwrap_or(0);
    let probes = rows("A")
        .into_iter()
        .filter(|a| a.value(flag) == &Value::from(true));
    let join_results: u64 = probes.clone().map(|a| matches(&a)).sum();
    let probes_with_a_group = probes.filter(|a| matches(a) > 0).count() as u64;
    let build_rows: u64 = bc_by_jc1.values().sum();
    let c_rows = rows("C").len() as u64;
    assert!(join_results > 100_000, "{join_results}");

    let plan = db
        .session()
        .with_mode(PlanMode::Traditional)
        .with_threads(2)
        .plan(query)
        .unwrap()
        .physical;
    let run = |threads: usize| {
        let ranking = query.ranking.with_scoring(query.ranking.scoring().clone());
        let exec = ExecutionContext::new(ranking.clone()).with_threads(threads);
        let result = execute_physical_plan(&plan, db.catalog(), &exec).unwrap();
        assert_eq!(result.tuples.len(), 10);
        assert_eq!(result.morsels > 0, threads > 1, "threads={threads}");
        // Post-order: the inner hash join, then the one beneath the sort.
        let actuals = result.operator_actuals();
        let mut joins = actuals.iter().filter(|a| a.label.starts_with("HashJoin"));
        let mut join = || {
            let join = joins.next().cloned();
            join.unwrap_or_else(|| panic!("a hash join missing:\n{}", plan.explain(None)))
        };
        let (inner, outer) = (join(), join());
        (inner, outer, ranking.counters().snapshot())
    };

    // f1, f2 read A: once per probe row that finds a group; f3, f4 read
    // B: once per σB row with a pair; f5 reads C: once per C row.
    let (a, b) = (probes_with_a_group, b_with_a_pair);
    for threads in [1, 2] {
        let (inner, outer, evaluations) = run(threads);
        assert_eq!(outer.rows, join_results, "threads={threads}");
        assert_eq!(evaluations, vec![a, a, b, b, c_rows], "threads={threads}");
        assert_eq!(
            (inner.rows, inner.built),
            (build_rows, 0),
            "threads={threads}"
        );
        assert!(
            outer.built * 50 <= outer.rows,
            "threads={threads}: built {} of {} join results",
            outer.built,
            outer.rows
        );
    }
    // Above one thread the morsels decide what is built, not the workers.
    assert_eq!(run(4), run(2));
}

/// Seeded morsels build about what serial execution builds.  On the
/// parallel-scaling bench's plan shape, `SortLimit(HashJoin(σ(SeqScan A),
/// SeqScan B))`, morsel 0 runs first and its worst kept entry seeds every
/// other morsel's top-k, so each morsel's join stops building where serial
/// execution would — not where its own heap fills.  The join builds at
/// most twice what it builds serially, and the same at 2 and 4 threads: the
/// morsel split decides it, not the workers.
#[test]
fn seeded_morsels_build_what_serial_execution_builds() {
    use ranksql::algebra::{JoinAlgorithm, LogicalPlan, PhysicalPlan};
    let workload = SyntheticWorkload::generate(SyntheticConfig {
        table_size: 6000,
        join_selectivity: 0.001,
        predicate_cost: 0,
        k: 10,
        build_indexes: false,
        ..SyntheticConfig::default()
    })
    .unwrap();
    let table = |name: &str| workload.catalog.table(name).unwrap();
    let plan = LogicalPlan::scan(&table("A"))
        .select(BoolExpr::compare(
            ScalarExpr::col("A.b"),
            CompareOp::Eq,
            ScalarExpr::lit(true),
        ))
        .join(
            LogicalPlan::scan(&table("B")),
            Some(BoolExpr::col_eq_col("A.jc1", "B.jc1")),
            JoinAlgorithm::Hash,
        )
        .sort(ranksql::common::BitSet64::all(4))
        .limit(workload.query.k);
    let plan = PhysicalPlan::from_logical(&plan).unwrap();
    let run = |threads: usize| {
        let exec = ExecutionContext::new(workload.query.ranking.clone()).with_threads(threads);
        let result = execute_physical_plan(&plan, &workload.catalog, &exec).unwrap();
        assert_eq!(result.morsels > 0, threads > 1, "threads={threads}");
        let actuals = result.operator_actuals();
        let join = actuals.iter().rfind(|a| a.label.starts_with("HashJoin"));
        let ids = result.tuples.iter().map(|t| t.tuple.id().clone());
        (join.unwrap().built, ids.collect::<Vec<_>>())
    };
    let (serial, want) = run(1);
    assert!(serial > 0);
    for threads in [2, 4] {
        let (built, got) = run(threads);
        assert_eq!(got, want, "threads={threads}");
        assert!(
            built <= 2 * serial,
            "threads={threads}: built {built}, serially {serial}"
        );
        assert_eq!(built, run(2).0, "threads={threads}");
    }
}

/// A build table does not depend on its split.  On `paperq-sort`'s plan
/// shape, `SortLimit(HashJoin(σA, HashJoin(σB, C)))`, the outer join's
/// build side is itself a hash join drained per morsel of `B`, whose own
/// build side `C` is drained per morsel of `C`.  For every morsel size the
/// result equals serial execution's, every operator's counts are the same
/// at 2, 4 and 8 threads, and — once the first morsels seed the others —
/// the outer join builds at most twice what it builds serially, even when
/// a morsel is one row and morsel 0 alone keeps fewer than k results.
#[test]
fn a_build_table_does_not_depend_on_its_split() {
    use ranksql::algebra::{JoinAlgorithm, LogicalPlan, PhysicalPlan};
    let workload = SyntheticWorkload::generate(SyntheticConfig {
        table_size: 300,
        join_selectivity: 1.0 / 20.0,
        predicate_cost: 0,
        k: 10,
        build_indexes: false,
        ..SyntheticConfig::default()
    })
    .unwrap();
    let table = |name: &str| workload.catalog.table(name).unwrap();
    let flagged = |rel: &str| {
        let flag = ScalarExpr::col(&format!("{rel}.b"));
        LogicalPlan::scan(&table(rel)).select(BoolExpr::compare(
            flag,
            CompareOp::Eq,
            ScalarExpr::lit(true),
        ))
    };
    let build = flagged("B").join(
        LogicalPlan::scan(&table("C")),
        Some(BoolExpr::col_eq_col("B.jc2", "C.jc2")),
        JoinAlgorithm::Hash,
    );
    let plan = flagged("A")
        .join(
            build,
            Some(BoolExpr::col_eq_col("A.jc1", "B.jc1")),
            JoinAlgorithm::Hash,
        )
        .sort(ranksql::common::BitSet64::all(5))
        .limit(workload.query.k);
    let plan = PhysicalPlan::from_logical(&plan).unwrap();
    let ranking = &workload.query.ranking;
    let run = |threads: usize, morsel: usize| {
        let exec = ExecutionContext::new(ranking.clone())
            .with_threads(threads)
            .with_morsel_size(morsel);
        let result = execute_physical_plan(&plan, &workload.catalog, &exec).unwrap();
        assert_eq!(result.morsels > 0, threads > 1, "threads={threads}");
        let rows = result.tuples.iter().map(|t| {
            let score = ranking.upper_bound(&t.state).value().to_bits();
            (t.tuple.id().clone(), score)
        });
        (rows.collect::<Vec<_>>(), result.operator_actuals())
    };
    // Post-order: the last hash join is the outer one.
    let outer_built = |actuals: &[ranksql::algebra::OperatorActuals]| {
        let join = actuals.iter().rfind(|a| a.label.starts_with("HashJoin"));
        join.unwrap().built
    };
    let (want, serial) = run(1, 1024);
    assert_eq!(want.len(), workload.query.k);
    for morsel in [1, 7, 64, 1024] {
        let (got, reference) = run(2, morsel);
        assert_eq!(got, want, "morsel={morsel}");
        let (built, serially) = (outer_built(&reference), outer_built(&serial));
        assert!(
            built <= 2 * serially,
            "morsel={morsel}: built {built}, serially {serially}"
        );
        for threads in [4, 8] {
            let (got, actuals) = run(threads, morsel);
            assert_eq!(got, want, "threads={threads} morsel={morsel}");
            assert_eq!(actuals.len(), reference.len());
            for (a, r) in actuals.iter().zip(&reference) {
                let at = format!("threads={threads} morsel={morsel} op {}", a.label);
                assert_eq!(a.label, r.label, "{at}");
                assert_eq!(
                    (a.rows, a.batches, a.built),
                    (r.rows, r.batches, r.built),
                    "{at}"
                );
            }
        }
    }
}

/// One cached plan serves every thread count: the paper's Q prepared and
/// bound at one thread, then bound from a two-thread session, hits the
/// plan cache and returns the same rows with the same score bits; only the
/// two-thread execution runs morsels.
#[test]
fn one_cached_plan_serves_every_thread_count() {
    let workload = SyntheticWorkload::generate(SyntheticConfig::small(200)).unwrap();
    let db = workload.database().unwrap();
    let run = |threads: usize| {
        db.session()
            .with_mode(PlanMode::Traditional)
            .with_threads(threads)
            .with_morsel_size(64)
            .prepare_query(workload.query.clone())
            .unwrap()
            .bind(Params::none())
            .unwrap()
            .execute()
            .unwrap()
    };
    let (serial, parallel) = (run(1), run(2));
    assert!(!serial.plan_cache.unwrap().hit);
    assert!(parallel.plan_cache.unwrap().hit, "the bind is a cache hit");
    assert_eq!(parallel.physical, serial.physical);
    let rows = |r: &ranksql::QueryResult| {
        let tuples = r.rows.iter().map(|t| t.tuple.clone());
        let bits = r.scores().into_iter().map(f64::to_bits);
        tuples.zip(bits).collect::<Vec<_>>()
    };
    assert_eq!(rows(&parallel), rows(&serial));
    assert_eq!(serial.rows.len(), workload.query.k);
    assert_eq!(serial.morsels, 0);
    assert!(parallel.morsels > 0);
}

/// `explain_analyze` names the parallelism when an exchange ran — one
/// `parallel:` line with the thread and morsel counts — over the same plan
/// text, with per-node actual rows; a serial run prints no such line.
#[test]
fn explain_analyze_reports_exchange_nodes() {
    let w = Workload {
        r_rows: (0..50).map(|i| (i % 5, (i as f64) / 50.0, true)).collect(),
        s_rows: (0..50).map(|i| (i % 5, (i as f64) / 50.0)).collect(),
        k: 5,
        batch_size: 32,
        morsel_size: 16,
    };
    let (db, query) = build_database(&w);
    let run = |threads: usize| {
        db.session()
            .with_mode(PlanMode::Canonical)
            .with_threads(threads)
            .with_morsel_size(w.morsel_size)
            .execute(&query)
            .unwrap()
            .explain_analyze(Some(&query.ranking))
    };
    let analyzed = run(4);
    // 4 morsels of R, and 4 of S for the partitioned build side.
    assert!(
        analyzed.contains("parallel: threads=4 morsels=8\n"),
        "{analyzed}"
    );
    assert_eq!(analyzed.matches("parallel:").count(), 1, "{analyzed}");
    assert!(analyzed.contains("actual_rows="), "{analyzed}");
    assert!(!run(1).contains("parallel:"));
}

/// A zone-pruned scan is no spine, so its top-k never runs per morsel: the
/// serial scan already skips every block the top-k threshold rules out,
/// while morsels would each read until their own top-k formed.  A
/// one-table σ + `ORDER BY … LIMIT` runs at two threads exactly as at one
/// and reads the same rows.
#[test]
fn a_zone_pruned_top_k_gets_no_exchange() {
    const ROWS: i64 = 8192; // 8 columnar blocks, best scores first
    let db = Database::new();
    db.create_table(
        "T",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("p", DataType::Float64),
        ]),
    )
    .unwrap();
    db.insert_batch(
        "T",
        (0..ROWS).map(|i| vec![Value::from(i), Value::from((ROWS - i) as f64 / ROWS as f64)]),
    )
    .unwrap();
    let query = QueryBuilder::new()
        .table("T")
        .filter(BoolExpr::compare(
            ScalarExpr::col("T.id"),
            CompareOp::Gt,
            ScalarExpr::lit(3i64),
        ))
        .rank_predicate(RankPredicate::attribute("p", "T.p"))
        .limit(5)
        .build()
        .unwrap();
    let run = |threads: usize| {
        db.session()
            .with_mode(PlanMode::Traditional)
            .with_threads(threads)
            .execute(&query)
            .unwrap()
    };
    let (serial, parallel) = (run(1), run(2));
    let text = parallel.physical.explain(None);
    assert!(text.contains("[zone-prune]"), "{text}");
    assert_eq!(parallel.morsels, 0, "{text}");
    assert_eq!(parallel.physical, serial.physical);
    assert_eq!(
        fingerprint(&query, &parallel.rows),
        fingerprint(&query, &serial.rows)
    );
    assert_eq!(parallel.tuples_scanned, serial.tuples_scanned);
    assert!(
        serial.tuples_scanned < ROWS as u64,
        "the serial scan prunes"
    );
}
