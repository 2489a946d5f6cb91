//! Integration tests for the rank-aware optimizer: Example 5 / Figure 9's
//! enumeration setting, correctness of every optimizer mode against the
//! oracle, the behaviour of the Figure 10 heuristics, and the
//! sampling-based cardinality estimator of Figure 13.

use ranksql::executor::{execute_query_plan, oracle_top_k};
use ranksql::optimizer::{optimize_traditional, CostModel, DpOptimizer, SamplingEstimator};
use ranksql::workload::{SyntheticConfig, SyntheticWorkload};
use ranksql::{
    BoolExpr, JoinAlgorithm, LogicalPlan, OptimizerConfig, PlanMode, QueryBuilder, RankPredicate,
    RankQuery,
};
use ranksql_common::BitSet64;
use ranksql_optimizer::RankOptimizer;
use ranksql_storage::Catalog;

fn scores(query: &RankQuery, tuples: &[ranksql::expr::RankedTuple]) -> Vec<f64> {
    tuples
        .iter()
        .map(|t| query.ranking.upper_bound(&t.state).value())
        .collect()
}

fn small_workload() -> SyntheticWorkload {
    SyntheticWorkload::generate(SyntheticConfig {
        table_size: 150,
        join_selectivity: 0.02,
        predicate_cost: 2,
        k: 10,
        ..SyntheticConfig::default()
    })
    .unwrap()
}

/// Every optimizer mode returns the oracle's answers for the paper's query Q.
#[test]
fn optimizer_modes_are_correct_on_the_synthetic_workload() {
    let w = small_workload();
    let expected = scores(&w.query, &oracle_top_k(&w.query, &w.catalog).unwrap());
    for mode in [
        PlanMode::Traditional,
        PlanMode::RankAware,
        PlanMode::RankAwareExhaustive,
    ] {
        let optimizer = RankOptimizer::new(OptimizerConfig {
            mode,
            sample_ratio: 0.05,
            ..OptimizerConfig::default()
        });
        let optimized = optimizer.optimize(&w.query, &w.catalog).unwrap();
        let result = execute_query_plan(&w.query, &optimized.plan, &w.catalog).unwrap();
        assert_eq!(scores(&w.query, &result.tuples), expected, "mode {mode:?}");
    }
}

/// Figure 9 / Example 5: enumerating `R ⋈ S` with predicates p1, p3, p4
/// covers the expected signature lattice and the final plan is complete.
#[test]
fn figure9_signature_lattice() {
    let catalog = Catalog::new();
    let r = catalog
        .create_table(
            "R",
            ranksql::Schema::new(vec![
                ranksql::Field::new("a", ranksql::DataType::Int64),
                ranksql::Field::new("p1", ranksql::DataType::Float64),
            ]),
        )
        .unwrap();
    let s = catalog
        .create_table(
            "S",
            ranksql::Schema::new(vec![
                ranksql::Field::new("a", ranksql::DataType::Int64),
                ranksql::Field::new("p3", ranksql::DataType::Float64),
                ranksql::Field::new("p4", ranksql::DataType::Float64),
            ]),
        )
        .unwrap();
    for i in 0..150i64 {
        r.insert(vec![
            ranksql::Value::from(i % 12),
            ranksql::Value::from(((i * 7) % 100) as f64 / 100.0),
        ])
        .unwrap();
        s.insert(vec![
            ranksql::Value::from(i % 12),
            ranksql::Value::from(((i * 11) % 100) as f64 / 100.0),
            ranksql::Value::from(((i * 13) % 100) as f64 / 100.0),
        ])
        .unwrap();
    }
    let query = QueryBuilder::new()
        .tables(["R", "S"])
        .filter(BoolExpr::col_eq_col("R.a", "S.a"))
        .rank_predicate(RankPredicate::attribute("p1", "R.p1"))
        .rank_predicate(RankPredicate::attribute("p3", "S.p3"))
        .rank_predicate(RankPredicate::attribute("p4", "S.p4"))
        .limit(5)
        .build()
        .unwrap();

    let estimator = SamplingEstimator::build(&query, &catalog, 0.2, 9).unwrap();
    let dp = DpOptimizer::new(&query, &catalog, &estimator, CostModel::default(), false);
    let optimized = dp.optimize().unwrap();
    // As in Example 5 the final signature is ({R,S}, {p1,p3,p4}).
    assert_eq!(
        optimized.plan.relations(),
        vec!["R".to_string(), "S".to_string()]
    );
    assert_eq!(optimized.plan.evaluated_predicates(), BitSet64::all(3));
    // Signatures: 2 for R × {∅,{p1}}, 4 for S × subsets of {p3,p4},
    // 8 for RS × subsets of {p1,p3,p4}  → 14 total.
    assert_eq!(optimized.stats.signatures_kept, 14);
    // Correctness.
    let expected = scores(&query, &oracle_top_k(&query, &catalog).unwrap());
    let result = execute_query_plan(&query, &optimized.plan, &catalog).unwrap();
    assert_eq!(scores(&query, &result.tuples), expected);
}

/// The Figure 10 heuristics shrink the search space but keep correct answers.
#[test]
fn heuristics_reduce_search_space() {
    let w = small_workload();
    let estimator = SamplingEstimator::build(&w.query, &w.catalog, 0.05, 3).unwrap();
    let exhaustive = DpOptimizer::new(
        &w.query,
        &w.catalog,
        &estimator,
        CostModel::default(),
        false,
    )
    .optimize()
    .unwrap();
    let heuristic = DpOptimizer::new(&w.query, &w.catalog, &estimator, CostModel::default(), true)
        .optimize()
        .unwrap();
    assert!(heuristic.stats.plans_considered < exhaustive.stats.plans_considered);
    let expected = scores(&w.query, &oracle_top_k(&w.query, &w.catalog).unwrap());
    for plan in [&exhaustive.plan, &heuristic.plan] {
        let result = execute_query_plan(&w.query, plan, &w.catalog).unwrap();
        assert_eq!(scores(&w.query, &result.tuples), expected);
    }
}

/// Figure 13's premise: the sampling-based estimates of per-operator output
/// cardinalities are within an order of magnitude of the real ones for a
/// pipelined ranking plan.
#[test]
fn sampling_estimates_track_real_cardinalities() {
    let w = SyntheticWorkload::generate(SyntheticConfig {
        table_size: 2_000,
        join_selectivity: 0.01,
        predicate_cost: 1,
        k: 10,
        ..SyntheticConfig::default()
    })
    .unwrap();
    let catalog = &w.catalog;
    let query = &w.query;
    let a = catalog.table("A").unwrap();
    let b = catalog.table("B").unwrap();
    let c = catalog.table("C").unwrap();
    // A plan3-like pipeline: seq scans + µ, rank-aware joins.
    let plan = LogicalPlan::rank_scan(&a, 0)
        .select(BoolExpr::column_is_true("A.b"))
        .rank(1)
        .join(
            LogicalPlan::scan(&b)
                .select(BoolExpr::column_is_true("B.b"))
                .rank(2)
                .rank(3),
            Some(BoolExpr::col_eq_col("A.jc1", "B.jc1")),
            JoinAlgorithm::HashRankJoin,
        )
        .join(
            LogicalPlan::rank_scan(&c, 4),
            Some(BoolExpr::col_eq_col("B.jc2", "C.jc2")),
            JoinAlgorithm::HashRankJoin,
        )
        .limit(query.k);

    let estimator = SamplingEstimator::build(query, catalog, 0.05, 17).unwrap();
    let estimated = estimator.estimate_per_operator(&plan).unwrap();
    let real = execute_query_plan(query, &plan, catalog).unwrap();
    let real_cards = real.metrics.output_cardinalities();
    assert_eq!(estimated.len(), real_cards.len());

    // Operators that actually produce tuples should be estimated within
    // roughly an order of magnitude (the paper claims "the same magnitude"
    // for the majority of operators); allow the small tail to be off.
    let mut compared = 0;
    let mut within = 0;
    for ((_, est), (_, real)) in estimated.iter().zip(real_cards.iter()) {
        if *real >= 5 {
            compared += 1;
            let ratio = est.max(0.1) / *real as f64;
            if (0.1..=10.0).contains(&ratio) {
                within += 1;
            }
        }
    }
    assert!(compared > 0);
    assert!(
        within * 2 >= compared,
        "only {within}/{compared} operator estimates were within 10x of the real cardinality"
    );
}

/// Figure 13's estimated column for plans 3 and 4, pinned to the bit in
/// `tests/golden/fig13_estimates.txt`: a change to how the estimator runs
/// its samples must not change a single estimate.  The first section's
/// scans all estimate their table size; in the second (its `#` line names
/// the config) `x'` is finite and the rank-scans' `u` falls below their
/// `card_s`, which pins how `u` is counted against `x'`.
#[test]
fn figure13_estimates_match_the_golden_bits() {
    let section = |table_size, join_selectivity, k, sample_ratio| {
        let rows = ranksql_bench::run_fig13(
            &SyntheticConfig {
                table_size,
                join_selectivity,
                predicate_cost: 1,
                k,
                ..SyntheticConfig::default()
            },
            sample_ratio,
        )
        .unwrap();
        rows.iter()
            .map(|r| {
                format!(
                    "{} {} {} real={} estimated={:#018x} ({})\n",
                    r.plan,
                    r.operator_index,
                    r.operator,
                    r.real,
                    r.estimated.to_bits(),
                    r.estimated
                )
            })
            .collect::<String>()
    };
    let actual = section(200, 0.05, 5, 0.1)
        + "# x' cuts: table_size=300 join_selectivity=0.1 k=5 sample_ratio=0.2\n"
        + &section(300, 0.1, 5, 0.2);
    let golden = include_str!("golden/fig13_estimates.txt");
    for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(a, g, "tests/golden/fig13_estimates.txt line {}", i + 1);
    }
    assert_eq!(actual.lines().count(), golden.lines().count());
}

/// Planning Q at the benchmark's size (5 000 rows a table, 250 join values,
/// a 1 % sample), as `PlanMode::RankAware` does — the two-dimensional search
/// and the traditional one over one estimator — runs each rank-relation's
/// root operator once.  Memoised by plan structure, the same planning ran
/// 400 operators that emitted 35 494 rows; executing every candidate's whole
/// subtree ran 3 157.
#[test]
fn planning_q_runs_each_rank_relation_once() {
    let w = SyntheticWorkload::generate(SyntheticConfig {
        table_size: 5_000,
        join_selectivity: 0.004,
        build_indexes: false,
        ..SyntheticConfig::default()
    })
    .unwrap();
    let config = OptimizerConfig::default();
    let estimator =
        SamplingEstimator::build(&w.query, &w.catalog, config.sample_ratio, config.seed).unwrap();
    DpOptimizer::new(&w.query, &w.catalog, &estimator, CostModel::default(), true)
        .optimize()
        .unwrap();
    optimize_traditional(&w.query, &w.catalog, &estimator, &CostModel::default()).unwrap();
    let (runs, rows) = (estimator.operator_runs(), estimator.sample_rows());
    assert_eq!(runs, estimator.rank_relations());
    assert!(runs <= 140, "{runs} sample operators to plan Q");
    assert!(rows * 10 <= 35_494 * 4, "{rows} sample rows to plan Q");
}

/// One 2 000-row table ranked by `n` attribute predicates behind a Boolean
/// filter: the whole plan search is µ orderings, `2ⁿ` predicate sets of one
/// table.
fn many_predicates(n: usize) -> (Catalog, RankQuery) {
    let catalog = Catalog::new();
    let mut fields = vec![ranksql::Field::new("b", ranksql::DataType::Bool)];
    fields.extend((0..n).map(|i| ranksql::Field::new(format!("p{i}"), ranksql::DataType::Float64)));
    let table = catalog
        .create_table("T", ranksql::Schema::new(fields))
        .unwrap();
    for row in 0..2000u64 {
        let mut values = vec![ranksql::Value::from(row % 3 != 0)];
        values.extend((0..n as u64).map(|i| {
            let h = (row * 31 + i * 17 + 7) * 2_654_435_761 % 1_000_003;
            ranksql::Value::from((h % 1000) as f64 / 1000.0)
        }));
        table.insert(values).unwrap();
    }
    let mut builder = QueryBuilder::new()
        .tables(["T"])
        .filter(BoolExpr::column_is_true("T.b"));
    for i in 0..n {
        builder = builder.rank_predicate(RankPredicate::attribute(
            format!("f{i}"),
            &format!("T.p{i}"),
        ));
    }
    (catalog, builder.limit(10).build().unwrap())
}

/// `(plans_considered, operator_runs)` of a rank-aware plan of
/// [`many_predicates`]`(n)`.
fn plan_many_predicates(n: usize) -> (usize, usize) {
    let (catalog, query) = many_predicates(n);
    let optimizer = RankOptimizer::new(OptimizerConfig {
        mode: PlanMode::RankAware,
        ..OptimizerConfig::default()
    });
    let stats = optimizer.optimize(&query, &catalog).unwrap().stats;
    (stats.plans_considered, stats.operator_runs)
}

/// Ten ranking predicates: at most two sample operator runs per predicate
/// set (memoised by plan structure, planning ran 5 931), over the same
/// 3 691 candidate plans.
#[test]
fn ten_predicates_plan_with_at_most_two_sample_runs_per_predicate_set() {
    let (plans, runs) = plan_many_predicates(10);
    assert!(
        runs <= 2 << 10,
        "{runs} sample operators for 2^10 predicate sets"
    );
    assert_eq!(plans, 3691);
}

/// Twelve ranking predicates: structural memoisation ran 28 550.
#[test]
#[ignore = "the |P| = 12 twin of the test above; runs in the nightly job"]
fn twelve_predicates_plan_with_at_most_two_sample_runs_per_predicate_set() {
    let (plans, runs) = plan_many_predicates(12);
    assert!(
        runs <= 2 << 12,
        "{runs} sample operators for 2^12 predicate sets"
    );
    assert_eq!(plans, 22349);
}
