//! Byte-for-byte `explain` text, pinned in `tests/golden/explain.txt`.
//!
//! The golden covers the paper's query Q under every `PlanMode`, hand-built
//! plans over each of the five join algorithms, a
//! parameterised join condition after `with_params`, an optimized plan
//! after `with_limit`, and the join shapes where bushy trees matter (4- and
//! 5-table chains, a 4-table star) under the two-dimensional enumerator and
//! the traditional plane.  A refactor of the physical IR or of the plan
//! search must leave every line unchanged.  Plans do not depend on the
//! thread count; `explain_is_the_same_at_every_thread_count` checks that.

use ranksql::algebra::PhysicalPlan;
use ranksql::optimizer::{optimize_traditional, CostModel, OptimizerConfig, SamplingEstimator};
use ranksql::storage::{Table, TableBuilder};
use ranksql::workload::{SyntheticConfig, SyntheticWorkload};
use ranksql::{
    BoolExpr, CompareOp, DataType, Database, Field, JoinAlgorithm, LogicalPlan, PlanMode,
    QueryBuilder, RankPredicate, RankQuery, RankingContext, ScalarExpr, Schema, ScoringFunction,
    Value,
};

const GOLDEN: &str = include_str!("golden/explain.txt");

fn table(name: &str, id: u32) -> Table {
    let schema = Schema::new(vec![
        Field::new("a", DataType::Int64),
        Field::new("p1", DataType::Float64),
    ])
    .qualify_all(name);
    TableBuilder::new(name, schema)
        .row(vec![Value::from(1), Value::from(0.5)])
        .build(id)
        .unwrap()
}

/// A join graph over tables `T0..Tn`, each `(a, b, p)` with 120 rows.  A
/// chain joins `Ti.b = Ti+1.a`; a star joins every `Ti.a` to the hub
/// `T0.a`.  Every table contributes one ranking predicate on its `p`.
fn join_graph(tables: usize, star: bool) -> (Database, RankQuery) {
    let db = Database::new();
    let mut builder = QueryBuilder::new();
    for t in 0..tables {
        let name = format!("T{t}");
        db.create_table(
            &name,
            Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Int64),
                Field::new("p", DataType::Float64),
            ]),
        )
        .unwrap();
        let t = t as i64;
        for i in 0..120i64 {
            let row = vec![
                Value::from((i * (t + 3)) % 17),
                Value::from((i * (2 * t + 5)) % 13),
                Value::from(((i * (7 * t + 11) + t) % 100) as f64 / 100.0),
            ];
            db.insert(&name, row).unwrap();
        }
        builder = builder
            .table(&name)
            .rank_predicate(RankPredicate::attribute(
                format!("p{t}"),
                &format!("{name}.p"),
            ));
        if t > 0 {
            let cond = if star {
                BoolExpr::col_eq_col("T0.a", &format!("{name}.a"))
            } else {
                BoolExpr::col_eq_col(&format!("T{}.b", t - 1), &format!("{name}.a"))
            };
            builder = builder.filter(cond);
        }
    }
    (db, builder.limit(5).build().unwrap())
}

fn join_graphs() -> [(&'static str, Database, RankQuery); 3] {
    let (c4, q4) = join_graph(4, false);
    let (c5, q5) = join_graph(5, false);
    let (s4, qs) = join_graph(4, true);
    [("chain4", c4, q4), ("chain5", c5, q5), ("star4", s4, qs)]
}

fn section(out: &mut String, title: &str, body: &str) {
    out.push_str(&format!("=== {title}\n{body}"));
}

const MODES: [PlanMode; 4] = [
    PlanMode::RankAware,
    PlanMode::RankAwareExhaustive,
    PlanMode::Traditional,
    PlanMode::Canonical,
];

fn render() -> String {
    let mut out = String::new();

    let workload = SyntheticWorkload::generate(SyntheticConfig::small(200)).unwrap();
    let db = workload.database().unwrap();
    let query = &workload.query;
    for mode in MODES {
        let text = db.session().with_mode(mode).with_threads(1).explain(query);
        section(&mut out, &format!("Q {mode:?} threads=1"), &text.unwrap());
    }

    let (r, s) = (table("R", 0), table("S", 1));
    let ctx = RankingContext::new(
        vec![
            RankPredicate::attribute("p1", "R.p1"),
            RankPredicate::attribute("p2", "S.p1"),
        ],
        ScoringFunction::Sum,
    );
    for algorithm in [
        JoinAlgorithm::NestedLoop,
        JoinAlgorithm::Hash,
        JoinAlgorithm::SortMerge,
        JoinAlgorithm::HashRankJoin,
        JoinAlgorithm::NestedLoopRankJoin,
    ] {
        let (left, right) = if algorithm.is_rank_aware() {
            (LogicalPlan::rank_scan(&r, 0), LogicalPlan::scan(&s).rank(1))
        } else {
            (LogicalPlan::scan(&r), LogicalPlan::scan(&s))
        };
        let logical = left
            .join(right, Some(BoolExpr::col_eq_col("R.a", "S.a")), algorithm)
            .limit(4);
        let physical = PhysicalPlan::from_logical(&logical).unwrap();
        section(
            &mut out,
            &format!("hand-built {algorithm:?}"),
            &physical.explain(Some(&ctx)),
        );
    }
    let cross = LogicalPlan::scan(&r)
        .join(LogicalPlan::scan(&s), None, JoinAlgorithm::NestedLoop)
        .sort(ranksql::common::BitSet64::singleton(0))
        .limit(2);
    let cross = PhysicalPlan::from_logical(&cross).unwrap();
    section(&mut out, "hand-built cross", &cross.explain(Some(&ctx)));

    let param_join = LogicalPlan::scan(&r)
        .join(
            LogicalPlan::scan(&s),
            Some(BoolExpr::col_eq_col("R.a", "S.a").and(BoolExpr::compare(
                ScalarExpr::col("S.p1"),
                CompareOp::GtEq,
                ScalarExpr::param(0),
            ))),
            JoinAlgorithm::Hash,
        )
        .select(BoolExpr::compare(
            ScalarExpr::col("R.p1"),
            CompareOp::Lt,
            ScalarExpr::param(1),
        ));
    let param_join = PhysicalPlan::from_logical(&param_join).unwrap();
    let bound = param_join
        .with_params(&[Value::from(0.25), Value::from(0.75)])
        .unwrap();
    assert_eq!(param_join.param_slots(), vec![0, 1]);
    section(&mut out, "with_params", &bound.explain(Some(&ctx)));

    let session = db.session().with_mode(PlanMode::RankAware).with_threads(1);
    let physical = session.plan(query).unwrap().physical;
    let k = workload.config.k;
    section(
        &mut out,
        &format!("with_limit k={k}->3 RankAware threads=1"),
        &physical.with_limit(k, 3).explain(Some(&query.ranking)),
    );
    let sorted = PhysicalPlan::from_logical(
        &LogicalPlan::scan(&r)
            .sort(ranksql::common::BitSet64::singleton(0))
            .limit(7),
    )
    .unwrap();
    section(
        &mut out,
        "with_limit hand-built 7->2",
        &sorted.with_limit(7, 2).explain(Some(&ctx)),
    );

    for (shape, db, query) in join_graphs() {
        for mode in [
            PlanMode::RankAware,
            PlanMode::RankAwareExhaustive,
            PlanMode::Traditional,
        ] {
            let text = db.session().with_mode(mode).with_threads(1).explain(&query);
            section(
                &mut out,
                &format!("{shape} {mode:?} threads=1"),
                &text.unwrap(),
            );
        }
    }
    out
}

/// `(plans_considered, signatures_kept, operator_runs)` of the traditional
/// search over a fresh estimator, as the default optimizer configuration
/// builds it.
fn traditional_counts(db: &Database, query: &RankQuery) -> (usize, usize, usize) {
    let config = OptimizerConfig::default();
    let catalog = db.catalog();
    let estimator =
        SamplingEstimator::build(query, catalog, config.sample_ratio, config.seed).unwrap();
    let stats = optimize_traditional(query, catalog, &estimator, &CostModel::default())
        .unwrap()
        .stats;
    (
        stats.plans_considered,
        stats.signatures_kept,
        stats.operator_runs,
    )
}

#[test]
fn traditional_search_counts_are_pinned() {
    let workload = SyntheticWorkload::generate(SyntheticConfig::small(200)).unwrap();
    let db = workload.database().unwrap();
    assert_eq!(traditional_counts(&db, &workload.query), (35, 7, 10));
    let counts: Vec<(usize, usize, usize)> = join_graphs()
        .iter()
        .map(|(_, db, query)| traditional_counts(db, query))
        .collect();
    assert_eq!(counts, vec![(130, 15, 16), (455, 31, 32), (130, 15, 16)]);
}

/// One plan serves every thread count: under every mode, `explain` at two
/// threads is the text at one, and so is a re-limited plan.
#[test]
fn explain_is_the_same_at_every_thread_count() {
    let workload = SyntheticWorkload::generate(SyntheticConfig::small(200)).unwrap();
    let db = workload.database().unwrap();
    let query = &workload.query;
    for mode in MODES {
        let [one, two] = [1, 2].map(|threads| db.session().with_mode(mode).with_threads(threads));
        assert_eq!(
            two.explain(query).unwrap(),
            one.explain(query).unwrap(),
            "{mode:?}"
        );
        let relimited = |session: &ranksql::Session<'_>| {
            let physical = session.plan(query).unwrap().physical;
            physical.with_limit(workload.config.k, 3)
        };
        assert_eq!(relimited(&two), relimited(&one), "{mode:?}");
    }
}

#[test]
fn explain_text_matches_the_golden_file() {
    let actual = render();
    if actual != GOLDEN {
        let first = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .unwrap_or(actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "explain text diverges from tests/golden/explain.txt at line {}:\n  golden: {:?}\n  actual: {:?}",
            first + 1,
            GOLDEN.lines().nth(first),
            actual.lines().nth(first),
        );
    }
}
