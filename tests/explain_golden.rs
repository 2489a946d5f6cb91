//! Byte-for-byte `explain` text, pinned in `tests/golden/explain.txt`.
//!
//! The golden covers the paper's query Q under every `PlanMode` at one and
//! two threads, hand-built plans over each of the five join algorithms, a
//! parameterised join condition after `with_params`, and an optimized plan
//! after `with_limit`.  A refactor of the physical IR must leave every line
//! unchanged.

use ranksql::algebra::PhysicalPlan;
use ranksql::storage::{Table, TableBuilder};
use ranksql::workload::{SyntheticConfig, SyntheticWorkload};
use ranksql::{
    BoolExpr, CompareOp, DataType, Field, JoinAlgorithm, LogicalPlan, PlanMode, RankPredicate,
    RankingContext, ScalarExpr, Schema, ScoringFunction, Value,
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

fn section(out: &mut String, title: &str, body: &str) {
    out.push_str(&format!("=== {title}\n{body}"));
}

fn render() -> String {
    let mut out = String::new();

    let workload = SyntheticWorkload::generate(SyntheticConfig::small(200)).unwrap();
    let db = workload.database().unwrap();
    let query = &workload.query;
    let modes = [
        PlanMode::RankAware,
        PlanMode::RankAwareExhaustive,
        PlanMode::RankAwareRuleBased,
        PlanMode::Traditional,
        PlanMode::Canonical,
    ];
    for mode in modes {
        for threads in [1, 2] {
            let session = db.session().with_mode(mode).with_threads(threads);
            let text = session.explain(query).unwrap();
            section(&mut out, &format!("Q {mode:?} threads={threads}"), &text);
        }
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

    for (mode, threads) in [(PlanMode::RankAware, 1), (PlanMode::Traditional, 2)] {
        let session = db.session().with_mode(mode).with_threads(threads);
        let physical = session.plan(query).unwrap().physical;
        let k = workload.config.k;
        section(
            &mut out,
            &format!("with_limit k={k}->3 {mode:?} threads={threads}"),
            &physical.with_limit(k, 3).explain(Some(&query.ranking)),
        );
    }
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
    out
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
