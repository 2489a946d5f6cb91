//! Property-based tests for the MPro extension and the sampling estimator.
//!
//! * MPro must be *algebraically invisible*: over any relation, any predicate
//!   subset and any `k`, it returns exactly what the equivalent µ chain
//!   returns, in the same order, and never evaluates a predicate more than
//!   once per tuple (its probe count is bounded by the naive
//!   every-predicate-on-every-tuple scheme; against the µ chain it is usually
//!   — but not provably always — lower, because both compare the queue head
//!   against slightly different input bounds).
//! * The sampling estimator must give a finite, non-negative cardinality for
//!   every plan shape over arbitrary random relations.

use std::sync::Arc;

use proptest::prelude::*;

use ranksql::common::{DataType, Field, Schema, Value};
use ranksql::executor::mpro::MProOp;
use ranksql::executor::operator::{check_rank_order, take};
use ranksql::executor::rank::RankOp;
use ranksql::executor::scan::RankScan;
use ranksql::executor::{ColumnScan, ExecutionContext, PhysicalOperator};
use ranksql::expr::{RankPredicate, RankingContext, ScoringFunction};
use ranksql::optimizer::SamplingEstimator;
use ranksql::storage::{Catalog, ScoreIndex, Table, TableBuilder};
use ranksql::{BoolExpr, LogicalPlan, QueryBuilder, RankQuery};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// A random single-table relation with three predicate-score columns.
#[derive(Debug, Clone)]
struct ScoredTable {
    rows: Vec<(f64, f64, f64)>,
    k: usize,
    /// Whether the pipeline is fed by a rank-scan (ordered) or a sequential
    /// scan (unordered) — MPro must be correct either way.
    use_rank_scan: bool,
}

fn scored_table() -> impl Strategy<Value = ScoredTable> {
    (
        proptest::collection::vec((0u32..=100, 0u32..=100, 0u32..=100), 1..60),
        1usize..12,
        any::<bool>(),
    )
        .prop_map(|(raw, k, use_rank_scan)| ScoredTable {
            rows: raw
                .into_iter()
                .map(|(a, b, c)| (a as f64 / 100.0, b as f64 / 100.0, c as f64 / 100.0))
                .collect(),
            k,
            use_rank_scan,
        })
}

fn build_table(rows: &[(f64, f64, f64)]) -> Arc<Table> {
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("p0", DataType::Float64),
        Field::new("p1", DataType::Float64),
        Field::new("p2", DataType::Float64),
    ])
    .qualify_all("T");
    let mut builder = TableBuilder::new("T", schema);
    for (i, (a, b, c)) in rows.iter().enumerate() {
        builder = builder.row(vec![
            Value::from(i as i64),
            Value::from(*a),
            Value::from(*b),
            Value::from(*c),
        ]);
    }
    Arc::new(builder.build(0).expect("table"))
}

fn ctx3() -> Arc<RankingContext> {
    RankingContext::new(
        vec![
            RankPredicate::attribute("p0", "T.p0"),
            RankPredicate::attribute("p1", "T.p1"),
            RankPredicate::attribute("p2", "T.p2"),
        ],
        ScoringFunction::Sum,
    )
}

fn source(
    table: &Arc<Table>,
    use_rank_scan: bool,
    exec: &ExecutionContext,
) -> Box<dyn PhysicalOperator> {
    if use_rank_scan {
        let idx = Arc::new(
            ScoreIndex::build(exec.ranking().predicate(0), table.schema(), &table.scan())
                .expect("index"),
        );
        Box::new(RankScan::new(Arc::clone(table), idx, 0, exec, "scan").expect("rank-scan"))
    } else {
        let epoch = table.pin_epoch(true);
        let rows = 0..epoch.row_count();
        Box::new(ColumnScan::new(&epoch, rows, None, false, None, exec, "scan").expect("scan"))
    }
}

// ---------------------------------------------------------------------------
// MPro ≡ µ chain
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    #[test]
    fn mpro_is_equivalent_to_the_mu_chain(t in scored_table()) {
        let table = build_table(&t.rows);

        // µ chain: µ_p2(µ_p1(source)); when the source is a rank-scan, p0 is
        // already evaluated by it, otherwise every predicate is evaluated by
        // the chain (prepend µ_p0).
        let ctx_chain = ctx3();
        let exec = ExecutionContext::new(Arc::clone(&ctx_chain));
        let mut chain: Box<dyn PhysicalOperator> = source(&table, t.use_rank_scan, &exec);
        if !t.use_rank_scan {
            chain = Box::new(RankOp::new(chain, 0, &exec, "mu0").unwrap());
        }
        chain = Box::new(RankOp::new(chain, 1, &exec, "mu1").unwrap());
        let mut chain = Box::new(RankOp::new(chain, 2, &exec, "mu2").unwrap());
        let chain_top = take(chain.as_mut(), t.k).expect("chain");
        let chain_probes = ctx_chain.counters().total();

        // MPro over the same predicates.
        let ctx_mpro = ctx3();
        let exec2 = ExecutionContext::new(Arc::clone(&ctx_mpro));
        let src = source(&table, t.use_rank_scan, &exec2);
        let schedule = if t.use_rank_scan { vec![1, 2] } else { vec![0, 1, 2] };
        let mut mpro = MProOp::new(src, schedule, &exec2, "mpro").unwrap();
        let mpro_top = take(&mut mpro, t.k).expect("mpro");
        let mpro_probes = ctx_mpro.counters().total();

        // Same membership, same order.
        prop_assert_eq!(chain_top.len(), mpro_top.len());
        for (a, b) in chain_top.iter().zip(mpro_top.iter()) {
            prop_assert_eq!(a.tuple.id(), b.tuple.id());
        }
        // Both streams respect the rank-relational ordering contract.
        prop_assert_eq!(check_rank_order(&chain_top, &ctx_chain), None);
        prop_assert_eq!(check_rank_order(&mpro_top, &ctx_mpro), None);
        // Each strategy evaluates every predicate at most once per tuple, so
        // neither can exceed the naive bound of the materialise-then-sort
        // scheme (every predicate on every tuple).
        let naive_bound = (t.rows.len() * 3) as u64;
        prop_assert!(chain_probes <= naive_bound);
        prop_assert!(mpro_probes <= naive_bound);
        // Every emitted tuple carries a complete score state.
        for t in &mpro_top {
            prop_assert!(t.state.is_complete());
        }
    }
}

// ---------------------------------------------------------------------------
// SamplingEstimator on random relations
// ---------------------------------------------------------------------------

/// A small random join workload.
#[derive(Debug, Clone)]
struct EstimatorWorkload {
    left: Vec<(i64, f64)>,
    right: Vec<(i64, f64)>,
    k: usize,
}

fn estimator_workload() -> impl Strategy<Value = EstimatorWorkload> {
    (
        proptest::collection::vec((0i64..8, 0u32..=100), 4..80),
        proptest::collection::vec((0i64..8, 0u32..=100), 4..80),
        1usize..10,
    )
        .prop_map(|(l, r, k)| EstimatorWorkload {
            left: l.into_iter().map(|(j, p)| (j, p as f64 / 100.0)).collect(),
            right: r.into_iter().map(|(j, p)| (j, p as f64 / 100.0)).collect(),
            k,
        })
}

fn build_estimator_db(w: &EstimatorWorkload) -> (Catalog, RankQuery) {
    let cat = Catalog::new();
    let l = cat
        .create_table(
            "L",
            Schema::new(vec![
                Field::new("jc", DataType::Int64),
                Field::new("p", DataType::Float64),
            ]),
        )
        .expect("L");
    let r = cat
        .create_table(
            "R",
            Schema::new(vec![
                Field::new("jc", DataType::Int64),
                Field::new("q", DataType::Float64),
            ]),
        )
        .expect("R");
    for (j, p) in &w.left {
        l.insert(vec![Value::from(*j), Value::from(*p)])
            .expect("insert L");
    }
    for (j, q) in &w.right {
        r.insert(vec![Value::from(*j), Value::from(*q)])
            .expect("insert R");
    }
    let query = QueryBuilder::new()
        .tables(["L", "R"])
        .filter(BoolExpr::col_eq_col("L.jc", "R.jc"))
        .rank_predicate(RankPredicate::attribute("lp", "L.p"))
        .rank_predicate(RankPredicate::attribute("rq", "R.q"))
        .limit(w.k)
        .build()
        .expect("query");
    (cat, query)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    #[test]
    fn sampling_estimator_produces_sane_cardinalities(w in estimator_workload()) {
        let (cat, query) = build_estimator_db(&w);
        let samp = SamplingEstimator::build(&query, &cat, 0.5, 7).expect("sampling estimator");

        let l = cat.table("L").expect("L");
        let r = cat.table("R").expect("R");
        let plans = vec![
            LogicalPlan::scan(&l),
            LogicalPlan::rank_scan(&l, 0),
            LogicalPlan::rank_scan(&l, 0)
                .join(
                    LogicalPlan::rank_scan(&r, 1),
                    Some(BoolExpr::col_eq_col("L.jc", "R.jc")),
                    ranksql::JoinAlgorithm::HashRankJoin,
                )
                .rank(1),
            LogicalPlan::rank_scan(&l, 0).join(
                LogicalPlan::rank_scan(&r, 1),
                Some(BoolExpr::col_eq_col("L.jc", "R.jc")),
                ranksql::JoinAlgorithm::HashRankJoin,
            ),
            LogicalPlan::scan(&l)
                .join(
                    LogicalPlan::scan(&r),
                    Some(BoolExpr::col_eq_col("L.jc", "R.jc")),
                    ranksql::JoinAlgorithm::Hash,
                )
                .limit(w.k),
        ];
        for plan in &plans {
            let s = samp.estimate_cardinality(plan).expect("sampling estimate");
            prop_assert!(s.is_finite() && s >= 0.0, "sampling estimate {s} for {plan:?}");
        }
    }
}
