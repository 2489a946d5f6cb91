//! Property-based tests for the extensions that go beyond the paper: the
//! MPro multi-predicate rank operator and the histogram-convolution
//! cardinality estimator.
//!
//! * MPro must be *algebraically invisible*: over any relation, any predicate
//!   subset and any `k`, it returns exactly what the equivalent µ chain
//!   returns, in the same order, and never evaluates a predicate more than
//!   once per tuple (its probe count is bounded by the naive
//!   every-predicate-on-every-tuple scheme; against the µ chain it is usually
//!   — but not provably always — lower, because both compare the queue head
//!   against slightly different input bounds).
//! * The histogram estimator must stay within its mathematical contract on
//!   arbitrary data: probabilities in `[0, 1]`, mass conservation under
//!   convolution, monotone tail probabilities, and cardinality estimates that
//!   are finite, non-negative and bounded by the membership cardinality.

use std::sync::Arc;

use proptest::prelude::*;

use ranksql::common::{DataType, Field, Schema, Value};
use ranksql::executor::mpro::MProOp;
use ranksql::executor::operator::{check_rank_order, take};
use ranksql::executor::rank::RankOp;
use ranksql::executor::scan::RankScan;
use ranksql::executor::{ColumnScan, ExecutionContext, PhysicalOperator};
use ranksql::expr::{RankPredicate, RankingContext, ScoringFunction};
use ranksql::optimizer::{HistogramEstimator, SamplingEstimator, ScoreHistogram};
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
// ScoreHistogram arithmetic
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn histogram_convolution_conserves_mass_and_support(
        xs in proptest::collection::vec(0.0f64..=1.0, 0..40),
        ys in proptest::collection::vec(0.0f64..=1.0, 0..40),
        buckets in 1usize..100,
    ) {
        let hx = ScoreHistogram::from_scores(&xs, buckets);
        let hy = ScoreHistogram::from_scores(&ys, buckets);
        prop_assert!((hx.total_mass() - 1.0).abs() < 1e-6);
        let c = hx.convolve(&hy, buckets);
        prop_assert!((c.total_mass() - 1.0).abs() < 1e-6);
        prop_assert!(c.lo() >= -1e-9);
        prop_assert!(c.hi() <= 2.0 + 1e-9);
        // The convolution mean is the sum of the means (independence), up to
        // the discretisation error of the bucket midpoints (≈ one and a half
        // bucket widths of the operands plus one of the result).
        let tolerance = 3.0 / buckets as f64 + 1e-9;
        prop_assert!(
            (c.mean() - (hx.mean() + hy.mean())).abs() <= tolerance,
            "mean {} vs {} + {} (tolerance {tolerance})",
            c.mean(),
            hx.mean(),
            hy.mean()
        );
    }

    #[test]
    fn histogram_tail_probability_is_monotone(
        xs in proptest::collection::vec(0.0f64..=1.0, 1..60),
        thresholds in proptest::collection::vec(-0.5f64..=1.5, 2..10),
    ) {
        let h = ScoreHistogram::from_scores(&xs, 32);
        let mut sorted = thresholds.clone();
        sorted.sort_by(f64::total_cmp);
        let probs: Vec<f64> = sorted.iter().map(|&x| h.prob_at_least(x)).collect();
        for w in probs.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-9, "tail probability must not increase: {probs:?}");
        }
        for p in probs {
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }
}

// ---------------------------------------------------------------------------
// HistogramEstimator vs SamplingEstimator on random relations
// ---------------------------------------------------------------------------

/// A small random join workload shared by both estimators.
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
    fn both_estimators_produce_sane_cardinalities(w in estimator_workload()) {
        let (cat, query) = build_estimator_db(&w);
        let hist = HistogramEstimator::build(&query, &cat, 0.5, 7).expect("histogram estimator");
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
            let h = hist.estimate_cardinality(plan).expect("histogram estimate");
            let s = samp.estimate_cardinality(plan).expect("sampling estimate");
            prop_assert!(h.is_finite() && h >= 0.0, "histogram estimate {h} for {plan:?}");
            prop_assert!(s.is_finite() && s >= 0.0, "sampling estimate {s} for {plan:?}");
            // The histogram estimate never exceeds the classical membership
            // bound of the plan.
            prop_assert!(
                h <= hist.membership_cardinality(plan) + 1e-6,
                "histogram estimate {h} exceeds membership bound {}",
                hist.membership_cardinality(plan)
            );
        }
        // The rank fraction is a probability and shrinks (weakly) as more
        // predicates are evaluated.
        let f_none = hist.rank_fraction(ranksql::common::BitSet64::EMPTY);
        let f_one = hist.rank_fraction(ranksql::common::BitSet64::singleton(0));
        let f_all = hist.rank_fraction(ranksql::common::BitSet64::all(2));
        for f in [f_none, f_one, f_all] {
            prop_assert!((0.0..=1.0).contains(&f));
        }
        prop_assert!(f_one <= f_none + 1e-9);
        prop_assert!(f_all <= f_one + 1e-9);
    }
}
