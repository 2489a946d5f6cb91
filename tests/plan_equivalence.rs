//! Property-based tests: for randomly generated relations, ranking
//! predicates and queries,
//!
//! 1. every plan in the closure of the canonical plan under the algebraic
//!    laws of Figure 5 returns exactly the oracle top-k;
//! 2. every rank-aware physical plan emits its stream in non-increasing
//!    upper-bound order;
//! 3. the rank-aware operators are selective (never emit more tuples than
//!    they consume);
//! 4. the answer of every plan mode is independent of the batch size it is
//!    pulled with;
//! 5. the rank-aware operators draw exactly: however the pulls are cut up,
//!    and across an `extend_limit`, every input is left at the same depth.

use proptest::prelude::*;
use ranksql::algebra::{PhysicalOp, PhysicalPlan, SetOpKind};
use ranksql::executor::{
    build_operator, drain_batched, execute_query_plan, oracle_top_k, Batch, ExecutionContext,
};
use ranksql::expr::RankedTuple;
use ranksql::{
    BoolExpr, Database, JoinAlgorithm, LogicalPlan, PlanMode, QueryBuilder, RankPredicate,
    RankQuery, ScoringFunction,
};
use ranksql_common::{DataType, Field, Schema, TupleId, Value};

const ALL_MODES: [PlanMode; 4] = [
    PlanMode::Canonical,
    PlanMode::Traditional,
    PlanMode::RankAware,
    PlanMode::RankAwareExhaustive,
];

/// A randomly generated two-table database plus its ranking query.
#[derive(Debug, Clone)]
struct Generated {
    r_rows: Vec<(i64, f64, f64)>,
    s_rows: Vec<(i64, f64)>,
    k: usize,
    scoring: ScoringFunction,
}

fn generated() -> impl Strategy<Value = Generated> {
    let r_row = (0..6i64, 0.0..1.0f64, 0.0..1.0f64);
    let s_row = (0..6i64, 0.0..1.0f64);
    (
        proptest::collection::vec(r_row, 1..20),
        proptest::collection::vec(s_row, 1..20),
        1usize..8,
        prop_oneof![
            Just(ScoringFunction::Sum),
            Just(ScoringFunction::Average),
            Just(ScoringFunction::Min),
        ],
    )
        .prop_map(|(r_rows, s_rows, k, scoring)| Generated {
            r_rows,
            s_rows,
            k,
            scoring,
        })
}

fn build(gen: &Generated) -> (Database, RankQuery) {
    let db = Database::new();
    let catalog = db.catalog();
    let r = catalog
        .create_table(
            "R",
            Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("p1", DataType::Float64),
                Field::new("p2", DataType::Float64),
            ]),
        )
        .unwrap();
    for (a, p1, p2) in &gen.r_rows {
        r.insert(vec![Value::from(*a), Value::from(*p1), Value::from(*p2)])
            .unwrap();
    }
    let s = catalog
        .create_table(
            "S",
            Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("p3", DataType::Float64),
            ]),
        )
        .unwrap();
    for (a, p3) in &gen.s_rows {
        s.insert(vec![Value::from(*a), Value::from(*p3)]).unwrap();
    }
    let query = QueryBuilder::new()
        .tables(["R", "S"])
        .filter(BoolExpr::col_eq_col("R.a", "S.a"))
        .rank_predicate(RankPredicate::attribute("p1", "R.p1"))
        .rank_predicate(RankPredicate::attribute("p2", "R.p2"))
        .rank_predicate(RankPredicate::attribute("p3", "S.p3"))
        .scoring(gen.scoring.clone())
        .limit(gen.k)
        .build()
        .unwrap();
    (db, query)
}

fn scores(query: &RankQuery, tuples: &[RankedTuple]) -> Vec<f64> {
    tuples
        .iter()
        .map(|t| query.ranking.upper_bound(&t.state).value())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Law-derived plans are result-equivalent to the canonical plan.
    #[test]
    fn algebraic_law_closure_preserves_results(gen in generated()) {
        let (db, query) = build(&gen);
        let catalog = db.catalog();
        let canonical = query.canonical_plan(catalog).unwrap();
        let expected = scores(&query, &oracle_top_k(&query, catalog).unwrap());
        let closure = ranksql::algebra::equivalent_plans(&canonical, &query, 25);
        prop_assert!(closure.len() > 1);
        for plan in closure {
            let result = execute_query_plan(&query, &plan, catalog).unwrap();
            let got = scores(&query, &result.tuples);
            prop_assert_eq!(
                got.clone(), expected.clone(),
                "plan disagreed:\n{}", plan.explain(Some(&query.ranking))
            );
        }
    }

    /// A pipelined rank-aware plan emits in non-increasing upper-bound order
    /// and its operators are selective.
    #[test]
    fn rank_plans_emit_in_order_and_are_selective(gen in generated()) {
        let (db, query) = build(&gen);
        let catalog = db.catalog();
        let r = catalog.table("R").unwrap();
        let s = catalog.table("S").unwrap();
        let plan = LogicalPlan::rank_scan(&r, 0)
            .rank(1)
            .join(
                LogicalPlan::rank_scan(&s, 2),
                Some(BoolExpr::col_eq_col("R.a", "S.a")),
                JoinAlgorithm::HashRankJoin,
            );
        let physical = PhysicalPlan::from_logical(&plan).unwrap();
        let exec = ExecutionContext::new(std::sync::Arc::clone(&query.ranking));
        let mut op = build_operator(&physical, catalog, &exec).unwrap();
        let emitted = drain_batched(op.as_mut(), 1).unwrap();
        // Non-increasing upper bounds.
        for w in emitted.windows(2) {
            prop_assert!(
                query.ranking.upper_bound(&w[0].state) >= query.ranking.upper_bound(&w[1].state)
            );
        }
        // Selectivity: no operator outputs more tuples than it drew in.
        for m in exec.metrics().snapshot() {
            if m.tuples_in() > 0 {
                prop_assert!(m.tuples_out() <= m.tuples_in().max(m.tuples_out()));
            }
        }
        // Membership equals the oracle's full join membership.
        let mut full_query = query.clone();
        full_query.k = usize::MAX / 2;
        let oracle = oracle_top_k(&full_query, catalog).unwrap();
        prop_assert_eq!(emitted.len(), oracle.len());
    }

    /// The top-k of a pipelined plan with a limit equals the oracle top-k.
    #[test]
    fn limited_rank_plan_matches_oracle(gen in generated()) {
        let (db, query) = build(&gen);
        let catalog = db.catalog();
        let r = catalog.table("R").unwrap();
        let s = catalog.table("S").unwrap();
        let plan = LogicalPlan::rank_scan(&r, 0)
            .rank(1)
            .join(
                LogicalPlan::scan(&s).rank(2),
                Some(BoolExpr::col_eq_col("R.a", "S.a")),
                JoinAlgorithm::NestedLoopRankJoin,
            )
            .limit(query.k);
        let result = execute_query_plan(&query, &plan, catalog).unwrap();
        let expected = scores(&query, &oracle_top_k(&query, catalog).unwrap());
        prop_assert_eq!(scores(&query, &result.tuples), expected);
    }

    /// Batch-size independence: every plan mode's physical plan returns the
    /// same tuples, in the same order, with the same score bits, whether it
    /// is pulled one tuple at a time or in chunks of any size.
    #[test]
    fn results_do_not_depend_on_the_batch_size(gen in generated(), batch_size in 2usize..512) {
        let (db, query) = build(&gen);
        for mode in ALL_MODES {
            let physical = db.plan(&query, mode).unwrap().physical;
            let run = |batch_size: usize| {
                let exec =
                    ExecutionContext::new(query.ranking.clone()).with_batch_size(batch_size);
                let mut root = build_operator(&physical, db.catalog(), &exec).unwrap();
                identities(&query, &drain_batched(root.as_mut(), batch_size).unwrap())
            };
            prop_assert_eq!(run(1), run(batch_size), "mode {:?}, batch size {}", mode, batch_size);
        }
    }

    /// Draw exactness: a rank-aware operator asked for `k` tuples in one
    /// call, in `k` calls of one, or for `k - 1` and then one more after an
    /// `extend_limit`, emits the same tuples and leaves the tuple budget and
    /// every operator beneath it at the same count — no over-draw, no
    /// re-draw.
    #[test]
    fn rank_aware_operators_draw_exactly(gen in generated()) {
        let (db, query) = build(&gen);
        let catalog = db.catalog();
        let r = catalog.table("R").unwrap();
        let s = catalog.table("S").unwrap();
        let on_a = Some(BoolExpr::col_eq_col("R.a", "S.a"));
        let lower = |plan: LogicalPlan| PhysicalPlan::from_logical(&plan).unwrap();
        let rank_join = |algorithm| {
            lower(LogicalPlan::rank_scan(&r, 0).rank(1).join(
                LogicalPlan::rank_scan(&s, 2),
                on_a.clone(),
                algorithm,
            ))
        };
        let plans = [
            ("µ", lower(LogicalPlan::rank_scan(&r, 0).rank(1))),
            ("HRJN", rank_join(JoinAlgorithm::HashRankJoin)),
            ("NRJN", rank_join(JoinAlgorithm::NestedLoopRankJoin)),
            (
                "∩",
                lower(
                    LogicalPlan::rank_scan(&r, 0)
                        .set_op(SetOpKind::Intersect, LogicalPlan::rank_scan(&r, 1)),
                ),
            ),
        ];
        // One run: the operator under a λ of `limit`, pulled with the given
        // sequence of `max` values, the λ raised by one before the last pull
        // when `extend` is set.  Returns what was emitted and every counter.
        let run = |plan: &PhysicalPlan, limit: usize, pulls: &[usize], extend: bool| {
            let limited = PhysicalPlan::unestimated(PhysicalOp::Limit {
                input: Box::new(plan.clone()),
                k: limit,
            });
            let exec = ExecutionContext::new(query.ranking.clone());
            let mut root = build_operator(&limited, catalog, &exec).unwrap();
            let mut out = Batch::new();
            for (i, &max) in pulls.iter().enumerate() {
                if extend && i + 1 == pulls.len() {
                    assert_eq!(root.next_batch(1, &mut out).unwrap(), 0, "λ is spent");
                    assert!(root.can_extend_limit() && root.extend_limit(1));
                }
                root.next_batch(max, &mut out).unwrap();
            }
            let emitted_per_operator: Vec<u64> = exec
                .metrics()
                .snapshot()
                .iter()
                .map(|m| m.tuples_out())
                .collect();
            (
                identities(&query, &out),
                exec.budget().used(),
                emitted_per_operator,
            )
        };
        let k = gen.k;
        for (name, plan) in &plans {
            let at_once = run(plan, k, &[k], false);
            prop_assert_eq!(&run(plan, k, &vec![1; k], false), &at_once, "{}: k calls of 1", name);
            if k > 1 {
                let resumed = run(plan, k - 1, &[k - 1, 1], true);
                prop_assert_eq!(&resumed, &at_once, "{}: resumed after extend_limit", name);
            }
        }
    }
}

/// What a result is compared by: tuple identity and score bits, in order.
fn identities(query: &RankQuery, tuples: &[RankedTuple]) -> Vec<(TupleId, u64)> {
    tuples
        .iter()
        .map(|t| {
            let score = query.ranking.upper_bound(&t.state).value();
            (t.tuple.id().clone(), score.to_bits())
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Physical lowering: every plan mode produces an executable PhysicalPlan.
// ---------------------------------------------------------------------------

/// A hotel/restaurant database large enough that every optimizer mode has
/// real choices to make.
fn hotel_restaurant_db() -> (Database, RankQuery) {
    let db = Database::new();
    db.create_table(
        "Hotel",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("city", DataType::Int64),
            Field::new("quality", DataType::Float64),
        ]),
    )
    .unwrap();
    db.create_table(
        "Restaurant",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("city", DataType::Int64),
            Field::new("rating", DataType::Float64),
        ]),
    )
    .unwrap();
    for i in 0..80i64 {
        db.insert(
            "Hotel",
            vec![
                Value::from(i),
                Value::from(i % 7),
                Value::from(((i * 31) % 100) as f64 / 100.0),
            ],
        )
        .unwrap();
        db.insert(
            "Restaurant",
            vec![
                Value::from(i),
                Value::from(i % 7),
                Value::from(((i * 43) % 100) as f64 / 100.0),
            ],
        )
        .unwrap();
    }
    let query = QueryBuilder::new()
        .tables(["Hotel", "Restaurant"])
        .filter(BoolExpr::col_eq_col("Hotel.city", "Restaurant.city"))
        .rank_predicate(RankPredicate::attribute("hq", "Hotel.quality"))
        .rank_predicate(RankPredicate::attribute("rr", "Restaurant.rating"))
        .limit(6)
        .build()
        .unwrap();
    (db, query)
}

#[test]
fn every_plan_mode_lowers_to_an_executable_physical_plan() {
    let (db, query) = hotel_restaurant_db();
    let reference = db
        .execute_with_mode(&query, PlanMode::Canonical)
        .unwrap()
        .scores();
    for mode in ALL_MODES {
        let optimized = db.plan(&query, mode).unwrap();
        assert!(optimized.physical.node_count() >= 3, "mode {mode:?}");
        // Executing exactly the physical plan the optimizer returned gives
        // the canonical answer.
        let result = db.execute_physical(&query, &optimized.physical).unwrap();
        assert_eq!(result.scores(), reference, "mode {mode:?}");
        // The explain output names every operator the executor actually ran,
        // in the same post-order the metrics registry recorded.
        let explained = optimized.physical.explain(Some(&query.ranking));
        for (label, _) in result.metrics.output_cardinalities() {
            assert!(
                explained.contains(&label),
                "mode {mode:?}: `{label}` missing:\n{explained}"
            );
        }
    }
}

#[test]
fn rank_aware_explain_names_a_concrete_physical_operator_with_cost() {
    let (db, query) = hotel_restaurant_db();
    let text = db.explain(&query, PlanMode::RankAware).unwrap();
    // At least one concrete rank-aware physical operator with a per-node
    // cost annotation (the acceptance criterion of the IR refactor).
    let physical_section = text
        .split("physical plan:")
        .nth(1)
        .expect("physical section");
    assert!(
        ["HRJN", "NRJN", "RankScan_", "Rank_", "SortLimit["]
            .iter()
            .any(|op| physical_section.contains(op)),
        "no concrete physical operator named:\n{text}"
    );
    assert!(
        physical_section.contains("cost="),
        "no per-node cost printed:\n{text}"
    );
    assert!(
        physical_section.contains("est_rows="),
        "no per-node rows printed:\n{text}"
    );
}

#[test]
fn explain_analyze_reports_actual_cardinalities() {
    let (db, query) = hotel_restaurant_db();
    let result = db.execute_with_mode(&query, PlanMode::RankAware).unwrap();
    let analyzed = result.explain_analyze(Some(&query.ranking));
    assert!(analyzed.contains("actual_rows="), "{analyzed}");
    // Executions through the (session-backed) wrappers surface the
    // plan-cache outcome first...
    let mut lines = analyzed.lines();
    let cache_line = lines.next().unwrap();
    assert!(cache_line.starts_with("plan cache:"), "{analyzed}");
    // ...then the statistics snapshot of each referenced table...
    let first_plan_line = lines.find(|l| !l.starts_with("statistics[")).unwrap();
    // ...and the plan root produced exactly the returned rows.
    assert!(
        first_plan_line.contains(&format!("actual_rows={}", result.rows.len())),
        "{analyzed}"
    );
}

// ---------------------------------------------------------------------------
// Materialise-then-sort over a hash join: the join scores each result before
// building it and prunes against the sort's heap.
// ---------------------------------------------------------------------------

/// R ⋈ S on `a` with scores from a three-value grid, so most join results
/// tie with many others (whatever `k`, ties straddle the k-th position),
/// plus NULL and NaN scores that must sort last without disturbing anything.
///
/// A join emits in probe-row order and ties break on `(table id, row)`
/// pairs, so a tie arriving later beats a kept one only when the probe side
/// is the table created second: `probe_created_first` picks which it is.
fn tied_scores_db(k: usize, probe_created_first: bool) -> (Database, RankQuery) {
    let db = Database::new();
    let grid = [0.25, 0.5, 0.75];
    let score = |i: usize, stride: usize, null_at: usize, nan_at: usize| match i {
        _ if i % 23 == null_at => Value::Null,
        _ if i % 29 == nan_at => Value::from(f64::NAN),
        _ => Value::from(grid[i * stride % 3]),
    };
    let r = Schema::new(vec![
        Field::new("a", DataType::Int64),
        Field::new("p1", DataType::Float64),
        Field::new("p2", DataType::Float64),
    ]);
    let s = Schema::new(vec![
        Field::new("a", DataType::Int64),
        Field::new("p3", DataType::Float64),
    ]);
    if probe_created_first {
        db.create_table("R", r).unwrap();
        db.create_table("S", s).unwrap();
    } else {
        db.create_table("S", s).unwrap();
        db.create_table("R", r).unwrap();
    }
    for i in 0..90usize {
        let a = Value::from((i % 6) as i64);
        db.insert("R", vec![a, score(i, 1, 5, 7), score(i, 2, 11, 13)])
            .unwrap();
    }
    for i in 0..70usize {
        let a = Value::from((i * 5 % 6) as i64);
        db.insert("S", vec![a, score(i, 1, 3, 17)]).unwrap();
    }
    let query = QueryBuilder::new()
        .tables(["R", "S"])
        .filter(BoolExpr::col_eq_col("R.a", "S.a"))
        .rank_predicate(RankPredicate::attribute("p1", "R.p1"))
        .rank_predicate(RankPredicate::attribute("p2", "R.p2"))
        .rank_predicate(RankPredicate::attribute("p3", "S.p3"))
        .limit(k)
        .build()
        .unwrap();
    (db, query)
}

/// Whether some `SortLimit` in `plan` sits directly on a hash join.
fn sorts_a_hash_join(plan: &PhysicalPlan) -> bool {
    let here = matches!(&plan.op, PhysicalOp::SortLimit { input, .. }
        if matches!(input.op, PhysicalOp::Join { algorithm: JoinAlgorithm::Hash, .. }));
    here || plan.children().into_iter().any(sorts_a_hash_join)
}

#[test]
fn traditional_over_a_hash_join_returns_the_oracle_top_k() {
    // 1 and 10 cut deep inside a run of tied scores; 1040 reaches the
    // NULL- and NaN-scored tail; 2000 exceeds the join's cardinality.
    for (k, probe_created_first) in [
        (1, false),
        (10, true),
        (10, false),
        (37, false),
        (1040, true),
        (2000, false),
    ] {
        let (db, query) = tied_scores_db(k, probe_created_first);
        let catalog = db.catalog();
        let oracle = identities(&query, &oracle_top_k(&query, catalog).unwrap());
        assert_eq!(oracle.len(), k.min(1050));
        for threads in [1, 2, 4] {
            let plan = db
                .session()
                .with_mode(PlanMode::Traditional)
                .with_threads(threads)
                .plan(&query)
                .unwrap()
                .physical;
            assert!(sorts_a_hash_join(&plan), "{}", plan.explain(None));
            for morsel in [7, 1024] {
                for batch in [1, 16, 1024] {
                    let exec = ExecutionContext::new(query.ranking.clone())
                        .with_threads(threads)
                        .with_morsel_size(morsel)
                        .with_batch_size(batch);
                    let mut root = build_operator(&plan, catalog, &exec).unwrap();
                    let got = identities(&query, &drain_batched(root.as_mut(), batch).unwrap());
                    assert_eq!(
                        got, oracle,
                        "k={k} probe_created_first={probe_created_first} \
                         threads={threads} morsel={morsel} batch={batch}"
                    );
                }
            }
        }
    }
}

#[test]
fn traditional_over_a_hash_join_extends_its_limit_before_the_first_pull() {
    let (db, query) = tied_scores_db(10, false);
    let catalog = db.catalog();
    let plan = db
        .session()
        .with_mode(PlanMode::Traditional)
        .with_threads(1)
        .plan(&query)
        .unwrap()
        .physical;
    assert!(sorts_a_hash_join(&plan), "{}", plan.explain(None));
    let mut extended = query.clone();
    extended.k = 10 + 27;
    let oracle = identities(&extended, &oracle_top_k(&extended, catalog).unwrap());
    for batch in [1, 16, 1024] {
        let exec = ExecutionContext::new(query.ranking.clone()).with_batch_size(batch);
        let mut root = build_operator(&plan, catalog, &exec).unwrap();
        assert!(root.can_extend_limit() && root.extend_limit(27));
        let got = identities(&query, &drain_batched(root.as_mut(), batch).unwrap());
        assert_eq!(got, oracle, "batch={batch}");
    }
}
