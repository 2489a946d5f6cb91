//! Property-based invariants of the RankSQL system, complementing
//! `plan_equivalence.rs`:
//!
//! 1. every optimizer mode (canonical, traditional, DP, DP + heuristics)
//!    returns exactly the same top-k scores for random data;
//! 2. results are emitted in non-increasing final-score order and contain at
//!    most `k` rows;
//! 3. the order in which µ operators are scheduled never changes the result
//!    (Proposition 4's commutativity, verified physically);
//! 4. monotonic scoring functions honour the upper-bound contract of the
//!    Ranking Principle (Property 1): the maximal-possible score of a partial
//!    evaluation is never smaller than any completed score consistent with it;
//! 5. the SQL front end round-trips the structural parts of a query;
//! 6. the rank-joins, which queue unbuilt candidates and materialise on emit,
//!    agree with each other tuple for tuple and with the oracle score for
//!    score on tables full of duplicate keys and tied scores, for every `k`,
//!    and resume after an early stop without drawing any input twice;
//! 7. the oracle, which checks each conjunct on the shortest prefix of the
//!    nested loop that binds its tables, returns exactly the top-k of the
//!    brute-force filtered Cartesian product, for every `k`.

use proptest::prelude::*;

use ranksql::expr::{RankPredicate, RankingContext, ScoringFunction};
use ranksql::storage::Catalog;
use ranksql::{
    parse_topk_query, BoolExpr, DataType, Database, Field, PlanMode, QueryBuilder, RankQuery,
    Schema, Value,
};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// A randomly generated two-table join workload.
#[derive(Debug, Clone)]
struct JoinWorkload {
    /// Rows of table R: (join column, p1 score, boolean flag).
    r_rows: Vec<(Option<i64>, f64, bool)>,
    /// Rows of table S: (join column, p2 score, p3 score).
    s_rows: Vec<(Option<i64>, f64, f64)>,
    /// Requested result size.
    k: usize,
    /// Per-predicate simulated evaluation costs.
    costs: [u64; 3],
}

/// A join key from a domain of 8, NULL one time in nine.
fn join_key() -> impl Strategy<Value = Option<i64>> {
    (0..9i64).prop_map(|key| (key < 8).then_some(key))
}

fn join_workload() -> impl Strategy<Value = JoinWorkload> {
    let r_row = (join_key(), 0.0..1.0f64, any::<bool>());
    let s_row = (join_key(), 0.0..1.0f64, 0.0..1.0f64);
    (
        proptest::collection::vec(r_row, 1..25),
        proptest::collection::vec(s_row, 1..25),
        1..12usize,
        (0..4u64, 0..4u64, 0..4u64),
    )
        .prop_map(|(r_rows, s_rows, k, (c0, c1, c2))| JoinWorkload {
            r_rows,
            s_rows,
            k,
            costs: [c0, c1, c2],
        })
}

fn build_database(w: &JoinWorkload) -> (Database, RankQuery) {
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
            Field::new("p3", DataType::Float64),
        ]),
    )
    .unwrap();
    for &(jc, p1, flag) in &w.r_rows {
        db.insert(
            "R",
            vec![
                jc.map_or(Value::Null, Value::from),
                Value::from(p1),
                Value::from(flag),
            ],
        )
        .unwrap();
    }
    for &(jc, p2, p3) in &w.s_rows {
        let jc = jc.map_or(Value::Null, Value::from);
        db.insert("S", vec![jc, Value::from(p2), Value::from(p3)])
            .unwrap();
    }
    let query = QueryBuilder::new()
        .tables(["R", "S"])
        .filter(BoolExpr::col_eq_col("R.jc", "S.jc"))
        .rank_predicate(RankPredicate::attribute_with_cost("p1", "R.p1", w.costs[0]))
        .rank_predicate(RankPredicate::attribute_with_cost("p2", "S.p2", w.costs[1]))
        .rank_predicate(RankPredicate::attribute_with_cost("p3", "S.p3", w.costs[2]))
        .limit(w.k)
        .build()
        .unwrap();
    (db, query)
}

/// Rounds scores so float noise from different evaluation orders does not
/// produce spurious failures.
fn rounded(scores: &[f64]) -> Vec<i64> {
    scores.iter().map(|s| (s * 1e9).round() as i64).collect()
}

// ---------------------------------------------------------------------------
// 1 + 2: optimizer modes agree, results are ordered and bounded by k
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    #[test]
    fn every_plan_mode_returns_the_same_topk(w in join_workload()) {
        let (db, query) = build_database(&w);
        let reference = db.execute_with_mode(&query, PlanMode::Canonical).unwrap();
        let reference_scores = rounded(&reference.scores());

        for mode in [
            PlanMode::Traditional,
            PlanMode::RankAware,
            PlanMode::RankAwareExhaustive,
        ] {
            let result = db.execute_with_mode(&query, mode).unwrap();
            prop_assert_eq!(
                rounded(&result.scores()),
                reference_scores.clone(),
                "mode {:?} disagrees with the canonical plan",
                mode
            );
        }
    }

    #[test]
    fn results_are_sorted_and_bounded_by_k(w in join_workload()) {
        let (db, query) = build_database(&w);
        let result = db.execute(&query).unwrap();
        prop_assert!(result.rows.len() <= w.k);
        let scores = result.scores();
        for pair in scores.windows(2) {
            prop_assert!(
                pair[0] >= pair[1] - 1e-9,
                "scores not non-increasing: {:?}",
                scores
            );
        }
        // Every returned score is achievable: at most the number of
        // predicates (each in [0, 1]) and at least 0.
        for s in &scores {
            prop_assert!((0.0..=3.0 + 1e-9).contains(s));
        }
    }
}

// ---------------------------------------------------------------------------
// 3: µ scheduling order does not change the answer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct SingleTable {
    rows: Vec<(f64, f64, f64)>,
    k: usize,
}

fn single_table() -> impl Strategy<Value = SingleTable> {
    (
        proptest::collection::vec((0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64), 1..30),
        1..10usize,
    )
        .prop_map(|(rows, k)| SingleTable { rows, k })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn mu_scheduling_order_is_irrelevant_for_the_answer(t in single_table()) {
        use ranksql::algebra::LogicalPlan;

        let catalog = Catalog::new();
        let table = catalog
            .create_table(
                "T",
                Schema::new(vec![
                    Field::new("p1", DataType::Float64),
                    Field::new("p2", DataType::Float64),
                    Field::new("p3", DataType::Float64),
                ]),
            )
            .unwrap();
        for &(a, b, c) in &t.rows {
            table.insert(vec![Value::from(a), Value::from(b), Value::from(c)]).unwrap();
        }
        let ranking = RankingContext::new(
            vec![
                RankPredicate::attribute("p1", "T.p1"),
                RankPredicate::attribute("p2", "T.p2"),
                RankPredicate::attribute("p3", "T.p3"),
            ],
            ScoringFunction::Sum,
        );
        let query = RankQuery::new(vec!["T".into()], vec![], ranking, t.k);

        let permutations: [[usize; 3]; 6] =
            [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        let mut all_scores: Vec<Vec<i64>> = Vec::new();
        for perm in permutations {
            let mut plan = LogicalPlan::scan(&table);
            for p in perm {
                plan = plan.rank(p);
            }
            let plan = plan.limit(t.k);
            let result =
                ranksql::executor::execute_query_plan(&query, &plan, &catalog).unwrap();
            let scores: Vec<f64> = result
                .tuples
                .iter()
                .map(|t| query.ranking.upper_bound(&t.state).value())
                .collect();
            all_scores.push(rounded(&scores));
        }
        for other in &all_scores[1..] {
            prop_assert_eq!(&all_scores[0], other);
        }
    }
}

// ---------------------------------------------------------------------------
// 4: scoring-function upper bounds honour the Ranking Principle
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn upper_bound_dominates_every_completion(
        evaluated in proptest::collection::vec((any::<bool>(), 0.0..1.0f64), 1..6),
        weights in proptest::collection::vec(0.1..2.0f64, 6),
    ) {
        let n = evaluated.len();
        let scorings = vec![
            ScoringFunction::Sum,
            ScoringFunction::Min,
            ScoringFunction::Product,
            ScoringFunction::Average,
            ScoringFunction::weighted_sum(weights[..n].to_vec()),
        ];
        for scoring in scorings {
            // The partial state: Some(score) for evaluated predicates.
            let partial: Vec<Option<f64>> = evaluated
                .iter()
                .map(|(known, s)| if *known { Some(*s) } else { None })
                .collect();
            let upper = scoring.upper_bound(&partial, 1.0).value();

            // Any completion of the unknown predicates scores no higher.
            let completions = [0.0, 0.25, 0.5, 1.0];
            for fill in completions {
                let complete: Vec<f64> = evaluated
                    .iter()
                    .map(|(known, s)| if *known { *s } else { fill })
                    .collect();
                let score = scoring.combine(&complete).value();
                prop_assert!(
                    score <= upper + 1e-9,
                    "{:?}: completion {} exceeds upper bound {}",
                    scoring, score, upper
                );
            }
        }
    }

    #[test]
    fn scoring_functions_are_monotonic(
        lower in proptest::collection::vec(0.0..1.0f64, 1..6),
        bumps in proptest::collection::vec(0.0..1.0f64, 6),
    ) {
        let n = lower.len();
        let higher: Vec<f64> =
            lower.iter().zip(&bumps).map(|(l, b)| (l + b).min(1.0)).collect();
        let scorings = vec![
            ScoringFunction::Sum,
            ScoringFunction::Min,
            ScoringFunction::Product,
            ScoringFunction::Average,
            ScoringFunction::weighted_sum(vec![1.0; n]),
        ];
        for scoring in scorings {
            prop_assert!(
                scoring.check_monotonic(&lower, &higher),
                "{:?} not monotonic for {:?} -> {:?}",
                scoring, lower, higher
            );
            prop_assert!(scoring.combine(&lower) <= scoring.combine(&higher));
        }
    }
}

// ---------------------------------------------------------------------------
// 5: the SQL front end round-trips structure
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn parser_roundtrips_tables_and_k(
        k in 1..10_000usize,
        n_tables in 1..4usize,
    ) {
        let table_names: Vec<String> = (0..n_tables).map(|i| format!("T{i}")).collect();
        let preds: Vec<String> =
            (0..n_tables).map(|i| format!("T{i}.score")).collect();
        let sql = format!(
            "SELECT * FROM {} ORDER BY {} LIMIT {}",
            table_names.join(", "),
            preds.join(" + "),
            k
        );
        let query = parse_topk_query(&sql).unwrap();
        prop_assert_eq!(query.k, k);
        prop_assert_eq!(query.tables.clone(), table_names);
        prop_assert_eq!(query.num_rank_predicates(), n_tables);
        prop_assert!(query.bool_predicates.is_empty());
    }
}

// ---------------------------------------------------------------------------
// 6: lazy rank-joins under duplicate keys and tied scores
// ---------------------------------------------------------------------------

/// Rows `(join key, score)` with keys from a domain of 4 (NULL one time in
/// nine) and scores in steps of 0.25, so equal keys and equal scores abound.
fn tied_rows() -> impl Strategy<Value = Vec<(Option<i64>, f64)>> {
    let row = (0..9i64, 0..5u32)
        .prop_map(|(key, quarter)| ((key < 8).then_some(key % 4), f64::from(quarter) / 4.0));
    proptest::collection::vec(row, 1..30)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    #[test]
    fn rank_joins_agree_under_ties_for_every_k_and_resume_without_redrawing(
        l_rows in tied_rows(),
        r_rows in tied_rows(),
    ) {
        use std::sync::Arc;
        use ranksql::common::TupleId;
        use ranksql::executor::operator::take;
        use ranksql::executor::rank_join::RankJoin;
        use ranksql::executor::scan::RankScan;
        use ranksql::executor::{
            drain_batched, oracle_top_k, BoxedOperator, ExecutionContext, PhysicalOperator,
        };
        use ranksql::storage::{ScoreIndex, Table};

        let catalog = Catalog::new();
        let mut tables: Vec<Arc<Table>> = Vec::new();
        for (name, rows) in [("L", &l_rows), ("R", &r_rows)] {
            let schema = Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("p", DataType::Float64),
            ]);
            let table = catalog.create_table(name, schema).unwrap();
            for &(key, p) in rows {
                let key = key.map_or(Value::Null, Value::from);
                table.insert(vec![key, Value::from(p)]).unwrap();
            }
            tables.push(table);
        }
        let ranking = RankingContext::new(
            vec![
                RankPredicate::attribute("pl", "L.p"),
                RankPredicate::attribute("pr", "R.p"),
            ],
            ScoringFunction::Sum,
        );
        let cond = BoolExpr::col_eq_col("L.k", "R.k");

        // One run: a fresh join over two rank-scans, `first` tuples taken,
        // the top-k extension `Cursor::fetch_more` performs, then the rest.
        let run = |hash: bool, first: usize| {
            let exec = ExecutionContext::new(Arc::clone(&ranking));
            let scan = |i: usize| -> BoxedOperator {
                let t = &tables[i];
                let index = ScoreIndex::build(ranking.predicate(i), t.schema(), &t.scan()).unwrap();
                let label = format!("scan{i}");
                Box::new(RankScan::new(Arc::clone(t), Arc::new(index), i, &exec, label).unwrap())
            };
            let mut join = if hash {
                RankJoin::hrjn(scan(0), scan(1), Some(&cond), &exec, "join").unwrap()
            } else {
                RankJoin::nrjn(scan(0), scan(1), Some(&cond), &exec, "join").unwrap()
            };
            let head = take(&mut join, first).unwrap();
            let draws = |exec: &ExecutionContext| -> u64 {
                let metrics = exec.metrics().snapshot();
                metrics.iter().filter(|m| m.name().starts_with("scan")).map(|m| m.tuples_out()).sum()
            };
            let draws_at_pause = draws(&exec);
            assert!(join.extend_limit(usize::MAX));
            let mut all = head;
            all.extend(drain_batched(&mut join, 1).unwrap());
            let stream: Vec<(TupleId, u64)> = all
                .iter()
                .map(|t| (t.tuple.id().clone(), ranking.upper_bound(&t.state).value().to_bits()))
                .collect();
            (stream, draws_at_pause, draws(&exec))
        };

        let (full, _, full_draws) = run(true, 0);
        // k = all, against the oracle: the same scores in the same order,
        // bit for bit, and the same members.
        let query = RankQuery::new(
            vec!["L".into(), "R".into()],
            vec![cond.clone()],
            Arc::clone(&ranking),
            usize::MAX,
        );
        let oracle = oracle_top_k(&query, &catalog).unwrap();
        let oracle_scores: Vec<u64> =
            oracle.iter().map(|t| ranking.upper_bound(&t.state).value().to_bits()).collect();
        let full_scores: Vec<u64> = full.iter().map(|(_, s)| *s).collect();
        prop_assert_eq!(&full_scores, &oracle_scores);
        let mut members: Vec<&TupleId> = full.iter().map(|(id, _)| id).collect();
        let mut oracle_members: Vec<&TupleId> = oracle.iter().map(|t| t.tuple.id()).collect();
        members.sort();
        oracle_members.sort();
        prop_assert_eq!(members, oracle_members);

        for first in [0, 1, 10] {
            // HRJN ≡ NRJN tuple for tuple, however early the consumer paused;
            // pausing draws less, resuming draws the rest exactly once.
            for hash in [true, false] {
                let (stream, at_pause, total) = run(hash, first);
                prop_assert_eq!(&stream, &full, "hash = {}, first = {}", hash, first);
                prop_assert!(at_pause <= total);
                prop_assert_eq!(total, full_draws, "hash = {}, first = {}", hash, first);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 7: the oracle's pushed-down conjuncts
// ---------------------------------------------------------------------------

/// One to three tables of zero to twelve rows `(key, score, flag)`, keys
/// from a domain of 3 with NULLs, scores in quarters.
fn oracle_tables() -> impl Strategy<Value = Vec<Vec<(Option<i64>, f64, bool)>>> {
    let row = (0..4i64, 0..5u32, any::<bool>()).prop_map(|(key, quarter, flag)| {
        ((key < 3).then_some(key), f64::from(quarter) / 4.0, flag)
    });
    proptest::collection::vec(proptest::collection::vec(row, 0..13), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    #[test]
    fn pushed_down_oracle_equals_the_filtered_full_product(
        tables in oracle_tables(),
        order in proptest::collection::vec(any::<u64>(), 6),
        constant in any::<bool>(),
        sum_below in 0..13u32,
        k_from_end in 0..3usize,
    ) {
        use std::sync::Arc;
        use ranksql::common::Tuple;
        use ranksql::executor::oracle::oracle_top_k_over_rows;
        use ranksql::expr::{CompareOp, RankedTuple, ScalarExpr, ScoreState};

        let names: Vec<String> = (0..tables.len()).map(|i| format!("T{i}")).collect();
        let catalog = Catalog::new();
        let mut rows = Vec::new();
        for (name, data) in names.iter().zip(&tables) {
            let schema = Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("p", DataType::Float64),
                Field::new("f", DataType::Bool),
            ]);
            let table = catalog.create_table(name, schema).unwrap();
            for &(key, p, f) in data {
                let key = key.map_or(Value::Null, Value::from);
                table.insert(vec![key, Value::from(p), Value::from(f)]).unwrap();
            }
            rows.push(table.scan());
        }
        let schema = names
            .iter()
            .map(|n| catalog.table(n).unwrap().schema().clone())
            .reduce(|a, b| a.join(&b))
            .unwrap();

        // Key equalities along the chain, a selection, a constant and one
        // conjunct over every table, in a random order.
        let mut conjuncts: Vec<BoolExpr> = (1..names.len())
            .map(|i| BoolExpr::col_eq_col(&format!("T{}.k", i - 1), &format!("T{i}.k")))
            .collect();
        conjuncts.push(BoolExpr::column_is_true("T0.f"));
        conjuncts.push(BoolExpr::Literal(constant || sum_below % 2 == 0));
        let total = names
            .iter()
            .map(|n| ScalarExpr::col(&format!("{n}.p")))
            .reduce(|a, b| a.add(b))
            .unwrap();
        let bound = ScalarExpr::lit(f64::from(sum_below) / 4.0);
        conjuncts.push(BoolExpr::compare(total, CompareOp::LtEq, bound));
        let mut keyed: Vec<(u64, BoolExpr)> = order.iter().copied().zip(conjuncts).collect();
        keyed.sort_by_key(|(key, _)| *key);
        let conjuncts: Vec<BoolExpr> = keyed.into_iter().map(|(_, c)| c).collect();

        let ranking = RankingContext::new(
            names
                .iter()
                .map(|n| RankPredicate::attribute(format!("s{n}"), &format!("{n}.p")))
                .collect(),
            ScoringFunction::Sum,
        );

        // Brute force: the full product, every conjunct on every tuple.
        let checks: Vec<_> = conjuncts.iter().map(|c| c.bind(&schema).unwrap()).collect();
        let scores: Vec<_> = ranking.predicates().iter().map(|p| p.bind(&schema).unwrap()).collect();
        let mut product: Vec<Tuple> = vec![];
        for (i, table) in rows.iter().enumerate() {
            product = if i == 0 {
                table.clone()
            } else {
                product.iter().flat_map(|t| table.iter().map(move |r| t.join(r))).collect()
            };
        }
        let mut expected: Vec<RankedTuple> = Vec::new();
        for t in product {
            if checks.iter().all(|c| c.eval(&t).unwrap()) {
                let mut state = ScoreState::new(scores.len());
                for (i, p) in scores.iter().enumerate() {
                    state.set(i, p.evaluate(&t).unwrap().value());
                }
                expected.push(RankedTuple::new(t, state));
            }
        }
        expected.sort_by(|a, b| ranking.cmp_desc(a, b));

        let fingerprint = |ts: &[RankedTuple]| -> Vec<(Vec<(u32, u64)>, u64)> {
            ts.iter()
                .map(|t| (t.tuple.id().parts().to_vec(), ranking.upper_bound(&t.state).value().to_bits()))
                .collect()
        };
        for k in 0..=expected.len() + k_from_end {
            let query = RankQuery::new(names.clone(), conjuncts.clone(), Arc::clone(&ranking), k);
            let got = oracle_top_k_over_rows(&query, &schema, &rows).unwrap();
            let want = &expected[..k.min(expected.len())];
            prop_assert_eq!(fingerprint(&got), fingerprint(want), "k = {}", k);
        }
    }
}
