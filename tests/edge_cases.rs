//! Edge-case integration tests across the whole stack: empty inputs, extreme
//! `k` values, ties, boundary scores, empty filters, and unusual scoring
//! functions.  Every case is checked against all plan modes so that the
//! rank-aware paths, the traditional baseline and the canonical plan agree on
//! the corner cases too.

use ranksql::{
    BoolExpr, DataType, Database, Field, PlanMode, QueryBuilder, RankPredicate, RankQuery, Schema,
    ScoringFunction, Value,
};

const ALL_MODES: [PlanMode; 4] = [
    PlanMode::Canonical,
    PlanMode::Traditional,
    PlanMode::RankAware,
    PlanMode::RankAwareExhaustive,
];

fn rounded(scores: &[f64]) -> Vec<i64> {
    scores.iter().map(|s| (s * 1e9).round() as i64).collect()
}

/// A small two-table database with controllable scores.
fn two_table_db(rows: usize) -> Database {
    let db = Database::new();
    db.create_table(
        "L",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("jc", DataType::Int64),
            Field::new("p", DataType::Float64),
        ]),
    )
    .unwrap();
    db.create_table(
        "R",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("jc", DataType::Int64),
            Field::new("q", DataType::Float64),
        ]),
    )
    .unwrap();
    for i in 0..rows as i64 {
        db.insert(
            "L",
            vec![
                Value::from(i),
                Value::from(i % 7),
                Value::from(((i * 13) % 100) as f64 / 100.0),
            ],
        )
        .unwrap();
        db.insert(
            "R",
            vec![
                Value::from(i),
                Value::from(i % 7),
                Value::from(((i * 31) % 100) as f64 / 100.0),
            ],
        )
        .unwrap();
    }
    db
}

fn join_query(k: usize) -> RankQuery {
    QueryBuilder::new()
        .tables(["L", "R"])
        .filter(BoolExpr::col_eq_col("L.jc", "R.jc"))
        .rank_predicate(RankPredicate::attribute("lp", "L.p"))
        .rank_predicate(RankPredicate::attribute("rq", "R.q"))
        .limit(k)
        .build()
        .unwrap()
}

#[test]
fn k_zero_returns_no_rows_in_every_mode() {
    let db = two_table_db(50);
    let query = join_query(0);
    for mode in ALL_MODES {
        let r = db.execute_with_mode(&query, mode).unwrap();
        assert!(
            r.rows.is_empty(),
            "mode {mode:?} returned {} rows for k = 0",
            r.rows.len()
        );
    }
}

#[test]
fn k_larger_than_result_set_returns_everything() {
    // 20 rows per side joined on a 7-valued key: |L ⋈ R| = Σ |L_i|·|R_i| < 400,
    // so k = 10 000 must return exactly the full join, in every mode.
    let db = two_table_db(20);
    let query = join_query(10_000);
    let reference = db.execute_with_mode(&query, PlanMode::Canonical).unwrap();
    assert!(!reference.rows.is_empty());
    assert!(reference.rows.len() < 10_000);
    for mode in ALL_MODES {
        let r = db.execute_with_mode(&query, mode).unwrap();
        assert_eq!(r.rows.len(), reference.rows.len(), "mode {mode:?}");
        assert_eq!(
            rounded(&r.scores()),
            rounded(&reference.scores()),
            "mode {mode:?}"
        );
    }
}

#[test]
fn empty_tables_yield_empty_results() {
    let db = two_table_db(0);
    let query = join_query(5);
    for mode in ALL_MODES {
        let r = db.execute_with_mode(&query, mode).unwrap();
        assert!(r.rows.is_empty(), "mode {mode:?}");
    }
}

#[test]
fn one_empty_join_side_yields_empty_results() {
    let db = two_table_db(0);
    // Re-populate only L.
    for i in 0..30i64 {
        db.insert(
            "L",
            vec![Value::from(i), Value::from(i % 7), Value::from(0.5)],
        )
        .unwrap();
    }
    let query = join_query(5);
    for mode in ALL_MODES {
        let r = db.execute_with_mode(&query, mode).unwrap();
        assert!(r.rows.is_empty(), "mode {mode:?}");
    }
}

#[test]
fn single_row_tables_work() {
    let db = two_table_db(1);
    let query = join_query(3);
    for mode in ALL_MODES {
        let r = db.execute_with_mode(&query, mode).unwrap();
        assert_eq!(r.rows.len(), 1, "mode {mode:?}");
    }
}

#[test]
fn filter_that_removes_everything() {
    let db = two_table_db(40);
    let query = QueryBuilder::new()
        .tables(["L", "R"])
        .filter(BoolExpr::col_eq_col("L.jc", "R.jc"))
        .filter(BoolExpr::compare(
            ranksql::ScalarExpr::col("L.id"),
            ranksql::CompareOp::Lt,
            ranksql::ScalarExpr::Literal(Value::from(-1)),
        ))
        .rank_predicate(RankPredicate::attribute("lp", "L.p"))
        .rank_predicate(RankPredicate::attribute("rq", "R.q"))
        .limit(5)
        .build()
        .unwrap();
    for mode in ALL_MODES {
        let r = db.execute_with_mode(&query, mode).unwrap();
        assert!(r.rows.is_empty(), "mode {mode:?}");
    }
}

#[test]
fn all_scores_tied_returns_k_rows_with_equal_scores() {
    let db = Database::new();
    db.create_table(
        "T",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("p", DataType::Float64),
        ]),
    )
    .unwrap();
    for i in 0..25i64 {
        db.insert("T", vec![Value::from(i), Value::from(0.75)])
            .unwrap();
    }
    let query = QueryBuilder::new()
        .table("T")
        .rank_predicate(RankPredicate::attribute("p", "T.p"))
        .limit(10)
        .build()
        .unwrap();
    for mode in ALL_MODES {
        let r = db.execute_with_mode(&query, mode).unwrap();
        assert_eq!(r.rows.len(), 10, "mode {mode:?}");
        assert!(
            r.scores().iter().all(|s| (s - 0.75).abs() < 1e-12),
            "mode {mode:?}"
        );
    }
}

#[test]
fn boundary_scores_zero_and_one() {
    let db = Database::new();
    db.create_table(
        "T",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("p", DataType::Float64),
        ]),
    )
    .unwrap();
    // Half the rows have the worst possible score, half the best.
    for i in 0..20i64 {
        db.insert(
            "T",
            vec![
                Value::from(i),
                Value::from(if i % 2 == 0 { 0.0 } else { 1.0 }),
            ],
        )
        .unwrap();
    }
    let query = QueryBuilder::new()
        .table("T")
        .rank_predicate(RankPredicate::attribute("p", "T.p"))
        .limit(10)
        .build()
        .unwrap();
    for mode in ALL_MODES {
        let r = db.execute_with_mode(&query, mode).unwrap();
        assert_eq!(r.rows.len(), 10, "mode {mode:?}");
        assert!(
            r.scores().iter().all(|s| (s - 1.0).abs() < 1e-12),
            "mode {mode:?}"
        );
    }
}

#[test]
fn query_without_ranking_predicates_is_a_plain_limit() {
    // A LIMIT query with no ORDER BY ranking: every mode must return exactly
    // k joined rows (any k rows are acceptable — membership only).
    let db = two_table_db(30);
    let query = QueryBuilder::new()
        .tables(["L", "R"])
        .filter(BoolExpr::col_eq_col("L.jc", "R.jc"))
        .limit(6)
        .build()
        .unwrap();
    for mode in ALL_MODES {
        let r = db.execute_with_mode(&query, mode).unwrap();
        assert_eq!(r.rows.len(), 6, "mode {mode:?}");
    }
}

#[test]
fn projection_with_ranking_keeps_scores_and_narrows_schema() {
    let db = two_table_db(40);
    let query = QueryBuilder::new()
        .tables(["L", "R"])
        .filter(BoolExpr::col_eq_col("L.jc", "R.jc"))
        .rank_predicate(RankPredicate::attribute("lp", "L.p"))
        .rank_predicate(RankPredicate::attribute("rq", "R.q"))
        .project(["L.id", "R.id"])
        .limit(4)
        .build()
        .unwrap();
    let reference = db.execute_with_mode(&query, PlanMode::Canonical).unwrap();
    for mode in ALL_MODES {
        let r = db.execute_with_mode(&query, mode).unwrap();
        assert_eq!(r.schema.len(), 2, "mode {mode:?}");
        assert_eq!(
            rounded(&r.scores()),
            rounded(&reference.scores()),
            "mode {mode:?}"
        );
    }
}

#[test]
fn weighted_sum_scoring_agrees_across_modes() {
    let db = two_table_db(60);
    let query = QueryBuilder::new()
        .tables(["L", "R"])
        .filter(BoolExpr::col_eq_col("L.jc", "R.jc"))
        .rank_predicate(RankPredicate::attribute("lp", "L.p"))
        .rank_predicate(RankPredicate::attribute("rq", "R.q"))
        .scoring(ScoringFunction::weighted_sum(vec![3.0, 0.5]))
        .limit(5)
        .build()
        .unwrap();
    let reference = db.execute_with_mode(&query, PlanMode::Canonical).unwrap();
    assert_eq!(reference.rows.len(), 5);
    for mode in ALL_MODES {
        let r = db.execute_with_mode(&query, mode).unwrap();
        assert_eq!(
            rounded(&r.scores()),
            rounded(&reference.scores()),
            "mode {mode:?}"
        );
    }
}

#[test]
fn product_and_min_scoring_agree_across_modes() {
    let db = two_table_db(60);
    for scoring in [
        ScoringFunction::Product,
        ScoringFunction::Min,
        ScoringFunction::Average,
    ] {
        let query = QueryBuilder::new()
            .tables(["L", "R"])
            .filter(BoolExpr::col_eq_col("L.jc", "R.jc"))
            .rank_predicate(RankPredicate::attribute("lp", "L.p"))
            .rank_predicate(RankPredicate::attribute("rq", "R.q"))
            .scoring(scoring.clone())
            .limit(7)
            .build()
            .unwrap();
        let reference = db.execute_with_mode(&query, PlanMode::Canonical).unwrap();
        for mode in ALL_MODES {
            let r = db.execute_with_mode(&query, mode).unwrap();
            assert_eq!(
                rounded(&r.scores()),
                rounded(&reference.scores()),
                "scoring {scoring} mode {mode:?}"
            );
        }
    }
}

#[test]
fn duplicate_rank_predicate_on_the_same_column_is_allowed() {
    // Two ranking predicates over the same column simply double its weight.
    let db = two_table_db(40);
    let query = QueryBuilder::new()
        .tables(["L", "R"])
        .filter(BoolExpr::col_eq_col("L.jc", "R.jc"))
        .rank_predicate(RankPredicate::attribute("p_a", "L.p"))
        .rank_predicate(RankPredicate::attribute("p_b", "L.p"))
        .rank_predicate(RankPredicate::attribute("rq", "R.q"))
        .limit(5)
        .build()
        .unwrap();
    let reference = db.execute_with_mode(&query, PlanMode::Canonical).unwrap();
    for mode in ALL_MODES {
        let r = db.execute_with_mode(&query, mode).unwrap();
        assert_eq!(
            rounded(&r.scores()),
            rounded(&reference.scores()),
            "mode {mode:?}"
        );
    }
}

#[test]
fn k_equals_result_set_size_exactly() {
    let db = Database::new();
    db.create_table(
        "T",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("p", DataType::Float64),
        ]),
    )
    .unwrap();
    for i in 0..8i64 {
        db.insert("T", vec![Value::from(i), Value::from(i as f64 / 10.0)])
            .unwrap();
    }
    let query = QueryBuilder::new()
        .table("T")
        .rank_predicate(RankPredicate::attribute("p", "T.p"))
        .limit(8)
        .build()
        .unwrap();
    for mode in ALL_MODES {
        let r = db.execute_with_mode(&query, mode).unwrap();
        assert_eq!(r.rows.len(), 8, "mode {mode:?}");
        // Descending order 0.7, 0.6, ..., 0.0.
        let scores = r.scores();
        for w in scores.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "mode {mode:?}: {scores:?} not sorted");
        }
    }
}

#[test]
fn null_scores_rank_last_and_never_panic() {
    let db = Database::new();
    db.create_table(
        "T",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("p", DataType::Float64),
        ]),
    )
    .unwrap();
    db.insert("T", vec![Value::from(1), Value::from(0.9)])
        .unwrap();
    db.insert("T", vec![Value::from(2), Value::Null]).unwrap();
    db.insert("T", vec![Value::from(3), Value::from(0.4)])
        .unwrap();
    let query = QueryBuilder::new()
        .table("T")
        .rank_predicate(RankPredicate::attribute("p", "T.p"))
        .limit(3)
        .build()
        .unwrap();
    for mode in ALL_MODES {
        let r = db.execute_with_mode(&query, mode).unwrap();
        assert_eq!(r.rows.len(), 3, "mode {mode:?}");
        // NULL evaluates to the worst score (0.0), so tuple 2 is last.
        assert_eq!(r.rows[2].tuple.value(0), &Value::from(2), "mode {mode:?}");
        assert_eq!(r.scores()[2], 0.0, "mode {mode:?}");
    }
}

#[test]
fn out_of_range_scores_are_clamped_to_the_unit_interval() {
    let db = Database::new();
    db.create_table(
        "T",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("p", DataType::Float64),
        ]),
    )
    .unwrap();
    db.insert("T", vec![Value::from(1), Value::from(7.5)])
        .unwrap(); // clamps to 1.0
    db.insert("T", vec![Value::from(2), Value::from(-3.0)])
        .unwrap(); // clamps to 0.0
    db.insert("T", vec![Value::from(3), Value::from(0.5)])
        .unwrap();
    let query = QueryBuilder::new()
        .table("T")
        .rank_predicate(RankPredicate::attribute("p", "T.p"))
        .limit(3)
        .build()
        .unwrap();
    for mode in ALL_MODES {
        let r = db.execute_with_mode(&query, mode).unwrap();
        let scores = r.scores();
        assert_eq!(rounded(&scores), rounded(&[1.0, 0.5, 0.0]), "mode {mode:?}");
        assert_eq!(r.rows[0].tuple.value(0), &Value::from(1), "mode {mode:?}");
        assert_eq!(r.rows[2].tuple.value(0), &Value::from(2), "mode {mode:?}");
    }
}

#[test]
fn three_way_join_with_mixed_predicate_coverage() {
    // One table carries no ranking predicate at all; the optimizer still has
    // to join it and the answer must match the canonical plan.
    let db = two_table_db(25);
    db.create_table(
        "M",
        Schema::new(vec![
            Field::new("jc", DataType::Int64),
            Field::new("tag", DataType::Int64),
        ]),
    )
    .unwrap();
    for i in 0..25i64 {
        db.insert("M", vec![Value::from(i % 7), Value::from(i)])
            .unwrap();
    }
    let query = QueryBuilder::new()
        .tables(["L", "R", "M"])
        .filter(BoolExpr::col_eq_col("L.jc", "R.jc"))
        .filter(BoolExpr::col_eq_col("R.jc", "M.jc"))
        .rank_predicate(RankPredicate::attribute("lp", "L.p"))
        .rank_predicate(RankPredicate::attribute("rq", "R.q"))
        .limit(5)
        .build()
        .unwrap();
    let reference = db.execute_with_mode(&query, PlanMode::Canonical).unwrap();
    assert_eq!(reference.rows.len(), 5);
    for mode in ALL_MODES {
        let r = db.execute_with_mode(&query, mode).unwrap();
        assert_eq!(
            rounded(&r.scores()),
            rounded(&reference.scores()),
            "mode {mode:?}"
        );
    }
}

/// A chain `T0 ⋈ T1 ⋈ …` of `tables` one-row tables `(a, p)` joined on
/// `a`, ranked by `T0.p`: its answer is one row.
fn one_row_chain(tables: usize) -> (Database, RankQuery) {
    let db = Database::new();
    let mut builder = QueryBuilder::new();
    for t in 0..tables {
        let name = format!("T{t}");
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("p", DataType::Float64),
        ]);
        db.create_table(&name, schema).unwrap();
        db.insert(&name, vec![Value::from(1), Value::from(0.5)])
            .unwrap();
        if t > 0 {
            builder = builder.filter(BoolExpr::col_eq_col(
                &format!("T{}.a", t - 1),
                &format!("{name}.a"),
            ));
        }
        builder = builder.table(name);
    }
    let query = builder
        .rank_predicate(RankPredicate::attribute("p", "T0.p"))
        .limit(1)
        .build()
        .unwrap();
    (db, query)
}

#[test]
fn more_than_twelve_relations_is_an_optimizer_error_in_every_cost_based_mode() {
    for tables in [13, 65] {
        let (db, query) = one_row_chain(tables);
        for mode in &ALL_MODES[1..] {
            let err = db.execute_with_mode(&query, *mode).unwrap_err();
            assert!(
                matches!(err, ranksql::RankSqlError::Optimizer(_)),
                "{tables} tables, mode {mode:?}: {err}"
            );
        }
    }
}

#[test]
fn canonical_plans_are_not_bounded_by_the_relation_count() {
    let (db, query) = one_row_chain(65);
    let r = db.execute_with_mode(&query, PlanMode::Canonical).unwrap();
    assert_eq!(r.rows.len(), 1);
}

/// `L ⋈ R` on `jc`, 40 rows a side with keys `i % 5` and every third key
/// NULL: 136 pairs, or 332 were a NULL key to match a NULL key.
fn null_keyed_db() -> Database {
    let db = Database::new();
    for (name, score) in [("L", "p"), ("R", "q")] {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("jc", DataType::Int64),
            Field::new(score, DataType::Float64),
        ]);
        db.create_table(name, schema).unwrap();
    }
    for i in 0..40i64 {
        let jc = match i % 3 {
            0 => Value::Null,
            _ => Value::from(i % 5),
        };
        let (p, q) = ((i * 13) % 100, (i * 31) % 100);
        db.insert(
            "L",
            vec![Value::from(i), jc.clone(), Value::from(p as f64 / 100.0)],
        )
        .unwrap();
        db.insert("R", vec![Value::from(i), jc, Value::from(q as f64 / 100.0)])
            .unwrap();
    }
    db
}

#[test]
fn null_join_keys_never_match_in_any_mode_or_join_algorithm() {
    use ranksql::common::BitSet64;
    use ranksql::{JoinAlgorithm, LogicalPlan, QueryResult};

    let db = null_keyed_db();
    let query = join_query(10_000);
    let rows = |r: &QueryResult| {
        let scores = rounded(&r.scores());
        let ids = r.rows.iter().map(|t| t.tuple.id().clone());
        ids.zip(scores).collect::<Vec<_>>()
    };
    let reference = rows(&db.execute_with_mode(&query, PlanMode::Canonical).unwrap());
    assert_eq!(reference.len(), 136);
    for mode in ALL_MODES {
        let r = db.execute_with_mode(&query, mode).unwrap();
        assert_eq!(rows(&r), reference, "mode {mode:?}");
    }
    let catalog = db.catalog();
    let (l, r) = (catalog.table("L").unwrap(), catalog.table("R").unwrap());
    let on = Some(BoolExpr::col_eq_col("L.jc", "R.jc"));
    for algorithm in [
        JoinAlgorithm::NestedLoop,
        JoinAlgorithm::Hash,
        JoinAlgorithm::SortMerge,
        JoinAlgorithm::HashRankJoin,
        JoinAlgorithm::NestedLoopRankJoin,
    ] {
        // A rank-join of the two rank-scans emits in score order; any
        // other join is sorted.
        let plan = match algorithm.is_rank_aware() {
            true => LogicalPlan::rank_scan(&l, 0).join(
                LogicalPlan::rank_scan(&r, 1),
                on.clone(),
                algorithm,
            ),
            false => (LogicalPlan::scan(&l).join(LogicalPlan::scan(&r), on.clone(), algorithm))
                .sort(BitSet64::all(2)),
        };
        let got = db.execute_plan(&query, &plan.limit(query.k)).unwrap();
        assert_eq!(rows(&got), reference, "{algorithm:?}");
    }
}
