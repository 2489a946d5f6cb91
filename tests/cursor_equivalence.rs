//! Streaming `Cursor` execution ≡ eager `QueryResult` execution.
//!
//! The Session/prepared-statement/Cursor API must be a pure *consumption*
//! choice: pulling a result incrementally — in arbitrary chunk sizes,
//! under any plan mode, any thread count and any batch size — must yield
//! exactly the rows (same tuples, same order, same scores) of the eager
//! `execute` path, including across mid-stream `fetch_more` extensions on
//! plans that support them.  A second group of tests pins the *laziness*
//! contract itself: `take(k)` on an incremental rank-aware plan consumes
//! strictly fewer scan tuples than a full drain, and far fewer than the
//! table cardinality (the paper's Property 1 pay-off, surfaced through the
//! public API).

use proptest::prelude::*;

use ranksql::algebra::PhysicalPlan;
use ranksql::expr::{RankPredicate, RankedTuple};
use ranksql::{
    BoolExpr, DataType, Database, Field, JoinAlgorithm, LogicalPlan, Params, PlanMode,
    QueryBuilder, RankQuery, Schema, Value,
};

const ALL_MODES: [PlanMode; 4] = [
    PlanMode::Canonical,
    PlanMode::Traditional,
    PlanMode::RankAware,
    PlanMode::RankAwareExhaustive,
];

const THREAD_COUNTS: [usize; 2] = [1, 4];

/// A randomly generated two-table join workload plus consumption knobs.
#[derive(Debug, Clone)]
struct Workload {
    /// Rows of table R: (join column, p1 score, boolean flag).
    r_rows: Vec<(i64, f64, bool)>,
    /// Rows of table S: (join column, p2 score).
    s_rows: Vec<(i64, f64)>,
    /// Requested result size.
    k: usize,
    /// Batch size for the session.
    batch_size: usize,
    /// Chunk sizes the cursor is pulled with (cycled).
    chunks: Vec<usize>,
}

fn workload() -> impl Strategy<Value = Workload> {
    (
        proptest::collection::vec((0..6i64, 0.0..1.0f64, any::<bool>()), 1..25),
        proptest::collection::vec((0..6i64, 0.0..1.0f64), 1..25),
        1..10usize,
        1..256usize,
        proptest::collection::vec(1..7usize, 1..5),
    )
        .prop_map(|(r_rows, s_rows, k, batch_size, chunks)| Workload {
            r_rows,
            s_rows,
            k,
            batch_size,
            chunks,
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
    db.insert_batch(
        "R",
        w.r_rows
            .iter()
            .map(|&(jc, p1, flag)| vec![Value::from(jc), Value::from(p1), Value::from(flag)]),
    )
    .unwrap();
    db.insert_batch(
        "S",
        w.s_rows
            .iter()
            .map(|&(jc, p2)| vec![Value::from(jc), Value::from(p2)]),
    )
    .unwrap();
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

/// `(tuple id, score)` fingerprint of an ordered result.
fn fingerprint(query: &RankQuery, tuples: &[RankedTuple]) -> Vec<(ranksql::Tuple, f64)> {
    tuples
        .iter()
        .map(|t| (t.tuple.clone(), query.ranking.upper_bound(&t.state).value()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Cursor streaming (in random chunk sizes) ≡ eager execution, for all
    /// four plan modes × threads {1, 4} × random batch sizes.
    #[test]
    fn cursor_stream_equals_eager_execution(w in workload()) {
        let (db, query) = build_database(&w);
        for mode in ALL_MODES {
            for threads in THREAD_COUNTS {
                let session = db
                    .session()
                    .with_mode(mode)
                    .with_threads(threads)
                    .with_batch_size(w.batch_size);
                let eager = session.execute(&query).unwrap();
                let reference = fingerprint(&query, &eager.rows);

                let mut cursor = session
                    .prepare_query(query.clone())
                    .unwrap()
                    .bind(Params::none())
                    .unwrap()
                    .cursor()
                    .unwrap();
                let mut streamed = Vec::new();
                let mut i = 0;
                while !cursor.is_exhausted() {
                    let chunk = w.chunks[i % w.chunks.len()];
                    i += 1;
                    streamed.extend(cursor.take(chunk).unwrap());
                }
                prop_assert_eq!(
                    &fingerprint(&query, &streamed),
                    &reference,
                    "mode {:?}, threads {}, batch {}: streamed != eager",
                    mode,
                    threads,
                    w.batch_size
                );
            }
        }
    }

    /// Mid-stream `fetch_more` extensions: whenever a plan supports
    /// extension, (original stream + extensions) must equal the canonical
    /// top-(k + extra) answer byte for byte.  Plans that refuse must do so
    /// with a clean error and leave the already-returned rows valid.
    #[test]
    fn fetch_more_extends_to_the_canonical_answer(w in workload(), extras in proptest::collection::vec(1..4usize, 1..3)) {
        let (db, query) = build_database(&w);
        for mode in ALL_MODES {
            for threads in THREAD_COUNTS {
                let session = db
                    .session()
                    .with_mode(mode)
                    .with_threads(threads)
                    .with_batch_size(w.batch_size);
                let mut cursor = session
                    .prepare_query(query.clone())
                    .unwrap()
                    .bind(Params::none())
                    .unwrap()
                    .cursor()
                    .unwrap();
                let mut rows = cursor.drain().unwrap();
                let mut extended = 0usize;
                for &extra in &extras {
                    match cursor.fetch_more(extra) {
                        Ok(more) => {
                            extended += extra;
                            rows.extend(more);
                        }
                        Err(e) => {
                            prop_assert!(
                                e.to_string().contains("cannot extend"),
                                "unexpected fetch_more error: {e}"
                            );
                        }
                    }
                }
                // Reference: one canonical execution asking for k + extended
                // up front (all modes share the deterministic total order).
                let mut q_ref = query.clone();
                q_ref.k = w.k + extended;
                let reference = db
                    .session()
                    .with_mode(PlanMode::Canonical)
                    .with_threads(1)
                    .execute(&q_ref)
                    .unwrap();
                prop_assert_eq!(
                    &fingerprint(&query, &rows),
                    &fingerprint(&q_ref, &reference.rows),
                    "mode {:?}, threads {}: stream + fetch_more({}) != canonical top-{}",
                    mode,
                    threads,
                    extended,
                    q_ref.k
                );
            }
        }
    }
}

/// The paper's HRJN example, through the public cursor: `take(k)` must not
/// drain the inputs — scan consumption stays below the table cardinality
/// and strictly below what a full drain consumes (the acceptance criterion).
#[test]
fn take_consumes_fewer_scan_tuples_than_a_drain() {
    let rows = 1_000i64;
    let db = Database::new();
    for name in ["H", "R"] {
        db.create_table(
            name,
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("city", DataType::Int64),
                Field::new("score", DataType::Float64),
            ]),
        )
        .unwrap();
        let salt = if name == "H" { 0 } else { 13 };
        db.insert_batch(
            name,
            (0..rows).map(|i| {
                vec![
                    Value::from(i),
                    Value::from(i % 25),
                    Value::from(((i * 37 + salt) % 1000) as f64 / 1000.0),
                ]
            }),
        )
        .unwrap();
    }
    let query = QueryBuilder::new()
        .tables(["H", "R"])
        .filter(BoolExpr::col_eq_col("H.city", "R.city"))
        .rank_predicate(RankPredicate::attribute("hq", "H.score"))
        .rank_predicate(RankPredicate::attribute("rr", "R.score"))
        .limit(200)
        .build()
        .unwrap();
    // The paper's pipelined ranking plan, explicitly: HRJN over two
    // rank-scans, capped by λ_k.
    let h = db.catalog().table("H").unwrap();
    let r = db.catalog().table("R").unwrap();
    let plan = LogicalPlan::rank_scan(&h, 0)
        .join(
            LogicalPlan::rank_scan(&r, 1),
            Some(BoolExpr::col_eq_col("H.city", "R.city")),
            JoinAlgorithm::HashRankJoin,
        )
        .limit(query.k);
    let physical = PhysicalPlan::from_logical(&plan).unwrap();

    let scan_tuples = |cursor: &ranksql::Cursor| -> u64 {
        cursor
            .metrics()
            .snapshot()
            .iter()
            .filter(|m| m.name().contains("Scan"))
            .map(|m| m.tuples_out())
            .sum()
    };

    // take(5): proportional to what the top-5 needed.
    let mut cursor = db.cursor_for_physical(&query, physical.clone()).unwrap();
    let top5 = cursor.take(5).unwrap();
    assert_eq!(top5.len(), 5);
    let taken = scan_tuples(&cursor);
    assert!(
        taken < 2 * rows as u64,
        "take(5) must not drain the scans: consumed {taken} of {} input tuples",
        2 * rows
    );

    // Full drain of the same plan consumes strictly more.
    let mut full = db.cursor_for_physical(&query, physical).unwrap();
    let all = full.drain().unwrap();
    assert_eq!(all.len(), query.k);
    let drained = scan_tuples(&full);
    assert!(
        taken < drained,
        "take(5) ({taken} scan tuples) must consume strictly fewer than a full drain ({drained})"
    );
    // And the streamed prefix is the drained prefix.
    for (t, d) in top5.iter().zip(all.iter()) {
        assert_eq!(t.tuple.id(), d.tuple.id());
    }
}

/// Re-executing a prepared query with new bindings records a plan-cache hit
/// (visible in `explain_analyze`) and produces byte-identical results to a
/// cold plan of the same binding.
#[test]
fn plan_cache_hits_are_byte_identical_and_visible() {
    let (db, _) = build_database(&Workload {
        r_rows: (0..40)
            .map(|i| (i % 6, ((i * 37 % 100) as f64) / 100.0, i % 3 != 0))
            .collect(),
        s_rows: (0..40)
            .map(|i| (i % 6, ((i * 61 % 100) as f64) / 100.0))
            .collect(),
        k: 5,
        batch_size: 64,
        chunks: vec![1],
    });
    let template = QueryBuilder::new()
        .tables(["R", "S"])
        .filter(BoolExpr::col_eq_col("R.jc", "S.jc"))
        .filter(BoolExpr::compare(
            ranksql::ScalarExpr::col("R.p1"),
            ranksql::CompareOp::Gt,
            ranksql::ScalarExpr::param(0),
        ))
        .rank_predicate(RankPredicate::attribute("p1", "R.p1"))
        .rank_predicate(RankPredicate::attribute("p2", "S.p2"))
        .limit(5)
        .build()
        .unwrap();
    let session = db.session();
    let prepared = session.prepare_query(template.clone()).unwrap();

    let cold = prepared
        .bind(Params::new().set(0, 0.2f64))
        .unwrap()
        .execute()
        .unwrap();
    assert!(!cold.plan_cache.unwrap().hit);

    // Same binding again: a hit, byte-identical rows.
    let hot = prepared
        .bind(Params::new().set(0, 0.2f64))
        .unwrap()
        .execute()
        .unwrap();
    assert!(hot.plan_cache.unwrap().hit);
    let ids = |r: &ranksql::QueryResult| -> Vec<_> {
        r.rows.iter().map(|t| t.tuple.id().clone()).collect()
    };
    assert_eq!(ids(&cold), ids(&hot));
    assert_eq!(cold.scores(), hot.scores());
    let analyzed = hot.explain_analyze(Some(&template.ranking));
    assert!(analyzed.starts_with("plan cache: hit"), "{analyzed}");

    // A different binding still hits (the key is value-independent) and a
    // from-scratch database (cold cache) agrees with it byte for byte.
    let rebound = prepared
        .bind(Params::new().set(0, 0.5f64))
        .unwrap()
        .execute()
        .unwrap();
    assert!(rebound.plan_cache.unwrap().hit);
    let (db2, _) = build_database(&Workload {
        r_rows: (0..40)
            .map(|i| (i % 6, ((i * 37 % 100) as f64) / 100.0, i % 3 != 0))
            .collect(),
        s_rows: (0..40)
            .map(|i| (i % 6, ((i * 61 % 100) as f64) / 100.0))
            .collect(),
        k: 5,
        batch_size: 64,
        chunks: vec![1],
    });
    let cold2 = db2
        .session()
        .prepare_query(template)
        .unwrap()
        .bind(Params::new().set(0, 0.5f64))
        .unwrap()
        .execute()
        .unwrap();
    assert!(!cold2.plan_cache.unwrap().hit);
    assert_eq!(ids(&rebound), ids(&cold2));
    assert_eq!(rebound.scores(), cold2.scores());

    let stats = db.plan_cache_stats();
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.misses, 1);
    assert!(stats.hits >= 2);
}
