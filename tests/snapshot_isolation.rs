//! MVCC snapshot isolation: open cursors read the table state at open.
//!
//! PR 7 replaced cache invalidation with versioned table epochs: a cursor
//! pins the sealed columnar blocks plus a frozen delta prefix when it
//! opens, writers append without touching sealed state, and inserts extend
//! (never rebuild) the columnar blocks, indexes and statistics.  This
//! harness pins the user-visible contract:
//!
//! * a cursor opened *before* an insert burst streams byte-identical
//!   results to the pre-insert eager run — across all four plan modes and
//!   thread counts {1, 4}, with the bursts interleaved between the
//!   cursor's chunked pulls;
//! * `fetch_more(k)` *after* the burst still honours the pinned epoch
//!   (the extension equals the canonical top-(k+extra) over the pre-burst
//!   rows, never leaking the new ones);
//! * a session that opens *after* the burst sees every new row;
//! * the same holds with a real concurrent writer thread racing the
//!   cursor across a 1024-row seal boundary.

use proptest::prelude::*;

use ranksql::expr::{RankPredicate, RankedTuple};
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

const THREAD_COUNTS: [usize; 2] = [1, 4];

/// A single-table workload plus the insert bursts fired against it while a
/// cursor is open.  Rows are `(jc, p)`; the `id` column is the insertion
/// index, so every generated row is unique and mismatches are attributable.
#[derive(Debug, Clone)]
struct Workload {
    base_rows: Vec<(i64, f64)>,
    bursts: Vec<Vec<(i64, f64)>>,
    k: usize,
    chunks: Vec<usize>,
    extra: usize,
}

fn workload() -> impl Strategy<Value = Workload> {
    (
        proptest::collection::vec((0..6i64, 0.0..1.0f64), 1..40),
        proptest::collection::vec(
            proptest::collection::vec((0..6i64, 0.0..1.0f64), 1..20),
            1..4,
        ),
        1..8usize,
        proptest::collection::vec(1..5usize, 1..4),
        1..4usize,
    )
        .prop_map(|(base_rows, bursts, k, chunks, extra)| Workload {
            base_rows,
            bursts,
            k,
            chunks,
            extra,
        })
}

/// The filter keeps the pushed-filter path (and the frozen-tail filter) in
/// play: only rows with `jc <= 3` qualify.
fn matches(rows: &[(i64, f64)]) -> usize {
    rows.iter().filter(|(jc, _)| *jc <= 3).count()
}

fn build_database(rows: &[(i64, f64)], k: usize) -> (Database, RankQuery) {
    let db = Database::new();
    db.create_table(
        "T",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("jc", DataType::Int64),
            Field::new("p", DataType::Float64),
        ]),
    )
    .unwrap();
    db.insert_batch(
        "T",
        rows.iter()
            .enumerate()
            .map(|(i, &(jc, p))| vec![Value::from(i as i64), Value::from(jc), Value::from(p)]),
    )
    .unwrap();
    let query = QueryBuilder::new()
        .table("T")
        .filter(BoolExpr::compare(
            ScalarExpr::col("T.jc"),
            CompareOp::LtEq,
            ScalarExpr::lit(3i64),
        ))
        .rank_predicate(RankPredicate::attribute("p", "T.p"))
        .limit(k)
        .build()
        .unwrap();
    (db, query)
}

/// `(tuple, score)` fingerprint of an ordered result.
fn fingerprint(query: &RankQuery, tuples: &[RankedTuple]) -> Vec<(ranksql::Tuple, f64)> {
    tuples
        .iter()
        .map(|t| (t.tuple.clone(), query.ranking.upper_bound(&t.state).value()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    /// Interleaved insert bursts against an open cursor: the cursor streams
    /// the pre-burst answer byte for byte, `fetch_more` past the original
    /// limit extends over the *pinned* epoch, and a fresh session sees all
    /// the new rows — all modes × threads {1, 4}.
    #[test]
    fn open_cursor_streams_the_pre_burst_snapshot(w in workload()) {
        for mode in ALL_MODES {
            for threads in THREAD_COUNTS {
                let (db, query) = build_database(&w.base_rows, w.k);
                let session = db.session().with_mode(mode).with_threads(threads);
                // Pre-burst eager reference on the same database.
                let eager = session.execute(&query).unwrap();
                let reference = fingerprint(&query, &eager.rows);

                let mut cursor = session
                    .prepare_query(query.clone())
                    .unwrap()
                    .bind(Params::none())
                    .unwrap()
                    .cursor()
                    .unwrap();

                // Fire the bursts between the cursor's chunked pulls —
                // including one *before* the first pull, so a lazily
                // pinned scan would be caught immediately.
                let mut streamed = Vec::new();
                let mut next_id = w.base_rows.len() as i64;
                let mut bursts = w.bursts.iter();
                let mut pulls = 0usize;
                loop {
                    if let Some(burst) = bursts.next() {
                        for &(jc, p) in burst {
                            db.insert(
                                "T",
                                vec![Value::from(next_id), Value::from(jc), Value::from(p)],
                            )
                            .unwrap();
                            next_id += 1;
                        }
                    }
                    if cursor.is_exhausted() {
                        break;
                    }
                    let chunk = w.chunks[pulls % w.chunks.len()];
                    pulls += 1;
                    streamed.extend(cursor.take(chunk).unwrap());
                }
                for burst in bursts {
                    for &(jc, p) in burst {
                        db.insert(
                            "T",
                            vec![Value::from(next_id), Value::from(jc), Value::from(p)],
                        )
                        .unwrap();
                        next_id += 1;
                    }
                }
                prop_assert_eq!(
                    &fingerprint(&query, &streamed),
                    &reference,
                    "{:?}/threads {}: cursor leaked post-open inserts",
                    mode,
                    threads
                );

                // `fetch_more` after the burst: plans that can extend
                // must produce the canonical top-(k+extra) of the
                // *pre-burst* rows; plans that cannot must refuse
                // cleanly and leave the streamed rows valid.
                match cursor.fetch_more(w.extra) {
                    Ok(more) => {
                        streamed.extend(more);
                        let (base_db, _) = build_database(&w.base_rows, w.k);
                        let mut q_ref = query.clone();
                        q_ref.k = w.k + w.extra;
                        let pre_burst = base_db
                            .session()
                            .with_mode(PlanMode::Canonical)
                            .with_threads(1)
                            .execute(&q_ref)
                            .unwrap();
                        prop_assert_eq!(
                            &fingerprint(&query, &streamed),
                            &fingerprint(&q_ref, &pre_burst.rows),
                            "{:?}/threads {}: fetch_more escaped the pinned epoch",
                            mode,
                            threads
                        );
                    }
                    Err(e) => {
                        prop_assert!(
                            e.to_string().contains("cannot extend"),
                            "unexpected fetch_more error: {e}"
                        );
                    }
                }

                // A session opened after the bursts sees every new row.
                let total: usize =
                    matches(&w.base_rows) + w.bursts.iter().map(|b| matches(b)).sum::<usize>();
                let mut q_all = query.clone();
                q_all.k = w.base_rows.len()
                    + w.bursts.iter().map(Vec::len).sum::<usize>()
                    + 1;
                let fresh = session.execute(&q_all).unwrap();
                prop_assert_eq!(
                    fresh.rows.len(),
                    total,
                    "{:?}/threads {}: fresh session misses inserted rows",
                    mode,
                    threads
                );
            }
        }
    }
}

/// A real writer thread racing an open cursor across the 1024-row seal
/// boundary: the pre-opened cursor streams the pre-burst answer while the
/// writer appends 1 000 rows (sealing a new columnar block mid-stream),
/// and afterwards a fresh session sees all 2 150 rows.
#[test]
fn concurrent_writer_burst_does_not_disturb_an_open_cursor() {
    const BASE: i64 = 1150;
    const BURST: i64 = 1000;
    for threads in THREAD_COUNTS {
        let rows: Vec<(i64, f64)> = (0..BASE)
            .map(|i| (i % 6, ((i * 37) % 1000) as f64 / 1000.0))
            .collect();
        let (db, query) = build_database(&rows, 25);
        let session = db
            .session()
            .with_mode(PlanMode::RankAware)
            .with_threads(threads);
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
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                for i in 0..BURST {
                    db.insert(
                        "T",
                        vec![
                            Value::from(BASE + i),
                            Value::from(i % 6),
                            Value::from(((i * 61) % 1000) as f64 / 1000.0),
                        ],
                    )
                    .unwrap();
                }
            });
            while !cursor.is_exhausted() {
                streamed.extend(cursor.take(7).unwrap());
            }
            writer.join().unwrap();
        });
        assert_eq!(
            fingerprint(&query, &streamed),
            reference,
            "{threads} threads: concurrent writer leaked into the cursor"
        );

        // The extension still reads the pinned epoch, not the 2150-row
        // table (or the plan refuses cleanly — either way no leak).
        if let Ok(more) = cursor.fetch_more(5) {
            streamed.extend(more);
            let (base_db, _) = build_database(&rows, 25);
            let mut q_ref = query.clone();
            q_ref.k = 30;
            let pre_burst = base_db
                .session()
                .with_mode(PlanMode::Canonical)
                .with_threads(1)
                .execute(&q_ref)
                .unwrap();
            assert_eq!(
                fingerprint(&query, &streamed),
                fingerprint(&q_ref, &pre_burst.rows),
                "{threads} threads: fetch_more escaped the pinned epoch"
            );
        }

        // A fresh session sees the full post-burst table.
        let mut q_all = query.clone();
        q_all.k = (BASE + BURST) as usize + 1;
        let fresh = session.execute(&q_all).unwrap();
        let expected =
            (0..BASE).filter(|i| i % 6 <= 3).count() + (0..BURST).filter(|i| i % 6 <= 3).count();
        assert_eq!(
            fresh.rows.len(),
            expected,
            "{threads} threads: fresh session misses writer rows"
        );
    }
}

/// Group-append visibility: a writer appends `insert_batch` bursts across
/// seal boundaries while two readers pin epochs and scan them.  A batch is
/// appended a segment at a time — the rows up to the next 1024-row seal
/// boundary — so every pinned row count is one a segment ends on (a
/// batch's end or a seal boundary inside one), and every epoch's rows are
/// exactly that prefix of what the writer appended.
#[test]
fn readers_pin_whole_segments_of_a_batch_writer() {
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, Ordering};

    const BATCHES: [usize; 8] = [300, 724, 1500, 17, 1024, 2100, 1, 600];
    const BLOCK: usize = 1024;
    let row = |i: usize| {
        vec![
            Value::from(i as i64),
            Value::from((i % 6) as i64),
            Value::from(((i * 61) % 1000) as f64 / 1000.0),
        ]
    };
    let mut ends = BTreeSet::from([0]);
    let mut at = 0;
    for len in BATCHES {
        ends.extend((at / BLOCK + 1..=(at + len) / BLOCK).map(|b| b * BLOCK));
        at += len;
        ends.insert(at);
    }
    let total = at;

    let (db, _) = build_database(&[], 1);
    let table = db.catalog().table("T").unwrap();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut pinned = BTreeSet::new();
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        let epoch = table.pin_epoch();
                        let n = epoch.row_count();
                        assert!(ends.contains(&n), "pinned {n} rows: no segment ends there");
                        for (i, tuple) in epoch.tuples(0..n).unwrap().iter().enumerate() {
                            assert_eq!(tuple.values(), row(i).as_slice(), "row {i} of {n}");
                        }
                        pinned.insert(n);
                        if finished {
                            return pinned;
                        }
                    }
                })
            })
            .collect();
        let mut at = 0;
        for len in BATCHES {
            assert_eq!(db.insert_batch("T", (at..at + len).map(row)).unwrap(), len);
            at += len;
            std::thread::yield_now();
        }
        done.store(true, Ordering::Release);
        for reader in readers {
            let pinned = reader.join().unwrap();
            assert_eq!(pinned.last(), Some(&total), "the last pin sees every row");
        }
    });
}
