//! Failure-injection tests: malformed queries, dangling references and bad
//! inputs must surface as `Err(RankSqlError::…)` — never as panics and never
//! as silently wrong answers.  The kill-and-recover harness at the bottom
//! goes further: it aborts a whole child process mid-insert-burst and
//! asserts a paged database reopens at the last durable epoch.

use ranksql::{
    parse_topk_query, BoolExpr, DataType, Database, Field, PlanMode, QueryBuilder, RankPredicate,
    RankSqlError, Schema, Value,
};

const ALL_MODES: [PlanMode; 4] = [
    PlanMode::Canonical,
    PlanMode::Traditional,
    PlanMode::RankAware,
    PlanMode::RankAwareExhaustive,
];

fn small_db() -> Database {
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
    db.create_table(
        "U",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("jc", DataType::Int64),
            Field::new("q", DataType::Float64),
        ]),
    )
    .unwrap();
    for i in 0..30i64 {
        db.insert(
            "T",
            vec![Value::from(i), Value::from(i % 5), Value::from(0.5)],
        )
        .unwrap();
        db.insert(
            "U",
            vec![Value::from(i), Value::from(i % 5), Value::from(0.25)],
        )
        .unwrap();
    }
    db
}

#[test]
fn query_over_a_missing_table_is_an_error_in_every_mode() {
    let db = small_db();
    let query = QueryBuilder::new()
        .table("DoesNotExist")
        .rank_predicate(RankPredicate::attribute("p", "DoesNotExist.p"))
        .limit(1)
        .build()
        .unwrap();
    for mode in ALL_MODES {
        let err = db.execute_with_mode(&query, mode);
        assert!(
            err.is_err(),
            "mode {mode:?} should fail for a missing table"
        );
    }
}

#[test]
fn ranking_predicate_over_a_missing_column_is_an_error() {
    let db = small_db();
    let query = QueryBuilder::new()
        .table("T")
        .rank_predicate(RankPredicate::attribute("ghost", "T.no_such_column"))
        .limit(1)
        .build()
        .unwrap();
    for mode in ALL_MODES {
        let err = db.execute_with_mode(&query, mode);
        assert!(
            err.is_err(),
            "mode {mode:?} should fail for a dangling ranking predicate"
        );
    }
}

#[test]
fn boolean_predicate_over_a_missing_column_is_an_error() {
    let db = small_db();
    let query = QueryBuilder::new()
        .tables(["T", "U"])
        .filter(BoolExpr::col_eq_col("T.jc", "U.missing"))
        .rank_predicate(RankPredicate::attribute("p", "T.p"))
        .limit(1)
        .build()
        .unwrap();
    for mode in ALL_MODES {
        let err = db.execute_with_mode(&query, mode);
        assert!(
            err.is_err(),
            "mode {mode:?} should fail for a dangling Boolean predicate"
        );
    }
}

#[test]
fn insert_arity_mismatch_is_rejected() {
    let db = small_db();
    let err = db.insert("T", vec![Value::from(1)]);
    assert!(matches!(err, Err(RankSqlError::Catalog(_))), "got {err:?}");
    // The failed insert must not have modified the table.
    assert_eq!(db.catalog().table("T").unwrap().row_count(), 30);
    // A batch fails on the first bad row and reports an error.
    let err = db.insert_batch(
        "T",
        vec![
            vec![Value::from(99), Value::from(0), Value::from(0.1)],
            vec![Value::from(1)],
        ],
    );
    assert!(err.is_err());
}

#[test]
fn inserting_into_a_missing_table_is_rejected() {
    let db = small_db();
    assert!(db.insert("Nope", vec![Value::from(1)]).is_err());
    assert!(db.catalog().table("Nope").is_err());
}

#[test]
fn creating_a_duplicate_table_is_rejected() {
    let db = small_db();
    let err = db.create_table("T", Schema::new(vec![Field::new("x", DataType::Int64)]));
    assert!(err.is_err(), "duplicate table creation should fail");
    // The original table is untouched.
    assert_eq!(db.catalog().table("T").unwrap().schema().len(), 3);
}

#[test]
fn builder_rejects_incomplete_queries() {
    // No table.
    assert!(QueryBuilder::new().limit(1).build().is_err());
    // No LIMIT.
    assert!(QueryBuilder::new().table("T").build().is_err());
    // Weighted-sum arity mismatch.
    assert!(QueryBuilder::new()
        .table("T")
        .rank_predicate(RankPredicate::attribute("p", "T.p"))
        .scoring(ranksql::ScoringFunction::weighted_sum(vec![1.0, 2.0]))
        .limit(1)
        .build()
        .is_err());
}

#[test]
fn parser_rejects_malformed_sql() {
    for bad in [
        "",
        "SELECT",
        "SELECT * FROM",
        "SELECT * FROM T",                        // no LIMIT: not a top-k query
        "SELECT * FROM T ORDER BY LIMIT 5",       // empty ranking expression
        "SELECT * FROM T ORDER BY T.p LIMIT",     // missing k
        "SELECT * FROM T ORDER BY T.p LIMIT -3",  // negative k
        "SELECT * FROM T ORDER BY T.p LIMIT abc", // non-numeric k
        "FROM T ORDER BY p LIMIT 1",              // missing SELECT
        "SELECT * FROM T LIMIT 5 ORDER BY T.p",   // LIMIT before ORDER BY
        "SELECT * FROM T ORDER BY T.p LIMIT 2 WHERE T.a", // WHERE after ORDER BY
        "SELECT * WHERE T.a FROM T ORDER BY T.p LIMIT 1", // WHERE before FROM
    ] {
        assert!(parse_topk_query(bad).is_err(), "`{bad}` should not parse");
    }
}

#[test]
fn parsed_query_against_wrong_schema_fails_cleanly() {
    let db = small_db();
    // Parses fine but references a column the catalog does not have.
    let query = parse_topk_query("SELECT * FROM T ORDER BY T.ghost LIMIT 2").unwrap();
    for mode in ALL_MODES {
        assert!(db.execute_with_mode(&query, mode).is_err(), "mode {mode:?}");
    }
}

#[test]
fn errors_are_reported_not_panicked_for_mixed_type_scores() {
    // A ranking predicate over a string column: evaluation clamps non-numeric
    // scores to 0.0 rather than failing, so the query still succeeds and the
    // string-scored rows sort last.  This documents (and pins) the lenient
    // behaviour.
    let db = Database::new();
    db.create_table(
        "S",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("p", DataType::Utf8),
        ]),
    )
    .unwrap();
    db.insert("S", vec![Value::from(1), Value::from("not a number")])
        .unwrap();
    db.insert("S", vec![Value::from(2), Value::from("0.9")])
        .unwrap();
    let query = QueryBuilder::new()
        .table("S")
        .rank_predicate(RankPredicate::attribute("p", "S.p"))
        .limit(2)
        .build()
        .unwrap();
    let r = db.execute_with_mode(&query, PlanMode::Canonical).unwrap();
    assert_eq!(r.rows.len(), 2);
    assert!(r.scores().iter().all(|s| (0.0..=1.0).contains(s)));
}

#[test]
fn optimizer_rejects_more_relations_than_the_dp_supports() {
    let db = Database::new();
    let mut builder = QueryBuilder::new();
    for i in 0..13 {
        let name = format!("T{i}");
        db.create_table(&name, Schema::new(vec![Field::new("x", DataType::Int64)]))
            .unwrap();
        db.insert(&name, vec![Value::from(1)]).unwrap();
        builder = builder.table(name);
    }
    let query = builder.limit(1).build().unwrap();
    let err = db.execute_with_mode(&query, PlanMode::RankAwareExhaustive);
    assert!(
        err.is_err(),
        "13-way join should exceed the DP's relation limit"
    );
}

/// A query ranks by at most 64 predicates (the width of a tuple's
/// evaluated-predicate set).  Past the cap, SQL and built queries alike are
/// refused at prepare, in every mode, with a `Plan` error instead of
/// panicking on the first pull; at the cap they run (in the modes whose
/// planning does not enumerate predicate subsets).
#[test]
fn more_than_64_ranking_predicates_are_refused_at_prepare() {
    let db = small_db();
    let sql = |n: usize| {
        let terms: Vec<String> = (0..n).map(|i| format!("f{i}(T.p)")).collect();
        format!("SELECT * FROM T ORDER BY {} LIMIT 1", terms.join(" + "))
    };
    let built = |n: usize| {
        (0..n)
            .fold(QueryBuilder::new().table("T"), |b, i| {
                b.rank_predicate(RankPredicate::attribute(format!("f{i}"), "T.p"))
            })
            .limit(1)
            .build()
            .unwrap()
    };
    for mode in [PlanMode::Traditional, PlanMode::Canonical] {
        let session = db.session().with_mode(mode);
        assert_eq!(session.query(&sql(64)).unwrap().take(2).unwrap().len(), 1);
        assert_eq!(session.execute(&built(64)).unwrap().rows.len(), 1);
    }
    for mode in ALL_MODES {
        let session = db.session().with_mode(mode);
        let errors = [
            session.prepare(&sql(65)).err(),
            session.prepare_query(built(65)).err(),
        ];
        for err in errors {
            assert!(
                matches!(&err, Some(RankSqlError::Plan(m)) if m.contains("at most 64")),
                "{mode:?}: {err:?}"
            );
        }
    }
}

#[test]
fn failed_execution_leaves_the_database_usable() {
    let db = small_db();
    let bad = QueryBuilder::new()
        .table("T")
        .rank_predicate(RankPredicate::attribute("ghost", "T.no_such_column"))
        .limit(1)
        .build()
        .unwrap();
    assert!(db.execute(&bad).is_err());

    // A correct query right after the failure still works.
    let good = QueryBuilder::new()
        .table("T")
        .rank_predicate(RankPredicate::attribute("p", "T.p"))
        .limit(3)
        .build()
        .unwrap();
    let r = db.execute(&good).unwrap();
    assert_eq!(r.rows.len(), 3);
}

#[test]
fn erroring_parallel_worker_surfaces_a_clean_query_error_and_no_deadlock() {
    // A tuple budget that trips mid-morsel makes workers fail while others
    // are still running: the failure must surface as one clean
    // `RankSqlError` — never a deadlock, never partial results.
    let db = small_db();
    let session = db.session().with_threads(4).with_mode(PlanMode::Canonical);
    let query = QueryBuilder::new()
        .tables(["T", "U"])
        .filter(BoolExpr::col_eq_col("T.jc", "U.jc"))
        .rank_predicate(RankPredicate::attribute("p", "T.p"))
        .rank_predicate(RankPredicate::attribute("q", "U.q"))
        .limit(3)
        .build()
        .unwrap();
    let physical = session.plan(&query).unwrap().physical;
    let parallel = session.execute(&query).unwrap();
    assert!(parallel.morsels > 0, "{}", parallel.explain_analyze(None));

    // Both tables have 30 rows.  A budget of 45 survives the build-side
    // materialisation (30 tuples, drained once during exchange preparation)
    // and trips *inside the probe-side morsel workers* — the scenario this
    // test is about: concurrent workers failing mid-morsel.
    let exec = ranksql::executor::ExecutionContext::with_budget(query.ranking.clone(), 45)
        .with_threads(4)
        .with_morsel_size(4);
    let err = ranksql::executor::execute_physical_plan(&physical, db.catalog(), &exec).unwrap_err();
    assert!(matches!(err, RankSqlError::Execution(_)), "{err:?}");
    assert!(err.to_string().contains("tuple budget exceeded"), "{err}");

    // The database (and the same plan) stays fully usable afterwards.
    let r = db.execute_physical(&query, &physical).unwrap();
    assert_eq!(r.rows.len(), 3);
}

#[test]
fn panicking_writer_leaves_the_table_readable_at_its_last_epoch() {
    // A writer thread that dies mid-append must not leave torn state
    // behind: the table stays readable at the epoch of the last completed
    // insert, a cursor opened before the writer still streams its pinned
    // snapshot, the incrementally maintained statistics equal a cold
    // rebuild over the surviving rows, and the next insert succeeds.
    use ranksql::Params;

    let db = Database::new();
    db.create_table(
        "W",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("p", DataType::Float64),
        ]),
    )
    .unwrap();
    let base = 900i64;
    for i in 0..base {
        db.insert(
            "W",
            vec![
                Value::from(i),
                Value::from(((i * 37) % 1000) as f64 / 1000.0),
            ],
        )
        .unwrap();
    }
    // Prime the incrementally maintained statistics, so the writer's
    // appends run through the extend path (stats delta + seal).
    let t = db.catalog().table("W").unwrap();
    let _ = t.stats_catalog().unwrap();

    let query = QueryBuilder::new()
        .table("W")
        .rank_predicate(RankPredicate::attribute("p", "W.p"))
        .limit(10)
        .build()
        .unwrap();
    let session = db.session();
    let eager = session.execute(&query).unwrap();
    // A cursor opened before the writer starts: pinned at 900 rows.
    let mut cursor = session
        .prepare_query(query.clone())
        .unwrap()
        .bind(Params::none())
        .unwrap()
        .cursor()
        .unwrap();

    // The writer appends 200 rows — sealing a columnar block and a stats
    // block as the table crosses 1024 rows — then panics in its append
    // loop (an `unwrap` on a row the table rejects).
    let written = 200i64;
    let joined = std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..written {
                db.insert(
                    "W",
                    vec![
                        Value::from(base + i),
                        Value::from(((i * 61) % 1000) as f64 / 1000.0),
                    ],
                )
                .unwrap();
            }
            db.insert("W", vec![Value::from(-1)]).unwrap();
        })
        .join()
    });
    assert!(joined.is_err(), "the writer must have panicked");

    // The last epoch holds exactly the completed appends — no torn delta.
    let t = db.catalog().table("W").unwrap();
    assert_eq!(t.row_count(), (base + written) as usize);

    // The pre-panic cursor still streams its pinned 900-row snapshot.
    let streamed = cursor.drain().unwrap();
    let ids = |rows: &[ranksql::expr::RankedTuple]| -> Vec<_> {
        rows.iter().map(|r| r.tuple.id().clone()).collect()
    };
    assert_eq!(ids(&streamed), ids(&eager.rows));

    // The statistics catalog the writer was extending equals a cold
    // rebuild over the rows that actually survived.
    let rebuilt = {
        let cat = ranksql::storage::Catalog::new();
        let w = cat.create_table("W", t.schema().clone()).unwrap();
        for tup in t.scan() {
            w.insert(tup.values().to_vec()).unwrap();
        }
        w.stats_catalog().unwrap()
    };
    assert_eq!(t.cached_stats().unwrap(), rebuilt);

    // New cursors see the full surviving table, and the next insert
    // succeeds and is immediately visible — in every plan mode.
    let count_query = QueryBuilder::new()
        .table("W")
        .rank_predicate(RankPredicate::attribute("p", "W.p"))
        .limit(5000)
        .build()
        .unwrap();
    assert_eq!(
        session.execute(&count_query).unwrap().rows.len(),
        (base + written) as usize
    );
    db.insert("W", vec![Value::from(9999), Value::from(0.5)])
        .unwrap();
    for mode in ALL_MODES {
        let r = db.execute_with_mode(&count_query, mode).unwrap();
        assert_eq!(
            r.rows.len(),
            (base + written) as usize + 1,
            "mode {mode:?} misses rows after the writer panic"
        );
    }
}

/// Satellite regression: a cursor pinned *before* an insert burst must
/// stream exactly its pinned snapshot — rows appended after the pin are
/// invisible, and any read the executor would issue past the pinned
/// watermark surfaces as a stale-read error instead of leaking fresh data.
#[test]
fn cursor_pinned_before_a_burst_streams_its_snapshot_and_late_reads_are_stale() {
    use ranksql::Params;

    let db = Database::new();
    db.create_table(
        "B",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("p", DataType::Float64),
        ]),
    )
    .unwrap();
    let base = 1200i64;
    db.insert_batch(
        "B",
        (0..base).map(|i| {
            vec![
                Value::from(i),
                Value::from(((i * 37) % 1000) as f64 / 1000.0),
            ]
        }),
    )
    .unwrap();

    let query = QueryBuilder::new()
        .table("B")
        .rank_predicate(RankPredicate::attribute("p", "B.p"))
        .limit(10)
        .build()
        .unwrap();
    let session = db.session();
    let eager = session.execute(&query).unwrap();

    // Pin a cursor (rank-aware: the plan reads through the table's rank
    // index, the path the watermark guard protects), then burst 2000 rows
    // past it — enough to seal new columnar blocks and grow every index.
    let mut cursor = session
        .prepare_query(query.clone())
        .unwrap()
        .bind(Params::none())
        .unwrap()
        .cursor()
        .unwrap();
    let pinned = db.catalog().table("B").unwrap().pin_epoch();
    db.insert_batch(
        "B",
        (base..base + 2000).map(|i| vec![Value::from(i), Value::from(1.0)]),
    )
    .unwrap();

    // The burst rows all score 1.0 — better than everything in the
    // snapshot.  A cursor leaking past its watermark would surface them;
    // the pinned cursor must return the pre-burst top-10 instead.
    let streamed = cursor.drain().unwrap();
    let ids = |rows: &[ranksql::expr::RankedTuple]| -> Vec<_> {
        rows.iter().map(|r| r.tuple.id().clone()).collect()
    };
    assert_eq!(
        ids(&streamed),
        ids(&eager.rows),
        "snapshot leaked the burst"
    );

    // The guard itself: reading past a pinned watermark is an explicit
    // stale-read error, not silent fresh data.
    let base = base as usize;
    assert_eq!(pinned.row_count(), base);
    assert!(pinned.tuples([0, base - 1]).is_ok());
    let err = pinned
        .tuples([base])
        .expect_err("reads at or past the watermark must fail");
    assert!(err.to_string().contains("stale"), "{err}");
    let err = pinned.tuples([base + 500]).unwrap_err();
    assert!(err.to_string().contains("stale"), "{err}");
}

/// Environment variable that flips this test binary into "victim" mode: the
/// kill-and-recover harness re-invokes itself with this set, and the child
/// half aborts the whole process mid-burst.
const KILL_DIR_ENV: &str = "RANKSQL_KILL_AND_RECOVER_DIR";

/// Deterministic row generator shared by the victim and the verifier.
fn kill_row(i: i64) -> Vec<Value> {
    vec![
        Value::from(i),
        Value::from(((i * 37 + 11) % 1000) as f64 / 1000.0),
    ]
}

fn kill_schema() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("p", DataType::Float64),
    ])
}

/// Re-runs this test binary as the victim of `test`, writing to a fresh
/// database directory, and returns that directory and the victim's exit
/// status.
fn spawn_victim(test: &str) -> (std::path::PathBuf, std::process::ExitStatus) {
    let dir = std::env::temp_dir().join(format!("ranksql-kill-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let status = std::process::Command::new(std::env::current_exe().unwrap())
        .arg(test)
        .arg("--exact")
        .arg("--nocapture")
        .env(KILL_DIR_ENV, &dir)
        .status()
        .unwrap();
    (dir, status)
}

/// Asserts that the recovered table `K` holds exactly `kill_row(0..n)` for
/// its row count `n`, answers a top-k byte-identically to an in-memory
/// database loaded with those rows, and keeps a further insert across a
/// second reopen.  Returns `n`.
fn assert_recovered_prefix(db: Database, dir: &std::path::Path) -> usize {
    let table = db.catalog().table("K").unwrap();
    let recovered = table.row_count();
    // Prefix equality: recovery must yield *the* inserted rows, in order.
    for (i, tuple) in table.scan().iter().enumerate() {
        assert_eq!(
            tuple.values(),
            kill_row(i as i64).as_slice(),
            "row {i} diverged after recovery"
        );
    }

    // The recovered table answers queries byte-identically to an in-memory
    // database loaded with the same recovered prefix.
    let query = QueryBuilder::new()
        .table("K")
        .rank_predicate(RankPredicate::attribute("p", "K.p"))
        .limit(7)
        .build()
        .unwrap();
    let fingerprint = |db: &Database| {
        let r = db
            .session()
            .with_mode(PlanMode::Traditional)
            .with_threads(1)
            .execute(&query)
            .unwrap();
        r.rows
            .iter()
            .map(|t| t.tuple.clone())
            .zip(r.scores())
            .collect::<Vec<_>>()
    };
    let reference = {
        let mem = Database::new();
        mem.create_table("K", table.schema().clone()).unwrap();
        mem.insert_batch("K", (0..recovered as i64).map(kill_row))
            .unwrap();
        fingerprint(&mem)
    };
    assert_eq!(fingerprint(&db), reference, "paged vs in-memory diverged");

    // And the recovered database accepts further writes that persist.
    db.insert("K", kill_row(recovered as i64)).unwrap();
    drop((table, db));
    let db = Database::open_paged(dir).unwrap();
    assert_eq!(
        db.catalog().table("K").unwrap().row_count(),
        recovered + 1,
        "post-recovery insert lost on the second reopen"
    );
    recovered
}

/// Kill-and-recover: a child process inserts a 3000-row burst into a paged
/// database and `abort()`s without any orderly shutdown.  Reopening the
/// directory must land on the last durable epoch: at least everything up to
/// the last sealed-block fsync boundary (row 2048), never a torn or
/// reordered prefix, and the recovered table must answer queries
/// byte-identically to an in-memory database loaded with the same rows.
#[test]
fn killed_writer_process_recovers_to_the_last_durable_epoch() {
    // ---- child half: populate and die. -----------------------------------
    if let Ok(dir) = std::env::var(KILL_DIR_ENV) {
        let db = Database::open_paged(&dir).unwrap();
        db.create_table("K", kill_schema()).unwrap();
        for i in 0..3000i64 {
            db.insert("K", kill_row(i)).unwrap();
        }
        // No drop, no flush, no unwinding — the process dies right here,
        // with 952 rows past the last seal boundary sitting in the WAL.
        std::process::abort();
    }

    // ---- parent half: spawn the victim, then verify recovery. ------------
    let (dir, status) = spawn_victim("killed_writer_process_recovers_to_the_last_durable_epoch");
    assert!(!status.success(), "the victim child must have aborted");

    let db = Database::open_paged(&dir).unwrap();
    let recovered = db.catalog().table("K").unwrap().row_count();
    // Everything up to the last WAL fsync (the 2048-row seal boundary) is
    // guaranteed; rows beyond it survive exactly as far as their appends
    // reached the OS, but never torn and never beyond what was inserted.
    assert!(
        (2048..=3000).contains(&recovered),
        "recovered {recovered} rows, durable floor is 2048"
    );
    assert_recovered_prefix(db, &dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill-and-recover through `insert_batch`: the child appends 13 batches of
/// 256 rows (crossing three seals and ending mid-block), then a batch whose
/// row 100 has the wrong arity — which appends the 100 rows before it and
/// fails — and `abort()`s.  A process's death keeps every `write` it
/// completed, so recovery lands on exactly the acknowledged rows.
#[test]
fn killed_batch_writer_recovers_exactly_the_acknowledged_rows() {
    const BATCH: i64 = 256;
    const ACKNOWLEDGED: usize = 13 * BATCH as usize + 100;
    // ---- child half: populate and die. -----------------------------------
    if let Ok(dir) = std::env::var(KILL_DIR_ENV) {
        let db = Database::open_paged(&dir).unwrap();
        db.create_table("K", kill_schema()).unwrap();
        for b in 0..13 {
            let rows = (b * BATCH..(b + 1) * BATCH).map(kill_row);
            assert_eq!(db.insert_batch("K", rows).unwrap(), BATCH as usize);
        }
        let bad_at = 13 * BATCH + 100;
        let rows = (13 * BATCH..14 * BATCH).map(|i| {
            let mut row = kill_row(i);
            row.truncate(if i == bad_at { 1 } else { 2 });
            row
        });
        let err = db.insert_batch("K", rows).unwrap_err();
        assert!(matches!(err, RankSqlError::Catalog(_)), "{err}");
        let acknowledged = db.catalog().table("K").unwrap().row_count();
        assert_eq!(acknowledged, ACKNOWLEDGED);
        std::process::abort();
    }

    // ---- parent half: spawn the victim, then verify recovery. ------------
    let (dir, status) = spawn_victim("killed_batch_writer_recovers_exactly_the_acknowledged_rows");
    // Killed by a signal (the abort), not exited on a failed assertion.
    assert_eq!(status.code(), None, "the victim child must have aborted");
    let db = Database::open_paged(&dir).unwrap();
    assert_eq!(assert_recovered_prefix(db, &dir), ACKNOWLEDGED);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill-and-recover between an unsynced extent append and the checkpoint:
/// the child seals two blocks — each a WAL fsync, then an extent append
/// that only the next checkpoint would fsync — writes 952 rows more and
/// `abort()`s.  The parent then tears the data file inside the second
/// extent, as a power loss may before a checkpoint syncs it.  Replay
/// rebuilds the torn block from the WAL, so recovery lands between the
/// last WAL fsync (row 2048) and the rows written.
#[test]
fn a_torn_unsynced_extent_recovers_from_the_wal() {
    // ---- child half: populate and die. -----------------------------------
    if let Ok(dir) = std::env::var(KILL_DIR_ENV) {
        let db = Database::open_paged(&dir).unwrap();
        db.create_table("K", kill_schema()).unwrap();
        assert_eq!(db.insert_batch("K", (0..3000).map(kill_row)).unwrap(), 3000);
        std::process::abort();
    }

    // ---- parent half: spawn the victim, tear, then verify recovery. ------
    let (dir, status) = spawn_victim("a_torn_unsynced_extent_recovers_from_the_wal");
    assert_eq!(status.code(), None, "the victim child must have aborted");
    let data = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "dat"))
        .expect("a paged table has a data file");
    // Two extents of one length: cut the second in half.
    let file = std::fs::OpenOptions::new().write(true).open(&data).unwrap();
    let len = file.metadata().unwrap().len();
    assert!(len > 0, "the victim appended its extents");
    file.set_len(len * 3 / 4).unwrap();
    drop(file);

    let db = Database::open_paged(&dir).unwrap();
    let recovered = assert_recovered_prefix(db, &dir);
    assert!(
        (2048..=3000).contains(&recovered),
        "recovered {recovered} rows, durable floor is 2048"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panicking_worker_becomes_an_error_and_the_pool_is_reusable() {
    // The worker pool converts a panicking task into a clean execution
    // error, cancels the rest of the run, and — being stateless — keeps
    // working for the next query.
    let pool = ranksql::common::WorkerPool::new(4);
    let err = pool
        .run(32, |i| {
            if i == 5 {
                panic!("injected mid-morsel panic");
            }
            Ok(i)
        })
        .unwrap_err();
    assert!(matches!(err, RankSqlError::Execution(_)), "{err:?}");
    assert!(err.to_string().contains("worker thread panicked"), "{err}");
    assert!(
        err.to_string().contains("injected mid-morsel panic"),
        "{err}"
    );

    let out = pool.run(4, |i| Ok(i * 10)).unwrap();
    assert_eq!(out, vec![0, 10, 20, 30]);

    // And a real parallel query through the same machinery still succeeds.
    let db = small_db();
    let query = QueryBuilder::new()
        .table("T")
        .rank_predicate(RankPredicate::attribute("p", "T.p"))
        .limit(2)
        .build()
        .unwrap();
    let r = db
        .session()
        .with_mode(PlanMode::Canonical)
        .with_threads(4)
        .execute(&query)
        .unwrap();
    assert_eq!(r.rows.len(), 2);
}
