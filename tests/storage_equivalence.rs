//! Storage-layer equivalence: one scan, two ways to open a database.
//!
//! A database opened in memory and one opened on a directory
//! (`Database::open_paged`, buffer pool + WAL) plan identically and read
//! base tables through the same sequential scan — sealed columnar blocks
//! plus a frozen row tail — differing only in where the sealed blocks live.
//! For every plan mode, thread count, batch size and morsel size both must
//! return exactly `oracle_top_k`'s ordered top-k: same tuples, same order,
//! same scores.  The proptests below drive randomized workloads through all
//! four `PlanMode`s and compare in-memory ≡ paged ≡ oracle, plans included.
//!
//! Companion regression tests pin the zone-map contract: score pruning on a
//! selective top-k reduces `tuples_scanned` (and skips whole blocks) while
//! the result stays the oracle's, pushed-down filters show up in `explain`
//! as `ColumnScan(..)[σ ..]` annotations, and on a paged database a pruned
//! block is a page never read (`pages_pruned` / `pages_faulted`).

use proptest::prelude::*;

use ranksql::common::TupleId;
use ranksql::executor::oracle_top_k;
use ranksql::expr::{RankPredicate, RankedTuple};
use ranksql::{
    BoolExpr, CompareOp, DataType, Database, Field, PagedOptions, PlanMode, QueryBuilder,
    RankQuery, RankSqlError, ScalarExpr, Schema, Value,
};

/// A process-unique scratch directory for paged databases, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ranksql-eq-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const ALL_MODES: [PlanMode; 4] = [
    PlanMode::Canonical,
    PlanMode::Traditional,
    PlanMode::RankAware,
    PlanMode::RankAwareExhaustive,
];

/// A randomly generated two-table join workload plus execution knobs.
#[derive(Debug, Clone)]
struct Workload {
    r_rows: Vec<(i64, f64, bool)>,
    s_rows: Vec<(i64, f64)>,
    k: usize,
    batch_size: usize,
    morsel_size: usize,
}

fn workload() -> impl Strategy<Value = Workload> {
    (
        proptest::collection::vec((0..6i64, 0.0..1.0f64, any::<bool>()), 1..30),
        proptest::collection::vec((0..6i64, 0.0..1.0f64), 1..30),
        1..10usize,
        1..512usize,
        1..64usize,
    )
        .prop_map(|(r_rows, s_rows, k, batch_size, morsel_size)| Workload {
            r_rows,
            s_rows,
            k,
            batch_size,
            morsel_size,
        })
}

/// Like `Database::new()` + [`populate`], but disk-backed: tables and rows
/// go through the WAL protocol into `dir`, and scans fault pages through
/// the buffer pool.
fn build_paged_database(w: &Workload, dir: &std::path::Path) -> (Database, RankQuery) {
    let db = Database::open_paged(dir).unwrap();
    let query = populate(&db, w);
    (db, query)
}

fn populate(db: &Database, w: &Workload) -> RankQuery {
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
    for &(jc, p1, flag) in &w.r_rows {
        db.insert(
            "R",
            vec![Value::from(jc), Value::from(p1), Value::from(flag)],
        )
        .unwrap();
    }
    for &(jc, p2) in &w.s_rows {
        db.insert("S", vec![Value::from(jc), Value::from(p2)])
            .unwrap();
    }
    QueryBuilder::new()
        .tables(["R", "S"])
        .filter(BoolExpr::col_eq_col("R.jc", "S.jc"))
        .filter(BoolExpr::compare(
            ScalarExpr::col("R.p1"),
            CompareOp::GtEq,
            ScalarExpr::lit(0.1),
        ))
        .rank_predicate(RankPredicate::attribute("p1", "R.p1"))
        .rank_predicate(RankPredicate::attribute("p2", "S.p2"))
        .limit(w.k)
        .build()
        .unwrap()
}

/// `(tuple, score)` fingerprint of an ordered result (byte-identical order).
fn fingerprint(result: &ranksql::QueryResult) -> Vec<(ranksql::Tuple, f64)> {
    result
        .rows
        .iter()
        .zip(result.scores())
        .map(|(t, s)| (t.tuple.clone(), s))
        .collect()
}

/// What a result is compared with the oracle by: tuple identity and score
/// bits, in order.
fn identities(query: &RankQuery, rows: &[RankedTuple]) -> Vec<(TupleId, u64)> {
    rows.iter()
        .map(|t| {
            let score = query.ranking.upper_bound(&t.state).value();
            (t.tuple.id().clone(), score.to_bits())
        })
        .collect()
}

/// The oracle's ordered top-k of `query` over `db`'s rows.
fn oracle(db: &Database, query: &RankQuery) -> Vec<(TupleId, u64)> {
    identities(query, &oracle_top_k(query, db.catalog()).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// In-memory ≡ paged ≡ oracle for all four plan modes, at 1 and 4
    /// worker threads, under random batch and morsel sizes.
    #[test]
    fn in_memory_and_paged_equal_the_oracle_for_all_modes_and_threads(
        w in workload()
    ) {
        let mem_db = Database::new();
        let query = populate(&mem_db, &w);
        let dir = TempDir::new("prop");
        let (paged_db, _) = build_paged_database(&w, dir.path());
        let want = oracle(&mem_db, &query);
        for mode in ALL_MODES {
            for threads in [1usize, 4] {
                let run = |db: &Database| {
                    db.session()
                        .with_mode(mode)
                        .with_threads(threads)
                        .with_batch_size(w.batch_size)
                        .with_morsel_size(w.morsel_size)
                        .execute(&query)
                        .unwrap()
                };
                let mem = run(&mem_db);
                let paged = run(&paged_db);
                prop_assert_eq!(
                    identities(&query, &mem.rows),
                    want.clone(),
                    "mode {:?}, threads {}, batch {}, morsel {}: diverged from the oracle",
                    mode,
                    threads,
                    w.batch_size,
                    w.morsel_size
                );
                prop_assert_eq!(
                    fingerprint(&paged),
                    fingerprint(&mem),
                    "mode {:?}, threads {}, batch {}, morsel {}: paged diverged from in-memory",
                    mode,
                    threads,
                    w.batch_size,
                    w.morsel_size
                );
            }
        }
    }

    /// How a database was opened is not a planning input: in-memory and
    /// paged databases holding the same rows print the same physical plan,
    /// byte for byte, in every plan mode at 1 and 4 threads.
    #[test]
    fn in_memory_and_paged_databases_plan_identically(w in workload()) {
        let mem_db = Database::new();
        let query = populate(&mem_db, &w);
        let dir = TempDir::new("plan");
        let (paged_db, _) = build_paged_database(&w, dir.path());
        for mode in ALL_MODES {
            for threads in [1usize, 4] {
                let explain = |db: &Database| {
                    let session = db.session().with_mode(mode).with_threads(threads);
                    let physical = session.plan(&query).unwrap().physical;
                    physical.explain(Some(&query.ranking))
                };
                prop_assert_eq!(
                    explain(&paged_db),
                    explain(&mem_db),
                    "mode {:?}, threads {}",
                    mode,
                    threads
                );
            }
        }
    }
}

/// A single-table database large enough to span many columnar blocks, with
/// a score column whose high values cluster in a few blocks — the shape
/// zone-map score pruning exploits.
fn clustered_db(rows: i64) -> (Database, RankQuery) {
    let db = Database::new();
    db.create_table(
        "T",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("p", DataType::Float64),
        ]),
    )
    .unwrap();
    // Scores fall with the row index: the best scores live in the first
    // block, so once the top-k heap fills there, every later block's zone
    // max is strictly below the threshold.
    db.insert_batch(
        "T",
        (0..rows).map(|i| vec![Value::from(i), Value::from((rows - i) as f64 / rows as f64)]),
    )
    .unwrap();
    let query = QueryBuilder::new()
        .table("T")
        .rank_predicate(RankPredicate::attribute("p", "T.p"))
        .limit(5)
        .build()
        .unwrap();
    (db, query)
}

/// Regression: zone-map score pruning on a selective top-k changes
/// `tuples_scanned` (and only that) — results are the oracle's, and whole
/// blocks are demonstrably skipped.
#[test]
fn zone_map_pruning_reduces_tuples_scanned_without_changing_results() {
    const ROWS: i64 = 8192; // 8 columnar blocks
    let (db, query) = clustered_db(ROWS);

    // Traditional mode plans SortLimit(σ/π(scan)) — the zone-prune spine.
    let col = db
        .session()
        .with_mode(PlanMode::Traditional)
        .with_threads(1)
        .execute(&query)
        .unwrap();

    assert_eq!(identities(&query, &col.rows), oracle(&db, &query));
    assert!(
        col.tuples_scanned < ROWS as u64,
        "zone-map pruning must reduce tuples_scanned below {ROWS}: {}",
        col.tuples_scanned
    );
    assert!(
        col.blocks_pruned > 0,
        "whole blocks must be skipped (got {})",
        col.blocks_pruned
    );

    // The plan advertises the pruning annotation.
    let plan = db
        .session()
        .with_mode(PlanMode::Traditional)
        .with_threads(1)
        .plan(&query)
        .unwrap()
        .physical;
    let text = plan.explain(Some(&query.ranking));
    assert!(text.contains("ColumnScan(T)"), "{text}");
    assert!(text.contains("[zone-prune]"), "{text}");
}

/// Zone pruning composes with a multi-threaded session: a zone-pruned scan
/// is no spine, so its top-k runs serially, and results stay the oracle's.
#[test]
fn zone_map_pruning_is_safe_under_parallel_execution() {
    const ROWS: i64 = 8192;
    let (col_db, query) = clustered_db(ROWS);
    let reference = oracle(&col_db, &query);
    for threads in [2usize, 4] {
        let col = col_db
            .session()
            .with_mode(PlanMode::Traditional)
            .with_threads(threads)
            .with_morsel_size(512)
            .execute(&query)
            .unwrap();
        assert_eq!(
            identities(&query, &col.rows),
            reference,
            "threads={threads}"
        );
        assert!(
            col.tuples_scanned <= ROWS as u64,
            "threads={threads}: scanned {}",
            col.tuples_scanned
        );
        assert_eq!(col.morsels, 0, "threads={threads}");
    }
}

/// A zone-pruned top-k reads what it reads serially at any thread count:
/// the scan is no spine, so its top-k is never split into morsels that
/// would each read until their own heap filled.  Block 0 holds the best
/// scores, so the heap's threshold skips blocks 1..=7 unread.
#[test]
fn a_zone_pruned_top_k_reads_one_block_at_four_threads() {
    const ROWS: i64 = 8192; // 8 columnar blocks
    let (col_db, query) = clustered_db(ROWS);
    let run = |threads: usize| {
        col_db
            .session()
            .with_mode(PlanMode::Traditional)
            .with_threads(threads)
            .with_morsel_size(1024)
            .execute(&query)
            .unwrap()
    };
    let (serial, parallel) = (run(1), run(4));
    assert_eq!(parallel.morsels, 0);
    assert_eq!(parallel.blocks_pruned, 7, "blocks 1..=7 are pruned");
    assert_eq!(parallel.tuples_scanned, 1024, "only block 0 is read");
    assert_eq!(fingerprint(&parallel), fingerprint(&serial));
}

/// Regression: `blocks_pruned` counts *distinct* blocks, not prune events.
/// Before the per-(scan, block) dedup bitmap, a block overlapping several
/// morsels was counted once per morsel, so the same query reported more
/// pruning under more parallelism.
#[test]
fn blocks_pruned_is_deduplicated_across_morsels() {
    const ROWS: i64 = 8192; // 8 columnar blocks of 1024 rows
    let (col_db, _) = clustered_db(ROWS);
    // `id < 1000` admits only block 0: blocks 1..=7 fail the zone check.
    let query = QueryBuilder::new()
        .table("T")
        .filter(BoolExpr::compare(
            ScalarExpr::col("T.id"),
            CompareOp::Lt,
            ScalarExpr::lit(1000i64),
        ))
        .rank_predicate(RankPredicate::attribute("p", "T.p"))
        .limit(5)
        .build()
        .unwrap();
    let serial = col_db
        .session()
        .with_mode(PlanMode::Traditional)
        .with_threads(1)
        .execute(&query)
        .unwrap();
    assert_eq!(serial.blocks_pruned, 7, "blocks 1..=7 fail σ id < 1000");
    for threads in [2usize, 4] {
        let parallel = col_db
            .session()
            .with_mode(PlanMode::Traditional)
            .with_threads(threads)
            .with_morsel_size(512) // every block spans two morsels
            .execute(&query)
            .unwrap();
        assert_eq!(
            parallel.blocks_pruned, serial.blocks_pruned,
            "threads={threads}: a block overlapping two 512-row morsels must count once"
        );
    }
}

/// Pushed-down filters: `Filter(SeqScan)` fuses into `ColumnScan[σ ..]`,
/// zone maps skip blocks the filter cannot match, and results equal the
/// oracle's.
#[test]
fn pushed_filters_fuse_prune_and_agree_with_the_oracle() {
    const ROWS: i64 = 8192;
    let (col_db, _) = clustered_db(ROWS);
    // `id < 1000` lives entirely in the first columnar block.
    let query = QueryBuilder::new()
        .table("T")
        .filter(BoolExpr::compare(
            ScalarExpr::col("T.id"),
            CompareOp::Lt,
            ScalarExpr::lit(1000i64),
        ))
        .rank_predicate(RankPredicate::attribute("p", "T.p"))
        .limit(5)
        .build()
        .unwrap();
    let col = col_db
        .session()
        .with_mode(PlanMode::Traditional)
        .with_threads(1)
        .execute(&query)
        .unwrap();
    assert_eq!(identities(&query, &col.rows), oracle(&col_db, &query));
    assert!(
        col.tuples_scanned <= 1024,
        "only the first block may be examined, scanned {}",
        col.tuples_scanned
    );
    let text = col.physical.explain(None);
    assert!(text.contains("[σ T.id < 1000]"), "{text}");
}

/// The clustered single-table shape of [`clustered_db`], but disk-backed
/// with an explicit buffer-pool budget.  8192 rows seal into 8 columnar
/// blocks of two 16 KiB pages each (one i64 + one f64 column), so
/// `pool_pages < 16` means the dataset does not fit in memory.
fn clustered_paged_db(dir: &std::path::Path, rows: i64, pool_pages: u64) -> (Database, RankQuery) {
    let db = Database::open_paged_with(dir, PagedOptions { pool_pages }).unwrap();
    db.create_table(
        "T",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("p", DataType::Float64),
        ]),
    )
    .unwrap();
    db.insert_batch(
        "T",
        (0..rows).map(|i| vec![Value::from(i), Value::from((rows - i) as f64 / rows as f64)]),
    )
    .unwrap();
    let query = QueryBuilder::new()
        .table("T")
        .rank_predicate(RankPredicate::attribute("p", "T.p"))
        .limit(5)
        .build()
        .unwrap();
    (db, query)
}

/// A paged database's pruning contract: with the buffer pool far below
/// dataset size, a zone-pruned block is a page never read — the selective
/// top-k faults a fraction of the pages the unpruned full scan does, while
/// the results stay byte-identical to an in-memory database's.
#[test]
fn zone_pruning_on_the_paged_backend_turns_pruned_blocks_into_unread_pages() {
    const ROWS: i64 = 8192; // 8 sealed blocks = 16 data pages
    let dir = TempDir::new("prune");
    let (paged_db, query) = clustered_paged_db(dir.path(), ROWS, 4);
    let (mem_db, _) = clustered_db(ROWS);

    let run = |db: &Database, q: &RankQuery| {
        db.session()
            .with_mode(PlanMode::Traditional)
            .with_threads(1)
            .execute(q)
            .unwrap()
    };
    let topk = run(&paged_db, &query);
    let mem = run(&mem_db, &query);
    assert_eq!(fingerprint(&topk), fingerprint(&mem), "results must agree");
    assert!(
        topk.pages_pruned > 0,
        "score pruning must skip whole on-disk blocks (pages_pruned = 0)"
    );

    // An unselective query (k > rows: the threshold never rises enough to
    // prune) must fault essentially the whole table through the 4-page
    // pool, dwarfing the selective query's faults.
    let full_query = QueryBuilder::new()
        .table("T")
        .rank_predicate(RankPredicate::attribute("p", "T.p"))
        .limit(ROWS as usize + 1)
        .build()
        .unwrap();
    let full = run(&paged_db, &full_query);
    assert_eq!(full.pages_pruned, 0, "an unselective scan prunes nothing");
    assert!(
        topk.pages_faulted < full.pages_faulted,
        "pruning must reduce pages faulted: top-k {} vs full scan {}",
        topk.pages_faulted,
        full.pages_faulted
    );

    // The I/O counters surface in explain_analyze.
    let text = full.explain_analyze(Some(&query.ranking));
    assert!(text.contains("paged storage: pages_faulted="), "{text}");

    // An in-memory database touches no pages at all.
    assert_eq!(mem.pages_faulted, 0);
    assert_eq!(mem.pages_pruned, 0);
}

/// Durability round trip: dropping the database handle and reopening the
/// directory recovers every table to the same rows, and queries return
/// byte-identical results before and after.
#[test]
fn paged_database_reopens_with_identical_results() {
    const ROWS: i64 = 3000; // 2 sealed blocks + a 952-row WAL tail
    let dir = TempDir::new("reopen");
    let before = {
        let (db, query) = clustered_paged_db(dir.path(), ROWS, 64);
        let r = db
            .session()
            .with_mode(PlanMode::Traditional)
            .with_threads(1)
            .execute(&query)
            .unwrap();
        (fingerprint(&r), query)
    };
    // The handle is gone; reopen from disk alone.
    let db = Database::open_paged(dir.path()).unwrap();
    assert_eq!(
        db.catalog().table("T").unwrap().row_count(),
        ROWS as usize,
        "recovery must land on the last durable epoch"
    );
    let after = db
        .session()
        .with_mode(PlanMode::Traditional)
        .with_threads(1)
        .execute(&before.1)
        .unwrap();
    assert_eq!(
        fingerprint(&after),
        before.0,
        "results diverged across reopen"
    );
}

/// Rank-scans count their page faults: after a reopen every block of the
/// table is on disk, so the first rank-aware top-k faults pages — building
/// the score index reads every block, and the rank-scan reads the rows it
/// emits — and reports them in `pages_faulted`, as a sequential scan's
/// faults are.  The pool holds one of the two blocks, so whatever planning
/// read leaves at least one block to fault.
#[test]
fn the_first_rank_aware_top_k_after_a_reopen_counts_its_page_faults() {
    let dir = TempDir::new("rank-faults");
    let query = clustered_paged_db(dir.path(), 3000, 2).1;
    let db = Database::open_paged_with(dir.path(), PagedOptions { pool_pages: 2 }).unwrap();
    let result = db
        .session()
        .with_mode(PlanMode::RankAware)
        .with_threads(1)
        .execute(&query)
        .unwrap();
    let text = result.physical.explain(None);
    assert!(text.contains("RankScan"), "{text}");
    assert!(
        result.pages_faulted > 0,
        "a cold rank-scan read its blocks from disk\n{text}"
    );
}

/// Satellite regression: a NaN-scoring row must never change pruning
/// results.  `TopKThreshold::raise` ignores NaN (and the total order sorts
/// NaN last), so the top-k over a table containing a NaN row equals the
/// top-k without it and the oracle's, with pruning still active.
#[test]
fn nan_scoring_rows_never_change_pruning_results() {
    const ROWS: i64 = 4096;
    let score = |i: i64| (ROWS - i) as f64 / ROWS as f64;
    let rows_with_nan = (0..ROWS).map(|i| {
        let p = if i == 100 { f64::NAN } else { score(i) };
        vec![Value::from(i), Value::from(p)]
    });
    let schema = || {
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("p", DataType::Float64),
        ])
    };
    let query = QueryBuilder::new()
        .table("T")
        .rank_predicate(RankPredicate::attribute("p", "T.p"))
        .limit(5)
        .build()
        .unwrap();
    let run = |db: &Database| {
        db.session()
            .with_mode(PlanMode::Traditional)
            .with_threads(1)
            .execute(&query)
            .unwrap()
    };

    // Reference: the same table *without* the NaN row (it is replaced by a
    // worst-possible score, which can never reach the top 5 either).
    let reference = {
        let db = Database::new();
        db.create_table("T", schema()).unwrap();
        db.insert_batch(
            "T",
            (0..ROWS).map(|i| {
                let p = if i == 100 { 0.0 } else { score(i) };
                vec![Value::from(i), Value::from(p)]
            }),
        )
        .unwrap();
        run(&db).scores()
    };

    let db = Database::new();
    db.create_table("T", schema()).unwrap();
    db.insert_batch("T", rows_with_nan).unwrap();

    let col = run(&db);
    assert_eq!(identities(&query, &col.rows), oracle(&db, &query));
    assert_eq!(col.scores(), reference, "the NaN row changed the top-k");
    assert!(
        col.scores().iter().all(|s| !s.is_nan()),
        "a NaN-scoring row leaked into the result"
    );
    // The NaN row lives in sealed block 0 — the block every plan must still
    // read (it holds the true top scores), so pruning of the *other* blocks
    // must stay fully effective.
    assert!(
        col.blocks_pruned > 0,
        "NaN in a zone must not disable pruning (blocks_pruned = 0)"
    );
}

/// A single-table database of untied uniform scores: `p` is a permutation
/// of `i / rows`, so no two rows tie and every block's zone max is near 1.
fn uniform_db(db: &Database, rows: i64) -> RankQuery {
    db.create_table(
        "U",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("x", DataType::Float64),
            Field::new("p", DataType::Float64),
        ]),
    )
    .unwrap();
    db.insert_batch(
        "U",
        (0..rows).map(|i| {
            vec![
                Value::from(i),
                Value::from((i * 104_729 % 1000) as f64 / 1000.0),
                Value::from((i * 7919 % rows) as f64 / rows as f64),
            ]
        }),
    )
    .unwrap();
    QueryBuilder::new()
        .table("U")
        .filter(BoolExpr::compare(
            ScalarExpr::col("U.x"),
            CompareOp::Lt,
            ScalarExpr::lit(0.5),
        ))
        .rank_predicate(RankPredicate::attribute("p", "U.p"))
        .limit(100)
        .build()
        .unwrap()
}

/// The zone-pruning scan scores before it builds: under `SortLimit` over
/// `ColumnScan[σ][zone-prune]` it evaluates the sort's predicate on each
/// row that passes the filter — exactly once, the sort evaluating nothing
/// again — and builds only rows that can still enter the top-k: at most
/// 5 % of them, at 1 and 4 threads alike, since a zone-pruned scan never
/// runs per morsel.  In memory and paged, tuple-at-a-time and batched, the
/// answer is the oracle's.
#[test]
fn pruning_scan_scores_rows_before_building_them() {
    const ROWS: i64 = 1 << 17;
    let mem_db = Database::new();
    let query = uniform_db(&mem_db, ROWS);
    let dir = TempDir::new("scoring");
    let paged_db = Database::open_paged(dir.path()).unwrap();
    uniform_db(&paged_db, ROWS);
    let want = oracle(&mem_db, &query);
    for (db, backend) in [(&mem_db, "in-memory"), (&paged_db, "paged")] {
        for threads in [1usize, 4] {
            for batch in [1usize, 1024] {
                let what = format!("{backend}, threads {threads}, batch {batch}");
                let result = db
                    .session()
                    .with_mode(PlanMode::Traditional)
                    .with_threads(threads)
                    .with_batch_size(batch)
                    .execute(&query)
                    .unwrap();
                assert_eq!(identities(&query, &result.rows), want, "{what}");
                let text = result.physical.explain(None);
                assert!(text.contains("[σ U.x < 0.5][zone-prune]"), "{what}: {text}");
                let scan = result
                    .metrics
                    .snapshot()
                    .into_iter()
                    .find(|m| m.name().starts_with("ColumnScan"))
                    .unwrap();
                let (decided, built) = (scan.tuples_out(), scan.tuples_built());
                assert_eq!(result.morsels, 0, "{what}");
                assert!(
                    built <= decided / 20,
                    "{what}: built {built} of {decided} decided rows"
                );
                assert_eq!(
                    result.predicate_evaluations,
                    vec![decided],
                    "{what}: one evaluation per row that passed the filter"
                );
            }
        }
    }
}

/// Rows of the tie-heavy table `W(id, x, p)`: 12 % of `p` is exactly 1.0
/// and the rest falls on 40 tied steps below it, scattered over the table;
/// `x` is the filter column.
fn tied_rows(rows: i64) -> impl Iterator<Item = Vec<Value>> {
    (0..rows).map(|i| {
        let h = (i as u64 ^ 0x5DEE_CE66).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let h = h ^ (h >> 29);
        let p = if h % 100 < 12 {
            1.0
        } else {
            ((h >> 8) % 40) as f64 / 40.0
        };
        vec![
            Value::from(i),
            Value::from(((h >> 20) % 1000) as f64 / 1000.0),
            Value::from(p),
        ]
    })
}

fn create_tied(db: &Database, rows: i64) {
    db.create_table(
        "W",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("x", DataType::Float64),
            Field::new("p", DataType::Float64),
        ]),
    )
    .unwrap();
    db.insert_batch("W", tied_rows(rows)).unwrap();
}

/// A top-`k` of `W` by `p`: unfiltered, under a filter fused into the scan
/// (the scan scores rows), or under one that stays a σ (the scan only
/// skips blocks).
fn tied_query(k: usize, filter: Option<BoolExpr>) -> RankQuery {
    let mut builder = QueryBuilder::new().table("W");
    if let Some(f) = filter {
        builder = builder.filter(f);
    }
    builder
        .rank_predicate(RankPredicate::attribute("p", "W.p"))
        .limit(k)
        .build()
        .unwrap()
}

/// Ties are part of the order: with ≥ 10 % of rows tied at the maximum and
/// `k` inside a tied group or on its edge, the zone-pruning scan skips
/// blocks, the tail and rows on `(score, id)` — and in memory and paged, at
/// 1 and 4 threads, tuple-at-a-time and batched, the answer is the
/// oracle's, ids included.  At 4 threads the scan stays serial (a
/// zone-pruned scan is no spine, so no morsel runs).
#[test]
fn tie_heavy_top_k_equals_the_oracle_ids_included() {
    const ROWS: i64 = 20 * 1024 + 333;
    let mem_db = Database::new();
    create_tied(&mem_db, ROWS);
    let dir = TempDir::new("ties");
    let paged_db = Database::open_paged(dir.path()).unwrap();
    create_tied(&paged_db, ROWS);
    let epoch = mem_db.catalog().table("W").unwrap().pin_epoch();
    assert!(epoch.tail().len() >= 300, "the epoch has a tail");
    let maxed = tied_rows(ROWS).filter(|r| r[2] == Value::from(1.0)).count();
    assert!(maxed * 10 >= ROWS as usize, "{maxed} rows tie at 1.0");
    let x_lt =
        |v: f64| BoolExpr::compare(ScalarExpr::col("W.x"), CompareOp::Lt, ScalarExpr::lit(v));
    let unfused = BoolExpr::compare(
        ScalarExpr::col("W.x").mul(ScalarExpr::lit(2.0)),
        CompareOp::Lt,
        ScalarExpr::lit(1.2),
    );
    for k in [10, maxed, maxed + 5] {
        for filter in [None, Some(x_lt(0.6)), Some(unfused.clone())] {
            let query = tied_query(k, filter);
            let want = oracle(&mem_db, &query);
            for (db, backend) in [(&mem_db, "in-memory"), (&paged_db, "paged")] {
                for threads in [1usize, 4] {
                    for batch in [1usize, 1024] {
                        let result = db
                            .session()
                            .with_mode(PlanMode::Traditional)
                            .with_threads(threads)
                            .with_batch_size(batch)
                            .with_morsel_size(700)
                            .execute(&query)
                            .unwrap();
                        let what = format!("k {k}, {backend}, threads {threads}, batch {batch}");
                        let text = result.physical.explain(None);
                        assert!(text.contains("[zone-prune]"), "{what}: {text}");
                        assert_eq!(result.morsels, 0, "{what}: {text}");
                        assert_eq!(identities(&query, &result.rows), want, "{what}: {text}");
                    }
                }
            }
        }
    }
}

/// A count, not a timer: a paged top-10 over 64 blocks and a 320-row tail,
/// with 12 % of rows tied at the maximum score, reads the two blocks its
/// first batch of 1 024 filtered rows spans — every later block and the
/// tail start past the worst kept id — and faults at most their pages
/// through a 4-page pool.
#[test]
fn a_tied_paged_top_10_reads_two_blocks() {
    const ROWS: i64 = 64 * 1024 + 320;
    let dir = TempDir::new("tied-count");
    let db = Database::open_paged_with(dir.path(), PagedOptions { pool_pages: 4 }).unwrap();
    create_tied(&db, ROWS);
    let filter = BoolExpr::compare(ScalarExpr::col("W.x"), CompareOp::Lt, ScalarExpr::lit(0.75));
    let query = tied_query(10, Some(filter));
    let result = db
        .session()
        .with_mode(PlanMode::Traditional)
        .with_threads(1)
        .execute(&query)
        .unwrap();
    assert_eq!(identities(&query, &result.rows), oracle(&db, &query));
    let scan = result
        .metrics
        .snapshot()
        .into_iter()
        .find(|m| m.name().starts_with("ColumnScan"))
        .unwrap();
    assert!(
        scan.tuples_in() <= 2 * 1024,
        "read {} rows",
        scan.tuples_in()
    );
    let epoch = db.catalog().table("W").unwrap().pin_epoch();
    let block_pages = epoch.blocks().block_pages(0);
    assert!(block_pages > 0, "the table pages to disk");
    assert!(
        result.pages_faulted <= 2 * block_pages,
        "faulted {} pages, {block_pages} per block",
        result.pages_faulted
    );
}

/// Rows of the index-scan table `I(id, g, p)`: `p` is the rank-scan's
/// score, `g` the attribute index's key, both scattered across blocks.
fn index_rows(rows: i64) -> impl Iterator<Item = Vec<Value>> {
    (0..rows).map(|i| {
        vec![
            Value::from(i),
            Value::from((i * 7919) % 53),
            Value::from(((i * 104_729) % 1000) as f64 / 1000.0),
        ]
    })
}

fn create_index_table(db: &Database, rows: i64) {
    db.create_table(
        "I",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("g", DataType::Int64),
            Field::new("p", DataType::Float64),
        ]),
    )
    .unwrap();
    db.insert_batch("I", index_rows(rows)).unwrap();
}

/// A rank-scan and an attribute-index scan over `I`, each capped at
/// `limit` rows, with the query they run under.
fn index_scan_plans(db: &Database, limit: usize) -> (RankQuery, [ranksql::LogicalPlan; 2]) {
    let query = QueryBuilder::new()
        .table("I")
        .rank_predicate(RankPredicate::attribute("p", "I.p"))
        .limit(limit)
        .build()
        .unwrap();
    let t = db.catalog().table("I").unwrap();
    let plans = [
        ranksql::LogicalPlan::rank_scan(&t, 0).limit(limit),
        ranksql::LogicalPlan::index_scan(&t, "I.g").limit(limit),
    ];
    (query, plans)
}

/// Rank-scans and attribute-index scans read a paged table's rows through
/// the buffer pool: over a reopened table four times its pool they build
/// their indexes and return what an in-memory table returns, ids included.
#[test]
fn index_scans_over_a_reopened_paged_table_fault_through_the_pool() {
    const ROWS: i64 = 4 * 1024 + 100; // 4 sealed blocks of 2 pages + a tail
    let options = PagedOptions { pool_pages: 2 };
    let dir = TempDir::new("index-scans");
    create_index_table(
        &Database::open_paged_with(dir.path(), options).unwrap(),
        ROWS,
    );
    let paged = Database::open_paged_with(dir.path(), options).unwrap();
    let mem = Database::new();
    create_index_table(&mem, ROWS);
    let epoch = paged.catalog().table("I").unwrap().pin_epoch();
    assert_eq!(epoch.blocks().paged_blocks(), 4);
    assert_eq!(epoch.blocks().block_pages(0), 2);

    let (query, paged_plans) = index_scan_plans(&paged, 300);
    let (_, mem_plans) = index_scan_plans(&mem, 300);
    for (p, m) in paged_plans.iter().zip(&mem_plans) {
        let got = paged.execute_plan(&query, p).unwrap();
        let want = mem.execute_plan(&query, m).unwrap();
        assert_eq!(got.rows.len(), 300);
        assert_eq!(
            fingerprint(&got),
            fingerprint(&want),
            "{}",
            got.physical.explain(None)
        );
        let states = |r: &ranksql::QueryResult| -> Vec<_> {
            r.rows.iter().map(|t| t.state.clone()).collect()
        };
        assert_eq!(states(&got), states(&want));
    }
}

/// A rank-scan that faults a corrupt extent fails with a typed `Storage`
/// error instead of panicking, and `Table::scan` stops short of the bad
/// block rather than returning a snapshot that looks whole.
#[test]
fn a_rank_scan_over_a_corrupt_extent_fails_typed() {
    const ROWS: i64 = 4 * 1024;
    let options = PagedOptions { pool_pages: 2 };
    let dir = TempDir::new("corrupt-extent");
    create_index_table(
        &Database::open_paged_with(dir.path(), options).unwrap(),
        ROWS,
    );
    let db = Database::open_paged_with(dir.path(), options).unwrap();
    let (query, [rank_scan, _]) = index_scan_plans(&db, 50);
    // Build the score index while the extents are sound, then leave the
    // one-block pool holding block 3, so block 0 must be faulted again.
    db.execute_plan(&query, &rank_scan).unwrap();
    let t = db.catalog().table("I").unwrap();
    t.pin_epoch().tuples([3 * 1024]).unwrap();

    // Flip one payload byte of block 0's extent, on disk, after open.
    let data = dir.path().join("t0.dat");
    let mut bytes = std::fs::read(&data).unwrap();
    bytes[1000] ^= 0xFF;
    std::fs::write(&data, &bytes).unwrap();

    match db.execute_plan(&query, &rank_scan) {
        Err(RankSqlError::Storage(msg)) => assert!(msg.contains("checksum"), "{msg}"),
        other => panic!("expected a typed storage error, got {other:?}"),
    }
    assert!(
        t.scan().len() < t.row_count(),
        "a failed fault stops scan short"
    );
}
