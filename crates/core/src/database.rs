//! The `Database` facade: catalog + optimizer + executor + plan cache in
//! one handle.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use ranksql_algebra::{LogicalPlan, PhysicalPlan, RankQuery};
use ranksql_common::{Result, Schema, Value};
use ranksql_optimizer::{OptimizedPlan, OptimizerConfig, PlanMode, RankOptimizer};
use ranksql_storage::{Catalog, Table};

use crate::cursor::Cursor;
use crate::result::QueryResult;
use crate::session::{Session, SessionSettings};

/// Aggregate plan-cache counters of a [`Database`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Bindings that reused a cached plan shape.
    pub hits: u64,
    /// Bindings that had to run the optimizer.
    pub misses: u64,
    /// Cached plan shapes currently held.
    pub entries: usize,
}

/// The plan-cache outcome of one `bind`: whether *this* binding hit, plus
/// the cache counters at that moment.  Surfaced on
/// [`QueryResult::plan_cache`](crate::QueryResult) and in
/// `explain_analyze` output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheLookup {
    /// Whether the binding reused a cached plan.
    pub hit: bool,
    /// Cache counters at bind time.
    pub stats: PlanCacheStats,
}

impl PlanCacheLookup {
    /// The one-line rendering used by `explain_analyze`.
    pub fn to_line(&self) -> String {
        format!(
            "plan cache: {} (hits={}, misses={}, entries={})",
            if self.hit { "hit" } else { "miss" },
            self.stats.hits,
            self.stats.misses,
            self.stats.entries
        )
    }
}

/// One cached plan shape: the optimizer output (whose expressions carry
/// re-bindable `$i` parameter slots) plus the `k` it was planned with, so a
/// binding with a different `k` knows which limit value to rewrite.
#[derive(Debug)]
pub(crate) struct CachedPlan {
    pub(crate) plan: OptimizedPlan,
    pub(crate) k: usize,
}

/// One cache slot: the plan plus its last-touched tick for LRU eviction.
#[derive(Debug)]
struct CacheSlot {
    plan: Arc<CachedPlan>,
    last_used: u64,
}

/// The most cached plan shapes a database holds; reaching the cap evicts the
/// **least recently used** entry, so hot shapes survive storms of ad-hoc
/// queries with distinct literal shapes streaming through the eager
/// wrappers.
const PLAN_CACHE_CAP: usize = 512;

/// Map + access log of the plan cache, guarded by one mutex so LRU order
/// and membership can never disagree.
#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<String, CacheSlot>,
    /// Append-only access log for amortized-O(1) LRU eviction: every touch
    /// pushes one `(key, stamp)` record.  A record is authoritative only
    /// while it equals its slot's `last_used`; superseded records are
    /// discarded lazily — when eviction pops them, or by the occasional
    /// compaction in [`CacheInner::record_touch`].
    queue: VecDeque<(String, u64)>,
}

impl CacheInner {
    /// Logs a touch of `key` at `tick`, compacting the log when superseded
    /// records dominate so it stays linear in the live entry count.  The
    /// compaction scan is paid at most once per `O(len)` touches —
    /// amortized O(1).
    fn record_touch(&mut self, key: &str, tick: u64) {
        self.queue.push_back((key.to_owned(), tick));
        if self.queue.len() > 2 * self.map.len().max(32) {
            let map = &self.map;
            self.queue
                .retain(|(k, s)| map.get(k).map(|slot| slot.last_used) == Some(*s));
        }
    }

    /// Evicts the least-recently-used entry in amortized O(1): records pop
    /// off the log in stamp order, so the first one still matching its
    /// slot's `last_used` names the live entry with the globally oldest
    /// stamp.  Superseded records are dropped for good as they pass by.
    fn evict_lru(&mut self) {
        while let Some((k, s)) = self.queue.pop_front() {
            if self.map.get(&k).map(|slot| slot.last_used) == Some(s) {
                self.map.remove(&k);
                return;
            }
        }
    }
}

/// The database-wide plan cache, keyed by
/// [`ranksql_optimizer::normalized_cache_key`] (query shape + mode; never
/// bound values, `k`, weights or the thread count) plus the
/// referenced tables' log₂ size buckets — so a cached shape is re-costed
/// once a table grows or shrinks by about 2×, bounding plan staleness under
/// mutation.
///
/// Bounded by [`PLAN_CACHE_CAP`] with true LRU eviction in amortized O(1):
/// every touch stamps the entry with a monotonically increasing tick and
/// appends a record to an access log; inserting into a full cache pops the
/// log until the first record that still matches its entry's latest stamp —
/// that entry is the least recently used (the old implementation scanned
/// the whole map per eviction, `O(cap)` under an ad-hoc query storm).
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    inner: Mutex<CacheInner>,
    /// Monotonic access clock for LRU stamps.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Looks a key up, recording a hit (and refreshing the entry's LRU
    /// stamp) when present.
    pub(crate) fn lookup(&self, key: &str) -> Option<(Arc<CachedPlan>, PlanCacheLookup)> {
        let entry = {
            let mut inner = self.inner.lock();
            // The tick is taken *inside* the lock so stamps are monotone in
            // log-push order — the invariant `evict_lru` leans on (the
            // first record still matching its slot's `last_used` names the
            // globally oldest entry).  Ticked outside, two racing touches
            // could stamp a slot out of order and strand a live entry
            // behind a stale, never-matching record.
            let tick = self.tick();
            let slot = inner.map.get_mut(key)?;
            slot.last_used = tick;
            let plan = Arc::clone(&slot.plan);
            inner.record_touch(key, tick);
            plan
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some((
            entry,
            PlanCacheLookup {
                hit: true,
                stats: self.stats(),
            },
        ))
    }

    /// Builds and inserts the plan for `key`, recording a miss.  The builder
    /// runs outside the lock (optimization is slow); if another thread
    /// populated the key meanwhile, its entry wins and ours is dropped.
    pub(crate) fn populate(
        &self,
        key: &str,
        build: impl FnOnce() -> Result<(OptimizedPlan, usize)>,
    ) -> Result<(Arc<CachedPlan>, PlanCacheLookup)> {
        let (plan, k) = build()?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(CachedPlan { plan, k });
        let entry = {
            let mut inner = self.inner.lock();
            if inner.map.len() >= PLAN_CACHE_CAP && !inner.map.contains_key(key) {
                inner.evict_lru();
            }
            // Ticked under the lock (see `lookup`): the stamp is strictly
            // newer than every record already in the log, so a key
            // re-inserted right after its own eviction can never sit
            // behind a stale record carrying its old stamp.
            let tick = self.tick();
            let slot = inner
                .map
                .entry(key.to_owned())
                .or_insert_with(|| CacheSlot {
                    plan: Arc::clone(&entry),
                    last_used: tick,
                });
            slot.last_used = tick;
            let plan = Arc::clone(&slot.plan);
            inner.record_touch(key, tick);
            plan
        };
        Ok((
            entry,
            PlanCacheLookup {
                hit: false,
                stats: self.stats(),
            },
        ))
    }

    pub(crate) fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.inner.lock().map.len(),
        }
    }

    pub(crate) fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.queue.clear();
    }
}

/// An embedded RankSQL database: owns the catalog and the plan cache, and
/// executes top-k queries.
///
/// Per-caller execution settings (plan mode, threads, batch size, budgets)
/// live on [`Session`]; `Database` keeps only what is shared across
/// callers.  `Database::execute*` remain as thin compatibility wrappers
/// over `session().prepare_query(..).bind(..).cursor()`.
pub struct Database {
    catalog: Catalog,
    /// Defaults handed to new sessions (and used by the compatibility
    /// wrappers).
    default_settings: SessionSettings,
    plan_cache: PlanCache,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.catalog.table_names())
            .field("default_settings", &self.default_settings)
            .field("plan_cache", &self.plan_cache.stats())
            .finish()
    }
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database {
            catalog: Catalog::new(),
            default_settings: SessionSettings::default(),
            plan_cache: PlanCache::default(),
        }
    }

    /// Opens (or initialises) a disk-backed database directory with the
    /// default [`PagedOptions`](ranksql_storage::PagedOptions).
    ///
    /// Every table recorded in the directory's catalog file is recovered to
    /// its **last durable epoch** — the longest CRC-valid extent prefix of
    /// its data file plus the contiguous valid prefix of its write-ahead
    /// log — and re-registered under its original id and schema.  Tables
    /// created and rows inserted afterwards follow the WAL protocol, so a
    /// crash at any point loses at most the rows since the last fsync
    /// boundary.  Queries plan and scan exactly as on an in-memory
    /// database; only the sealed blocks live in the directory's page files.
    pub fn open_paged(dir: impl AsRef<std::path::Path>) -> Result<Self> {
        Database::open_paged_with(dir, ranksql_storage::PagedOptions::default())
    }

    /// [`Database::open_paged`] with an explicit configuration — chiefly
    /// the buffer-pool page budget, which bounds how much of the columnar
    /// working set stays resident.
    pub fn open_paged_with(
        dir: impl AsRef<std::path::Path>,
        options: ranksql_storage::PagedOptions,
    ) -> Result<Self> {
        let catalog = Catalog::new();
        ranksql_storage::PagedStore::open(dir.as_ref(), options, &catalog)?;
        Ok(Database {
            catalog,
            ..Database::new()
        })
    }

    /// Opens a [`Session`] carrying this database's default settings;
    /// configure it further with the session's `with_*` builders.
    pub fn session(&self) -> Session<'_> {
        Session::new(self, self.default_settings.clone())
    }

    /// The worker-thread budget new sessions (and the compatibility
    /// wrappers) default to.
    pub fn threads(&self) -> usize {
        self.default_settings.threads
    }

    /// The statistics catalog of a table: per-column null counts, numeric
    /// min/max, boolean fractions and the staged distinct-count sketch the
    /// cost model consumes.  Built on first call; afterwards every insert
    /// folds the new row in incrementally, so repeated calls are cheap and
    /// never stale.
    pub fn table_stats(&self, table: &str) -> Result<Arc<ranksql_storage::StatsCatalog>> {
        self.catalog.table(table)?.stats_catalog()
    }

    /// Aggregate plan-cache counters (hits, misses, cached shapes).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Drops every cached plan shape (counters are kept).
    pub fn clear_plan_cache(&self) {
        self.plan_cache.clear();
    }

    pub(crate) fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Creates a table.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<Arc<Table>> {
        self.catalog.create_table(name, schema)
    }

    /// Inserts a row into a table.
    pub fn insert(&self, table: &str, values: Vec<Value>) -> Result<u64> {
        self.catalog.table(table)?.insert(values)
    }

    /// Inserts many rows into a table: see
    /// [`Table::insert_batch`](ranksql_storage::Table::insert_batch) for what
    /// readers see meanwhile and where a failure stops the batch.
    pub fn insert_batch<I>(&self, table: &str, rows: I) -> Result<usize>
    where
        I: IntoIterator<Item = Vec<Value>>,
    {
        self.catalog.table(table)?.insert_batch(rows)
    }

    /// Plans a query under the given mode without executing it.
    ///
    /// Pass order: optimization → `columnarize` (annotate scans, push
    /// filters, mark zone pruning).  The plan does not depend on a thread
    /// count: with more than one thread the executor runs a sort whose
    /// input is a spine per morsel, deciding that as it lowers the plan.
    ///
    /// In builds with `debug_assertions` every pass's output is validated,
    /// and an `Error`-severity diagnostic fails planning.
    pub fn plan(&self, query: &RankQuery, mode: PlanMode) -> Result<OptimizedPlan> {
        let config = OptimizerConfig {
            mode,
            ..OptimizerConfig::default()
        };
        let mut optimized = RankOptimizer::new(config).optimize(query, &self.catalog)?;
        if cfg!(debug_assertions) {
            debug_verify_logical(&optimized.plan, &query.ranking, "optimize")?;
            debug_verify(&optimized.physical, &query.ranking, "optimize")?;
        }
        optimized.physical = ranksql_optimizer::columnarize(
            optimized.physical,
            &ranksql_optimizer::CostModel::default(),
        );
        optimized.cost = optimized.physical.estimated_cost;
        if cfg!(debug_assertions) {
            debug_verify(&optimized.physical, &query.ranking, "columnarize")?;
        }
        Ok(optimized)
    }

    /// Runs the full validator over the plan this database would run for
    /// `query` under `mode` and its default settings, returning **every**
    /// diagnostic (warnings included) in any build.  A clean plan yields an empty vector.  The session-aware form
    /// is [`Session::verify_plan`].
    pub fn verify_plan(
        &self,
        query: &RankQuery,
        mode: PlanMode,
    ) -> Result<Vec<ranksql_verify::Diagnostic>> {
        let optimized = self.plan(query, mode)?;
        let opts = ranksql_verify::ValidateOptions::default();
        let mut diags =
            ranksql_verify::validate_logical(&optimized.plan, Some(&query.ranking), &opts);
        diags.extend(ranksql_verify::validate_physical(
            &optimized.physical,
            Some(&query.ranking),
            &opts,
        ));
        Ok(diags)
    }

    /// Returns a human-readable explanation of the plan chosen for a query:
    /// the logical tree and the physical tree the executor will run, the
    /// latter with the optimizer's per-node cost and cardinality estimates.
    pub fn explain(&self, query: &RankQuery, mode: PlanMode) -> Result<String> {
        let optimized = self.plan(query, mode)?;
        let mut out = String::new();
        out.push_str(&format!(
            "mode: {:?}\nestimated cost: {:.1}\nestimated cardinality: {:.1}\n",
            mode,
            optimized.cost.value(),
            optimized.estimated_cardinality
        ));
        out.push_str("logical plan:\n");
        out.push_str(&optimized.plan.explain(Some(&query.ranking)));
        out.push_str("physical plan:\n");
        out.push_str(&optimized.physical.explain(Some(&query.ranking)));
        out.push_str(&explain_validation_footer(&optimized, &query.ranking));
        Ok(out)
    }

    /// Plans (rank-aware, heuristic) and executes a query.
    ///
    /// Compatibility wrapper over the Session API: equivalent to
    /// `db.session().execute(query)` — it prepares, binds no parameters,
    /// opens a cursor and drains it, hitting the plan cache like any
    /// prepared execution.
    pub fn execute(&self, query: &RankQuery) -> Result<QueryResult> {
        self.session().execute(query)
    }

    /// Plans under `mode` and executes the planned physical plan
    /// (compatibility wrapper over `session().with_mode(mode).execute()`).
    pub fn execute_with_mode(&self, query: &RankQuery, mode: PlanMode) -> Result<QueryResult> {
        self.session().with_mode(mode).execute(query)
    }

    /// Executes an explicit logical plan (e.g. one of the paper's
    /// hand-built plans) by structurally lowering it first.  Hand-built
    /// plans bypass the plan cache — there is no query shape to key them by.
    pub fn execute_plan(&self, query: &RankQuery, plan: &LogicalPlan) -> Result<QueryResult> {
        let physical = PhysicalPlan::from_logical(plan)?;
        self.execute_physical(query, &physical)
    }

    /// Executes a physical plan directly (compatibility wrapper: opens a
    /// [`Cursor`] over the plan and drains it).
    pub fn execute_physical(
        &self,
        query: &RankQuery,
        physical: &PhysicalPlan,
    ) -> Result<QueryResult> {
        self.cursor_for_physical(query, physical.clone())?
            .into_result()
    }

    /// Opens a streaming cursor over an explicit physical plan under the
    /// database's default settings (the non-draining form of
    /// [`Database::execute_physical`]).
    pub fn cursor_for_physical(&self, query: &RankQuery, physical: PhysicalPlan) -> Result<Cursor> {
        Cursor::open(&self.catalog, &self.default_settings, query, physical, None)
    }
}

/// Validates a pass's physical output, hard-failing planning on any
/// `Error`-severity diagnostic with the full report in the message.  Called
/// only in builds with `debug_assertions`.
fn debug_verify(
    physical: &PhysicalPlan,
    ranking: &std::sync::Arc<ranksql_expr::RankingContext>,
    stage: &str,
) -> Result<()> {
    let diags = ranksql_verify::validate_physical(
        physical,
        Some(ranking),
        &ranksql_verify::ValidateOptions::default(),
    );
    if ranksql_verify::has_errors(&diags) {
        return Err(ranksql_common::RankSqlError::Plan(format!(
            "plan validation failed after the `{stage}` pass:\n{}",
            ranksql_verify::report(&diags)
        )));
    }
    Ok(())
}

/// The logical-plan half of [`debug_verify`].
fn debug_verify_logical(
    plan: &LogicalPlan,
    ranking: &std::sync::Arc<ranksql_expr::RankingContext>,
    stage: &str,
) -> Result<()> {
    let diags = ranksql_verify::validate_logical(
        plan,
        Some(ranking),
        &ranksql_verify::ValidateOptions::default(),
    );
    if ranksql_verify::has_errors(&diags) {
        return Err(ranksql_common::RankSqlError::Plan(format!(
            "logical plan validation failed after the `{stage}` pass:\n{}",
            ranksql_verify::report(&diags)
        )));
    }
    Ok(())
}

/// The `plan validation:` footer `explain` appends: the full validator
/// output over both trees (always computed — explain is a debugging
/// surface, so the footer is computed in release builds too).
fn explain_validation_footer(
    optimized: &OptimizedPlan,
    ranking: &std::sync::Arc<ranksql_expr::RankingContext>,
) -> String {
    let opts = ranksql_verify::ValidateOptions::default();
    let mut diags = ranksql_verify::validate_logical(&optimized.plan, Some(ranking), &opts);
    diags.extend(ranksql_verify::validate_physical(
        &optimized.physical,
        Some(ranking),
        &opts,
    ));
    ranksql_verify::footer(&diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryBuilder;
    use crate::prepared::Params;
    use ranksql_common::{DataType, Field};
    use ranksql_expr::{BoolExpr, RankPredicate};

    fn db_with_data() -> (Database, RankQuery) {
        let db = Database::new();
        db.create_table(
            "H",
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("city", DataType::Int64),
                Field::new("quality", DataType::Float64),
            ]),
        )
        .unwrap();
        db.create_table(
            "R",
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("city", DataType::Int64),
                Field::new("rating", DataType::Float64),
            ]),
        )
        .unwrap();
        for i in 0..60i64 {
            db.insert(
                "H",
                vec![
                    Value::from(i),
                    Value::from(i % 6),
                    Value::from(((i * 17) % 100) as f64 / 100.0),
                ],
            )
            .unwrap();
            db.insert(
                "R",
                vec![
                    Value::from(i),
                    Value::from(i % 6),
                    Value::from(((i * 23) % 100) as f64 / 100.0),
                ],
            )
            .unwrap();
        }
        let query = QueryBuilder::new()
            .tables(["H", "R"])
            .filter(BoolExpr::col_eq_col("H.city", "R.city"))
            .rank_predicate(RankPredicate::attribute("hq", "H.quality"))
            .rank_predicate(RankPredicate::attribute("rr", "R.rating"))
            .limit(4)
            .build()
            .unwrap();
        (db, query)
    }

    #[test]
    fn execute_matches_canonical_mode() {
        let (db, query) = db_with_data();
        let fast = db.execute(&query).unwrap();
        let naive = db.execute_with_mode(&query, PlanMode::Canonical).unwrap();
        assert_eq!(fast.rows.len(), 4);
        assert_eq!(fast.scores(), naive.scores());
    }

    #[test]
    fn all_modes_agree() {
        let (db, query) = db_with_data();
        let reference = db
            .execute_with_mode(&query, PlanMode::Canonical)
            .unwrap()
            .scores();
        for mode in [
            PlanMode::RankAware,
            PlanMode::RankAwareExhaustive,
            PlanMode::Traditional,
        ] {
            let r = db.execute_with_mode(&query, mode).unwrap();
            assert_eq!(r.scores(), reference, "mode {mode:?}");
        }
    }

    #[test]
    fn parallel_execution_agrees_with_serial_in_every_mode() {
        let (db, query) = db_with_data();
        let serial = db.session().with_threads(1);
        let reference = serial
            .with_mode(PlanMode::Canonical)
            .execute(&query)
            .unwrap();
        let ref_ids: Vec<_> = reference
            .rows
            .iter()
            .map(|t| t.tuple.id().clone())
            .collect();
        let parallel = db.session().with_threads(4);
        // The parallel canonical execution actually runs morsels.
        let canonical = parallel.clone().with_mode(PlanMode::Canonical);
        assert!(canonical.execute(&query).unwrap().morsels > 0);
        for mode in [
            PlanMode::Canonical,
            PlanMode::RankAware,
            PlanMode::RankAwareExhaustive,
            PlanMode::Traditional,
        ] {
            let r = parallel.clone().with_mode(mode).execute(&query).unwrap();
            assert_eq!(r.scores(), reference.scores(), "mode {mode:?}");
            let ids: Vec<_> = r.rows.iter().map(|t| t.tuple.id().clone()).collect();
            assert_eq!(ids, ref_ids, "mode {mode:?}");
        }
        assert_eq!(parallel.threads(), 4);
    }

    #[test]
    fn explain_mentions_plan_nodes() {
        let (db, query) = db_with_data();
        let text = db.explain(&query, PlanMode::Canonical).unwrap();
        assert!(text.contains("Limit[4]"));
        assert!(text.contains("Sort"));
        let text = db.explain(&query, PlanMode::RankAware).unwrap();
        assert!(text.contains("mode: RankAware"));
    }

    /// Regression for the LRU plan cache: a hot shape that is re-bound
    /// throughout an eviction storm of distinct cold shapes must survive —
    /// the old arbitrary-entry eviction could drop it at any point.
    #[test]
    fn lru_plan_cache_keeps_the_hottest_shape_through_an_eviction_storm() {
        let db = Database::new();
        db.create_table("T", Schema::new(vec![Field::new("x", DataType::Int64)]))
            .unwrap();
        db.insert("T", vec![Value::from(1)]).unwrap();
        let query_with_filter = |lit: i64| {
            QueryBuilder::new()
                .table("T")
                .filter(BoolExpr::compare(
                    ranksql_expr::ScalarExpr::col("T.x"),
                    ranksql_expr::CompareOp::Lt,
                    ranksql_expr::ScalarExpr::lit(lit),
                ))
                .limit(1)
                .build()
                .unwrap()
        };
        // Canonical mode keeps planning cheap; each distinct literal is a
        // distinct cached shape.
        let session = db.session().with_mode(PlanMode::Canonical);
        let hot = session.prepare_query(query_with_filter(-1)).unwrap();
        hot.execute().unwrap();
        assert_eq!(db.plan_cache_stats().misses, 1);

        // Storm: well over PLAN_CACHE_CAP distinct shapes, touching the hot
        // shape every 50 preparations so its LRU stamp stays fresh.
        for i in 0..(PLAN_CACHE_CAP as i64 + 100) {
            session
                .prepare_query(query_with_filter(i))
                .unwrap()
                .execute()
                .unwrap();
            if i % 50 == 0 {
                assert!(
                    hot.bind(Params::none()).unwrap().cache_hit(),
                    "hot shape evicted during the storm (i = {i})"
                );
            }
        }
        let stats = db.plan_cache_stats();
        assert!(stats.entries <= PLAN_CACHE_CAP, "cap enforced: {stats:?}");
        assert!(
            hot.bind(Params::none()).unwrap().cache_hit(),
            "the hottest shape must survive the eviction storm"
        );
        // A cold shape from the start of the storm was evicted (it was the
        // least recently used); re-binding it re-optimizes.
        assert!(!session
            .prepare_query(query_with_filter(0))
            .unwrap()
            .bind(Params::none())
            .unwrap()
            .cache_hit());
    }

    /// Regression for the lazily-compacted access log: a shape that is
    /// evicted and then **re-inserted** must behave like a brand-new entry —
    /// it hits immediately, and the stale log records from its first life
    /// (now matching nothing) must neither evict it early nor keep a ghost
    /// entry alive.  The LRU stamp is taken *inside* the cache lock, so the
    /// re-insertion stamp is strictly newer than every record already in
    /// the log.
    #[test]
    fn plan_cache_hits_after_eviction_and_reinsert() {
        let db = Database::new();
        db.create_table("T", Schema::new(vec![Field::new("x", DataType::Int64)]))
            .unwrap();
        db.insert("T", vec![Value::from(1)]).unwrap();
        let query_with_filter = |lit: i64| {
            QueryBuilder::new()
                .table("T")
                .filter(BoolExpr::compare(
                    ranksql_expr::ScalarExpr::col("T.x"),
                    ranksql_expr::CompareOp::Lt,
                    ranksql_expr::ScalarExpr::lit(lit),
                ))
                .limit(1)
                .build()
                .unwrap()
        };
        let session = db.session().with_mode(PlanMode::Canonical);

        // Life 1: the shape enters the cache and is touched a few times,
        // leaving several superseded records in the access log.
        let hot = session.prepare_query(query_with_filter(-1)).unwrap();
        hot.execute().unwrap();
        for _ in 0..4 {
            assert!(hot.bind(Params::none()).unwrap().cache_hit());
        }

        // An eviction storm of > cap distinct cold shapes pushes it out (it
        // is never touched during the storm, so it becomes the LRU entry).
        for i in 0..(PLAN_CACHE_CAP as i64 + 8) {
            session
                .prepare_query(query_with_filter(i))
                .unwrap()
                .execute()
                .unwrap();
        }
        assert!(
            !hot.bind(Params::none()).unwrap().cache_hit(),
            "the untouched shape must have been evicted by the storm"
        );

        // That miss re-optimized and re-inserted the shape.  Life 2: it
        // hits immediately, and survives a further cold burst — its
        // re-insertion stamp is the newest in the cache, so the burst
        // evicts genuinely older entries instead.
        assert!(
            hot.bind(Params::none()).unwrap().cache_hit(),
            "a re-inserted shape must hit on the very next bind"
        );
        for i in 0..64 {
            session
                .prepare_query(query_with_filter(1_000_000 + i))
                .unwrap()
                .execute()
                .unwrap();
        }
        assert!(
            hot.bind(Params::none()).unwrap().cache_hit(),
            "stale life-1 log records must not age the re-inserted shape"
        );
        assert!(db.plan_cache_stats().entries <= PLAN_CACHE_CAP);
    }

    #[test]
    fn table_stats_surface_on_database_and_explain_analyze() {
        let (db, query) = db_with_data();
        // Direct exposure: the catalog reflects the loaded data exactly
        // (60 rows, 6 distinct cities) and stays current across inserts.
        let stats = db.table_stats("H").unwrap();
        assert_eq!(stats.row_count, 60);
        assert_eq!(stats.column("city").unwrap().ndv(), 6);
        db.insert(
            "H",
            vec![Value::from(60i64), Value::from(7i64), Value::from(0.5)],
        )
        .unwrap();
        let stats = db.table_stats("H").unwrap();
        assert_eq!(stats.row_count, 61);
        assert_eq!(stats.column("city").unwrap().ndv(), 7);

        // A rank-aware execution went through the estimators, which prime
        // the per-table catalogs: explain_analyze reports them.
        let result = db.execute(&query).unwrap();
        assert_eq!(result.table_stats.len(), 2, "both scanned tables");
        let text = result.explain_analyze(Some(&query.ranking));
        assert!(text.contains("statistics[H]: rows=61"), "{text}");
        assert!(text.contains("city ndv=7"), "{text}");
        assert!(text.contains("statistics[R]: rows=60"), "{text}");
    }

    #[test]
    fn insert_batch_and_catalog_access() {
        let db = Database::new();
        db.create_table("T", Schema::new(vec![Field::new("x", DataType::Int64)]))
            .unwrap();
        let n = db
            .insert_batch("T", (0..5i64).map(|i| vec![Value::from(i)]))
            .unwrap();
        assert_eq!(n, 5);
        assert_eq!(db.catalog().table("T").unwrap().row_count(), 5);
        assert!(db.insert("missing", vec![]).is_err());
    }
}
