//! In-memory heap tables with MVCC snapshot reads.
//!
//! A [`Table`] is append-only: row indices are stable, so any *prefix* of
//! the row heap is an immutable snapshot.  [`Table::pin_epoch`] captures one
//! — the sealed columnar blocks plus a frozen copy of the delta tail — and
//! readers holding a [`TableEpoch`] stream those rows forever, regardless of
//! concurrent appends.  Writers never rebuild: inserts fold into the stats
//! delta and, at each 1024-row boundary, seal exactly one new columnar
//! block (see [`Table::insert`]).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::{Mutex, RwLock};
use ranksql_common::{RankSqlError, Result, Schema, Tuple, TupleId, Value};

use crate::column::{ColumnTable, COLUMN_BLOCK_ROWS};
use crate::index::{BTreeIndex, HashIndex, ScoreIndex};
use crate::recovery::TableStore;
use crate::stats::StatsCatalog;

/// The statistics catalog split along the seal boundary: `sealed` covers
/// the rows folded in at past 1024-row boundaries, `delta` the streaming
/// tail.  Reads merge the two; sealing folds the delta partial into the
/// sealed catalog and resets it — the same partial-merge the from-scratch
/// [`StatsCatalog::build`] performs, so both paths agree exactly.
#[derive(Debug)]
struct StatsPair {
    sealed: StatsCatalog,
    delta: StatsCatalog,
    /// The two merged, built on first read and dropped by the next insert:
    /// readers between two inserts share one catalog.
    merged: Option<Arc<StatsCatalog>>,
}

impl StatsPair {
    fn merge(sealed: &StatsCatalog, delta: &StatsCatalog) -> StatsCatalog {
        let mut m = sealed.clone();
        m.merge(delta);
        m
    }

    fn merged(&mut self) -> Arc<StatsCatalog> {
        let (sealed, delta) = (&self.sealed, &self.delta);
        Arc::clone(
            self.merged
                .get_or_insert_with(|| Arc::new(Self::merge(sealed, delta))),
        )
    }
}

/// An immutable read snapshot of a [`Table`]: the epoch a cursor, prepared
/// execution or scan spine pins at open time.
///
/// An epoch is a row-count watermark plus the physical structures that cover
/// it: the sealed columnar blocks published at pin time (when the reader
/// wants the columnar layout) and a frozen copy of the delta tail — the rows
/// past the sealed coverage.  Because the table is append-only and sealed
/// blocks are never mutated, everything in here stays valid no matter how
/// many rows writers append after the pin: readers never block writers and
/// writers never invalidate readers.
#[derive(Debug)]
pub struct TableEpoch {
    table_id: u32,
    row_count: usize,
    columnar: Option<Arc<ColumnTable>>,
    /// Rows past the sealed columnar coverage, frozen at pin time (empty
    /// when the epoch was pinned without the columnar projection — row
    /// readers re-slice the heap prefix by the watermark instead).
    tail: Arc<Vec<Tuple>>,
}

impl TableEpoch {
    /// The id of the table this epoch snapshots.
    pub fn table_id(&self) -> u32 {
        self.table_id
    }

    /// The epoch ordinal.  Tables are append-only, so the row-count
    /// watermark doubles as the version number: every committed insert
    /// advances it.
    pub fn ordinal(&self) -> u64 {
        self.row_count as u64
    }

    /// The row-count watermark: readers of this epoch see exactly the rows
    /// `0..row_count()`.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// The sealed columnar blocks pinned by this epoch, when it was pinned
    /// with the columnar layout.  Coverage is at most the watermark; the
    /// rows in between are in [`TableEpoch::tail`].
    pub fn columnar(&self) -> Option<&Arc<ColumnTable>> {
        self.columnar.as_ref()
    }

    /// The frozen delta tail: the epoch's rows past the sealed columnar
    /// coverage, in row-major layout.
    pub fn tail(&self) -> &Arc<Vec<Tuple>> {
        &self.tail
    }

    /// The maximal possible ranking score of `column` across the whole
    /// epoch: the sealed blocks' zone-map fold combined with the frozen
    /// tail's values (clamped into `[0, 1]`, `NaN` ignored — the same fold
    /// the per-block score maxima use).  `None` when the column cannot be
    /// bounded (non-numeric values, or no columnar projection pinned).
    pub fn score_max(&self, column: usize) -> Option<f64> {
        let columnar = self.columnar.as_ref()?;
        let mut acc = columnar.table_score_max(column)?;
        for t in self.tail.iter() {
            match t.value(column).as_f64() {
                Some(f) if f.is_nan() => {}
                Some(f) => acc = acc.max(f.clamp(0.0, 1.0)),
                None => return None,
            }
        }
        Some(acc)
    }
}

/// The epochs pinned by one query execution, at most one per table.
///
/// All scans of a plan resolve their table through the same `EpochSet`, so
/// every access path of one execution (including self-joins and the morsel
/// spines of a parallel exchange) reads the same watermark.  Pins are taken
/// lazily on first touch and cached.
#[derive(Debug, Default)]
pub struct EpochSet {
    pins: Mutex<HashMap<u32, Arc<TableEpoch>>>,
}

impl EpochSet {
    /// An empty set.
    pub fn new() -> Self {
        EpochSet::default()
    }

    /// The pinned epoch for `table`, pinning one on first touch.
    ///
    /// `with_columnar` asks for the sealed columnar blocks to be part of the
    /// snapshot; if the table was first pinned row-only and a columnar scan
    /// shows up later, the pin is upgraded in place *at the same watermark*,
    /// so mixed access paths still agree on what they see.
    pub fn pin(&self, table: &Table, with_columnar: bool) -> Arc<TableEpoch> {
        let mut pins = self.pins.lock();
        if let Some(existing) = pins.get(&table.id()) {
            if !with_columnar || existing.columnar.is_some() {
                return Arc::clone(existing);
            }
            let upgraded = table.epoch_with_columnar_at(existing.row_count);
            pins.insert(table.id(), Arc::clone(&upgraded));
            return upgraded;
        }
        let pinned = table.pin_epoch(with_columnar);
        pins.insert(table.id(), Arc::clone(&pinned));
        pinned
    }

    /// The already-pinned epoch for a table id, if any.
    pub fn get(&self, table_id: u32) -> Option<Arc<TableEpoch>> {
        self.pins.lock().get(&table_id).cloned()
    }

    /// A snapshot of every pin as `(table_id, epoch_ordinal)` pairs, sorted
    /// by table id — the observable form of a cursor's MVCC snapshot (the
    /// server's STATS verb reports exactly this).
    pub fn pins(&self) -> Vec<(u32, u64)> {
        let pins = self.pins.lock();
        let mut out: Vec<(u32, u64)> = pins
            .iter()
            .map(|(id, epoch)| (*id, epoch.ordinal()))
            .collect();
        out.sort_unstable();
        out
    }
}

/// An append-only, in-memory table.
///
/// Rows are stored as [`Tuple`]s whose identity is `(table_id, row_index)`;
/// scanning therefore yields tuples that can be deduplicated and tie-broken
/// deterministically anywhere downstream.  Indexes built on the table are
/// kept alongside it and can be looked up by name.
pub struct Table {
    id: u32,
    name: String,
    schema: Schema,
    rows: RwLock<Vec<Tuple>>,
    score_indexes: RwLock<Vec<Arc<ScoreIndex>>>,
    btree_indexes: RwLock<Vec<Arc<BTreeIndex>>>,
    hash_indexes: RwLock<Vec<Arc<HashIndex>>>,
    /// Cached sealed columnar projection (see [`Table::columnar`]).
    /// Inserts *extend* it at each 1024-row seal boundary instead of
    /// dropping it; its coverage is always a prefix of the row heap.
    columnar: RwLock<Option<Arc<ColumnTable>>>,
    /// Fast-path flag so the insert hot loop skips columnar sealing when no
    /// projection was ever built.
    has_columnar: AtomicBool,
    /// Incrementally maintained statistics (see [`Table::stats_catalog`]):
    /// a sealed catalog plus a streaming delta partial, folded together at
    /// each seal boundary.
    stats: RwLock<Option<StatsPair>>,
    /// Fast-path flag so the insert hot loop skips statistics maintenance
    /// when the catalog was never built.
    has_stats: AtomicBool,
    /// The disk half of a paged table (see [`crate::recovery::TableStore`]):
    /// inserts append to its WAL, seal boundaries persist block extents
    /// through it.  `None` for purely in-memory tables.
    store: RwLock<Option<Arc<TableStore>>>,
    /// Fast-path flag so the insert hot loop skips the WAL when the table
    /// has no store.
    has_store: AtomicBool,
}

impl Table {
    /// Creates an empty table.  Normally called through [`Catalog::create_table`]
    /// (which assigns the id) or [`TableBuilder`].
    ///
    /// [`Catalog::create_table`]: crate::catalog::Catalog::create_table
    pub fn new(id: u32, name: impl Into<String>, schema: Schema) -> Self {
        Table {
            id,
            name: name.into(),
            schema,
            rows: RwLock::new(Vec::new()),
            score_indexes: RwLock::new(Vec::new()),
            btree_indexes: RwLock::new(Vec::new()),
            hash_indexes: RwLock::new(Vec::new()),
            columnar: RwLock::new(None),
            has_columnar: AtomicBool::new(false),
            stats: RwLock::new(None),
            has_stats: AtomicBool::new(false),
            store: RwLock::new(None),
            has_store: AtomicBool::new(false),
        }
    }

    /// Rebuilds a table from recovered state (crash recovery path of
    /// [`crate::recovery::PagedStore::open`]): the row heap is the durable
    /// epoch replayed from extents + WAL, the columnar projection already
    /// points at the paged extents, and the store is attached without
    /// re-appending anything to the WAL.
    pub(crate) fn recovered(
        id: u32,
        name: &str,
        schema: Schema,
        rows: Vec<Tuple>,
        store: Arc<TableStore>,
        columnar: ColumnTable,
    ) -> Table {
        Table {
            id,
            name: name.to_owned(),
            schema,
            rows: RwLock::new(rows),
            score_indexes: RwLock::new(Vec::new()),
            btree_indexes: RwLock::new(Vec::new()),
            hash_indexes: RwLock::new(Vec::new()),
            columnar: RwLock::new(Some(Arc::new(columnar))),
            has_columnar: AtomicBool::new(true),
            stats: RwLock::new(None),
            has_stats: AtomicBool::new(false),
            store: RwLock::new(Some(store)),
            has_store: AtomicBool::new(true),
        }
    }

    /// Attaches a [`TableStore`], making the table durable from here on.
    /// Any rows inserted *before* the attach are persisted immediately
    /// (sealed full blocks as extents, the tail into the WAL).  Holding the
    /// row read lock across the attach keeps it atomic against concurrent
    /// inserts, which take the write lock.
    pub(crate) fn attach_store(&self, store: Arc<TableStore>) -> Result<()> {
        let rows = self.rows.read();
        let mut ct = ColumnTable::from_rows(self.id, &self.name, &self.schema, &rows);
        store.persist(&mut ct, &rows, true)?;
        *self.columnar.write() = Some(Arc::new(ct));
        self.has_columnar.store(true, Ordering::Release);
        *self.store.write() = Some(store);
        self.has_store.store(true, Ordering::Release);
        Ok(())
    }

    /// The attached [`TableStore`], if the table is paged.
    pub(crate) fn table_store(&self) -> Option<Arc<TableStore>> {
        if !self.has_store.load(Ordering::Acquire) {
            return None;
        }
        self.store.read().clone()
    }

    /// The table id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table schema (fields are qualified by the table name).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.read().len()
    }

    /// The table's current epoch ordinal.  The table is append-only, so the
    /// row count doubles as the version: every committed insert advances
    /// it.  Plan caches key their size buckets off this.
    pub fn epoch_ordinal(&self) -> u64 {
        self.row_count() as u64
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.row_count() == 0
    }

    /// Appends a row, validating its arity.  Returns the new row's index.
    ///
    /// The write path is append-and-merge, never invalidate-and-rebuild:
    ///
    /// * rows are pushed onto the heap (stable indices — every previously
    ///   pinned [`TableEpoch`] keeps streaming its prefix);
    /// * the statistics delta partial folds the new row in; at each
    ///   1024-row boundary the delta is merged into the sealed catalog;
    /// * if a columnar projection exists, reaching a 1024-row boundary
    ///   seals exactly one new block — previously sealed blocks are shared
    ///   untouched ([`ColumnTable::resealed`]);
    /// * indexes are *kept*: an index covers the row prefix it was built
    ///   over, which is still a valid epoch.  The executor compares
    ///   [`ScoreIndex::indexed_rows`] / [`BTreeIndex::indexed_rows`]
    ///   against its pinned epoch's watermark and extends the index over
    ///   the missing suffix when they differ.
    ///
    /// All mutations happen under the row write lock *after* validation, so
    /// a panicking writer cannot leave a torn row, block or partial visible:
    /// readers pin under the row read lock and see either the pre-insert or
    /// the post-insert epoch.
    pub fn insert(&self, values: Vec<Value>) -> Result<u64> {
        if values.len() != self.schema.len() {
            return Err(RankSqlError::Catalog(format!(
                "row arity {} does not match schema arity {} for table `{}`",
                values.len(),
                self.schema.len(),
                self.name
            )));
        }
        let mut rows = self.rows.write();
        if self.has_stats.load(Ordering::Acquire) {
            if let Some(pair) = self.stats.write().as_mut() {
                pair.delta.observe_row(&values);
                pair.merged = None;
                if (pair.sealed.row_count + pair.delta.row_count) % COLUMN_BLOCK_ROWS == 0 {
                    // Seal boundary: fold the delta partial into the sealed
                    // catalog (build fully before swapping, so a panic can
                    // never leave a torn catalog behind).
                    pair.sealed = StatsPair::merge(&pair.sealed, &pair.delta);
                    pair.delta = StatsCatalog::empty(&self.schema);
                }
            }
        }
        let idx = rows.len() as u64;
        if self.has_store.load(Ordering::Acquire) {
            if let Some(store) = self.store.read().as_ref() {
                // The WAL record goes first: if the append fails, the heap
                // is untouched and the insert cleanly errors.  No fsync
                // here — durability is settled at the seal boundary.
                store.append_wal(idx, &values)?;
            }
        }
        rows.push(Tuple::new(TupleId::base(self.id, idx), values));
        if self.has_columnar.load(Ordering::Acquire) {
            self.seal_columnar(&rows)?;
        }
        Ok(idx)
    }

    /// Seals the columnar projection up to the last full 1024-row boundary,
    /// if new full blocks exist (called under the row write lock).  Builds
    /// the new version completely before publishing it, so readers only
    /// ever observe fully-sealed block lists.  On a paged table the seal
    /// boundary is also the durability boundary: the new blocks are
    /// persisted as extents and the WAL is trimmed past them — an error
    /// here leaves the rows WAL-covered (still durable) and unsealed.
    fn seal_columnar(&self, rows: &[Tuple]) -> Result<()> {
        let aligned = rows.len() / COLUMN_BLOCK_ROWS * COLUMN_BLOCK_ROWS;
        let cur = {
            let guard = self.columnar.read();
            match guard.as_ref() {
                Some(c) if c.row_count() < aligned => Arc::clone(c),
                _ => return Ok(()),
            }
        };
        let mut sealed = cur.resealed(rows, aligned);
        if let Some(store) = self.table_store() {
            store.persist(&mut sealed, rows, false)?;
        }
        *self.columnar.write() = Some(Arc::new(sealed));
        Ok(())
    }

    /// Appends many rows.
    pub fn insert_batch<I>(&self, batch: I) -> Result<usize>
    where
        I: IntoIterator<Item = Vec<Value>>,
    {
        let mut n = 0;
        for row in batch {
            self.insert(row)?;
            n += 1;
        }
        Ok(n)
    }

    /// The tuple at `row_index`, if it exists.  Row indices are stable
    /// (append-only heap), so lookups through a pinned epoch's watermark
    /// are always consistent.
    pub fn tuple(&self, row_index: u64) -> Option<Tuple> {
        self.rows.read().get(row_index as usize).cloned()
    }

    /// The tuple at `row_index`, checked against a pinned epoch's
    /// watermark.  Accessors resolving row ids on behalf of a snapshot
    /// (index scans, delta-tail readers) must use this instead of
    /// [`Table::tuple`]: the heap is append-only, so an out-of-watermark
    /// index is not "missing" — it is a row the epoch must never see, and
    /// silently returning it would leak post-pin inserts into the
    /// snapshot.  Such reads error as stale.
    pub fn tuple_within(&self, row_index: u64, watermark: usize) -> Result<Tuple> {
        if row_index as usize >= watermark {
            return Err(RankSqlError::Execution(format!(
                "stale read: row {row_index} of table `{}` is past the pinned epoch watermark {watermark}",
                self.name
            )));
        }
        self.tuple(row_index).ok_or_else(|| {
            RankSqlError::Internal(format!(
                "row {row_index} of table `{}` is below the watermark {watermark} but missing from the heap",
                self.name
            ))
        })
    }

    /// A snapshot of all tuples (cheap clones: values are `Arc`-shared).
    pub fn scan(&self) -> Vec<Tuple> {
        self.rows.read().clone()
    }

    /// Runs `f` over the row heap under its read lock — for a reader that
    /// keeps a few rows and must not clone the rest.
    pub(crate) fn with_rows<R>(&self, f: impl FnOnce(&[Tuple]) -> R) -> R {
        f(&self.rows.read())
    }

    /// A snapshot of the first `n` tuples — the row set of an epoch with
    /// watermark `n` (clamped to the current row count).
    pub fn scan_prefix(&self, n: usize) -> Vec<Tuple> {
        let rows = self.rows.read();
        rows[..n.min(rows.len())].to_vec()
    }

    /// A snapshot of the tuples in `range` (clamped to the current row
    /// count) — the suffix an incremental index extension covers.
    pub fn scan_range(&self, range: std::ops::Range<usize>) -> Vec<Tuple> {
        let rows = self.rows.read();
        let start = range.start.min(rows.len());
        let end = range.end.min(rows.len());
        rows[start..end].to_vec()
    }

    /// Pins the table's current epoch: the row-count watermark plus (when
    /// `with_columnar` is set) the sealed columnar blocks and a frozen copy
    /// of the delta tail.  Taken under the row read lock, so the snapshot
    /// is consistent against concurrent inserts; everything captured is
    /// immutable afterwards.
    pub fn pin_epoch(&self, with_columnar: bool) -> Arc<TableEpoch> {
        let rows = self.rows.read();
        let row_count = rows.len();
        let columnar = if with_columnar {
            let cached = self.columnar.read().as_ref().cloned();
            Some(match cached {
                // Sealed coverage is always a heap prefix, so any cached
                // projection is usable; rows past it go into the tail.
                Some(c) => c,
                None => {
                    let mut ct = ColumnTable::from_rows(self.id, &self.name, &self.schema, &rows);
                    self.persist_best_effort(&mut ct, &rows);
                    let built = Arc::new(ct);
                    *self.columnar.write() = Some(Arc::clone(&built));
                    self.has_columnar.store(true, Ordering::Release);
                    built
                }
            })
        } else {
            None
        };
        let tail = match &columnar {
            Some(c) => rows[c.row_count()..].to_vec(),
            None => Vec::new(),
        };
        Arc::new(TableEpoch {
            table_id: self.id,
            row_count,
            columnar,
            tail: Arc::new(tail),
        })
    }

    /// Re-pins at an *existing* watermark, adding the columnar layout — the
    /// upgrade path of [`EpochSet::pin`] when a table first pinned row-only
    /// turns out to also be scanned columnar.  The cached projection is
    /// used when its coverage fits under the watermark; otherwise a private
    /// projection is built over the watermark prefix (and not cached, so
    /// the shared cache never regresses to an older prefix).
    fn epoch_with_columnar_at(&self, watermark: usize) -> Arc<TableEpoch> {
        let rows = self.rows.read();
        let n = watermark.min(rows.len());
        let cached = self
            .columnar
            .read()
            .as_ref()
            .filter(|c| c.row_count() <= n)
            .cloned();
        let columnar = match cached {
            Some(c) => c,
            None => Arc::new(ColumnTable::from_rows(
                self.id,
                &self.name,
                &self.schema,
                &rows[..n],
            )),
        };
        let tail = rows[columnar.row_count()..n].to_vec();
        Arc::new(TableEpoch {
            table_id: self.id,
            row_count: n,
            columnar: Some(columnar),
            tail: Arc::new(tail),
        })
    }

    /// The columnar projection covering *all* current rows (see
    /// [`ColumnTable`]): built on first use, extended incrementally (never
    /// from scratch) when rows were appended since, and cached.  The last
    /// block may be partial; the insert path completes it at the next
    /// 1024-row seal boundary.
    ///
    /// Epoch-pinning readers use [`Table::pin_epoch`] instead, which takes
    /// the sealed blocks as they are and carries the unsealed rows in the
    /// epoch's tail.
    pub fn columnar(&self) -> Arc<ColumnTable> {
        // Hold the row read lock across the build so a concurrent insert
        // cannot slip a row between the snapshot and the publication.
        let rows = self.rows.read();
        let cached = self.columnar.read().as_ref().cloned();
        let mut ct = match cached {
            Some(c) if c.row_count() == rows.len() => return c,
            Some(c) => c.resealed(&rows, rows.len()),
            None => ColumnTable::from_rows(self.id, &self.name, &self.schema, &rows),
        };
        self.persist_best_effort(&mut ct, &rows);
        let built = Arc::new(ct);
        *self.columnar.write() = Some(Arc::clone(&built));
        self.has_columnar.store(true, Ordering::Release);
        built
    }

    /// Persist hook for infallible build paths: on a paged table, flips
    /// freshly sealed full blocks to extents.  An I/O error here is
    /// swallowed deliberately — the blocks simply stay RAM-resident and
    /// WAL-covered (still durable), and the next seal boundary retries.
    fn persist_best_effort(&self, ct: &mut ColumnTable, rows: &[Tuple]) {
        if let Some(store) = self.table_store() {
            let _ = store.persist(ct, rows, false);
        }
    }

    /// The table's statistics catalog: per-column null counts, numeric
    /// min/max, boolean fractions and a staged distinct-count sketch.
    ///
    /// Built on first use as a sealed catalog over the 1024-row-aligned
    /// prefix plus a delta partial over the unsealed tail; afterwards every
    /// [`Table::insert`] folds the new row into the delta (merging it into
    /// the sealed catalog at each seal boundary), so repeated calls are
    /// O(columns) in the table size and never observe a stale snapshot.
    /// Calls with no insert in between share one catalog.
    pub fn stats_catalog(&self) -> Arc<StatsCatalog> {
        // The row read lock is held across the build so a concurrent insert
        // (which takes the row *write* lock) cannot slip a row between the
        // snapshot and the publication of the catalog.
        let rows = self.rows.read();
        if let Some(merged) = self.cached_stats() {
            return merged;
        }
        let aligned = rows.len() / COLUMN_BLOCK_ROWS * COLUMN_BLOCK_ROWS;
        let mut pair = StatsPair {
            sealed: StatsCatalog::build(&self.schema, &rows[..aligned]),
            delta: StatsCatalog::build(&self.schema, &rows[aligned..]),
            merged: None,
        };
        let merged = pair.merged();
        *self.stats.write() = Some(pair);
        self.has_stats.store(true, Ordering::Release);
        merged
    }

    /// The statistics catalog if one has already been built (by a prior
    /// [`Table::stats_catalog`] call, typically the optimizer's), without
    /// forcing a build — `None` on a cold table.  The incrementally
    /// maintained catalog is never stale, so no freshness check is needed;
    /// between two inserts every call returns the same `Arc`.
    pub fn cached_stats(&self) -> Option<Arc<StatsCatalog>> {
        if let Some(merged) = self.stats.read().as_ref()?.merged.clone() {
            return Some(merged);
        }
        self.stats.write().as_mut().map(StatsPair::merged)
    }

    /// Registers a score (rank) index, replacing any previous index on the
    /// same predicate (so an extension or rebuild never leaves an older
    /// sibling to be looked up first).
    pub fn add_score_index(&self, index: ScoreIndex) -> Arc<ScoreIndex> {
        let arc = Arc::new(index);
        let mut indexes = self.score_indexes.write();
        indexes.retain(|i| i.predicate_name() != arc.predicate_name());
        indexes.push(Arc::clone(&arc));
        arc
    }

    /// Registers an ordered attribute index, replacing any previous index on
    /// the same column.
    pub fn add_btree_index(&self, index: BTreeIndex) -> Arc<BTreeIndex> {
        let arc = Arc::new(index);
        let mut indexes = self.btree_indexes.write();
        indexes.retain(|i| i.column_name() != arc.column_name());
        indexes.push(Arc::clone(&arc));
        arc
    }

    /// Registers a hash index, replacing any previous index on the same
    /// column.
    pub fn add_hash_index(&self, index: HashIndex) -> Arc<HashIndex> {
        let arc = Arc::new(index);
        let mut indexes = self.hash_indexes.write();
        indexes.retain(|i| i.column_name() != arc.column_name());
        indexes.push(Arc::clone(&arc));
        arc
    }

    /// Finds a score index by the name of the ranking predicate it covers.
    ///
    /// Inserts no longer drop indexes: a returned handle covers the row
    /// prefix it was built over ([`ScoreIndex::indexed_rows`]), which is a
    /// valid epoch — readers pinned at that watermark use it as-is, newer
    /// epochs extend it over the missing suffix.
    pub fn score_index(&self, predicate_name: &str) -> Option<Arc<ScoreIndex>> {
        self.score_indexes
            .read()
            .iter()
            .find(|i| i.predicate_name() == predicate_name)
            .cloned()
    }

    /// Finds an ordered attribute index by column name.
    pub fn btree_index(&self, column: &str) -> Option<Arc<BTreeIndex>> {
        self.btree_indexes
            .read()
            .iter()
            .find(|i| i.column_name() == column)
            .cloned()
    }

    /// Finds a hash index by column name.
    pub fn hash_index(&self, column: &str) -> Option<Arc<HashIndex>> {
        self.hash_indexes
            .read()
            .iter()
            .find(|i| i.column_name() == column)
            .cloned()
    }

    /// Names of ranking predicates that have a score index on this table.
    pub fn score_index_names(&self) -> Vec<String> {
        self.score_indexes
            .read()
            .iter()
            .map(|i| i.predicate_name().to_owned())
            .collect()
    }
}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Table")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("rows", &self.row_count())
            .field("schema", &self.schema.to_string())
            .finish()
    }
}

/// Convenience builder used pervasively in tests and examples: create a table
/// with a schema and a literal row list in one expression.
pub struct TableBuilder {
    name: String,
    schema: Schema,
    rows: Vec<Vec<Value>>,
}

impl TableBuilder {
    /// Starts building a table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        TableBuilder {
            name: name.into(),
            schema,
            rows: Vec::new(),
        }
    }

    /// Adds a row.
    pub fn row(mut self, values: Vec<Value>) -> Self {
        self.rows.push(values);
        self
    }

    /// Adds many rows.
    pub fn rows(mut self, rows: impl IntoIterator<Item = Vec<Value>>) -> Self {
        self.rows.extend(rows);
        self
    }

    /// Builds a table with the given id (use [`Catalog`] to get ids assigned
    /// automatically).
    ///
    /// [`Catalog`]: crate::catalog::Catalog
    pub fn build(self, id: u32) -> Result<Table> {
        let table = Table::new(id, self.name, self.schema);
        table.insert_batch(self.rows)?;
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksql_common::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::qualified("T", "a", DataType::Int64),
            Field::qualified("T", "b", DataType::Float64),
        ])
    }

    #[test]
    fn insert_and_scan() {
        let t = Table::new(1, "T", schema());
        assert!(t.is_empty());
        t.insert(vec![Value::from(1), Value::from(0.5)]).unwrap();
        t.insert(vec![Value::from(2), Value::from(0.25)]).unwrap();
        assert_eq!(t.row_count(), 2);
        let rows = t.scan();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].id(), &TupleId::base(1, 0));
        assert_eq!(rows[1].value(0), &Value::from(2));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let t = Table::new(1, "T", schema());
        assert!(t.insert(vec![Value::from(1)]).is_err());
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn tuple_lookup_by_row_index() {
        let t = Table::new(3, "T", schema());
        t.insert(vec![Value::from(9), Value::from(0.9)]).unwrap();
        assert_eq!(t.tuple(0).unwrap().value(0), &Value::from(9));
        assert!(t.tuple(5).is_none());
    }

    #[test]
    fn builder_builds() {
        let t = TableBuilder::new("T", schema())
            .row(vec![Value::from(1), Value::from(0.1)])
            .rows(vec![
                vec![Value::from(2), Value::from(0.2)],
                vec![Value::from(3), Value::from(0.3)],
            ])
            .build(7)
            .unwrap();
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.id(), 7);
        assert_eq!(t.name(), "T");
    }

    #[test]
    fn insert_keeps_indexes_as_valid_prefix_epochs() {
        use crate::index::{BTreeIndex, HashIndex, ScoreIndex};
        use ranksql_expr::RankPredicate;

        let t = Table::new(1, "T", schema());
        t.insert(vec![Value::from(1), Value::from(0.5)]).unwrap();
        t.insert(vec![Value::from(2), Value::from(0.9)]).unwrap();

        let pred = RankPredicate::attribute("b", "T.b");
        let score = ScoreIndex::build(&pred, t.schema(), &t.scan()).unwrap();
        let held_handle = t.add_score_index(score);
        t.add_btree_index(BTreeIndex::build("T.a", t.schema(), &t.scan()).unwrap());
        t.add_hash_index(HashIndex::build("T.a", t.schema(), &t.scan()).unwrap());

        // Appending a row keeps every index: each one still covers the
        // prefix it was built over, which is a valid epoch of the table.
        t.insert(vec![Value::from(3), Value::from(0.1)]).unwrap();
        assert!(t.score_index("b").is_some());
        assert!(t.btree_index("T.a").is_some());
        assert!(t.hash_index("T.a").is_some());
        assert_eq!(t.score_index_names(), vec!["b".to_owned()]);

        // The lag is detectable: readers at the new epoch compare coverage
        // against their watermark and extend the index over the suffix.
        assert_eq!(held_handle.indexed_rows(), 2);
        assert_eq!(t.row_count(), 3);
        let ext = held_handle
            .extended(&pred, t.schema(), &t.scan_range(2..3), 2)
            .unwrap();
        assert_eq!(ext.indexed_rows(), 3);
        let replaced = t.add_score_index(ext);
        assert!(Arc::ptr_eq(&t.score_index("b").unwrap(), &replaced));
    }

    #[test]
    fn pinned_epoch_is_immutable_under_inserts() {
        let t = Table::new(1, "T", schema());
        for i in 0..(COLUMN_BLOCK_ROWS as i64 + 100) {
            t.insert(vec![Value::from(i), Value::from(i as f64 / 2048.0)])
                .unwrap();
        }
        let _ = t.columnar(); // warm the projection so inserts seal
        let epoch = t.pin_epoch(true);
        let watermark = epoch.row_count();
        assert_eq!(watermark, COLUMN_BLOCK_ROWS + 100);
        let columnar_then = Arc::clone(epoch.columnar().unwrap());
        assert_eq!(
            columnar_then.row_count() + epoch.tail().len(),
            watermark,
            "epoch coverage = sealed blocks + frozen tail"
        );

        // Writers append past the next seal boundary.
        for i in 0..(COLUMN_BLOCK_ROWS as i64) {
            t.insert(vec![Value::from(-i), Value::from(0.0)]).unwrap();
        }
        assert_eq!(t.row_count(), 2 * COLUMN_BLOCK_ROWS + 100);

        // The pinned epoch is untouched: same watermark, same blocks, same
        // frozen tail — the inserts are invisible to it.
        assert_eq!(epoch.row_count(), watermark);
        assert!(Arc::ptr_eq(epoch.columnar().unwrap(), &columnar_then));
        assert_eq!(
            epoch.columnar().unwrap().row_count() + epoch.tail().len(),
            watermark
        );
        // A fresh pin sees the new rows and the newly sealed block.
        let fresh = t.pin_epoch(true);
        assert_eq!(fresh.row_count(), 2 * COLUMN_BLOCK_ROWS + 100);
        assert!(fresh.columnar().unwrap().row_count() >= 2 * COLUMN_BLOCK_ROWS);
        assert!(fresh.tail().len() < COLUMN_BLOCK_ROWS);
    }

    #[test]
    fn epoch_set_pins_once_per_table_and_upgrades_to_columnar() {
        let t = Table::new(1, "T", schema());
        for i in 0..10i64 {
            t.insert(vec![Value::from(i), Value::from(i as f64 / 10.0)])
                .unwrap();
        }
        let set = EpochSet::new();
        let row_pin = set.pin(&t, false);
        assert!(row_pin.columnar().is_none());
        // More inserts between pins must not move the watermark.
        t.insert(vec![Value::from(99), Value::from(0.99)]).unwrap();
        let again = set.pin(&t, false);
        assert!(Arc::ptr_eq(&row_pin, &again));
        // Upgrading to columnar keeps the original watermark.
        let upgraded = set.pin(&t, true);
        assert_eq!(upgraded.row_count(), row_pin.row_count());
        let c = upgraded.columnar().unwrap();
        assert_eq!(c.row_count() + upgraded.tail().len(), 10);
        assert_eq!(set.get(1).unwrap().row_count(), 10);
    }

    #[test]
    fn epoch_score_max_folds_sealed_blocks_and_tail() {
        let t = Table::new(1, "T", schema());
        for i in 0..(COLUMN_BLOCK_ROWS as i64) {
            t.insert(vec![Value::from(i), Value::from(0.25)]).unwrap();
        }
        let _ = t.columnar();
        // Tail rows carry the table's maximal score: the sealed fold alone
        // would under-report, which zone-pruning caps cannot afford.
        t.insert(vec![Value::from(-1), Value::from(0.75)]).unwrap();
        let epoch = t.pin_epoch(true);
        assert!(!epoch.tail().is_empty());
        assert_eq!(epoch.score_max(1), Some(0.75));
        // Row-only pins cannot bound scores.
        assert_eq!(t.pin_epoch(false).score_max(1), None);
    }

    #[test]
    fn stats_catalog_is_maintained_incrementally_on_insert() {
        let t = Table::new(1, "T", schema());
        for i in 0..10i64 {
            t.insert(vec![Value::from(i % 4), Value::from(i as f64 / 10.0)])
                .unwrap();
        }
        let first = t.stats_catalog();
        assert_eq!(first.row_count, 10);
        assert_eq!(first.column("a").unwrap().ndv(), 4);
        assert_eq!(first.column("b").unwrap().max, Some(0.9));

        // Inserts after the catalog exists fold into it (no invalidation):
        // the next read sees the new row without a rebuild.
        t.insert(vec![Value::from(99), Value::from(2.5)]).unwrap();
        let second = t.stats_catalog();
        assert_eq!(second.row_count, 11);
        assert_eq!(second.column("a").unwrap().ndv(), 5);
        assert_eq!(second.column("T.b").unwrap().max, Some(2.5));
        assert_eq!(second.column("a").unwrap().null_count, 0);

        // Nulls are counted, not sketched.
        t.insert(vec![Value::Null, Value::from(0.0)]).unwrap();
        let third = t.stats_catalog();
        assert_eq!(third.column("a").unwrap().null_count, 1);
        assert_eq!(third.column("a").unwrap().ndv(), 5);
    }

    #[test]
    fn stats_catalog_incremental_path_matches_from_scratch_build() {
        let warm = Table::new(1, "T", schema());
        let cold = Table::new(1, "T", schema());
        for i in 0..50i64 {
            warm.insert(vec![Value::from(i % 7), Value::from(i as f64)])
                .unwrap();
            cold.insert(vec![Value::from(i % 7), Value::from(i as f64)])
                .unwrap();
        }
        // Build warm's catalog early so the remaining inserts take the
        // incremental path; cold builds from scratch at the end.
        let _ = warm.stats_catalog();
        for i in 50..200i64 {
            warm.insert(vec![Value::from(i % 7), Value::from(i as f64)])
                .unwrap();
            cold.insert(vec![Value::from(i % 7), Value::from(i as f64)])
                .unwrap();
        }
        assert_eq!(warm.stats_catalog(), cold.stats_catalog());
    }

    #[test]
    fn stats_seal_boundary_matches_from_scratch_build() {
        let warm = Table::new(1, "T", schema());
        let cold = Table::new(1, "T", schema());
        let row = |i: i64| vec![Value::from(i % 97), Value::from((i as f64).sin())];
        for i in 0..100i64 {
            warm.insert(row(i)).unwrap();
            cold.insert(row(i)).unwrap();
        }
        let _ = warm.stats_catalog();
        // Cross two seal boundaries on the warm path.
        for i in 100..(2 * COLUMN_BLOCK_ROWS as i64 + 3) {
            warm.insert(row(i)).unwrap();
            cold.insert(row(i)).unwrap();
        }
        assert_eq!(warm.stats_catalog(), cold.stats_catalog());
    }

    #[test]
    fn columnar_extends_incrementally_and_seals_on_insert() {
        let t = Table::new(1, "T", schema());
        for i in 0..500i64 {
            t.insert(vec![Value::from(i), Value::from(0.5)]).unwrap();
        }
        let first = t.columnar();
        assert_eq!(first.row_count(), 500);
        // Repeated calls without inserts return the cached handle.
        assert!(Arc::ptr_eq(&first, &t.columnar()));
        // Inserts past the seal boundary publish a new sealed version.
        for i in 500..(COLUMN_BLOCK_ROWS as i64 + 10) {
            t.insert(vec![Value::from(i), Value::from(0.5)]).unwrap();
        }
        let second = t.columnar();
        assert_eq!(second.row_count(), COLUMN_BLOCK_ROWS + 10);
        assert_eq!(second.num_blocks(), 2);
        // The old handle still reads its own 500 rows.
        assert_eq!(first.row_count(), 500);
        let (block, _) = first.fetch_block(0).unwrap();
        assert_eq!(block.value(499, 0), Value::from(499));
    }

    #[test]
    fn debug_output_mentions_row_count() {
        let t = Table::new(1, "T", schema());
        t.insert(vec![Value::from(1), Value::from(0.5)]).unwrap();
        let s = format!("{t:?}");
        assert!(s.contains("rows: 1"));
    }
}
