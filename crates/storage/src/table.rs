//! Append-only tables with MVCC snapshot reads.
//!
//! A [`Table`] is its sealed 1024-row blocks (a [`ColumnTable`], the only
//! copy of those rows) plus a tail of fewer than 1024 unsealed rows, both
//! behind one lock.  Every table seals from its first insert: the insert
//! that fills the tail seals it into one new block, persisted to disk first
//! on a paged table.  Row indices are stable, so any prefix of the table is
//! an immutable snapshot: [`Table::pin_epoch`] captures one by cloning the
//! block list's and the tail's `Arc`s, and clones no row.  Readers holding
//! a [`TableEpoch`] read those rows forever, whatever writers append: an
//! insert copies the tail ([`Arc::make_mut`]) only while a pin still holds
//! it, and a seal publishes a new block list sharing every older block.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use ranksql_common::{RankSqlError, Result, Schema, Tuple, TupleId, Value};

use crate::column::{BlockSlot, ColumnTable, SealedBlock, COLUMN_BLOCK_ROWS};
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
/// An epoch is the table's sealed blocks and its tail as they were at pin
/// time; its rows are `0..row_count()`.  Because the table is append-only,
/// blocks are never mutated and a pinned tail is never written, everything
/// in here stays valid no matter how many rows writers append after the
/// pin: readers never block writers and writers never invalidate readers.
#[derive(Debug)]
pub struct TableEpoch {
    blocks: Arc<ColumnTable>,
    tail: Arc<Vec<Tuple>>,
}

impl TableEpoch {
    /// The id of the table this epoch snapshots.
    pub fn table_id(&self) -> u32 {
        self.blocks.table_id()
    }

    /// The epoch ordinal.  Tables are append-only, so the row-count
    /// watermark doubles as the version number: every committed insert
    /// advances it.
    pub fn ordinal(&self) -> u64 {
        self.row_count() as u64
    }

    /// The row-count watermark: readers of this epoch see exactly the rows
    /// `0..row_count()`.
    pub fn row_count(&self) -> usize {
        self.blocks.row_count() + self.tail.len()
    }

    /// The sealed blocks pinned by this epoch: the rows
    /// `0..blocks().row_count()`.  The rows past them are in
    /// [`TableEpoch::tail`].
    pub fn blocks(&self) -> &Arc<ColumnTable> {
        &self.blocks
    }

    /// The tail: the epoch's rows past the sealed blocks, in row layout.
    pub fn tail(&self) -> &Arc<Vec<Tuple>> {
        &self.tail
    }

    /// The one row accessor: hands `f` the tuple at each of `rows`, in
    /// the order given, and returns the disk pages it faulted in.  Row `r`
    /// is read from block `r / COLUMN_BLOCK_ROWS`, resident or fetched
    /// through the buffer pool (once per run of rows in one block), or,
    /// past the blocks, from the tail.  A fault's error is returned, and a
    /// row at or past the watermark errors as stale: it is a row this epoch
    /// must never see, not a missing one.
    pub fn read(
        &self,
        rows: impl IntoIterator<Item = usize>,
        mut f: impl FnMut(Tuple),
    ) -> Result<u64> {
        let sealed = self.blocks.row_count();
        let (mut fetched, mut pages): (Option<(usize, Arc<SealedBlock>)>, u64) = (None, 0);
        for row in rows {
            if row >= sealed {
                f(self.tail.get(row - sealed).cloned().ok_or_else(|| {
                    RankSqlError::Execution(format!(
                        "stale read: row {row} of table `{}` is past the pinned epoch watermark {}",
                        self.blocks.name(),
                        self.row_count()
                    ))
                })?);
                continue;
            }
            let n = row / COLUMN_BLOCK_ROWS;
            let block = match &self.blocks.blocks[n] {
                BlockSlot::Resident(block) => block,
                BlockSlot::Paged(_) => match &fetched {
                    Some((at, block)) if *at == n => block,
                    _ => {
                        let (block, faulted) = self.blocks.fetch_block(n)?;
                        if faulted {
                            pages += self.blocks.block_pages(n);
                        }
                        &fetched.insert((n, block)).1
                    }
                },
            };
            let base = n * COLUMN_BLOCK_ROWS;
            f(block.tuple(self.table_id(), base, row - base));
        }
        Ok(pages)
    }

    /// The tuples at `rows`, in the order given: [`TableEpoch::read`]
    /// collected.
    pub fn tuples(&self, rows: impl IntoIterator<Item = usize>) -> Result<Vec<Tuple>> {
        let rows = rows.into_iter();
        let mut out = Vec::with_capacity(rows.size_hint().0);
        self.read(rows, |t| out.push(t))?;
        Ok(out)
    }

    /// The maximal possible ranking score of `column` across the whole
    /// epoch: the sealed blocks' zone-map fold combined with the tail's
    /// values (clamped into `[0, 1]`, `NaN` ignored — the same fold the
    /// per-block score maxima use).  `None` when the column cannot be
    /// bounded (non-numeric values).
    pub fn score_max(&self, column: usize) -> Option<f64> {
        let mut acc = self.blocks.table_score_max(column)?;
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
    pub fn pin(&self, table: &Table) -> Arc<TableEpoch> {
        let mut pins = self.pins.lock();
        Arc::clone(
            pins.entry(table.id())
                .or_insert_with(|| Arc::new(table.pin_epoch())),
        )
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

/// What a table's one lock guards: its sealed blocks and its tail.
#[derive(Debug)]
struct TableData {
    blocks: Arc<ColumnTable>,
    /// The rows past the blocks: fewer than [`COLUMN_BLOCK_ROWS`], or
    /// exactly that many after a failed seal, which poisoned the table's
    /// store so that no insert follows.
    tail: Arc<Vec<Tuple>>,
}

impl TableData {
    fn row_count(&self) -> usize {
        self.blocks.row_count() + self.tail.len()
    }

    fn epoch(&self) -> TableEpoch {
        TableEpoch {
            blocks: Arc::clone(&self.blocks),
            tail: Arc::clone(&self.tail),
        }
    }
}

/// An append-only table.
///
/// Rows are [`Tuple`]s whose identity is `(table_id, row_index)`; scanning
/// therefore yields tuples that can be deduplicated and tie-broken
/// deterministically anywhere downstream.  Indexes built on the table are
/// kept alongside it and can be looked up by name.
pub struct Table {
    id: u32,
    name: String,
    schema: Schema,
    data: RwLock<TableData>,
    score_indexes: RwLock<Vec<Arc<ScoreIndex>>>,
    btree_indexes: RwLock<Vec<Arc<BTreeIndex>>>,
    hash_indexes: RwLock<Vec<Arc<HashIndex>>>,
    /// Incrementally maintained statistics (see [`Table::stats_catalog`]):
    /// a sealed catalog plus a streaming delta partial, folded together at
    /// each seal boundary.
    stats: RwLock<Option<StatsPair>>,
    /// Fast-path flag so the insert hot loop skips statistics maintenance
    /// when the catalog was never built.
    has_stats: AtomicBool,
}

impl Table {
    /// Creates an empty table.  Normally called through [`Catalog::create_table`]
    /// (which assigns the id) or [`TableBuilder`].
    ///
    /// [`Catalog::create_table`]: crate::catalog::Catalog::create_table
    pub fn new(id: u32, name: impl Into<String>, schema: Schema) -> Self {
        let name = name.into();
        Table {
            data: RwLock::new(TableData {
                blocks: Arc::new(ColumnTable::empty(id, &name, &schema, None)),
                tail: Arc::new(Vec::new()),
            }),
            id,
            name,
            schema,
            score_indexes: RwLock::new(Vec::new()),
            btree_indexes: RwLock::new(Vec::new()),
            hash_indexes: RwLock::new(Vec::new()),
            stats: RwLock::new(None),
            has_stats: AtomicBool::new(false),
        }
    }

    /// Rebuilds a table from recovered state (crash recovery path of
    /// [`crate::recovery::PagedStore::open`]): `store`'s durable blocks,
    /// left paged out, plus `tail`, the rows replayed from the WAL past
    /// them — fewer than a block, since recovery seals every full one.
    pub(crate) fn recovered(
        id: u32,
        name: &str,
        schema: Schema,
        store: Arc<TableStore>,
        tail: Vec<Tuple>,
    ) -> Table {
        let table = Table::new(id, name, schema);
        {
            let mut data = table.data.write();
            let durable = store.durable_blocks();
            data.blocks = Arc::new(
                ColumnTable::empty(id, name, &table.schema, Some(store)).appended(durable),
            );
            data.tail = Arc::new(tail);
        }
        table
    }

    /// Attaches a [`TableStore`], making the table durable from here on.
    /// Blocks sealed *before* the attach are persisted as extents and the
    /// tail re-seeds the WAL; the table's write lock keeps the attach
    /// atomic against concurrent inserts.
    pub(crate) fn attach_store(&self, store: Arc<TableStore>) -> Result<()> {
        let mut data = self.data.write();
        let mut slots = Vec::new();
        if data.row_count() > 0 {
            let sealed = (0..data.blocks.num_blocks())
                .map(|b| Ok(data.blocks.fetch_block(b)?.0))
                .collect::<Result<Vec<_>>>()?;
            slots = store.persist(&sealed)?;
            // The fresh log holds none of the table's rows: only a
            // checkpoint makes them durable.
            store.checkpoint(&data.tail)?;
        }
        let blocks = ColumnTable::empty(self.id, &self.name, &self.schema, Some(store));
        data.blocks = Arc::new(blocks.appended(slots));
        Ok(())
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
        self.data.read().row_count()
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
    /// A one-row [`Table::insert_batch`]: see there for what an insert does
    /// and when it fails.
    pub fn insert(&self, values: Vec<Value>) -> Result<u64> {
        self.append(std::iter::once(values)).map(|(_, last)| last)
    }

    /// Seals a full tail into one new block and publishes the new block
    /// list.  On a paged table the seal boundary is also the durability
    /// boundary: the block is persisted as an extent first, and only a
    /// successful persist publishes it — an error leaves the rows in the
    /// tail and poisons the store, which refuses every later insert.
    fn seal(&self, data: &mut TableData) -> Result<()> {
        if data.tail.len() < COLUMN_BLOCK_ROWS {
            return Ok(());
        }
        let block = Arc::new(SealedBlock::seal(&data.tail, self.schema.len()));
        let slots = match &data.blocks.store {
            Some(store) => store.persist(&[block])?,
            None => vec![BlockSlot::Resident(block)],
        };
        data.blocks = Arc::new(data.blocks.appended(slots));
        data.tail = Arc::new(Vec::new());
        Ok(())
    }

    /// Appends many rows, validating each one's arity, and returns how many
    /// were appended.
    ///
    /// The rows go in a *segment* at a time: the run of rows up to the next
    /// 1024-row seal boundary, so a segment never spans a seal.  Each
    /// segment is one hold of the table's write lock, and the write path is
    /// append-and-merge, never invalidate-and-rebuild:
    ///
    /// * on a paged table the segment's WAL records go first, in one write:
    ///   no row joins the tail before its record is written, and a failed
    ///   write leaves the log, the table and its statistics as they were;
    /// * the statistics delta partial folds the rows in under one hold of
    ///   the statistics lock; at each 1024-row boundary the delta is merged
    ///   into the sealed catalog;
    /// * the rows join the tail in one extend (stable indices — every
    ///   previously pinned [`TableEpoch`] keeps reading its own tail), and a
    ///   full tail seals into one new block;
    /// * indexes are *kept*: an index covers the row prefix it was built
    ///   over, which is still a valid epoch.  The executor compares
    ///   [`ScoreIndex::indexed_rows`] / [`BTreeIndex::indexed_rows`]
    ///   against its pinned epoch's watermark and extends the index over
    ///   the missing suffix when they differ.
    ///
    /// Readers pin under the read lock, so they see whole segments appear:
    /// every epoch is the table as it was between two segments.  A row of
    /// the wrong arity ends the batch: the rows before it are appended and
    /// its error is returned.  So is a failed WAL write's, with the segment
    /// it was writing left out, and a failed seal's, which leaves the
    /// segment in the tail, durable only as far as the WAL's last
    /// successful fsync; the rows after either failure are not appended.
    /// A failed seal, or a WAL write that cannot be rolled back, poisons a
    /// paged table's store: every later insert fails, until a reopen.
    pub fn insert_batch<I>(&self, batch: I) -> Result<usize>
    where
        I: IntoIterator<Item = Vec<Value>>,
    {
        self.append(batch).map(|(n, _)| n)
    }

    /// The segment loop of [`Table::insert_batch`]: returns how many rows
    /// were appended and the index of the last one.
    fn append<I>(&self, batch: I) -> Result<(usize, u64)>
    where
        I: IntoIterator<Item = Vec<Value>>,
    {
        let mut rows = batch.into_iter();
        let (mut pending, mut segment) = (Vec::new(), Vec::new());
        let mut bad = None;
        let (mut appended, mut last) = (0, 0);
        let mut room = COLUMN_BLOCK_ROWS;
        loop {
            // Pulled outside the lock: the caller's iterator may read this
            // table.
            while bad.is_none() && pending.len() < room {
                match rows.next() {
                    Some(values) if values.len() != self.schema.len() => {
                        bad = Some(RankSqlError::Catalog(format!(
                            "row arity {} does not match schema arity {} for table `{}`",
                            values.len(),
                            self.schema.len(),
                            self.name
                        )));
                    }
                    Some(values) => pending.push(values),
                    None => break,
                }
            }
            if pending.is_empty() {
                break;
            }
            let mut data = self.data.write();
            let first = data.row_count();
            // `room` is a guess: the first pull and concurrent writers do
            // not know the boundary.
            let n = pending
                .len()
                .min(COLUMN_BLOCK_ROWS - first % COLUMN_BLOCK_ROWS);
            segment.extend(
                pending
                    .drain(..n)
                    .zip(first as u64..)
                    .map(|(values, idx)| Tuple::new(TupleId::base(self.id, idx), values)),
            );
            if let Some(store) = &data.blocks.store {
                // No fsync here — durability is settled at the seal boundary.
                store.append_wal(first as u64, &segment)?;
            }
            self.observe(&segment);
            Arc::make_mut(&mut data.tail).append(&mut segment);
            (appended, last) = (appended + n, (first + n - 1) as u64);
            self.seal(&mut data)?;
            room = COLUMN_BLOCK_ROWS - data.row_count() % COLUMN_BLOCK_ROWS;
        }
        match bad {
            Some(e) => Err(e),
            None => Ok((appended, last)),
        }
    }

    /// Folds a segment's rows into the statistics delta, when a catalog
    /// was ever built.  The catalog covers every row of the table (it is
    /// built and folded under the table's lock), so a segment ends at or
    /// before its 1024-row boundary, where the delta merges into the sealed
    /// catalog.
    fn observe(&self, segment: &[Tuple]) {
        if !self.has_stats.load(Ordering::Acquire) {
            return;
        }
        if let Some(pair) = self.stats.write().as_mut() {
            pair.delta.observe_rows(segment);
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

    /// A snapshot of all tuples, for tests, tools and benchmarks: engine
    /// paths read a pinned epoch through [`TableEpoch::read`], which
    /// returns a failed fault's error.  `scan` never panics and cannot
    /// return one, so when a paged block fails to fault in it writes the
    /// error to standard error and returns only the rows before that block
    /// — a snapshot shorter than [`Table::row_count`].
    pub fn scan(&self) -> Vec<Tuple> {
        let epoch = self.pin_epoch();
        let mut out = Vec::with_capacity(epoch.row_count());
        if let Err(e) = epoch.read(0..epoch.row_count(), |t| out.push(t)) {
            eprintln!("scan of table `{}` stopped short: {e}", self.name);
        }
        out
    }

    /// Pins the table's current epoch: its sealed blocks and its tail.
    /// Taken under the read lock, so the snapshot is consistent against
    /// concurrent inserts; it clones two `Arc`s and no row.
    pub fn pin_epoch(&self) -> TableEpoch {
        self.data.read().epoch()
    }

    /// The table's statistics catalog: per-column null counts, numeric
    /// min/max, boolean fractions and a staged distinct-count sketch.
    ///
    /// Built on first use as a sealed catalog over the 1024-row-aligned
    /// prefix plus a delta partial over the rest, reading every row (and
    /// faulting every paged block) once — the error of a failed fault is
    /// returned.  Afterwards every [`Table::insert`] folds the new row into
    /// the delta (merging it into the sealed catalog at each seal
    /// boundary), so repeated calls are O(columns) in the table size and
    /// never observe a stale snapshot.  Calls with no insert in between
    /// share one catalog.
    pub fn stats_catalog(&self) -> Result<Arc<StatsCatalog>> {
        // The read lock is held across the build so a concurrent insert
        // (which takes the write lock) cannot slip a row between the
        // snapshot and the publication of the catalog.
        let data = self.data.read();
        if let Some(merged) = self.cached_stats() {
            return Ok(merged);
        }
        let epoch = data.epoch();
        let n = epoch.row_count();
        let aligned = n / COLUMN_BLOCK_ROWS * COLUMN_BLOCK_ROWS;
        // Per-block partials, folded the way `StatsCatalog::build` does.
        let mut sealed = StatsCatalog::empty(&self.schema);
        for start in (0..aligned).step_by(COLUMN_BLOCK_ROWS) {
            let mut partial = StatsCatalog::empty(&self.schema);
            partial.observe_rows(&epoch.tuples(start..start + COLUMN_BLOCK_ROWS)?);
            sealed.merge(&partial);
        }
        let delta = StatsCatalog::build(&self.schema, &epoch.tuples(aligned..n)?);
        let mut pair = StatsPair {
            sealed,
            delta,
            merged: None,
        };
        let merged = pair.merged();
        *self.stats.write() = Some(pair);
        self.has_stats.store(true, Ordering::Release);
        Ok(merged)
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
        for i in 0..(COLUMN_BLOCK_ROWS as i64 + 5) {
            t.insert(vec![Value::from(i), Value::from(0.5)]).unwrap();
        }
        let epoch = t.pin_epoch();
        let rows = [
            0,
            COLUMN_BLOCK_ROWS - 1,
            COLUMN_BLOCK_ROWS,
            COLUMN_BLOCK_ROWS + 4,
        ];
        // Rows come from the sealed block and from the tail, in the order
        // asked, with the identities the table gave them.
        let got = epoch.tuples(rows.iter().rev().copied()).unwrap();
        for (t, &row) in got.iter().zip(rows.iter().rev()) {
            assert_eq!(t.id(), &TupleId::base(3, row as u64));
            assert_eq!(t.value(0), &Value::from(row as i64));
        }
        // A row past the watermark is one the epoch must never see.
        t.insert(vec![Value::from(-1), Value::from(0.0)]).unwrap();
        let err = epoch.tuples([COLUMN_BLOCK_ROWS + 5]).unwrap_err();
        assert!(err.to_string().contains("stale"), "{err}");
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
        let score_indexes = t.score_indexes.read();
        let names: Vec<_> = score_indexes.iter().map(|i| i.predicate_name()).collect();
        assert_eq!(names, ["b"]);
        drop(score_indexes);

        // The lag is detectable: readers at the new epoch compare coverage
        // against their watermark and extend the index over the suffix.
        assert_eq!(held_handle.indexed_rows(), 2);
        assert_eq!(t.row_count(), 3);
        let suffix = t.pin_epoch().tuples(2..3).unwrap();
        let ext = held_handle.extended(&pred, t.schema(), &suffix, 2).unwrap();
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
        let epoch = t.pin_epoch();
        let watermark = epoch.row_count();
        assert_eq!(watermark, COLUMN_BLOCK_ROWS + 100);
        let blocks_then = Arc::clone(epoch.blocks());
        assert_eq!(
            blocks_then.row_count() + epoch.tail().len(),
            watermark,
            "epoch coverage = sealed blocks + tail"
        );

        // Writers append past the next seal boundary.
        for i in 0..(COLUMN_BLOCK_ROWS as i64) {
            t.insert(vec![Value::from(-i), Value::from(0.0)]).unwrap();
        }
        assert_eq!(t.row_count(), 2 * COLUMN_BLOCK_ROWS + 100);

        // The pinned epoch is untouched: same watermark, same blocks, same
        // tail — the inserts are invisible to it.
        assert_eq!(epoch.row_count(), watermark);
        assert!(Arc::ptr_eq(epoch.blocks(), &blocks_then));
        assert_eq!(epoch.blocks().row_count() + epoch.tail().len(), watermark);
        // A fresh pin sees the new rows and the newly sealed block, which
        // shares the older one.
        let fresh = t.pin_epoch();
        assert_eq!(fresh.row_count(), 2 * COLUMN_BLOCK_ROWS + 100);
        assert_eq!(fresh.blocks().row_count(), 2 * COLUMN_BLOCK_ROWS);
        assert_eq!(fresh.tail().len(), 100);
        let first = |e: &TableEpoch| e.blocks().fetch_block(0).unwrap().0;
        assert!(Arc::ptr_eq(&first(&epoch), &first(&fresh)));
    }

    #[test]
    fn the_tail_stays_under_a_block_after_every_insert() {
        let t = Table::new(1, "T", schema());
        for i in 0..(3 * COLUMN_BLOCK_ROWS as i64 + 10) {
            t.insert(vec![Value::from(i), Value::from(0.5)]).unwrap();
            let epoch = t.pin_epoch();
            assert!(epoch.tail().len() < COLUMN_BLOCK_ROWS, "row {i}");
            assert_eq!(
                epoch.blocks().row_count() + epoch.tail().len(),
                t.row_count()
            );
        }
        assert_eq!(t.pin_epoch().blocks().num_blocks(), 3);
    }

    #[test]
    fn a_pin_clones_no_row_and_an_insert_copies_only_a_pinned_tail() {
        let t = Table::new(1, "T", schema());
        let row = |i: i64| vec![Value::from(i), Value::from(0.5)];
        for i in 0..10 {
            t.insert(row(i)).unwrap();
        }
        // Two pins with no insert between share the very same tail.
        let pinned = t.pin_epoch();
        assert!(Arc::ptr_eq(pinned.tail(), t.pin_epoch().tail()));
        // An insert under a live pin copies the tail once; the pin keeps
        // its ten rows.
        t.insert(row(10)).unwrap();
        let after = t.pin_epoch();
        assert!(!Arc::ptr_eq(pinned.tail(), after.tail()));
        assert_eq!(pinned.tail().len(), 10);
        assert_eq!(after.tail().len(), 11);
        // The copy shares each row's values: a tuple clone is a refcount.
        assert!(std::ptr::eq(
            pinned.tail()[3].values(),
            after.tail()[3].values()
        ));
        // With no pin left, an insert appends in place.
        let unpinned = Arc::as_ptr(after.tail());
        drop((pinned, after));
        t.insert(row(11)).unwrap();
        assert_eq!(Arc::as_ptr(t.pin_epoch().tail()), unpinned);
    }

    #[test]
    fn epoch_set_pins_once_per_table() {
        let t = Table::new(1, "T", schema());
        for i in 0..10i64 {
            t.insert(vec![Value::from(i), Value::from(i as f64 / 10.0)])
                .unwrap();
        }
        let set = EpochSet::new();
        let pin = set.pin(&t);
        // More inserts between pins must not move the watermark.
        t.insert(vec![Value::from(99), Value::from(0.99)]).unwrap();
        let again = set.pin(&t);
        assert!(Arc::ptr_eq(&pin, &again));
        assert_eq!(set.get(1).unwrap().row_count(), 10);
        assert_eq!(set.pins(), vec![(1, 10)]);
    }

    #[test]
    fn epoch_score_max_folds_sealed_blocks_and_tail() {
        let t = Table::new(1, "T", schema());
        for i in 0..(COLUMN_BLOCK_ROWS as i64) {
            t.insert(vec![Value::from(i), Value::from(0.25)]).unwrap();
        }
        // Tail rows carry the table's maximal score: the sealed fold alone
        // would under-report, which zone-pruning caps cannot afford.
        t.insert(vec![Value::from(-1), Value::from(0.75)]).unwrap();
        let epoch = t.pin_epoch();
        assert!(!epoch.tail().is_empty());
        assert_eq!(epoch.score_max(1), Some(0.75));
    }

    #[test]
    fn stats_catalog_is_maintained_incrementally_on_insert() {
        let t = Table::new(1, "T", schema());
        for i in 0..10i64 {
            t.insert(vec![Value::from(i % 4), Value::from(i as f64 / 10.0)])
                .unwrap();
        }
        let first = t.stats_catalog().unwrap();
        assert_eq!(first.row_count, 10);
        assert_eq!(first.column("a").unwrap().ndv(), 4);
        assert_eq!(first.column("b").unwrap().max, Some(0.9));

        // Inserts after the catalog exists fold into it (no invalidation):
        // the next read sees the new row without a rebuild.
        t.insert(vec![Value::from(99), Value::from(2.5)]).unwrap();
        let second = t.stats_catalog().unwrap();
        assert_eq!(second.row_count, 11);
        assert_eq!(second.column("a").unwrap().ndv(), 5);
        assert_eq!(second.column("T.b").unwrap().max, Some(2.5));
        assert_eq!(second.column("a").unwrap().null_count, 0);

        // Nulls are counted, not sketched.
        t.insert(vec![Value::Null, Value::from(0.0)]).unwrap();
        let third = t.stats_catalog().unwrap();
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
        let _ = warm.stats_catalog().unwrap();
        for i in 50..200i64 {
            warm.insert(vec![Value::from(i % 7), Value::from(i as f64)])
                .unwrap();
            cold.insert(vec![Value::from(i % 7), Value::from(i as f64)])
                .unwrap();
        }
        assert_eq!(warm.stats_catalog().unwrap(), cold.stats_catalog().unwrap());
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
        let _ = warm.stats_catalog().unwrap();
        // Cross two seal boundaries on the warm path.
        for i in 100..(2 * COLUMN_BLOCK_ROWS as i64 + 3) {
            warm.insert(row(i)).unwrap();
            cold.insert(row(i)).unwrap();
        }
        assert_eq!(warm.stats_catalog().unwrap(), cold.stats_catalog().unwrap());
    }

    #[test]
    fn debug_output_mentions_row_count() {
        let t = Table::new(1, "T", schema());
        t.insert(vec![Value::from(1), Value::from(0.5)]).unwrap();
        let s = format!("{t:?}");
        assert!(s.contains("rows: 1"));
    }
}
