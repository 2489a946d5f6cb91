//! Column-major table storage with per-block zone maps.
//!
//! A [`ColumnTable`] is the sealed part of a [`Table`](crate::Table): every attribute is
//! stored type-specialised inside immutable **sealed blocks** of
//! [`COLUMN_BLOCK_ROWS`] rows, and those blocks are the table's only copy
//! of their rows.  For each *purely numeric* column a block carries a
//! **zone map** — the min/max of the block's values — which lets a
//! columnar scan skip whole blocks:
//!
//! * **filter pruning** — a pushed-down comparison (`σ p1 ≥ 0.9`) skips
//!   blocks whose value range cannot satisfy the predicate;
//! * **score pruning** — a top-k consumer skips blocks whose *maximal
//!   possible query score* (the scoring function over the blocks' clamped
//!   score maxima) cannot beat the current k-th best score.
//!
//! Blocks are the unit of immutability of the MVCC write path: a
//! `ColumnTable` is a persistent (in the functional-data-structure sense)
//! list of `Arc`-shared full blocks, so sealing the next 1024 appended rows
//! produces a *new* `ColumnTable` that reuses every previously sealed block
//! untouched (`ColumnTable::appended`) — readers holding an older epoch
//! keep scanning their own block list while writers publish new ones.
//!
//! The layout follows the buffer/block structure of classic columnar engines
//! (fixed-row blocks, per-block metadata); the executor's `ColumnScan`
//! evaluates pushed filters on the column vectors and materialises row
//! tuples only for rows that survive them — late materialisation on the σ/π
//! spine.  Materialising a row builds its tuple from the column vectors,
//! one allocation per row.

use std::ops::Range;
use std::sync::Arc;

use ranksql_common::{DataType, RankSqlError, Result, Schema, Tuple, TupleId, Value};

use crate::page::{BlockMeta, PagedColumn};
use crate::recovery::TableStore;

/// Rows per columnar block (the zone-map granularity and the seal boundary
/// of the incremental write path).
pub const COLUMN_BLOCK_ROWS: usize = 1024;

/// The storage type of a column, uniform across every block of one
/// `ColumnTable` version (a block whose values do not fit the established
/// type demotes the whole column to [`ColumnKind::Generic`], which routes
/// scans to the untyped fallback path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnKind {
    /// Every value is `Value::Int64`.
    Int64,
    /// Every value is `Value::Float64`.
    Float64,
    /// Mixed types, strings, booleans or NULLs — stored as dynamic values
    /// (no typed kernels: cross-type range pruning is handled per block).
    Generic,
}

/// The min/max zone of one numeric column within one block, in the column's
/// native type.
///
/// Int64 zones stay exact (no float rounding), so integer pushed filters can
/// prune without conservative widening.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ZoneEntry {
    /// Zone of an `Int64` block.
    Int64(i64, i64),
    /// Zone of a `Float64` block.  `NaN` values are folded with the same
    /// total order [`Value`] uses (`NaN` sorts greatest), so the max
    /// dominates every value the way `Value` comparisons see them.
    Float64(f64, f64),
}

/// Type-specialised storage of one column within one block.
#[derive(Debug)]
pub(crate) enum BlockData {
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    Generic(Vec<Value>),
}

impl BlockData {
    pub(crate) fn kind(&self) -> ColumnKind {
        match self {
            BlockData::Int64(_) => ColumnKind::Int64,
            BlockData::Float64(_) => ColumnKind::Float64,
            BlockData::Generic(_) => ColumnKind::Generic,
        }
    }

    fn len(&self) -> usize {
        match self {
            BlockData::Int64(v) => v.len(),
            BlockData::Float64(v) => v.len(),
            BlockData::Generic(v) => v.len(),
        }
    }
}

/// A borrowed view of one column's values within one block.
#[derive(Debug, Clone, Copy)]
pub enum ColumnSlice<'a> {
    /// Dense `i64` values.
    Int64(&'a [i64]),
    /// Dense `f64` values.
    Float64(&'a [f64]),
    /// Dynamic values (mixed / non-numeric blocks).
    Generic(&'a [Value]),
}

/// One column of a sealed block: its data plus zone metadata (numeric
/// blocks only).
#[derive(Debug)]
pub(crate) struct BlockColumn {
    pub(crate) data: BlockData,
    /// Min/max of the block's values in the native type (`None` for
    /// generic blocks).
    zone: Option<ZoneEntry>,
    /// Maximum of the block's values *as a ranking score*: clamped into
    /// `[0, 1]`, `NaN` ignored (a `NaN` score sorts below every ranked
    /// tuple, so it never lifts a block's score bound).
    /// `f64::NEG_INFINITY` for empty blocks.  `None` for generic blocks.
    score_max: Option<f64>,
}

impl BlockColumn {
    /// Packs a column and folds its zone map and score maximum — the one
    /// fold a block gets, at seal or at recovery from its decoded extent.
    /// Zones are never stored on disk; a faulted block takes them from its
    /// [`BlockMeta`], which holds this fold's result, so no two paths can
    /// disagree.
    pub(crate) fn from_data(data: BlockData) -> BlockColumn {
        match data {
            BlockData::Int64(v) => BlockColumn::from_i64(v),
            BlockData::Float64(v) => BlockColumn::from_f64(v),
            BlockData::Generic(v) => BlockColumn {
                data: BlockData::Generic(v),
                zone: None,
                score_max: None,
            },
        }
    }

    fn from_i64(data: Vec<i64>) -> BlockColumn {
        let zone = data
            .iter()
            .copied()
            .min()
            .zip(data.iter().copied().max())
            .map(|(min, max)| ZoneEntry::Int64(min, max));
        let score_max = data
            .iter()
            .map(|&v| (v as f64).clamp(0.0, 1.0))
            .fold(f64::NEG_INFINITY, f64::max);
        BlockColumn {
            data: BlockData::Int64(data),
            zone,
            score_max: Some(score_max),
        }
    }

    fn from_f64(data: Vec<f64>) -> BlockColumn {
        // Fold with the same total order `Value` comparisons use: NaN sorts
        // greatest, so the max dominates every value as the filter sees it.
        let zone = (!data.is_empty()).then(|| {
            let mut min = data[0];
            let mut max = data[0];
            for &v in &data[1..] {
                if cmp_f64_total(v, min).is_lt() {
                    min = v;
                }
                if cmp_f64_total(v, max).is_gt() {
                    max = v;
                }
            }
            ZoneEntry::Float64(min, max)
        });
        let score_max = data
            .iter()
            .filter(|v| !v.is_nan())
            .map(|&v| v.clamp(0.0, 1.0))
            .fold(f64::NEG_INFINITY, f64::max);
        BlockColumn {
            data: BlockData::Float64(data),
            zone,
            score_max: Some(score_max),
        }
    }
}

/// An immutable block of up to [`COLUMN_BLOCK_ROWS`] rows: per-column typed
/// vectors with zone maps and score maxima, built once at seal time and
/// never touched again.
#[derive(Debug)]
pub struct SealedBlock {
    rows: usize,
    pub(crate) columns: Vec<BlockColumn>,
}

impl SealedBlock {
    /// Reassembles a block from decoded column data (the recovery path),
    /// folding per-column zone metadata.
    pub(crate) fn from_data(columns: Vec<BlockData>) -> SealedBlock {
        SealedBlock::decoded(columns.into_iter().map(BlockColumn::from_data).collect())
    }

    /// Reassembles a faulted block from decoded column data and the zone
    /// metadata its [`BlockMeta`] already holds, folding nothing.
    pub(crate) fn with_zones(columns: Vec<BlockData>, zones: &[PagedColumn]) -> SealedBlock {
        SealedBlock::decoded(
            columns
                .into_iter()
                .zip(zones)
                .map(|(data, z)| BlockColumn {
                    data,
                    zone: z.zone,
                    score_max: z.score_max,
                })
                .collect(),
        )
    }

    /// Seals `rows` into one block: classifies and packs each of the
    /// `n_cols` columns, computing its zone map and score maximum.
    pub fn seal(rows: &[Tuple], n_cols: usize) -> SealedBlock {
        SealedBlock {
            rows: rows.len(),
            columns: (0..n_cols)
                .map(|col| build_block_column(rows, col))
                .collect(),
        }
    }

    /// A block of decoded columns.
    fn decoded(columns: Vec<BlockColumn>) -> SealedBlock {
        SealedBlock {
            rows: columns.first().map_or(0, |c| c.data.len()),
            columns,
        }
    }

    /// Number of rows in this block.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// A borrowed view of one column's values.
    pub fn slice(&self, column: usize) -> ColumnSlice<'_> {
        match &self.columns[column].data {
            BlockData::Int64(v) => ColumnSlice::Int64(v),
            BlockData::Float64(v) => ColumnSlice::Float64(v),
            BlockData::Generic(v) => ColumnSlice::Generic(v),
        }
    }

    /// The zone map of `column` (`None` for non-numeric blocks).
    pub fn zone(&self, column: usize) -> Option<ZoneEntry> {
        self.columns[column].zone
    }

    /// The maximal possible ranking score of `column` (clamped `[0, 1]`,
    /// `NaN` ignored; `None` for non-numeric blocks).
    pub fn score_max(&self, column: usize) -> Option<f64> {
        self.columns[column].score_max
    }

    /// The value at `(local_row, column)` within this block.
    pub fn value(&self, local_row: usize, column: usize) -> Value {
        match &self.columns[column].data {
            BlockData::Int64(v) => Value::Int64(v[local_row]),
            BlockData::Float64(v) => Value::Float64(v[local_row]),
            BlockData::Generic(v) => v[local_row].clone(),
        }
    }

    /// Materialises the full tuple at `local_row`, with the identity
    /// `(table_id, base_row + local_row)` the row was inserted under, so
    /// every reader sees the row byte for byte as it was inserted.
    pub fn tuple(&self, table_id: u32, base_row: usize, local_row: usize) -> Tuple {
        Tuple::new(
            TupleId::base(table_id, (base_row + local_row) as u64),
            (0..self.columns.len()).map(|c| self.value(local_row, c)),
        )
    }
}

/// One block position of a [`ColumnTable`]: either the sealed block itself
/// (RAM-resident: the blocks of in-memory tables) or the
/// page-extent metadata of a block that lives in the table file and is
/// faulted in through the buffer pool on first touch (tables of a
/// [`PagedStore`](crate::recovery::PagedStore)).
///
/// A paged slot keeps the zone maps and score maxima in RAM
/// ([`BlockMeta`]), so zone-map pruning decides *without touching disk* —
/// a pruned block is a page never read.
#[derive(Debug, Clone)]
pub(crate) enum BlockSlot {
    /// The block data itself, RAM-resident.
    Resident(Arc<SealedBlock>),
    /// Metadata of a block stored as a page extent in the table file.
    Paged(Arc<BlockMeta>),
}

impl BlockSlot {
    fn kind(&self, column: usize) -> ColumnKind {
        match self {
            BlockSlot::Resident(b) => b.columns[column].data.kind(),
            BlockSlot::Paged(m) => m.columns[column].kind,
        }
    }

    fn zone(&self, column: usize) -> Option<ZoneEntry> {
        match self {
            BlockSlot::Resident(b) => b.columns[column].zone,
            BlockSlot::Paged(m) => m.columns[column].zone,
        }
    }

    fn score_max(&self, column: usize) -> Option<f64> {
        match self {
            BlockSlot::Resident(b) => b.columns[column].score_max,
            BlockSlot::Paged(m) => m.columns[column].score_max,
        }
    }
}

/// The sealed blocks of a [`Table`](crate::Table): `Arc`-shared full blocks of
/// [`COLUMN_BLOCK_ROWS`] rows, each numeric column carrying per-block zone
/// maps.
///
/// Every 1024 appended rows the table seals one new block and publishes a
/// new `ColumnTable` that shares all previously sealed blocks
/// (`ColumnTable::appended`).  Handles are shared read-only across scans;
/// a handle pinned in a [`TableEpoch`](crate::TableEpoch) stays valid
/// forever.
#[derive(Debug)]
pub struct ColumnTable {
    table_id: u32,
    name: String,
    schema: Schema,
    /// Per-column storage kind, the fold of every block's kind (`Generic`
    /// when blocks disagree).  Typed scan kernels only engage on columns
    /// whose kind is uniform and numeric.
    kinds: Vec<ColumnKind>,
    pub(crate) blocks: Vec<BlockSlot>,
    /// The paged table store behind `Paged` slots (`None` for in-memory
    /// tables).
    pub(crate) store: Option<Arc<TableStore>>,
}

impl ColumnTable {
    /// No blocks yet: a fresh table, paged through `store` when it has one.
    pub(crate) fn empty(
        table_id: u32,
        name: &str,
        schema: &Schema,
        store: Option<Arc<TableStore>>,
    ) -> Self {
        ColumnTable {
            table_id,
            name: name.to_owned(),
            schema: schema.clone(),
            kinds: fold_kinds(&[], schema),
            blocks: Vec::new(),
            store,
        }
    }

    /// A new version of this table with `sealed` appended after its
    /// blocks, sharing every existing block untouched — the seal step of
    /// the write path.
    pub(crate) fn appended(&self, sealed: impl IntoIterator<Item = BlockSlot>) -> ColumnTable {
        let mut blocks = self.blocks.clone();
        blocks.extend(sealed);
        ColumnTable {
            table_id: self.table_id,
            name: self.name.clone(),
            schema: self.schema.clone(),
            kinds: fold_kinds(&blocks, &self.schema),
            blocks,
            store: self.store.clone(),
        }
    }

    /// The id of the table these blocks belong to.
    pub fn table_id(&self) -> u32 {
        self.table_id
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows: every block is full.
    pub fn row_count(&self) -> usize {
        self.blocks.len() * COLUMN_BLOCK_ROWS
    }

    /// Number of blocks (`rows / COLUMN_BLOCK_ROWS`).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The row range of block `block`.
    pub fn block_rows(&self, block: usize) -> Range<usize> {
        let start = block * COLUMN_BLOCK_ROWS;
        start..(start + COLUMN_BLOCK_ROWS)
    }

    /// The storage kind of a column (uniform across blocks; `Generic` when
    /// blocks disagree or hold non-numeric values).
    pub fn column_kind(&self, column: usize) -> ColumnKind {
        self.kinds[column]
    }

    /// The block at `block`, faulting it in through the buffer pool when it
    /// is paged out.  Returns the block and whether a page fault (a disk
    /// read) happened — `false` for resident blocks and pool hits.
    pub fn fetch_block(&self, block: usize) -> Result<(Arc<SealedBlock>, bool)> {
        match &self.blocks[block] {
            BlockSlot::Resident(b) => Ok((Arc::clone(b), false)),
            BlockSlot::Paged(meta) => {
                let store = self.store.as_ref().ok_or_else(|| {
                    RankSqlError::Storage(format!(
                        "table `{}` block {block} is paged but no store is attached",
                        self.name
                    ))
                })?;
                store.fetch(meta)
            }
        }
    }

    /// How many disk pages backing `block` a scan *avoids* by pruning it:
    /// the extent size of a paged slot, `0` for RAM-resident blocks (there
    /// is no I/O to save).
    pub fn block_pages(&self, block: usize) -> u64 {
        match &self.blocks[block] {
            BlockSlot::Resident(_) => 0,
            BlockSlot::Paged(meta) => meta.pages,
        }
    }

    /// The zone map of `column` within `block` (`None` for non-numeric /
    /// mixed blocks, which cannot be range-pruned soundly).  Zone metadata
    /// stays RAM-resident even for paged blocks, so pruning never touches
    /// disk.
    pub fn zone(&self, column: usize, block: usize) -> Option<ZoneEntry> {
        self.blocks.get(block)?.zone(column)
    }

    /// The maximal possible *ranking score* of column `column` within
    /// `block`: the block maximum clamped into `[0, 1]` (`NaN` ignored).
    /// `None` when the block carries no zone maps for the column.
    pub fn score_zone_max(&self, column: usize, block: usize) -> Option<f64> {
        self.blocks.get(block)?.score_max(column)
    }

    /// The maximal possible ranking score of column `column` over the whole
    /// table (the fold of every block's [`ColumnTable::score_zone_max`]).
    /// `None` when any block cannot bound the column's scores.
    pub fn table_score_max(&self, column: usize) -> Option<f64> {
        let mut acc = f64::NEG_INFINITY;
        for b in &self.blocks {
            acc = acc.max(b.score_max(column)?);
        }
        Some(acc)
    }

    /// The resident block at `block`, `None` when it is paged out (test
    /// and bench introspection).
    #[cfg(test)]
    pub(crate) fn resident_block(&self, block: usize) -> Option<&Arc<SealedBlock>> {
        match &self.blocks[block] {
            BlockSlot::Resident(b) => Some(b),
            BlockSlot::Paged(_) => None,
        }
    }

    /// How many of these blocks are paged out to the table
    /// file (rather than RAM-resident).
    pub fn paged_blocks(&self) -> usize {
        self.blocks
            .iter()
            .filter(|s| matches!(s, BlockSlot::Paged(_)))
            .count()
    }
}

/// Folds the per-block column kinds into one kind per column; an empty
/// block list (fresh table) falls back to the schema's declared types.
fn fold_kinds(blocks: &[BlockSlot], schema: &Schema) -> Vec<ColumnKind> {
    (0..schema.len())
        .map(|col| {
            let mut it = blocks.iter().map(|b| b.kind(col));
            match it.next() {
                None => match schema.fields()[col].data_type {
                    DataType::Int64 => ColumnKind::Int64,
                    DataType::Float64 => ColumnKind::Float64,
                    _ => ColumnKind::Generic,
                },
                Some(first) => {
                    if it.all(|k| k == first) {
                        first
                    } else {
                        ColumnKind::Generic
                    }
                }
            }
        })
        .collect()
}

/// Classifies and packs one column of one block: pure `Int64`, else pure
/// `Float64`, else generic.
fn build_block_column(rows: &[Tuple], col: usize) -> BlockColumn {
    let values = || rows.iter().map(|t| t.value(col));
    let ints = values().map(|v| match v {
        Value::Int64(x) => Some(*x),
        _ => None,
    });
    let floats = values().map(|v| match v {
        Value::Float64(x) => Some(*x),
        _ => None,
    });
    BlockColumn::from_data(if let Some(v) = ints.collect() {
        BlockData::Int64(v)
    } else if let Some(v) = floats.collect() {
        BlockData::Float64(v)
    } else {
        BlockData::Generic(values().cloned().collect())
    })
}

/// The total order over `f64` used by `Value` comparisons (`NaN` greatest),
/// re-exported from `ranksql-common` so zone-map folds and the executor's
/// typed filters share the one definition the soundness argument needs.
pub use ranksql_common::cmp_f64_total;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Table, TableBuilder};
    use ranksql_common::{DataType, Field};

    fn table(rows: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("p", DataType::Float64),
            Field::new("name", DataType::Utf8),
        ])
        .qualify_all("T");
        TableBuilder::new("T", schema)
            .rows((0..rows).map(|i| {
                vec![
                    Value::from(i as i64),
                    Value::from(((i * 37) % 100) as f64 / 100.0),
                    Value::from(format!("r{i}").as_str()),
                ]
            }))
            .build(3)
            .unwrap()
    }

    /// The sealed blocks of `t`.
    fn blocks(t: &Table) -> Arc<ColumnTable> {
        Arc::clone(t.pin_epoch().blocks())
    }

    /// One block sealed from single-column rows.
    fn block_of(values: Vec<Value>) -> SealedBlock {
        let rows: Vec<Tuple> = values
            .into_iter()
            .enumerate()
            .map(|(i, v)| Tuple::new(TupleId::base(0, i as u64), vec![v]))
            .collect();
        SealedBlock::seal(&rows, 1)
    }

    #[test]
    fn round_trips_rows_and_identities() {
        let t = table(COLUMN_BLOCK_ROWS + 10);
        let c = blocks(&t);
        assert_eq!(c.row_count(), COLUMN_BLOCK_ROWS);
        assert_eq!(c.num_blocks(), 1);
        // The same block decoded from its page extent rebuilds the same
        // rows.
        let block = c.resident_block(0).unwrap();
        let extent = crate::page::encode_extent(0, block);
        let decoded = crate::page::decode_extent(&extent).unwrap().unwrap().fold();
        for (i, want) in t.scan()[..COLUMN_BLOCK_ROWS].iter().enumerate() {
            for got in [block.tuple(3, 0, i), decoded.tuple(c.table_id(), 0, i)] {
                assert_eq!(got.id(), want.id());
                assert_eq!(got.values(), want.values());
            }
        }
    }

    #[test]
    fn blocks_and_zone_maps() {
        let t = table(2 * COLUMN_BLOCK_ROWS + 100);
        let c = blocks(&t);
        assert_eq!(c.num_blocks(), 2);
        assert_eq!(c.block_rows(0), 0..COLUMN_BLOCK_ROWS);
        assert_eq!(c.block_rows(1), COLUMN_BLOCK_ROWS..2 * COLUMN_BLOCK_ROWS);
        // Int64 zones are exact.
        assert_eq!(
            c.zone(0, 0),
            Some(ZoneEntry::Int64(0, COLUMN_BLOCK_ROWS as i64 - 1))
        );
        assert_eq!(
            c.zone(0, 1),
            Some(ZoneEntry::Int64(
                COLUMN_BLOCK_ROWS as i64,
                2 * COLUMN_BLOCK_ROWS as i64 - 1
            ))
        );
        // Float64 zones cover [0, 0.99].
        match c.zone(1, 0).unwrap() {
            ZoneEntry::Float64(min, max) => {
                assert!(min >= 0.0 && max <= 0.99 + 1e-12);
            }
            other => panic!("expected Float64 zone, got {other:?}"),
        }
        // Utf8 columns carry no zones.
        assert_eq!(c.column_kind(2), ColumnKind::Generic);
        assert!(c.zone(2, 0).is_none());
        assert!(c.score_zone_max(2, 0).is_none());
        // Score maxima are clamped into [0, 1].
        let s = c.score_zone_max(0, 1).unwrap();
        assert_eq!(s, 1.0, "large integers clamp to 1.0 as scores");
        assert!(c.table_score_max(1).unwrap() <= 1.0);
    }

    #[test]
    fn nan_dominates_value_zones_but_not_score_zones() {
        let block = block_of(vec![
            Value::from(0.4),
            Value::from(f64::NAN),
            Value::from(0.2),
        ]);
        match block.zone(0).unwrap() {
            ZoneEntry::Float64(min, max) => {
                assert_eq!(min, 0.2);
                assert!(max.is_nan(), "NaN sorts greatest in the value order");
            }
            other => panic!("{other:?}"),
        }
        // NaN scores sort below everything, so they never lift the bound.
        assert_eq!(block.score_max(0), Some(0.4));
    }

    #[test]
    fn mixed_columns_fall_back_to_generic() {
        let block = block_of(vec![Value::from(1), Value::from(2.5)]);
        assert!(matches!(block.slice(0), ColumnSlice::Generic(_)));
        assert!(block.zone(0).is_none());
        assert_eq!(block.value(1, 0), Value::from(2.5));
        // A generic block demotes the whole column.
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]);
        let c = ColumnTable::empty(0, "M", &schema, None);
        assert_eq!(c.column_kind(0), ColumnKind::Int64);
        let c = c.appended([BlockSlot::Resident(Arc::new(block))]);
        assert_eq!(c.column_kind(0), ColumnKind::Generic);
        assert!(c.zone(0, 0).is_none());
    }

    #[test]
    fn sealing_shares_blocks_across_versions() {
        let t = table(COLUMN_BLOCK_ROWS + 500);
        let before = blocks(&t);
        assert_eq!(before.num_blocks(), 1);
        // Grow the table past the next seal boundary.
        for i in (COLUMN_BLOCK_ROWS + 500)..(2 * COLUMN_BLOCK_ROWS + 10) {
            t.insert(vec![
                Value::from(i as i64),
                Value::from(((i * 37) % 100) as f64 / 100.0),
                Value::from(format!("r{i}").as_str()),
            ])
            .unwrap();
        }
        let after = blocks(&t);
        assert_eq!(after.num_blocks(), 2);
        assert_eq!(before.num_blocks(), 1, "an old version keeps its blocks");
        assert!(
            Arc::ptr_eq(
                before.resident_block(0).unwrap(),
                after.resident_block(0).unwrap()
            ),
            "sealed blocks must be shared across versions"
        );
        // A block sealed row by row equals one of a table built in one go.
        let cold = blocks(&table(2 * COLUMN_BLOCK_ROWS));
        assert_eq!(after.zone(0, 1), cold.zone(0, 1));
        assert_eq!(after.score_zone_max(1, 1), cold.score_zone_max(1, 1));
        for row in [COLUMN_BLOCK_ROWS, 2 * COLUMN_BLOCK_ROWS - 1] {
            let local = row - COLUMN_BLOCK_ROWS;
            let [a, b] =
                [&after, &cold].map(|c| c.resident_block(1).unwrap().tuple(3, row - local, local));
            assert_eq!(a, b);
        }
    }
}
