//! In-memory relational storage substrate for RankSQL.
//!
//! The RankSQL paper prototypes its algebra and optimizer inside PostgreSQL;
//! this crate provides the equivalent substrate the prototype relied on,
//! implemented from scratch:
//!
//! * [`Table`] — an append-only table with a schema: sealed 1024-row
//!   columnar blocks, the only copy of their rows, plus a tail of fewer
//!   than 1024 unsealed rows.  Reads are MVCC snapshots: a
//!   [`table::TableEpoch`] pins the blocks and the tail without copying a
//!   row, so open cursors keep streaming while writers append, and inserts
//!   *extend* the blocks, indexes and statistics instead of invalidating
//!   them.
//! * [`Catalog`] — the named collection of tables of a database.
//! * Indexes — [`index::ScoreIndex`] (a B-tree-style ordered index over a
//!   *ranking predicate's* scores, what the paper calls the access path of a
//!   `rank-scan` / `idxScan_p`), [`index::BTreeIndex`] (ordered attribute
//!   index, providing *interesting orders* for merge joins), and
//!   [`index::HashIndex`] (equi-join lookups).
//! * [`stats::StatsCatalog`] — the per-column summaries (staged
//!   [`sketch::DistinctSketch`] NDV, min/max, null counts) every table
//!   maintains incrementally on insert; the sampling estimator's
//!   empty-sample join fallback and `explain_analyze` read them.
//! * [`sample`] — reservoir sampling used by the optimizer's sampling-based
//!   cardinality estimator (Section 5.2 of the paper).
//! * [`csv`] — a dependency-free CSV reader (with optional schema inference)
//!   so user data can be loaded into tables, the counterpart of the `COPY`
//!   path the PostgreSQL prototype used.
//! * Paged storage — [`recovery::PagedStore`] turns a catalog into a
//!   database *directory*: sealed columnar blocks live in page-aligned,
//!   CRC-guarded extents on disk ([`page`]), faulted in on demand through a
//!   clock-replacement [`buffer::BufferPool`], with a per-table write-ahead
//!   log ([`wal`]) and crash recovery to the last durable epoch.
//!   Zone/score metadata stays RAM-resident, so a zone-map prune is a page
//!   never read.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buffer;
pub mod catalog;
pub mod column;
pub mod csv;
pub mod index;
pub mod page;
pub mod recovery;
pub mod sample;
pub mod sketch;
pub mod stats;
pub mod table;
pub mod wal;

pub use buffer::{BufferPool, FrameKey};
pub use catalog::Catalog;
pub use column::{
    cmp_f64_total, ColumnKind, ColumnSlice, ColumnTable, SealedBlock, ZoneEntry, COLUMN_BLOCK_ROWS,
};
pub use csv::{infer_schema, parse_csv, CsvOptions};
pub use index::{BTreeIndex, HashIndex, ScoreIndex};
pub use page::{crc32, BlockMeta, PagedColumn, PAGE_SIZE};
pub use recovery::{PagedOptions, PagedStore, TableStore};
pub use sample::{reservoir_sample, sample_fraction};
pub use sketch::{stable_value_hash, DistinctSketch, ARRAY_CAPACITY, HLL_PRECISION};
pub use stats::{ColumnSummary, StatsCatalog};
pub use table::{EpochSet, Table, TableBuilder, TableEpoch};
