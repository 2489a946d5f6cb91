//! The paged table store and crash recovery.
//!
//! A [`PagedStore`] is a database directory:
//!
//! ```text
//! <dir>/catalog.rsql   table specs (id, name, schema), CRC-guarded,
//!                      rewritten atomically on every CREATE TABLE
//! <dir>/t<id>.dat      per-table data file: page-aligned block extents
//! <dir>/t<id>.wal      per-table write-ahead log (rows past the extents)
//! ```
//!
//! Each table's [`TableStore`] owns the data file + WAL pair and drives the
//! durability protocol, anchored on the epoch ordinal (the row-count
//! watermark) as the LSN:
//!
//! 1. every insert appends one WAL record — buffered write, **no fsync**;
//! 2. at each 1024-row seal boundary: fsync the WAL (rows now durable) →
//!    append the sealed block's extent(s) to the data file → fsync it →
//!    atomically rewrite the WAL to hold only the rows past the new extent
//!    coverage → the table publishes the block as a paged slot
//!    ([`crate::column`]'s `BlockSlot::Paged`), and the block itself
//!    enters the buffer pool (write-through);
//! 3. recovery ([`PagedStore::open`]) decodes the longest CRC-valid extent
//!    prefix of each data file, truncates everything past it, then replays
//!    the WAL's valid record prefix on top — landing exactly on the last
//!    durable epoch.  The extents stay on disk: only their metadata and
//!    the replayed rows (the table's tail) are held in RAM.
//!
//! Every read of a paged block — a scan, an index scan, an index build,
//! the statistics — faults it in through the shared [`BufferPool`]
//! (`TableStore::fetch`); zone metadata never leaves RAM, so a zone-map
//! prune is a page never read.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;
use ranksql_common::{DataType, Field, RankSqlError, Result, Schema, Tuple, TupleId, Value};

use crate::buffer::BufferPool;
use crate::catalog::Catalog;
use crate::column::{BlockSlot, SealedBlock, COLUMN_BLOCK_ROWS};
use crate::page::{
    crc32, decode_extent, encode_extent, extent_len, put_str, put_u32, BlockMeta, Reader,
    EXTENT_HEADER, PAGE_SIZE,
};
use crate::table::Table;
use crate::wal::WalFile;

/// Magic number opening the catalog file (`"RqCt"`).
const CATALOG_MAGIC: u32 = 0x5271_4374;

/// Configuration of a [`PagedStore`].
#[derive(Debug, Clone, Copy)]
pub struct PagedOptions {
    /// Buffer-pool capacity in [`PAGE_SIZE`] pages, shared by every table
    /// of the store.  The default (1024 pages = 16 MiB) comfortably holds
    /// small working sets while letting the `ablation_buffer_pool` bench
    /// squeeze it below dataset size.
    pub pool_pages: u64,
}

impl Default for PagedOptions {
    fn default() -> Self {
        PagedOptions { pool_pages: 1024 }
    }
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> RankSqlError {
    RankSqlError::Storage(format!("{what} `{}`: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// TableStore: one table's data file + WAL.
// ---------------------------------------------------------------------------

/// The disk half of one paged table: its extent data file, its WAL and the
/// metadata of every durable block.  Shared between the [`Table`] (which
/// appends) and every version of its blocks (which fault paged blocks back
/// in through the pool).
#[derive(Debug)]
pub struct TableStore {
    table_id: u32,
    pool: Arc<BufferPool>,
    inner: Mutex<StoreInner>,
}

#[derive(Debug)]
struct StoreInner {
    data: File,
    data_path: PathBuf,
    data_len: u64,
    wal: WalFile,
    /// Metadata of every durable extent, in block order: `metas.len()` is
    /// the durable block count.
    metas: Vec<Arc<BlockMeta>>,
}

fn data_path(dir: &Path, table_id: u32) -> PathBuf {
    dir.join(format!("t{table_id}.dat"))
}

fn wal_path(dir: &Path, table_id: u32) -> PathBuf {
    dir.join(format!("t{table_id}.wal"))
}

impl TableStore {
    /// Creates fresh (empty) files for a new table.
    fn create(dir: &Path, table_id: u32, pool: Arc<BufferPool>) -> Result<TableStore> {
        let path = data_path(dir, table_id);
        let data = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err("cannot create table data file", &path, e))?;
        let wal = WalFile::create(wal_path(dir, table_id), table_id)?;
        Ok(TableStore {
            table_id,
            pool,
            inner: Mutex::new(StoreInner {
                data,
                data_path: path,
                data_len: 0,
                wal,
                metas: Vec::new(),
            }),
        })
    }

    /// Opens and recovers one table: decodes the longest CRC-valid prefix
    /// of full-block extents (truncating any torn tail), replays the WAL
    /// past the extent coverage, and returns the store plus the replayed
    /// rows.  The extents' rows stay on disk.
    fn open(dir: &Path, table_id: u32, pool: Arc<BufferPool>) -> Result<(TableStore, Vec<Tuple>)> {
        let path = data_path(dir, table_id);
        let mut data = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            // Existing bytes are the durable prefix we recover from.
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("cannot open table data file", &path, e))?;
        let file_len = data
            .metadata()
            .map_err(|e| io_err("cannot stat table data file", &path, e))?
            .len();

        // Stream the extents through one reused buffer: each header sizes
        // its extent, and no read reaches past the end of the file.
        let mut metas = Vec::new();
        let mut buf = Vec::new();
        let mut offset = 0u64;
        while offset < file_len {
            let left = file_len - offset;
            let clamp = |n: usize| (n as u64).min(left) as usize;
            buf.resize(clamp(EXTENT_HEADER), 0);
            data.read_exact(&mut buf)
                .map_err(|e| io_err("cannot read table data file", &path, e))?;
            let Some(len) = extent_len(&buf) else {
                break;
            };
            let head = buf.len();
            buf.resize(clamp(len), 0);
            data.read_exact(&mut buf[head..])
                .map_err(|e| io_err("cannot read table data file", &path, e))?;
            let decoded = match decode_extent(&buf)? {
                Some(d) if d.block_no == metas.len() as u64 => d,
                // Torn, corrupt, oversized or out-of-order extent: the
                // durable prefix ends here.
                _ => break,
            };
            let (block_no, len) = (decoded.block_no, decoded.len);
            // The block's one fold; every later fault reads it from `metas`.
            let block = decoded.fold();
            if block.rows() != COLUMN_BLOCK_ROWS {
                // Only full blocks are ever sealed.
                break;
            }
            metas.push(Arc::new(BlockMeta::describe(block_no, offset, len, &block)));
            offset += len as u64;
        }
        if offset < file_len {
            data.set_len(offset)
                .map_err(|e| io_err("cannot truncate table data file", &path, e))?;
        }

        let (wal, _base_row, records) = WalFile::open(wal_path(dir, table_id), table_id)?;
        let mut next = metas.len() * COLUMN_BLOCK_ROWS;
        let mut rows = Vec::new();
        for rec in records {
            // Records below the extent coverage are duplicates of sealed
            // rows (a crash between the extent fsync and the WAL rewrite);
            // records past the next expected row would leave a hole —
            // either way the durable epoch ends at the last contiguous row.
            if (rec.row_index as usize) < next {
                continue;
            }
            if rec.row_index as usize != next {
                break;
            }
            rows.push(Tuple::new(
                TupleId::base(table_id, rec.row_index),
                rec.values,
            ));
            next += 1;
        }

        Ok((
            TableStore {
                table_id,
                pool,
                inner: Mutex::new(StoreInner {
                    data,
                    data_path: path,
                    data_len: offset,
                    wal,
                    metas,
                }),
            },
            rows,
        ))
    }

    /// The id of the table this store backs.
    pub fn table_id(&self) -> u32 {
        self.table_id
    }

    /// The buffer pool this store faults blocks through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Appends one row to the WAL (buffered, unsynced — called from
    /// [`Table::insert`] under the row write lock).
    pub(crate) fn append_wal(&self, row_index: u64, values: &[Value]) -> Result<()> {
        self.inner.lock().wal.append(row_index, values)
    }

    /// The durable blocks as paged slots, in block order.
    pub(crate) fn durable_blocks(&self) -> Vec<BlockSlot> {
        let inner = self.inner.lock();
        inner.metas.iter().cloned().map(BlockSlot::Paged).collect()
    }

    /// Makes `sealed` — the table's next blocks after the durable ones —
    /// durable and returns their paged slots, following the seal-boundary
    /// protocol: WAL fsync → extent appends → data fsync → WAL rewrite to
    /// hold only `tail`, the rows past them.  Nothing is committed before
    /// the WAL rewrite succeeds: on an error the durable block count and
    /// data length stay as they were, so the table keeps the rows in its
    /// tail and its next seal retries, rewriting the same extents over any
    /// this attempt appended.  Every caller holds the table's write lock
    /// or runs at open, so one table never persists concurrently.
    pub(crate) fn persist(
        &self,
        sealed: &[Arc<SealedBlock>],
        tail: &[Tuple],
    ) -> Result<Vec<BlockSlot>> {
        let mut inner = self.inner.lock();
        let first = inner.metas.len();
        let mut offset = inner.data_len;
        let mut metas = Vec::with_capacity(sealed.len());
        if !sealed.is_empty() {
            // Rows about to leave the WAL's coverage must be durable *in
            // the WAL* before the extent exists — else a crash between here
            // and the rewrite could lose them.
            inner.wal.sync()?;
            for (k, block) in sealed.iter().enumerate() {
                let block_no = (first + k) as u64;
                let bytes = encode_extent(block_no, block);
                inner
                    .data
                    .seek(SeekFrom::Start(offset))
                    .and_then(|_| inner.data.write_all(&bytes))
                    .map_err(|e| io_err("cannot append extent", &inner.data_path, e))?;
                metas.push(Arc::new(BlockMeta::describe(
                    block_no,
                    offset,
                    bytes.len(),
                    block,
                )));
                offset += bytes.len() as u64;
            }
            inner
                .data
                .sync_all()
                .map_err(|e| io_err("cannot sync table data file", &inner.data_path, e))?;
        }
        let coverage = (first + sealed.len()) * COLUMN_BLOCK_ROWS;
        let tail: Vec<_> = tail
            .iter()
            .enumerate()
            .map(|(k, t)| ((coverage + k) as u64, t.values()))
            .collect();
        inner.wal.rewrite(coverage as u64, &tail)?;
        inner.data_len = offset;
        inner.metas.extend(metas.iter().cloned());
        drop(inner);
        Ok(sealed
            .iter()
            .zip(metas)
            .map(|(block, meta)| {
                // Write-through: the freshly sealed block is hot; admit it
                // so the next scan doesn't immediately fault it back in.
                let key = (self.table_id, meta.block_no);
                self.pool.insert(key, Arc::clone(block), meta.pages);
                BlockSlot::Paged(meta)
            })
            .collect())
    }

    /// Faults the block described by `meta` in through the buffer pool:
    /// pool hit → `(block, false)`; miss → read + CRC-check + decode the
    /// extent, pair its columns with `meta`'s zone metadata (no fold), admit
    /// it, `(block, true)`.
    pub(crate) fn fetch(&self, meta: &BlockMeta) -> Result<(Arc<SealedBlock>, bool)> {
        let key = (self.table_id, meta.block_no);
        if let Some(block) = self.pool.get(key) {
            return Ok((block, false));
        }
        let mut inner = self.inner.lock();
        // Re-check under the lock: a racing scan may have faulted it in.
        if let Some(block) = self.pool.get(key) {
            return Ok((block, false));
        }
        let mut buf = vec![0u8; meta.len];
        inner
            .data
            .seek(SeekFrom::Start(meta.offset))
            .and_then(|_| inner.data.read_exact(&mut buf))
            .map_err(|e| io_err("cannot read extent", &inner.data_path, e))?;
        drop(inner);
        let decoded = decode_extent(&buf)?.ok_or_else(|| {
            RankSqlError::Storage(format!(
                "extent {} of table {} failed its checksum",
                meta.block_no, self.table_id
            ))
        })?;
        let block = Arc::new(decoded.paired(meta).ok_or_else(|| {
            RankSqlError::Storage(format!(
                "extent {} of table {} does not match its metadata",
                meta.block_no, self.table_id
            ))
        })?);
        self.pool.insert(key, Arc::clone(&block), meta.pages);
        Ok((block, true))
    }
}

// ---------------------------------------------------------------------------
// PagedStore: the database directory.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct TableSpec {
    id: u32,
    name: String,
    schema: Schema,
}

/// A database directory of paged tables: the durable catalog plus one
/// [`TableStore`] per table, all sharing one [`BufferPool`].
///
/// Attach one to a [`Catalog`] (done by [`PagedStore::open`]) and every
/// subsequent `create_table` becomes durable: catalog file rewritten +
/// fsynced, data/WAL files created, the store attached to the new table so
/// its inserts follow the WAL protocol.
#[derive(Debug)]
pub struct PagedStore {
    dir: PathBuf,
    pool: Arc<BufferPool>,
    specs: Mutex<Vec<TableSpec>>,
}

impl PagedStore {
    /// Opens (or initialises) the database directory, recovers every
    /// table in the on-disk catalog into `catalog`, and attaches the store
    /// so future `create_table` calls are durable.
    pub fn open(
        dir: impl Into<PathBuf>,
        options: PagedOptions,
        catalog: &Catalog,
    ) -> Result<Arc<PagedStore>> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| io_err("cannot create database directory", &dir, e))?;
        let store = Arc::new(PagedStore {
            pool: Arc::new(BufferPool::new(options.pool_pages)),
            specs: Mutex::new(read_catalog_file(&dir)?),
            dir,
        });
        let specs = store.specs.lock().clone();
        for spec in &specs {
            let (ts, rows) = TableStore::open(&store.dir, spec.id, Arc::clone(&store.pool))?;
            let schema = spec.schema.clone();
            let table = Table::recovered(spec.id, &spec.name, schema, Arc::new(ts), rows)?;
            catalog.adopt_recovered(table)?;
        }
        catalog.attach_paged_store(Arc::clone(&store));
        Ok(store)
    }

    /// The shared buffer pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The database directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Page-size constant re-exported for pool sizing
    /// (`pool_pages = budget_bytes / PAGE_SIZE`).
    pub const PAGE_SIZE: usize = PAGE_SIZE;

    /// Makes a newly created table durable: creates its data/WAL files,
    /// attaches a [`TableStore`] to it, and atomically rewrites the
    /// catalog file.  Called by [`Catalog::create_table`] /
    /// [`Catalog::register_table`] when a store is attached.
    pub(crate) fn register_table(self: &Arc<Self>, table: &Table) -> Result<()> {
        let ts = Arc::new(TableStore::create(
            &self.dir,
            table.id(),
            Arc::clone(&self.pool),
        )?);
        table.attach_store(ts)?;
        let mut specs = self.specs.lock();
        specs.push(TableSpec {
            id: table.id(),
            name: table.name().to_owned(),
            schema: table.schema().clone(),
        });
        write_catalog_file(&self.dir, &specs)
    }

    /// Removes a dropped table's catalog entry and files (called by
    /// [`Catalog::drop_table`]), so it cannot resurrect at the next open.
    pub(crate) fn unregister_table(self: &Arc<Self>, table_id: u32) -> Result<()> {
        let mut specs = self.specs.lock();
        specs.retain(|s| s.id != table_id);
        write_catalog_file(&self.dir, &specs)?;
        let _ = std::fs::remove_file(data_path(&self.dir, table_id));
        let _ = std::fs::remove_file(wal_path(&self.dir, table_id));
        Ok(())
    }
}

fn catalog_path(dir: &Path) -> PathBuf {
    dir.join("catalog.rsql")
}

fn dtype_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Int64 => 0,
        DataType::Float64 => 1,
        DataType::Bool => 2,
        DataType::Utf8 => 3,
        DataType::Null => 4,
    }
}

fn dtype_from_tag(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Int64,
        1 => DataType::Float64,
        2 => DataType::Bool,
        3 => DataType::Utf8,
        4 => DataType::Null,
        _ => {
            return Err(RankSqlError::Storage(format!(
                "unknown data-type tag {tag} in catalog file"
            )))
        }
    })
}

fn write_catalog_file(dir: &Path, specs: &[TableSpec]) -> Result<()> {
    let mut payload = Vec::new();
    put_u32(&mut payload, specs.len() as u32);
    for spec in specs {
        put_u32(&mut payload, spec.id);
        put_str(&mut payload, &spec.name);
        put_u32(&mut payload, spec.schema.len() as u32);
        for field in spec.schema.fields() {
            match &field.relation {
                Some(rel) => {
                    payload.push(1);
                    put_str(&mut payload, rel);
                }
                None => payload.push(0),
            }
            put_str(&mut payload, &field.name);
            payload.push(dtype_tag(field.data_type));
        }
    }
    let mut out = Vec::with_capacity(12 + payload.len());
    put_u32(&mut out, CATALOG_MAGIC);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);

    // Atomic rewrite: side file + fsync + rename, like the WAL rewrite.
    let path = catalog_path(dir);
    let tmp = path.with_extension("rsql.new");
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)
            .map_err(|e| io_err("cannot create catalog file", &tmp, e))?;
        f.write_all(&out)
            .map_err(|e| io_err("cannot write catalog file", &tmp, e))?;
        f.sync_all()
            .map_err(|e| io_err("cannot sync catalog file", &tmp, e))?;
    }
    std::fs::rename(&tmp, &path).map_err(|e| io_err("cannot publish catalog file", &path, e))
}

fn read_catalog_file(dir: &Path) -> Result<Vec<TableSpec>> {
    let path = catalog_path(dir);
    let _ = std::fs::remove_file(path.with_extension("rsql.new"));
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err("cannot read catalog file", &path, e)),
    };
    let mut r = Reader::new(&bytes);
    if r.u32()? != CATALOG_MAGIC {
        return Err(RankSqlError::Storage(format!(
            "`{}` is not a RankSQL catalog file",
            path.display()
        )));
    }
    let payload_len = r.u32()? as usize;
    let want_crc = r.u32()?;
    if r.remaining() < payload_len {
        return Err(RankSqlError::Storage(format!(
            "catalog file `{}` is truncated",
            path.display()
        )));
    }
    let payload = &bytes[r.position()..r.position() + payload_len];
    if crc32(payload) != want_crc {
        return Err(RankSqlError::Storage(format!(
            "catalog file `{}` failed its checksum",
            path.display()
        )));
    }
    let mut pr = Reader::new(payload);
    let n_tables = pr.u32()? as usize;
    let mut specs = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        let id = pr.u32()?;
        let name = pr.str()?;
        let n_fields = pr.u32()? as usize;
        let mut fields = Vec::with_capacity(n_fields);
        for _ in 0..n_fields {
            let relation = match pr.u8()? {
                0 => None,
                _ => Some(pr.str()?),
            };
            let field_name = pr.str()?;
            let data_type = dtype_from_tag(pr.u8()?)?;
            fields.push(match relation {
                Some(rel) => Field::qualified(rel, field_name, data_type),
                None => Field::new(field_name, data_type),
            });
        }
        specs.push(TableSpec {
            id,
            name,
            schema: Schema::new(fields),
        });
    }
    Ok(specs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{ColumnKind, ColumnTable};
    use crate::page::PagedColumn;

    /// The sealed blocks of `t`'s current epoch.
    fn blocks(t: &Table) -> Arc<ColumnTable> {
        Arc::clone(t.pin_epoch().blocks())
    }

    /// The tuple at `row` of `t`'s current epoch.
    fn row_at(t: &Table, row: usize) -> Tuple {
        t.pin_epoch().tuples([row]).unwrap().remove(0)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ranksql_store_test_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("p", DataType::Float64),
            Field::new("s", DataType::Utf8),
        ])
    }

    fn row(i: i64) -> Vec<Value> {
        vec![
            Value::from(i),
            Value::from((i % 100) as f64 / 100.0),
            Value::from(format!("r{i}").as_str()),
        ]
    }

    #[test]
    fn create_insert_reopen_round_trips_across_the_seal_boundary() {
        let dir = temp_dir("roundtrip");
        let n = COLUMN_BLOCK_ROWS as i64 + 300;
        {
            let catalog = Catalog::new();
            PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
            let t = catalog.create_table("T", schema()).unwrap();
            for i in 0..n {
                t.insert(row(i)).unwrap();
            }
            // The sealed block is paged out; the tail is WAL-covered.
            assert_eq!(blocks(&t).paged_blocks(), 1);
        }
        let catalog = Catalog::new();
        PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
        let t = catalog.table("T").unwrap();
        assert_eq!(t.row_count(), n as usize);
        assert_eq!(t.schema().field(0).qualified_name(), "T.a");
        for i in [
            0,
            COLUMN_BLOCK_ROWS as i64 - 1,
            COLUMN_BLOCK_ROWS as i64,
            n - 1,
        ] {
            let tuple = row_at(&t, i as usize);
            assert_eq!(tuple.values(), &row(i)[..], "row {i}");
        }
        // The recovered block stays paged and reads back through the pool;
        // the replayed WAL rows are the tail.
        let epoch = t.pin_epoch();
        assert_eq!(epoch.tail().len(), 300);
        let c = epoch.blocks();
        assert_eq!(c.paged_blocks(), 1);
        let (block, _) = c.fetch_block(0).unwrap();
        assert_eq!(block.tuple(c.table_id(), 0, 5).values(), &row(5)[..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fetch_counts_faults_and_hits() {
        let dir = temp_dir("faults");
        let catalog = Catalog::new();
        let store = PagedStore::open(&dir, PagedOptions { pool_pages: 2048 }, &catalog).unwrap();
        let t = catalog.create_table("T", schema()).unwrap();
        for i in 0..(COLUMN_BLOCK_ROWS as i64 * 2) {
            t.insert(row(i)).unwrap();
        }
        let c = blocks(&t);
        assert_eq!(c.paged_blocks(), 2);
        // Write-through at seal time: the first fetch is a pool hit.
        let (_, faulted) = c.fetch_block(0).unwrap();
        assert!(!faulted);
        // A pool too small to hold anything forces real faults.
        let cold = Catalog::new();
        drop(store);
        drop(catalog);
        PagedStore::open(&dir, PagedOptions { pool_pages: 1 }, &cold).unwrap();
        let c = blocks(&cold.table("T").unwrap());
        let (b0, faulted) = c.fetch_block(0).unwrap();
        assert!(faulted, "cold pool must fault the extent in");
        assert_eq!(b0.rows(), COLUMN_BLOCK_ROWS);
        let (_, faulted) = c.fetch_block(1).unwrap();
        assert!(faulted);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn edge_schema() -> Schema {
        Schema::new(vec![
            Field::new("i", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("s", DataType::Utf8),
        ])
    }

    /// Rows that reach every edge of the zone and score folds: `Int64`
    /// negatives and both extremes, `Float64` NaN, ±∞, −0.0, values above 1
    /// and below 0, a generic text column.  Block 1 holds only negative
    /// integers and block 2 only NaN floats.
    fn edge_row(i: usize) -> Vec<Value> {
        const INTS: [i64; 6] = [i64::MIN, -7, 0, 1, 3, i64::MAX];
        const FLOATS: [f64; 8] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            1.5,
            -0.25,
            0.5,
        ];
        let (block, h) = (i / COLUMN_BLOCK_ROWS, i.wrapping_mul(2_654_435_761) >> 7);
        vec![
            Value::from(if block == 1 {
                -((h % 1000) as i64) - 1
            } else {
                INTS[h % 6]
            }),
            Value::from(if block == 2 { f64::NAN } else { FLOATS[h % 8] }),
            Value::from(format!("r{i}").as_str()),
        ]
    }

    /// One column's zone and score maximum, as bits.
    type ZoneBits = (Option<(u64, u64)>, Option<u64>);

    /// The bits of every column's zone and score maximum.
    fn zone_bits(b: &SealedBlock) -> Vec<ZoneBits> {
        (0..b.num_columns())
            .map(|c| {
                let zone = b.zone(c).map(|z| match z {
                    crate::ZoneEntry::Int64(lo, hi) => (lo as u64, hi as u64),
                    crate::ZoneEntry::Float64(lo, hi) => (lo.to_bits(), hi.to_bits()),
                });
                (zone, b.score_max(c).map(f64::to_bits))
            })
            .collect()
    }

    /// `b`'s columns with their zones folded afresh.
    fn refold(b: &SealedBlock) -> SealedBlock {
        decode_extent(&encode_extent(0, b)).unwrap().unwrap().fold()
    }

    #[test]
    fn faulted_and_recovered_blocks_carry_the_zones_of_a_refold() {
        let dir = temp_dir("zones");
        let n_blocks = 4;
        // A pool of one extent: every seal evicts the block before it.
        let options = PagedOptions { pool_pages: 2 };
        let sealed: Vec<_> = {
            let catalog = Catalog::new();
            PagedStore::open(&dir, options, &catalog).unwrap();
            let t = catalog.create_table("Z", edge_schema()).unwrap();
            for i in 0..n_blocks * COLUMN_BLOCK_ROWS {
                t.insert(edge_row(i)).unwrap();
            }
            let c = blocks(&t);
            assert_eq!(c.block_pages(0), options.pool_pages);
            (0..n_blocks)
                .map(|b| {
                    let (block, faulted) = c.fetch_block(b).unwrap();
                    assert!(faulted || b == n_blocks - 1, "block {b} was evicted");
                    assert_eq!(zone_bits(&block), zone_bits(&refold(&block)), "block {b}");
                    zone_bits(&block)
                })
                .collect()
        };
        let catalog = Catalog::new();
        PagedStore::open(&dir, options, &catalog).unwrap();
        let c = blocks(&catalog.table("Z").unwrap());
        assert_eq!(c.paged_blocks(), n_blocks);
        for (b, sealed) in sealed.iter().enumerate() {
            let (block, faulted) = c.fetch_block(b).unwrap();
            assert!(faulted);
            assert_eq!(
                &zone_bits(&block),
                sealed,
                "recovery folds what the seal folded"
            );
            assert_eq!(zone_bits(&block), zone_bits(&refold(&block)), "block {b}");
            // Pruning reads the same metadata the faulted block carries.
            for (col, (zone, score_max)) in sealed.iter().enumerate() {
                assert_eq!(c.zone(col, b).is_some(), zone.is_some());
                assert_eq!(c.score_zone_max(col, b).map(f64::to_bits), *score_max);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_fault_against_mismatched_metadata_fails_typed() {
        let dir = temp_dir("mismatch");
        {
            let catalog = Catalog::new();
            PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
            let t = catalog.create_table("T", edge_schema()).unwrap();
            for i in 0..COLUMN_BLOCK_ROWS {
                t.insert(edge_row(i)).unwrap();
            }
        }
        let catalog = Catalog::new();
        PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
        let c = blocks(&catalog.table("T").unwrap());
        let (Some(store), BlockSlot::Paged(meta)) = (&c.store, &c.blocks[0]) else {
            panic!("block 0 is paged");
        };
        let like = |columns: Vec<PagedColumn>, rows: usize, block_no: u64| BlockMeta {
            columns,
            rows,
            block_no,
            ..**meta
        };
        let mut swapped = meta.columns.clone();
        swapped[0].kind = ColumnKind::Float64;
        let bad = [
            like(swapped, meta.rows, meta.block_no),
            like(meta.columns[..2].to_vec(), meta.rows, meta.block_no),
            like(meta.columns.clone(), meta.rows - 1, meta.block_no),
            like(meta.columns.clone(), meta.rows, 1),
        ];
        for m in &bad {
            match store.fetch(m) {
                Err(RankSqlError::Storage(msg)) => assert!(msg.contains("metadata"), "{msg}"),
                other => panic!("expected a typed storage error, got {other:?}"),
            }
        }
        assert!(
            store.fetch(meta).unwrap().1,
            "the true metadata faults cleanly"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_extent_tail_is_truncated_and_wal_rows_survive() {
        let dir = temp_dir("torn");
        let n = COLUMN_BLOCK_ROWS as i64 + 50;
        {
            let catalog = Catalog::new();
            PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
            let t = catalog.create_table("T", schema()).unwrap();
            for i in 0..n {
                t.insert(row(i)).unwrap();
            }
        }
        // Corrupt the sealed extent's payload: the sealed block is lost,
        // and (the WAL having been rewritten past it) the durable epoch
        // ends at the truncation point.
        let data = data_path(&dir, 0);
        let mut bytes = std::fs::read(&data).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&data, &bytes).unwrap();
        let catalog = Catalog::new();
        PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
        let t = catalog.table("T").unwrap();
        assert_eq!(
            t.row_count(),
            0,
            "corrupt first extent leaves no contiguous durable prefix"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn extent_claiming_a_payload_past_eof_ends_the_durable_prefix() {
        let dir = temp_dir("oversized");
        let n = 2 * COLUMN_BLOCK_ROWS as i64 + 50;
        {
            let catalog = Catalog::new();
            PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
            let t = catalog.create_table("T", schema()).unwrap();
            for i in 0..n {
                t.insert(row(i)).unwrap();
            }
            assert_eq!(blocks(&t).paged_blocks(), 2);
        }
        // Make the last extent's header claim a payload far past the end
        // of the file.
        let data = data_path(&dir, 0);
        let mut bytes = std::fs::read(&data).unwrap();
        let first_len = extent_len(&bytes).unwrap();
        let payload_len_at = first_len + 4 + 8 + 4 + 4;
        bytes[payload_len_at..payload_len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&data, &bytes).unwrap();

        let catalog = Catalog::new();
        PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
        let t = catalog.table("T").unwrap();
        // The WAL holds only rows past the second extent, so the durable
        // epoch ends with the first.
        assert_eq!(t.row_count(), COLUMN_BLOCK_ROWS);
        for i in [0, COLUMN_BLOCK_ROWS as i64 - 1] {
            assert_eq!(row_at(&t, i as usize).values(), &row(i)[..], "row {i}");
        }
        let truncated = std::fs::metadata(&data).unwrap().len();
        assert_eq!(truncated, first_len as u64, "truncated at the first extent");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn catalog_file_round_trips_qualified_schemas() {
        let dir = temp_dir("catalog");
        {
            let catalog = Catalog::new();
            PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
            catalog.create_table("A", schema()).unwrap();
            catalog.create_table("B", schema()).unwrap();
        }
        let catalog = Catalog::new();
        PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
        assert_eq!(catalog.table_names(), vec!["A".to_owned(), "B".to_owned()]);
        assert_eq!(catalog.table("B").unwrap().id(), 1);
        // Ids keep advancing past recovered tables.
        assert_eq!(catalog.create_table("C", schema()).unwrap().id(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn register_prebuilt_table_becomes_durable() {
        let dir = temp_dir("register");
        {
            let catalog = Catalog::new();
            PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
            let prebuilt = crate::table::TableBuilder::new("W", schema().qualify_all("W"))
                .rows((0..10).map(row))
                .build(0)
                .unwrap();
            catalog.register_table(prebuilt).unwrap();
        }
        let catalog = Catalog::new();
        PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
        let t = catalog.table("W").unwrap();
        assert_eq!(t.row_count(), 10, "pre-attach rows reach the WAL");
        assert_eq!(row_at(&t, 9).values(), &row(9)[..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Asserts the one-copy invariant: fewer than a block of rows in the
    /// tail, and blocks plus tail are the table.
    fn assert_short_tail(t: &Table) {
        let epoch = t.pin_epoch();
        assert!(
            epoch.tail().len() < COLUMN_BLOCK_ROWS,
            "{}",
            epoch.tail().len()
        );
        assert_eq!(
            epoch.blocks().row_count() + epoch.tail().len(),
            t.row_count()
        );
    }

    #[test]
    fn the_tail_stays_under_a_block_after_recovery_and_every_seal() {
        let dir = temp_dir("short_tail");
        let n = 3 * COLUMN_BLOCK_ROWS as i64 + 7;
        {
            let catalog = Catalog::new();
            PagedStore::open(&dir, PagedOptions { pool_pages: 2 }, &catalog).unwrap();
            let t = catalog.create_table("T", schema()).unwrap();
            for i in 0..n {
                t.insert(row(i)).unwrap();
                if t.row_count() % COLUMN_BLOCK_ROWS == 0 {
                    assert_short_tail(&t);
                    assert_eq!(t.pin_epoch().tail().len(), 0);
                }
            }
        }
        let catalog = Catalog::new();
        PagedStore::open(&dir, PagedOptions { pool_pages: 2 }, &catalog).unwrap();
        let t = catalog.table("T").unwrap();
        assert_short_tail(&t);
        assert_eq!(blocks(&t).paged_blocks(), 3);
        let want: Vec<Vec<Value>> = (0..n).map(row).collect();
        let got: Vec<Vec<Value>> = t.scan().iter().map(|t| t.values().to_vec()).collect();
        assert_eq!(got, want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_persist_leaves_a_longer_tail_and_the_next_seal_retries() {
        let dir = temp_dir("retry");
        let moved = dir.with_extension("moved");
        let _ = std::fs::remove_dir_all(&moved);
        let last = COLUMN_BLOCK_ROWS as i64 - 1;
        let catalog = Catalog::new();
        PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
        let t = catalog.create_table("T", schema()).unwrap();
        for i in 0..last {
            t.insert(row(i)).unwrap();
        }
        // With the directory moved away the seal's WAL rewrite cannot
        // create its side file, so the persist fails before committing.
        std::fs::rename(&dir, &moved).unwrap();
        assert!(matches!(t.insert(row(last)), Err(RankSqlError::Storage(_))));
        let epoch = t.pin_epoch();
        assert_eq!(epoch.blocks().num_blocks(), 0);
        assert_eq!(epoch.tail().len(), COLUMN_BLOCK_ROWS, "the row is in");
        std::fs::rename(&moved, &dir).unwrap();
        // The next insert's seal retries and lands both blocks' worth.
        t.insert(row(last + 1)).unwrap();
        assert_short_tail(&t);
        assert_eq!(blocks(&t).paged_blocks(), 1);
        drop((t, catalog));
        let catalog = Catalog::new();
        PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
        let t = catalog.table("T").unwrap();
        assert_eq!(t.row_count(), COLUMN_BLOCK_ROWS + 1);
        assert_short_tail(&t);
        assert_eq!(row_at(&t, COLUMN_BLOCK_ROWS).values(), &row(last + 1)[..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_seals_a_wal_that_outgrew_a_block() {
        let dir = temp_dir("long_wal");
        let moved = dir.with_extension("moved");
        let _ = std::fs::remove_dir_all(&moved);
        let n = COLUMN_BLOCK_ROWS as i64 + 20;
        {
            let catalog = Catalog::new();
            PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
            let t = catalog.create_table("T", schema()).unwrap();
            std::fs::rename(&dir, &moved).unwrap();
            for i in 0..n {
                // Every seal fails: the WAL keeps every row.
                let _ = t.insert(row(i));
            }
            assert_eq!(t.pin_epoch().tail().len(), n as usize);
            std::fs::rename(&moved, &dir).unwrap();
        }
        // Drop the extents the failed attempts wrote: only the WAL is left.
        std::fs::write(data_path(&dir, 0), b"").unwrap();
        let catalog = Catalog::new();
        PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
        let t = catalog.table("T").unwrap();
        assert_eq!(t.row_count(), n as usize);
        assert_short_tail(&t);
        assert_eq!(blocks(&t).paged_blocks(), 1, "sealed and persisted at open");
        let got: Vec<Vec<Value>> = t.scan().iter().map(|t| t.values().to_vec()).collect();
        assert_eq!(got, (0..n).map(row).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
