//! The paged table store and crash recovery.
//!
//! A [`PagedStore`] is a database directory:
//!
//! ```text
//! <dir>/catalog.rsql   table specs (id, name, schema), CRC-guarded,
//!                      rewritten atomically on every CREATE TABLE
//! <dir>/t<id>.dat      per-table data file: page-aligned block extents
//! <dir>/t<id>.wal      per-table write-ahead log (rows past the last
//!                      checkpoint)
//! ```
//!
//! Each table's [`TableStore`] owns the data file + WAL pair and drives the
//! durability protocol, anchored on the epoch ordinal (the row-count
//! watermark) as the LSN:
//!
//! 1. an insert appends one WAL record per row, with one `write` per
//!    segment (the rows up to the next seal boundary), **no fsync**;
//! 2. at each 1024-row seal boundary: fsync the WAL (rows now durable —
//!    the seal's one fsync) → append the sealed block's extent(s) to the
//!    data file, unsynced → the table publishes the block as a paged slot
//!    ([`crate::column`]'s `BlockSlot::Paged`), and the block itself
//!    enters the buffer pool (write-through);
//! 3. once `CHECKPOINT_BLOCKS` blocks were appended since the last
//!    checkpoint, that seal also checkpoints: fsync the data file →
//!    atomically rewrite the WAL to hold only the rows past the extents,
//!    from a `base_row` at their end.  Until then the WAL keeps every row
//!    since the last checkpoint, so it covers the unsynced extents too;
//! 4. recovery ([`PagedStore::open`]) trusts only the extents below the
//!    WAL's `base_row`, which is written after the data fsync: it
//!    CRC-decodes those, cuts the rest unread, re-seals the log's rows as
//!    they stream by (keeping only the sub-block tail in RAM) and
//!    checkpoints, landing exactly on the last durable epoch.  A row-index
//!    hole or a record of another arity ends the replay; a lost
//!    checkpointed extent ends the durable prefix, and the log restarts
//!    there.
//!
//! The store is fail-stop: a WAL append that cannot be rolled back, or a
//! failed WAL fsync, extent write, data fsync or WAL rewrite, *poisons*
//! it, and it refuses every insert until a reopen.  Nothing is retried:
//! the kernel reports a writeback error to one fsync only.
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
use ranksql_common::{DataType, Field, RankSqlError, Result, Schema, Tuple, TupleId};

use crate::buffer::BufferPool;
use crate::catalog::Catalog;
use crate::column::{BlockSlot, SealedBlock, COLUMN_BLOCK_ROWS};
use crate::page::{
    crc32, decode_extent, encode_extent, extent_len, put_str, put_u32, BlockMeta, Reader,
    EXTENT_HEADER, PAGE_SIZE,
};
use crate::table::Table;
use crate::wal::{sync_dir, WalFile};

/// Magic number opening the catalog file (`"RqCt"`).
const CATALOG_MAGIC: u32 = 0x5271_4374;

/// Blocks a table seals between two checkpoints.  A checkpoint costs three
/// fsyncs (the data file, the rewritten WAL, its directory); every 64
/// blocks they add ≈ 5 % to the seal's one, and the WAL holds at most 64
/// blocks of rows.
pub(crate) const CHECKPOINT_BLOCKS: usize = 64;

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
    data: DataFile,
    wal: WalFile,
    /// Extents appended since the last checkpoint (not yet fsynced; the
    /// WAL still holds their rows).
    unsynced: usize,
    /// The failure that poisoned the store: from then on every insert is
    /// refused, until a reopen recovers from what reached the disk.
    poisoned: Option<String>,
    /// Data-file fsyncs, for the tests that count them.
    #[cfg(test)]
    data_syncs: usize,
}

/// A table's data file and the metadata of every extent in it, in block
/// order: `metas.len()` is the durable block count.
#[derive(Debug)]
struct DataFile {
    file: File,
    path: PathBuf,
    len: u64,
    metas: Vec<Arc<BlockMeta>>,
}

impl DataFile {
    /// Appends `block`'s extent as the next block, unsynced.
    fn append(&mut self, block: &SealedBlock) -> Result<Arc<BlockMeta>> {
        let block_no = self.metas.len() as u64;
        let bytes = encode_extent(block_no, block);
        self.file
            .seek(SeekFrom::Start(self.len))
            .and_then(|_| self.file.write_all(&bytes))
            .map_err(|e| io_err("cannot append extent", &self.path, e))?;
        let meta = Arc::new(BlockMeta::describe(block_no, self.len, bytes.len(), block));
        self.len += bytes.len() as u64;
        self.metas.push(Arc::clone(&meta));
        Ok(meta)
    }
}

impl StoreInner {
    /// Records `e` as the failure that poisoned the store, and returns it.
    fn poison(&mut self, e: RankSqlError) -> RankSqlError {
        self.poisoned = Some(e.message().to_owned());
        e
    }

    /// A seal's disk half: fsyncs the WAL, appends one extent per block,
    /// and checkpoints once `CHECKPOINT_BLOCKS` extents are unsynced.
    /// Returns the new blocks' metadata.
    fn persist(&mut self, sealed: &[Arc<SealedBlock>]) -> Result<Vec<Arc<BlockMeta>>> {
        // The sealed rows must be durable *in the WAL* before their extent
        // exists: until a checkpoint syncs it, recovery rebuilds the extent
        // from the log.
        self.wal.sync()?;
        let metas = sealed.iter().map(|block| self.data.append(block));
        let metas = metas.collect::<Result<Vec<_>>>()?;
        self.unsynced += sealed.len();
        if self.unsynced >= CHECKPOINT_BLOCKS {
            // A seal leaves no row past its block.
            self.checkpoint(&[])?;
        }
        Ok(metas)
    }

    /// The checkpoint: fsyncs the data file, then atomically rewrites the
    /// WAL to hold only `tail`, the rows past the extents, from a
    /// `base_row` at their end.
    fn checkpoint(&mut self, tail: &[Tuple]) -> Result<()> {
        #[cfg(test)]
        {
            self.data_syncs += 1;
        }
        let data = &mut self.data;
        data.file
            .sync_all()
            .map_err(|e| io_err("cannot sync table data file", &data.path, e))?;
        let coverage = (data.metas.len() * COLUMN_BLOCK_ROWS) as u64;
        self.wal.rewrite(coverage, tail)?;
        self.unsynced = 0;
        Ok(())
    }
}

fn data_path(dir: &Path, table_id: u32) -> PathBuf {
    dir.join(format!("t{table_id}.dat"))
}

fn wal_path(dir: &Path, table_id: u32) -> PathBuf {
    dir.join(format!("t{table_id}.wal"))
}

impl TableStore {
    fn new(table_id: u32, pool: Arc<BufferPool>, data: DataFile, wal: WalFile) -> TableStore {
        let inner = StoreInner {
            data,
            wal,
            unsynced: 0,
            poisoned: None,
            #[cfg(test)]
            data_syncs: 0,
        };
        TableStore {
            table_id,
            pool,
            inner: Mutex::new(inner),
        }
    }

    /// Creates fresh (empty) files for a new table.
    fn create(dir: &Path, table_id: u32, pool: Arc<BufferPool>) -> Result<TableStore> {
        let path = data_path(dir, table_id);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err("cannot create table data file", &path, e))?;
        let wal = WalFile::create(wal_path(dir, table_id), table_id)?;
        let data = DataFile {
            file,
            path,
            len: 0,
            metas: Vec::new(),
        };
        Ok(TableStore::new(table_id, pool, data, wal))
    }

    /// Opens and recovers one table of `arity` columns (the module docs'
    /// step 4) and returns the store plus the tail, the replayed rows past
    /// the last full block.  The extents' rows stay on disk.
    fn open(
        dir: &Path,
        table_id: u32,
        arity: usize,
        pool: Arc<BufferPool>,
    ) -> Result<(TableStore, Vec<Tuple>)> {
        let path = data_path(dir, table_id);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            // Existing bytes are the durable prefix we recover from.
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("cannot open table data file", &path, e))?;
        let file_len = file
            .metadata()
            .map_err(|e| io_err("cannot stat table data file", &path, e))?
            .len();
        let log = wal_path(dir, table_id);
        let (mut wal, base_row) = match WalFile::open(log.clone(), table_id)? {
            Some(opened) => opened,
            // `create` and `rewrite` fsync a log's header before its
            // directory entry is durable, so no crash leaves a log without
            // one; read as `base_row` 0, it would drop checkpointed extents.
            None if file_len > 0 => {
                return Err(RankSqlError::Storage(format!(
                    "WAL `{}` is missing or its header is torn, beside a non-empty data file",
                    log.display()
                )))
            }
            None => (WalFile::create(log, table_id)?, 0),
        };

        // Stream the checkpointed extents through one reused buffer: each
        // header sizes its extent, and no read reaches past the end of the
        // file.
        let checkpointed = base_row / COLUMN_BLOCK_ROWS as u64;
        let mut metas = Vec::new();
        let mut buf = Vec::new();
        let mut offset = 0u64;
        while offset < file_len && (metas.len() as u64) < checkpointed {
            let left = file_len - offset;
            let clamp = |n: usize| (n as u64).min(left) as usize;
            buf.resize(clamp(EXTENT_HEADER), 0);
            file.read_exact(&mut buf)
                .map_err(|e| io_err("cannot read table data file", &path, e))?;
            let Some(len) = extent_len(&buf) else {
                break;
            };
            let head = buf.len();
            buf.resize(clamp(len), 0);
            file.read_exact(&mut buf[head..])
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
        // No fsync vouched for the extents past the checkpoint: cut them
        // unread.
        file.set_len(offset)
            .map_err(|e| io_err("cannot truncate table data file", &path, e))?;

        // The log's rows follow the checkpointed extents, unless one of
        // them was lost: then the durable prefix ends at that hole, and
        // the checkpoint below restarts the log there.  Each full block of
        // rows is sealed as it streams by, into the extent its first seal
        // wrote.
        let mut data = DataFile {
            file,
            path,
            len: offset,
            metas,
        };
        let mut tail = Vec::new();
        if (data.metas.len() * COLUMN_BLOCK_ROWS) as u64 == base_row {
            wal.replay(base_row, |rec| {
                if rec.values.len() != arity {
                    return Ok(false);
                }
                let id = TupleId::base(table_id, rec.row_index);
                tail.push(Tuple::new(id, rec.values));
                if tail.len() == COLUMN_BLOCK_ROWS {
                    data.append(&SealedBlock::seal(&tail, arity))?;
                    tail.clear();
                }
                Ok(true)
            })?;
        }
        let store = TableStore::new(table_id, pool, data, wal);
        store.inner.lock().checkpoint(&tail)?;
        Ok((store, tail))
    }

    /// The id of the table this store backs.
    pub fn table_id(&self) -> u32 {
        self.table_id
    }

    /// The buffer pool this store faults blocks through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Appends one segment to the WAL, row `first_row + i` holding
    /// `rows[i]`'s values (one write, unsynced — called from
    /// [`Table::insert_batch`] under the table's write lock).  A poisoned
    /// store refuses it and writes nothing.  A failed write is rolled back,
    /// so the log holds no part of the segment; a log that cannot be
    /// rolled back may end in a torn record, and poisons the store.
    pub(crate) fn append_wal(&self, first_row: u64, rows: &[Tuple]) -> Result<()> {
        let mut inner = self.inner.lock();
        if let Some(cause) = &inner.poisoned {
            return Err(RankSqlError::Storage(format!(
                "table {} refuses writes until a reopen: {cause}",
                self.table_id
            )));
        }
        let Err(e) = inner.wal.append(first_row, rows) else {
            return Ok(());
        };
        match inner.wal.roll_back() {
            Ok(()) => Err(e),
            Err(undo) => Err(inner.poison(RankSqlError::Storage(format!(
                "{}; rolling it back failed: {undo}",
                e.message()
            )))),
        }
    }

    /// Checkpoints now: fsyncs the data file and rewrites the WAL to hold
    /// only `tail`, the rows past the extents.  A table attached with rows
    /// of its own calls it, since its fresh log holds none of them.  A
    /// failure poisons the store.
    pub(crate) fn checkpoint(&self, tail: &[Tuple]) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.checkpoint(tail).map_err(|e| inner.poison(e))
    }

    /// The durable blocks as paged slots, in block order.
    pub(crate) fn durable_blocks(&self) -> Vec<BlockSlot> {
        let inner = self.inner.lock();
        let metas = inner.data.metas.iter().cloned();
        metas.map(BlockSlot::Paged).collect()
    }

    /// Makes `sealed` — the table's next blocks after the durable ones —
    /// durable and returns their paged slots, following the seal-boundary
    /// protocol: WAL fsync (the durability point) → extent appends, no
    /// fsync → every `CHECKPOINT_BLOCKS` extents, a checkpoint.  Any
    /// failure poisons the store, and nothing is retried: the rows stay in
    /// the table's tail, and the WAL holds them as far as its last fsync.
    /// Every caller holds the table's write lock, so one table never
    /// persists concurrently.
    pub(crate) fn persist(&self, sealed: &[Arc<SealedBlock>]) -> Result<Vec<BlockSlot>> {
        let mut inner = self.inner.lock();
        let metas = inner.persist(sealed).map_err(|e| inner.poison(e))?;
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
        let data = &mut inner.data;
        data.file
            .seek(SeekFrom::Start(meta.offset))
            .and_then(|_| data.file.read_exact(&mut buf))
            .map_err(|e| io_err("cannot read extent", &data.path, e))?;
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
            let arity = spec.schema.len();
            let (ts, rows) = TableStore::open(&store.dir, spec.id, arity, Arc::clone(&store.pool))?;
            let schema = spec.schema.clone();
            let table = Table::recovered(spec.id, &spec.name, schema, Arc::new(ts), rows);
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
    std::fs::rename(&tmp, &path).map_err(|e| io_err("cannot publish catalog file", &path, e))?;
    // Makes the rename durable, and with it the creation of any table's
    // data and WAL files before it.
    sync_dir(&path)
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
    use ranksql_common::Value;

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
    fn a_corrupt_unsynced_extent_is_truncated_and_rebuilt_from_the_wal() {
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
        // Corrupt the sealed extent's payload: the extent prefix is empty,
        // and the WAL — not yet checkpointed — still holds every row.
        let data = data_path(&dir, 0);
        let pristine = std::fs::read(&data).unwrap();
        let mut bytes = pristine.clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&data, &bytes).unwrap();
        let catalog = Catalog::new();
        PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
        let t = catalog.table("T").unwrap();
        assert_eq!(t.row_count(), n as usize);
        assert_eq!(t.scan().len(), n as usize);
        assert_eq!(blocks(&t).paged_blocks(), 1, "re-sealed at open");
        assert_eq!(std::fs::read(&data).unwrap(), pristine, "the same extent");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The store behind paged table `t`.
    fn store_of(t: &Table) -> Arc<TableStore> {
        Arc::clone(blocks(t).store.as_ref().unwrap())
    }

    /// The values of every row of `t`, in row order.
    fn values(t: &Table) -> Vec<Vec<Value>> {
        t.scan().iter().map(|t| t.values().to_vec()).collect()
    }

    #[test]
    fn an_extent_claiming_a_payload_past_eof_ends_the_extent_prefix() {
        let dir = temp_dir("oversized");
        let n = CHECKPOINT_BLOCKS * COLUMN_BLOCK_ROWS + 50;
        {
            let catalog = Catalog::new();
            PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
            let t = catalog.create_table("T", schema()).unwrap();
            t.insert_batch((0..n as i64).map(row)).unwrap();
            assert_eq!(store_of(&t).inner.lock().unsynced, 0, "all checkpointed");
        }
        // Make the second extent's header, which the checkpoint synced,
        // claim a payload far past the end of the file.
        let data = data_path(&dir, 0);
        let mut bytes = std::fs::read(&data).unwrap();
        let first_len = extent_len(&bytes).unwrap();
        let payload_len_at = first_len + 4 + 8 + 4 + 4;
        bytes[payload_len_at..payload_len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&data, &bytes).unwrap();

        // Open the store alone: the extent prefix ends with the first
        // extent and the file is cut there.  The log's rows start past the
        // hole, so none is replayed, and the log restarts at the hole.
        let (store, rows) = TableStore::open(&dir, 0, 3, Arc::new(BufferPool::new(64))).unwrap();
        assert_eq!(store.durable_blocks().len(), 1);
        let truncated = std::fs::metadata(&data).unwrap().len();
        assert_eq!(truncated, first_len as u64, "truncated at the first extent");
        assert!(rows.is_empty());
        drop(store);
        let catalog = Catalog::new();
        PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
        let t = catalog.table("T").unwrap();
        assert_eq!(
            values(&t),
            (0..COLUMN_BLOCK_ROWS as i64).map(row).collect::<Vec<_>>()
        );
        assert_eq!(top10(&t), top10(&twin(COLUMN_BLOCK_ROWS)));
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

    /// One WAL write per segment: a block-aligned 1024-row batch is one,
    /// and of `ingest-paged`'s four 256-row batches from 320 rows past a
    /// boundary only the one crossing the seal makes two — five a cycle,
    /// where a write per row made 1 024.
    #[test]
    fn an_insert_batch_writes_the_wal_once_per_segment() {
        let dir = temp_dir("writes");
        let catalog = Catalog::new();
        PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
        let t = catalog.create_table("T", schema()).unwrap();
        let store = Arc::clone(blocks(&t).store.as_ref().unwrap());
        let writes = |rows: std::ops::Range<i64>| {
            let before = store.inner.lock().wal.writes;
            t.insert_batch(rows.map(row)).unwrap();
            store.inner.lock().wal.writes - before
        };
        assert_eq!(writes(0..1024), 1);
        assert_eq!(writes(1024..1344), 1);
        let cycle: Vec<usize> = (0..4)
            .map(|b| writes(1344 + 256 * b..1600 + 256 * b))
            .collect();
        assert_eq!(cycle, vec![1, 1, 2, 1]);
        assert_eq!(t.row_count(), 2368);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The fsyncs of one store: the WAL's, the data file's, and the WAL
    /// rewrites.
    fn syncs(store: &TableStore) -> (usize, usize, usize) {
        let inner = store.inner.lock();
        (inner.wal.syncs, inner.data_syncs, inner.wal.rewrites)
    }

    /// A seal costs one fsync, the WAL's; every `CHECKPOINT_BLOCKS`th
    /// seal adds the checkpoint's data fsync and WAL rewrite.
    #[test]
    fn sixty_four_seals_cost_sixty_four_wal_fsyncs_and_one_checkpoint() {
        let dir = temp_dir("fsyncs");
        let catalog = Catalog::new();
        PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
        let t = catalog.create_table("T", schema()).unwrap();
        let store = Arc::clone(blocks(&t).store.as_ref().unwrap());
        assert_eq!(syncs(&store), (0, 0, 0), "an empty table attaches free");
        let block = |b: i64| (b * 1024..(b + 1) * 1024).map(row);
        for b in 0..CHECKPOINT_BLOCKS as i64 - 1 {
            t.insert_batch(block(b)).unwrap();
        }
        assert_eq!(syncs(&store), (CHECKPOINT_BLOCKS - 1, 0, 0));
        t.insert_batch(block(CHECKPOINT_BLOCKS as i64 - 1)).unwrap();
        assert_eq!(syncs(&store), (CHECKPOINT_BLOCKS, 1, 1));
        assert_eq!(blocks(&t).paged_blocks(), CHECKPOINT_BLOCKS);
        // The checkpoint left the WAL its header alone.
        let wal = std::fs::metadata(wal_path(&dir, t.id())).unwrap();
        assert_eq!(wal.len(), 16);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `t`'s ten best rows by `p`, ties broken by row id: what a top-10
    /// over the table must answer.
    fn top10(t: &Table) -> Vec<Tuple> {
        let mut rows = t.scan();
        let p = |t: &Tuple| t.value(1).as_f64().unwrap();
        rows.sort_by(|a, b| p(b).total_cmp(&p(a)).then_with(|| a.id().cmp(b.id())));
        rows.truncate(10);
        rows
    }

    /// An in-memory table holding rows `0..n`.
    fn twin(n: usize) -> Table {
        let twin = Table::new(0, "T", schema());
        twin.insert_batch((0..n as i64).map(row)).unwrap();
        twin
    }

    /// A power loss may drop or tear the extents appended since the last
    /// checkpoint: the WAL still holds their rows, and recovery replays
    /// them.  A lost *checkpointed* extent ends the durable prefix, and the
    /// log restarts at it so later inserts survive.
    #[test]
    fn extents_lost_past_a_checkpoint_are_replayed_from_the_wal() {
        let dir = temp_dir("lost_extents");
        let n = (CHECKPOINT_BLOCKS + 3) * COLUMN_BLOCK_ROWS + 100;
        let (files, offsets) = {
            let catalog = Catalog::new();
            PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
            let t = catalog.create_table("T", schema()).unwrap();
            t.insert_batch((0..n as i64).map(row)).unwrap();
            let store = Arc::clone(blocks(&t).store.as_ref().unwrap());
            let inner = store.inner.lock();
            assert_eq!(inner.unsynced, 3, "three extents past the checkpoint");
            let offsets: Vec<usize> = inner.data.metas.iter().map(|m| m.offset as usize).collect();
            let files: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| {
                    let path = e.unwrap().path();
                    let bytes = std::fs::read(&path).unwrap();
                    (path, bytes)
                })
                .collect();
            (files, offsets)
        };
        let full = twin(n);
        let checkpointed = offsets[CHECKPOINT_BLOCKS];
        let torn = (offsets[CHECKPOINT_BLOCKS + 1] + offsets[CHECKPOINT_BLOCKS + 2]) / 2;
        let data = data_path(&dir, 0);
        for cut in [checkpointed, torn] {
            for (path, bytes) in &files {
                let bytes = if *path == data { &bytes[..cut] } else { bytes };
                std::fs::write(path, bytes).unwrap();
            }
            let catalog = Catalog::new();
            PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
            let t = catalog.table("T").unwrap();
            assert_eq!(t.row_count(), n, "cut at {cut}");
            assert_eq!(top10(&t), top10(&full), "cut at {cut}");
            assert_eq!(blocks(&t).paged_blocks(), CHECKPOINT_BLOCKS + 3);
            let got = t.scan().into_iter().map(|t| t.values().to_vec());
            assert!(got.eq((0..n as i64).map(row)), "cut at {cut}");
        }

        // Corrupt extent 10, which the checkpoint synced.
        for (path, bytes) in &files {
            let mut bytes = bytes.clone();
            if *path == data {
                bytes[offsets[10] + 64] ^= 0xFF;
            }
            std::fs::write(path, bytes).unwrap();
        }
        let prefix = 10 * COLUMN_BLOCK_ROWS;
        {
            let catalog = Catalog::new();
            PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
            let t = catalog.table("T").unwrap();
            assert_eq!(t.row_count(), prefix);
            assert_eq!(top10(&t), top10(&twin(prefix)));
            t.insert(row(prefix as i64)).unwrap();
        }
        let catalog = Catalog::new();
        PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
        let t = catalog.table("T").unwrap();
        assert_eq!(t.row_count(), prefix + 1, "the insert after recovery");
        assert_eq!(top10(&t), top10(&twin(prefix + 1)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Length and CRC-32 of the data file and of the WAL after a fixed
    /// sequence of single-row and batched inserts: a seal inside a batch,
    /// a batch stopped by a bad-arity row and a partial last block.
    /// Captured with the row-at-a-time write path; the on-disk bytes do
    /// not depend on how the rows were grouped into writes.  No checkpoint
    /// has run, so the WAL holds all 2 150 rows from `base_row` 0; a
    /// checkpoint cuts it to the 102 past the extents, the bytes a seal
    /// wrote when every seal rewrote the log.
    #[test]
    fn insert_sequences_write_the_golden_bytes() {
        let dir = temp_dir("golden_bytes");
        let catalog = Catalog::new();
        PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
        let t = catalog.create_table("T", schema()).unwrap();
        for i in 0..300 {
            t.insert(row(i)).unwrap();
        }
        // Seals at row 1024, inside the batch.
        assert_eq!(t.insert_batch((300..1100).map(row)).unwrap(), 800);
        t.insert(row(1100)).unwrap();
        // Crosses row 2048; the bad row stops the batch at row 2100.
        let bad = (1101..2100).map(row).chain([vec![Value::from(0)]]);
        assert!(t.insert_batch(bad.chain((2100..2200).map(row))).is_err());
        assert_eq!(t.row_count(), 2100);
        assert_eq!(t.insert_batch((2100..2150).map(row)).unwrap(), 50);
        let digest = |p: PathBuf| {
            let bytes = std::fs::read(p).unwrap();
            (bytes.len(), crc32(&bytes))
        };
        assert_eq!(
            (
                digest(data_path(&dir, t.id())),
                digest(wal_path(&dir, t.id()))
            ),
            ((65_536, 0xebff_3742), (102_106, 0xad7d_2b5c)),
        );
        let tail = t.pin_epoch().tail().to_vec();
        store_of(&t).inner.lock().checkpoint(&tail).unwrap();
        assert_eq!(digest(wal_path(&dir, t.id())), (4_912, 0xaf49_4386));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Recovery cuts every extent past the checkpoint unread and seals the
    /// log's rows again as they stream by, into the very bytes the first
    /// seals wrote; it ends with no unsynced extent and a log holding only
    /// the tail.
    #[test]
    fn recovery_reseals_the_rows_past_the_checkpoint_byte_for_byte() {
        let dir = temp_dir("reseal");
        let n = 3 * COLUMN_BLOCK_ROWS + 20;
        {
            let catalog = Catalog::new();
            PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
            let t = catalog.create_table("T", schema()).unwrap();
            t.insert_batch((0..n as i64).map(row)).unwrap();
        }
        let data = data_path(&dir, 0);
        let pristine = std::fs::read(&data).unwrap();
        // Lose every extent: only the WAL is left.
        std::fs::write(&data, b"").unwrap();
        let catalog = Catalog::new();
        PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
        let t = catalog.table("T").unwrap();
        assert_eq!(std::fs::read(&data).unwrap(), pristine);
        assert_eq!(blocks(&t).paged_blocks(), 3, "sealed and persisted at open");
        assert_short_tail(&t);
        assert_eq!(values(&t), (0..n as i64).map(row).collect::<Vec<_>>());
        let store = store_of(&t);
        let (wal, base_row) = {
            let inner = store.inner.lock();
            assert_eq!(
                (inner.unsynced, inner.data_syncs, inner.wal.rewrites),
                (0, 1, 1)
            );
            WalFile::open(wal_path(&dir, 0), 0).unwrap().unwrap()
        };
        assert_eq!(base_row, 3 * COLUMN_BLOCK_ROWS as u64);
        let mut replayed = 0;
        let mut wal = wal;
        wal.replay(base_row, |_| {
            replayed += 1;
            Ok(true)
        })
        .unwrap();
        assert_eq!(replayed, 20, "the log holds only the tail");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A log without a header beside extents fails the open typed: no
    /// crash leaves one, and read as `base_row` 0 it would drop the
    /// checkpointed extents.  Beside an empty data file it starts afresh.
    #[test]
    fn a_headless_wal_beside_extents_fails_the_open_typed() {
        let dir = temp_dir("headless");
        {
            let catalog = Catalog::new();
            PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
            let t = catalog.create_table("T", schema()).unwrap();
            t.insert_batch((0..COLUMN_BLOCK_ROWS as i64 + 5).map(row))
                .unwrap();
        }
        let wal = wal_path(&dir, 0);
        for torn in [Some(10), None] {
            match torn {
                Some(len) => std::fs::write(&wal, vec![0; len]).unwrap(),
                None => std::fs::remove_file(&wal).unwrap(),
            }
            match PagedStore::open(&dir, PagedOptions::default(), &Catalog::new()) {
                Err(RankSqlError::Storage(msg)) => assert!(msg.contains("header"), "{msg}"),
                other => panic!("expected a typed storage error, got {other:?}"),
            }
        }
        std::fs::write(data_path(&dir, 0), b"").unwrap();
        let catalog = Catalog::new();
        PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
        assert_eq!(catalog.table("T").unwrap().row_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `/dev/null`, which takes every write and fails every fsync.
    fn dev_null() -> File {
        OpenOptions::new().write(true).open("/dev/null").unwrap()
    }

    /// Moves `dir` aside, so nothing can be created or opened in it, and
    /// returns what moves it back.
    fn move_aside(dir: &Path) -> impl FnOnce() {
        let (dir, moved) = (dir.to_owned(), dir.with_extension("moved"));
        let _ = std::fs::remove_dir_all(&moved);
        std::fs::rename(&dir, &moved).unwrap();
        move || std::fs::rename(&moved, &dir).unwrap()
    }

    /// What undoes a scripted fault, run after the failing insert.
    type Undo = Box<dyn FnOnce(&TableStore)>;

    /// Scripts one fault: inserts rows `0..before` into a fresh paged `T`
    /// and pins that epoch; `arm` breaks the store, and row `before` must
    /// then fail to insert, typed.  After `arm`'s undo the store stays
    /// poisoned: the next insert is refused, typed, and writes nothing to
    /// the WAL, while the pinned epoch still reads.  Returns the directory,
    /// every handle closed, and the rows written.
    fn script_fault(
        tag: &str,
        before: usize,
        arm: impl FnOnce(&TableStore, &Path) -> Undo,
    ) -> (PathBuf, usize) {
        let dir = temp_dir(tag);
        let catalog = Catalog::new();
        PagedStore::open(&dir, PagedOptions::default(), &catalog).unwrap();
        let t = catalog.create_table("T", schema()).unwrap();
        t.insert_batch((0..before as i64).map(row)).unwrap();
        let (store, pinned) = (store_of(&t), t.pin_epoch());
        let undo = arm(&store, &dir);
        let err = t.insert(row(before as i64)).unwrap_err();
        assert!(matches!(err, RankSqlError::Storage(_)), "{err}");
        undo(&store);
        let writes = store.inner.lock().wal.writes;
        let err = t.insert(row(before as i64 + 1)).unwrap_err();
        assert!(matches!(err, RankSqlError::Storage(_)), "{err}");
        assert!(err.to_string().contains("refuses writes"), "{err}");
        assert_eq!(store.inner.lock().wal.writes, writes, "a refused insert");
        let read = pinned.tuples(0..before).unwrap();
        assert!(read
            .iter()
            .map(|t| t.values())
            .eq((0..before as i64).map(row)));
        (dir, before + 1)
    }

    /// Reopens `dir`: it must recover at least `floor` rows (the last WAL
    /// fsync) and at most `written`, the rows `0..n` with the in-memory
    /// twin's top 10.
    fn assert_recovers(dir: &Path, floor: usize, written: usize) {
        let catalog = Catalog::new();
        PagedStore::open(dir, PagedOptions::default(), &catalog).unwrap();
        let t = catalog.table("T").unwrap();
        let n = t.row_count();
        assert!((floor..=written).contains(&n), "{n} rows recovered");
        assert_short_tail(&t);
        assert_eq!(top10(&t), top10(&twin(n)));
        assert_eq!(values(&t), (0..n as i64).map(row).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_wal_append_that_cannot_roll_back_poisons_the_store() {
        let before = COLUMN_BLOCK_ROWS + 100;
        let (dir, written) = script_fault("poison_append", before, |store, dir| {
            // A read-only handle fails the write, and the roll back cannot
            // reopen the log in a moved directory.
            let read_only = File::open(wal_path(dir, 0)).unwrap();
            let writable = store.inner.lock().wal.swap_file(read_only);
            let back = move_aside(dir);
            Box::new(move |store| {
                back();
                store.inner.lock().wal.swap_file(writable);
            })
        });
        assert_recovers(&dir, COLUMN_BLOCK_ROWS, written);
    }

    /// The kernel reports a writeback error to one fsync only, so a
    /// second fsync of the log, even on a good handle, proves nothing: the
    /// store stays poisoned with its handle restored.
    #[test]
    fn a_failed_wal_fsync_poisons_the_store_though_its_handle_is_restored() {
        let before = 2 * COLUMN_BLOCK_ROWS - 1;
        let (dir, written) = script_fault("poison_wal_fsync", before, |store, _| {
            let writable = store.inner.lock().wal.swap_file(dev_null());
            Box::new(move |store| drop(store.inner.lock().wal.swap_file(writable)))
        });
        assert_recovers(&dir, COLUMN_BLOCK_ROWS, written);
    }

    #[test]
    fn a_failed_extent_write_poisons_the_store() {
        let before = COLUMN_BLOCK_ROWS - 1;
        let (dir, written) = script_fault("poison_extent", before, |store, dir| {
            // The seal's WAL fsync succeeds; its extent write fails.
            let read_only = File::open(data_path(dir, 0)).unwrap();
            let writable = std::mem::replace(&mut store.inner.lock().data.file, read_only);
            Box::new(move |store| store.inner.lock().data.file = writable)
        });
        assert_recovers(&dir, COLUMN_BLOCK_ROWS, written);
    }

    /// After a failed data fsync the cached pages of an unsynced extent
    /// may read back though they never reach the disk, so they prove
    /// nothing: a CRC-valid extent of other rows planted past `base_row` is
    /// never read, and the WAL's rows win.
    #[test]
    fn a_failed_data_fsync_poisons_the_store_and_no_unsynced_extent_is_read() {
        // The checkpoint's data fsync fails, after the 64th extent went to
        // `/dev/null`.
        let before = CHECKPOINT_BLOCKS * COLUMN_BLOCK_ROWS - 1;
        let (dir, written) = script_fault("poison_data_fsync", before, |store, _| {
            let writable = std::mem::replace(&mut store.inner.lock().data.file, dev_null());
            Box::new(move |store| store.inner.lock().data.file = writable)
        });
        let last = CHECKPOINT_BLOCKS - 1;
        let planted: Vec<Tuple> = (last * COLUMN_BLOCK_ROWS..written)
            .map(|i| Tuple::new(TupleId::base(0, i as u64), row(i as i64 + 7)))
            .collect();
        let extent = encode_extent(last as u64, &SealedBlock::seal(&planted, 3));
        let mut data = OpenOptions::new()
            .append(true)
            .open(data_path(&dir, 0))
            .unwrap();
        data.write_all(&extent).unwrap();
        drop(data);
        assert_recovers(&dir, written, written);
    }

    #[test]
    fn a_failed_wal_rewrite_poisons_the_store() {
        let before = CHECKPOINT_BLOCKS * COLUMN_BLOCK_ROWS - 1;
        let (dir, written) = script_fault("poison_rewrite", before, |_, dir| {
            // The data fsync succeeds; the rewrite cannot create its side
            // file in a moved directory.
            let back = move_aside(dir);
            Box::new(move |_| back())
        });
        assert_recovers(&dir, written, written);
    }
}
