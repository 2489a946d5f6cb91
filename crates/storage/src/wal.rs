//! The per-table write-ahead log.
//!
//! The WAL covers every row past the data file's last *checkpoint*: the
//! rows of the extents appended since then, and the table's tail past
//! them.  The file layout:
//!
//! ```text
//! wal    := header record*
//! header := magic u32 | table_id u32 | base_row u64
//! record := len u32 | crc32 u32 | row_index u64 | n_values u32 | value*
//! ```
//!
//! `base_row` is the row the first record starts at (the extent coverage
//! of the last checkpoint), and the records follow it row by row; `len`
//! covers everything after the two leading words, `crc32` guards it.
//! Replay streams the log through one bounded buffer and accepts the
//! longest valid record prefix: it stops at the first record that is torn,
//! fails its CRC, does not decode to exactly `n_values` values or is not
//! the next row (a row-index hole), and at the first record the recovering
//! table refuses — an arity other than the schema's.  Each record is
//! handed to the table as it is read; the checkpoint that ends every open
//! ([`crate::recovery`]) then rewrites the log to the rows past the
//! extents, so nothing past the prefix survives it.
//!
//! Durability protocol (see [`crate::recovery::TableStore`]): an insert
//! appends its rows a *segment* at a time — the run of rows up to the next
//! 1024-row seal boundary — encoding one record per row into one reused
//! buffer and handing the kernel the whole segment in a single `write`,
//! **no fsync**.  After a failed write the store sets the log back to its
//! pre-append length ([`WalFile::roll_back`]), so no torn record or record
//! of an uninserted row stays behind.  Each seal boundary fsyncs the log —
//! the one durability point — before the sealed block's extent is appended
//! to the data file, and leaves the log as it is.  Every 64 blocks a
//! checkpoint fsyncs the data file, then atomically rewrites the log to
//! hold only the rows past the extents (write `wal.new`, fsync, rename,
//! fsync the directory).  The epoch ordinal (the row-count watermark) is
//! the LSN anchor: a record for row `r` is LSN `r + 1`.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use ranksql_common::{RankSqlError, Result, Tuple, Value};

use crate::page::{crc32, decode_value, encode_value, put_u32, put_u64, Reader};

/// Magic number opening every WAL file (`"RqWl"`).
pub(crate) const WAL_MAGIC: u32 = 0x5271_576C;

const HEADER_LEN: usize = 4 + 4 + 8;

/// Bytes replay reads from the log at a time.
const READ_BUF: usize = 64 * 1024;

/// One replayed WAL record: the row index and its values.
pub(crate) struct WalRecord {
    pub(crate) row_index: u64,
    pub(crate) values: Vec<Value>,
}

/// An open per-table WAL file.
#[derive(Debug)]
pub(crate) struct WalFile {
    file: File,
    path: PathBuf,
    table_id: u32,
    /// The log's length: where the next append starts, and what a failed
    /// append rolls back to.
    len: u64,
    /// The encode buffer of one segment, reused across appends.
    buf: Vec<u8>,
    /// Segment writes issued, for the tests that count them.
    #[cfg(test)]
    pub(crate) writes: usize,
    /// Fsyncs of the log ([`WalFile::sync`]), for the same tests.
    #[cfg(test)]
    pub(crate) syncs: usize,
    /// Rewrites of the log ([`WalFile::rewrite`]), for the same tests.
    #[cfg(test)]
    pub(crate) rewrites: usize,
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> RankSqlError {
    RankSqlError::Storage(format!("{what} `{}`: {e}", path.display()))
}

fn header_bytes(table_id: u32, base_row: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    put_u32(&mut out, WAL_MAGIC);
    put_u32(&mut out, table_id);
    put_u64(&mut out, base_row);
    out
}

/// Appends the records of `rows` — row `first_row + i` holding
/// `rows[i]`'s values — to `out`, encoding each in place: its two leading
/// words are reserved, the body written after them, then the words filled
/// in.
fn encode_records(out: &mut Vec<u8>, first_row: u64, rows: &[Tuple]) {
    for (row_index, tuple) in (first_row..).zip(rows) {
        let start = out.len();
        out.extend_from_slice(&[0; 8]);
        put_u64(out, row_index);
        put_u32(out, tuple.values().len() as u32);
        for v in tuple.values() {
            encode_value(out, v);
        }
        let body = &out[start + 8..];
        let (len, crc) = (body.len() as u32, crc32(body));
        out[start..start + 4].copy_from_slice(&len.to_le_bytes());
        out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Decodes one record body: `row_index`, `n_values` and exactly that many
/// values, with no byte left over.
fn decode_record(body: &[u8]) -> Option<WalRecord> {
    let mut r = Reader::new(body);
    let row_index = r.u64().ok()?;
    let n = r.u32().ok()? as usize;
    // Every value takes at least one byte, so a claim past the body's end
    // cannot size the allocation.
    let mut values = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        values.push(decode_value(&mut r).ok()?);
    }
    (r.remaining() == 0).then_some(WalRecord { row_index, values })
}

impl WalFile {
    fn new(file: File, path: PathBuf, table_id: u32, len: u64) -> WalFile {
        WalFile {
            file,
            path,
            table_id,
            len,
            buf: Vec::new(),
            #[cfg(test)]
            writes: 0,
            #[cfg(test)]
            syncs: 0,
            #[cfg(test)]
            rewrites: 0,
        }
    }

    /// Creates a fresh WAL at `path` with `base_row = 0`, truncating any
    /// existing file.
    pub(crate) fn create(path: PathBuf, table_id: u32) -> Result<WalFile> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err("cannot create WAL", &path, e))?;
        file.write_all(&header_bytes(table_id, 0))
            .map_err(|e| io_err("cannot write WAL header", &path, e))?;
        file.sync_all()
            .map_err(|e| io_err("cannot sync WAL", &path, e))?;
        Ok(WalFile::new(file, path, table_id, HEADER_LEN as u64))
    }

    /// Opens an existing WAL and reads its header: returns the log and its
    /// `base_row`, or `None` when there is no log or it is shorter than a
    /// header.  A `wal.new` left by an interrupted rewrite is removed, not
    /// consulted: the rename either completed or the old log is still the
    /// valid one.
    pub(crate) fn open(path: PathBuf, table_id: u32) -> Result<Option<(WalFile, u64)>> {
        let _ = std::fs::remove_file(rewrite_path(&path));
        let mut file = match OpenOptions::new().read(true).write(true).open(&path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err("cannot open WAL", &path, e)),
        };
        let len = file
            .metadata()
            .map_err(|e| io_err("cannot stat WAL", &path, e))?
            .len();
        if len < HEADER_LEN as u64 {
            return Ok(None);
        }
        let mut head = [0u8; HEADER_LEN];
        file.read_exact(&mut head)
            .map_err(|e| io_err("cannot read WAL", &path, e))?;
        let mut r = Reader::new(&head);
        let (magic, file_table, base_row) = (r.u32()?, r.u32()?, r.u64()?);
        if magic != WAL_MAGIC || file_table != table_id {
            return Err(RankSqlError::Storage(format!(
                "WAL `{}` does not belong to table {table_id}",
                path.display()
            )));
        }
        Ok(Some((WalFile::new(file, path, table_id, len), base_row)))
    }

    /// Streams the log's valid record prefix into `replay`, one record at
    /// a time, through a [`READ_BUF`]-byte buffer; called once, right
    /// after [`WalFile::open`].
    ///
    /// The prefix ends at the first record that is torn, fails its CRC,
    /// does not decode to exactly its `n_values` values, is not the next
    /// row (`base_row`, `base_row + 1`, …), or that `replay` refuses with
    /// `Ok(false)` (the caller's rule: a wrong arity).  An error of
    /// `replay` is returned as it is.  The log is left as it is: the
    /// caller rewrites it.
    pub(crate) fn replay(
        &mut self,
        base_row: u64,
        mut replay: impl FnMut(WalRecord) -> Result<bool>,
    ) -> Result<()> {
        let read_err = |e| io_err("cannot read WAL", &self.path, e);
        let mut reader = BufReader::with_capacity(READ_BUF, &self.file);
        let (mut at, mut next_row) = (HEADER_LEN as u64, base_row);
        let mut body = Vec::new();
        while self.len - at >= 8 {
            let mut frame = [0u8; 8];
            reader.read_exact(&mut frame).map_err(read_err)?;
            let mut r = Reader::new(&frame);
            let (len, want_crc) = (u64::from(r.u32()?), r.u32()?);
            if self.len - at - 8 < len {
                break; // torn tail record
            }
            body.resize(len as usize, 0);
            reader.read_exact(&mut body).map_err(read_err)?;
            if crc32(&body) != want_crc {
                break;
            }
            let next = decode_record(&body).filter(|rec| rec.row_index == next_row);
            if !next.map_or(Ok(false), &mut replay)? {
                break;
            }
            next_row = next_row.saturating_add(1);
            at += 8 + len;
        }
        Ok(())
    }

    /// Appends one segment's records, row `first_row + i` holding
    /// `rows[i]`'s values, with a single `write` — **no fsync**; durability
    /// arrives at the next seal-boundary [`WalFile::sync`].  A failed write
    /// may leave part of the segment behind: [`WalFile::roll_back`] cuts it.
    pub(crate) fn append(&mut self, first_row: u64, rows: &[Tuple]) -> Result<()> {
        self.buf.clear();
        encode_records(&mut self.buf, first_row, rows);
        #[cfg(test)]
        {
            self.writes += 1;
        }
        self.file
            .write_all(&self.buf)
            .map_err(|e| io_err("cannot append to WAL", &self.path, e))?;
        self.len += self.buf.len() as u64;
        Ok(())
    }

    /// Sets the log back to its length before a failed append, through a
    /// fresh handle, which then replaces the one the write failed on.
    pub(crate) fn roll_back(&mut self) -> std::io::Result<()> {
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.set_len(self.len)?;
        file.seek(SeekFrom::Start(self.len))?;
        self.file = file;
        Ok(())
    }

    /// Swaps in `file` as the log's handle and returns the old one, for the
    /// tests that script a failing handle.
    #[cfg(test)]
    pub(crate) fn swap_file(&mut self, file: File) -> File {
        std::mem::replace(&mut self.file, file)
    }

    /// Fsyncs the log — the durability point of every row appended since
    /// the last sync.
    pub(crate) fn sync(&mut self) -> Result<()> {
        #[cfg(test)]
        {
            self.syncs += 1;
        }
        self.file
            .sync_all()
            .map_err(|e| io_err("cannot sync WAL", &self.path, e))
    }

    /// Atomically replaces the log with one holding `base_row` and only
    /// `tail`, the rows from `base_row` on (past the new extent coverage):
    /// the new content is written to a side file, fsynced, then renamed
    /// over the log — a crash anywhere leaves either the complete old log or
    /// the complete new one.  The directory is fsynced after the rename:
    /// until then a power loss may bring back the old log's entry, and with
    /// it lose every row appended after the checkpoint.
    pub(crate) fn rewrite(&mut self, base_row: u64, tail: &[Tuple]) -> Result<()> {
        #[cfg(test)]
        {
            self.rewrites += 1;
        }
        let tmp = rewrite_path(&self.path);
        let mut out = header_bytes(self.table_id, base_row);
        encode_records(&mut out, base_row, tail);
        let mut f = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)
            .map_err(|e| io_err("cannot create WAL rewrite", &tmp, e))?;
        f.write_all(&out)
            .map_err(|e| io_err("cannot write WAL rewrite", &tmp, e))?;
        f.sync_all()
            .map_err(|e| io_err("cannot sync WAL rewrite", &tmp, e))?;
        std::fs::rename(&tmp, &self.path)
            .map_err(|e| io_err("cannot rename WAL rewrite", &self.path, e))?;
        // The side file's handle, at its end, is the log's from here on: no
        // reopen can fail and leave appends going to the replaced file.
        self.file = f;
        self.len = out.len() as u64;
        sync_dir(&self.path)
    }
}

/// Fsyncs the directory holding `path`, which makes a rename or a file
/// creation in it durable.
pub(crate) fn sync_dir(path: &Path) -> Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("cannot sync directory", dir, e))
}

fn rewrite_path(path: &Path) -> PathBuf {
    let mut p = path.as_os_str().to_owned();
    p.push(".new");
    PathBuf::from(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksql_common::TupleId;

    fn temp_wal(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ranksql_wal_test_{}_{tag}.wal", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn row(i: i64) -> Vec<Value> {
        vec![Value::from(i), Value::from(i as f64 / 10.0)]
    }

    /// Rows `range` as tuples holding [`row`]'s values.
    fn rows(range: std::ops::Range<i64>) -> Vec<Tuple> {
        range
            .map(|i| Tuple::new(TupleId::base(0, i as u64), row(i)))
            .collect()
    }

    /// Opens the log at `path`, collecting every record it replays.
    fn replay(path: &Path, table_id: u32) -> Result<(WalFile, u64, Vec<WalRecord>)> {
        let mut records = Vec::new();
        let (mut wal, base) = WalFile::open(path.to_owned(), table_id)?.unwrap();
        wal.replay(base, |rec| {
            records.push(rec);
            Ok(true)
        })?;
        Ok((wal, base, records))
    }

    fn record_bytes(row_index: u64, values: Vec<Value>) -> Vec<u8> {
        let mut out = Vec::new();
        encode_records(
            &mut out,
            row_index,
            &[Tuple::new(TupleId::base(0, row_index), values)],
        );
        out
    }

    #[test]
    fn append_sync_reopen_replays_records() {
        let path = temp_wal("replay");
        {
            let mut wal = WalFile::create(path.clone(), 3).unwrap();
            wal.append(0, &rows(0..2)).unwrap();
            wal.append(2, &rows(2..5)).unwrap();
            wal.sync().unwrap();
        }
        let (_wal, base, records) = replay(&path, 3).unwrap();
        assert_eq!(base, 0);
        assert_eq!(records.len(), 5);
        assert_eq!(records[4].row_index, 4);
        assert_eq!(records[4].values, row(4));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_records_are_dropped_on_replay() {
        let path = temp_wal("torn");
        {
            let mut wal = WalFile::create(path.clone(), 1).unwrap();
            wal.append(0, &rows(0..3)).unwrap();
            wal.sync().unwrap();
        }
        // Chop bytes off the last record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (mut wal, _, records) = replay(&path, 1).unwrap();
        assert_eq!(records.len(), 2, "torn third record dropped");
        // Rewritten to the replayed rows, as every open ends, the log
        // accepts fresh appends cleanly.
        wal.rewrite(0, &rows(0..2)).unwrap();
        wal.append(2, &rows(2..3)).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, _, records) = replay(&path, 1).unwrap();
        assert_eq!(records.len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    /// Replay streams a log longer than its read buffer record by record,
    /// and a row-index hole ends the prefix as a torn record does.
    #[test]
    fn a_log_past_the_read_buffer_replays_up_to_a_row_hole() {
        let path = temp_wal("stream");
        let n = 4000;
        {
            let mut wal = WalFile::create(path.clone(), 9).unwrap();
            wal.append(0, &rows(0..n)).unwrap();
            // Row `n` is missing.
            wal.append(n as u64 + 1, &rows(n + 1..n + 3)).unwrap();
            wal.sync().unwrap();
        }
        assert!(std::fs::metadata(&path).unwrap().len() > READ_BUF as u64);
        let (mut wal, _, records) = replay(&path, 9).unwrap();
        assert_eq!(records.len(), n as usize);
        assert!(records
            .iter()
            .zip(0..)
            .all(|(r, i)| r.row_index == i as u64 && r.values == row(i)));
        // Rewritten to the rows before the hole, the log replays an append
        // of row `n`.
        wal.rewrite(0, &rows(0..n)).unwrap();
        wal.append(n as u64, &rows(n..n + 1)).unwrap();
        drop(wal);
        let (_, _, records) = replay(&path, 9).unwrap();
        assert_eq!(records.len(), n as usize + 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rewrite_keeps_only_the_tail_atomically() {
        let path = temp_wal("rewrite");
        {
            let mut wal = WalFile::create(path.clone(), 2).unwrap();
            wal.append(0, &rows(0..10)).unwrap();
            wal.rewrite(8, &rows(8..10)).unwrap();
            // The rewritten log accepts appends.
            wal.append(10, &rows(10..11)).unwrap();
            wal.sync().unwrap();
        }
        let (_wal, base, records) = replay(&path, 2).unwrap();
        assert_eq!(base, 8);
        assert_eq!(
            records.iter().map(|r| r.row_index).collect::<Vec<_>>(),
            vec![8, 9, 10]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn orphaned_rewrite_temp_is_ignored() {
        let path = temp_wal("orphan");
        {
            let mut wal = WalFile::create(path.clone(), 4).unwrap();
            wal.append(0, &rows(0..1)).unwrap();
            wal.sync().unwrap();
        }
        // Simulate a crash mid-rewrite: a half-written temp beside the log.
        std::fs::write(rewrite_path(&path), b"garbage").unwrap();
        let (_wal, base, records) = replay(&path, 4).unwrap();
        assert_eq!(base, 0);
        assert_eq!(records.len(), 1);
        assert!(!rewrite_path(&path).exists());
        let _ = std::fs::remove_file(&path);
    }

    /// One record as written before the CRC kernel was braided: row
    /// 1 048 577 holding [`golden_values`].
    const GOLDEN_RECORD: [u8; 75] = [
        0x43, 0x00, 0x00, 0x00, 0x7f, 0x26, 0x14, 0x1d, 0x01, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x07, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x02,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x7f, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x80, 0x00, 0x03, 0x00, 0x04, 0x0b, 0x00, 0x00, 0x00, 0x77, 0x72, 0x69, 0x74, 0x65,
        0x2d, 0x61, 0x68, 0x65, 0x61, 0x64, 0x01, 0xd6, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    ];

    fn golden_values() -> Vec<Value> {
        vec![
            Value::Int64(i64::MIN),
            Value::Float64(f64::NAN),
            Value::Float64(-0.0),
            Value::Null,
            Value::Bool(false),
            Value::from("write-ahead"),
            Value::Int64(-42),
        ]
    }

    #[test]
    fn golden_record_replays_and_re_encodes_byte_for_byte() {
        assert_eq!(record_bytes(1_048_577, golden_values()), GOLDEN_RECORD);
        let path = temp_wal("golden");
        // The log's first record is its base row.
        let mut bytes = header_bytes(8, 1_048_577);
        bytes.extend_from_slice(&GOLDEN_RECORD);
        std::fs::write(&path, &bytes).unwrap();
        let (_wal, _, records) = replay(&path, 8).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].row_index, 1_048_577);
        let replayed = records.into_iter().next().unwrap();
        assert_eq!(
            record_bytes(replayed.row_index, replayed.values),
            GOLDEN_RECORD
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_table_id_is_rejected() {
        let path = temp_wal("wrongid");
        {
            WalFile::create(path.clone(), 5).unwrap();
        }
        assert!(replay(&path, 6).is_err());
        let _ = std::fs::remove_file(&path);
    }

    /// A segment encodes to its rows' single-row records, back to back.
    #[test]
    fn a_segment_is_its_rows_records_concatenated() {
        let mut segment = Vec::new();
        encode_records(&mut segment, 40, &rows(40..43));
        let singles: Vec<u8> = (40..43)
            .flat_map(|i| record_bytes(i as u64, row(i)))
            .collect();
        assert_eq!(segment, singles);
    }

    /// A failed append, rolled back, leaves the log as it was: bytes a
    /// short write left behind (here written through a second handle: a
    /// complete record of a row never inserted, then a torn one) are
    /// truncated away, and the log keeps accepting appends.
    #[test]
    fn a_failed_append_rolls_the_log_back() {
        let path = temp_wal("rollback");
        let mut wal = WalFile::create(path.clone(), 6).unwrap();
        wal.append(0, &rows(0..3)).unwrap();
        let before = std::fs::read(&path).unwrap();
        let mut stray = OpenOptions::new().append(true).open(&path).unwrap();
        stray.write_all(&record_bytes(3, row(3))).unwrap();
        stray.write_all(&record_bytes(4, row(4))[..9]).unwrap();
        // A handle that rejects writes.
        wal.file = File::open(&path).unwrap();
        let err = wal.append(3, &rows(3..5)).unwrap_err();
        assert!(matches!(err, RankSqlError::Storage(_)), "{err}");
        wal.roll_back().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), before);
        wal.append(3, &rows(3..4)).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, _, records) = replay(&path, 6).unwrap();
        let replayed: Vec<u64> = records.iter().map(|r| r.row_index).collect();
        assert_eq!(replayed, vec![0, 1, 2, 3]);
        assert_eq!(records[3].values, row(3));
        let _ = std::fs::remove_file(&path);
    }
}
