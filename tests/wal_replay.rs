//! Recovery from a damaged write-ahead log.
//!
//! A paged table's WAL holds the rows past its sealed extents (see
//! `ranksql_storage::wal`).  Reopening the directory must land on a prefix
//! of the rows that were written, or fail with a typed `Storage` error —
//! never abort, panic, or replay a row no insert wrote:
//!
//! 1. regressions: a CRC-valid record claiming `u32::MAX` values (it used
//!    to size an allocation of 64 GiB), and CRC-valid records no insert
//!    writes — an arity other than the schema's (it used to reach the tail
//!    and panic the first query's statistics), or bytes past the values;
//! 2. a structure-aware mutation property, built like `extent_decoder.rs`:
//!    a valid log gets a bit flip, a truncation, or a rewritten record
//!    `len` / `row_index` / `n_values` field, the rewrites with or without
//!    a re-sealed CRC.  Flips are never re-sealed: a flip inside a value
//!    under a fresh CRC is a different well-formed row, which no checksum
//!    can tell from a written one.  After the reopen, one more insert and
//!    a second reopen must keep every recovered row and the new one, so
//!    the log is cut at the end of the prefix it replayed.
//!
//! The tier-1 property runs a bounded number of cases; its `#[ignore]`d
//! twin runs 100× as many (`cargo test --release --test wal_replay --
//! --ignored`).

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use ranksql::storage::crc32;
use ranksql::{
    DataType, Database, Field, QueryBuilder, RankPredicate, RankSqlError, Schema, Value,
};

/// `magic u32 | table_id u32 | base_row u64`.
const HEADER: usize = 16;
/// `len u32 | crc32 u32`, then the body: `row_index u64 | n_values u32 |
/// value*`.
const LEN_AT: usize = 0;
const CRC_AT: usize = 4;
const ROW_INDEX_AT: usize = 8;
const N_VALUES_AT: usize = 16;
const BODY_AT: usize = 8;

/// A fresh directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("ranksql-wal-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The WAL file of the directory's one table.
fn wal_file(dir: &Path) -> PathBuf {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "wal"))
        .expect("a paged table has a WAL")
}

/// The byte offsets of the log's records, in order.
fn record_offsets(wal: &[u8]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut at = HEADER;
    while at + BODY_AT <= wal.len() {
        out.push(at);
        at += BODY_AT + get_u32(wal, at + LEN_AT) as usize;
    }
    out
}

fn get_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn put_u32(bytes: &mut [u8], at: usize, v: u32) {
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// One record: `len`, the CRC over the body, then the body.
fn record(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Recomputes the CRC of the record at `at` over what its `len` claims,
/// when the claim fits the buffer.
fn reseal(bytes: &mut [u8], at: usize) {
    let end = at + BODY_AT + get_u32(bytes, at + LEN_AT) as usize;
    if bytes.len() >= end {
        let crc = crc32(&bytes[at + BODY_AT..end]);
        put_u32(bytes, at + CRC_AT, crc);
    }
}

fn two_column_schema() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("p", DataType::Float64),
    ])
}

fn two_column_row(i: i64) -> Vec<Value> {
    vec![Value::from(i), Value::from(1.0 / (1 + i) as f64)]
}

/// A paged table `T` of three rows, all in the WAL, with `extra` appended
/// to its log after the handle is gone.
fn three_rows_then(dir: &Path, extra: &[u8]) {
    let db = Database::open_paged(dir).unwrap();
    db.create_table("T", two_column_schema()).unwrap();
    db.insert_batch("T", (0..3).map(two_column_row)).unwrap();
    drop(db);
    let wal = wal_file(dir);
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(extra);
    std::fs::write(&wal, bytes).unwrap();
}

fn row_values(db: &Database) -> Vec<Vec<Value>> {
    let t = db.catalog().table("T").unwrap();
    let epoch = t.pin_epoch();
    epoch
        .tuples(0..epoch.row_count())
        .unwrap()
        .iter()
        .map(|t| t.values().to_vec())
        .collect()
}

#[test]
fn a_record_claiming_u32_max_values_ends_the_prefix_without_allocating() {
    let dir = TempDir::new("huge-n");
    let mut body = 3u64.to_le_bytes().to_vec();
    body.extend_from_slice(&u32::MAX.to_le_bytes());
    let extra = record(&body);
    assert_eq!(extra.len(), 20);
    three_rows_then(dir.path(), &extra);

    let db = Database::open_paged(dir.path()).unwrap();
    assert_eq!(
        row_values(&db),
        (0..3).map(two_column_row).collect::<Vec<_>>()
    );
}

/// The body of a well-formed record of [`two_column_row`]`(i)` at row `i`.
fn two_column_body(i: i64) -> Vec<u8> {
    let mut body = (i as u64).to_le_bytes().to_vec();
    body.extend_from_slice(&2u32.to_le_bytes());
    body.push(1); // Int64 tag
    body.extend_from_slice(&i.to_le_bytes());
    body.push(2); // Float64 tag
    body.extend_from_slice(&(1.0 / (1 + i) as f64).to_le_bytes());
    body
}

/// CRC-valid records no insert writes — row 3 with one value under a
/// two-column schema, or with a byte past its two values — end the
/// replayed prefix even with a well-formed row 4 behind them, and the log
/// is cut before them.
#[test]
fn records_no_insert_writes_end_the_prefix_and_are_cut_from_the_log() {
    let mut one_value = 3u64.to_le_bytes().to_vec();
    one_value.extend_from_slice(&1u32.to_le_bytes());
    one_value.push(1);
    one_value.extend_from_slice(&3i64.to_le_bytes());
    let mut trailing_byte = two_column_body(3);
    trailing_byte.push(0);
    for refused in [one_value, trailing_byte] {
        let dir = TempDir::new("refused");
        let mut extra = record(&refused);
        extra.extend(record(&two_column_body(4)));
        three_rows_then(dir.path(), &extra);

        let db = Database::open_paged(dir.path()).unwrap();
        assert_eq!(
            row_values(&db),
            (0..3).map(two_column_row).collect::<Vec<_>>()
        );
        // The first query builds the table's statistics over every row.
        let query = QueryBuilder::new()
            .table("T")
            .rank_predicate(RankPredicate::attribute("p", "T.p"))
            .limit(2)
            .build()
            .unwrap();
        assert_eq!(db.execute(&query).unwrap().rows.len(), 2);

        // An insert after recovery lands behind the prefix, not behind the
        // refused records, so the next reopen replays it.
        db.insert("T", two_column_row(3)).unwrap();
        drop(db);
        let db = Database::open_paged(dir.path()).unwrap();
        assert_eq!(
            row_values(&db),
            (0..4).map(two_column_row).collect::<Vec<_>>()
        );
    }
}

/// A splitmix64 stream seeded by the property's case.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A value of column type `kind`: NULLs anywhere, text of any width.
    fn value(&mut self, kind: DataType) -> Value {
        if self.below(8) == 0 {
            return Value::Null;
        }
        match kind {
            DataType::Int64 => Value::Int64(self.next() as i64 >> self.below(64)),
            DataType::Float64 => Value::Float64(self.next() as f64 / u64::MAX as f64),
            DataType::Bool => Value::Bool(self.below(2) == 1),
            _ => Value::from("héllo字".repeat(self.below(4))),
        }
    }

    /// A rewrite of a `u32` field.
    fn field(&mut self, old: u32) -> u32 {
        match self.below(5) {
            0 => 0,
            1 => u32::MAX,
            2 => old.wrapping_add(1),
            3 => old.wrapping_sub(1),
            _ => self.next() as u32 >> self.below(32),
        }
    }
}

/// The pristine files of a paged directory holding one table: a schema
/// of 1..=3 typed columns, its rows, and — in one case in eight — a
/// sealed block ahead of the WAL rows.
struct Written {
    files: Vec<(String, Vec<u8>)>,
    wal_name: String,
    rows: Vec<Vec<Value>>,
}

fn write_table(g: &mut Gen) -> Written {
    const KINDS: [DataType; 4] = [
        DataType::Int64,
        DataType::Float64,
        DataType::Bool,
        DataType::Utf8,
    ];
    let kinds: Vec<DataType> = (0..1 + g.below(3)).map(|_| KINDS[g.below(4)]).collect();
    let schema = Schema::new(
        kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| Field::new(format!("c{i}"), k))
            .collect(),
    );
    let sealed = if g.below(8) == 0 { 1024 } else { 0 };
    let rows: Vec<Vec<Value>> = (0..sealed + 1 + g.below(24))
        .map(|_| kinds.iter().map(|&k| g.value(k)).collect())
        .collect();

    let dir = TempDir::new("written");
    let db = Database::open_paged(dir.path()).unwrap();
    db.create_table("T", schema).unwrap();
    db.insert_batch("T", rows.iter().cloned()).unwrap();
    drop(db);
    let wal_name = wal_file(dir.path())
        .file_name()
        .unwrap()
        .to_string_lossy()
        .into_owned();
    let files = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect();
    Written {
        files,
        wal_name,
        rows,
    }
}

/// One structure-aware mutation of the log `wal`.
fn mutate(g: &mut Gen, wal: &[u8]) -> Vec<u8> {
    let mut m = wal.to_vec();
    let records = record_offsets(wal);
    let at = records[g.below(records.len())];
    match g.below(5) {
        0 => {
            let i = g.below(m.len());
            m[i] ^= 1 << g.below(8);
            return m;
        }
        1 => {
            m.truncate(g.below(m.len()));
            return m;
        }
        2 => {
            let v = g.field(get_u32(wal, at + LEN_AT));
            put_u32(&mut m, at + LEN_AT, v);
        }
        3 => {
            let row_index = |at: usize| at + ROW_INDEX_AT..at + N_VALUES_AT;
            let old = u64::from_le_bytes(wal[row_index(at)].try_into().unwrap());
            let other = records[g.below(records.len())];
            let v = match g.below(5) {
                0 => 0,
                1 => u64::MAX,
                2 => old.wrapping_add(1),
                3 => old.wrapping_sub(1),
                _ => u64::from_le_bytes(wal[row_index(other)].try_into().unwrap()),
            };
            m[row_index(at)].copy_from_slice(&v.to_le_bytes());
        }
        _ => {
            let v = g.field(get_u32(wal, at + N_VALUES_AT));
            put_u32(&mut m, at + N_VALUES_AT, v);
        }
    }
    if g.below(2) == 0 {
        reseal(&mut m, at);
    }
    m
}

/// Reopens `dir`, which must recover a prefix of `rows` (and take one
/// more row across a second reopen) or fail with a typed storage error.
fn reopen_is_safe(dir: &Path, rows: &[Vec<Value>]) -> Result<(), TestCaseError> {
    let db = match Database::open_paged(dir) {
        Ok(db) => db,
        Err(RankSqlError::Storage(_)) => return Ok(()),
        Err(e) => return Err(TestCaseError::fail(format!("untyped open error: {e:?}"))),
    };
    let got = row_values(&db);
    prop_assert!(got.len() <= rows.len(), "recovered rows nobody wrote");
    // Debug forms compare types too: `Int64(1)` is not `Float64(1.0)`.
    prop_assert_eq!(format!("{got:?}"), format!("{:?}", &rows[..got.len()]));
    db.catalog().table("T").unwrap().stats_catalog().unwrap();

    let next = rows[0].clone();
    db.insert("T", next.clone()).unwrap();
    drop(db);
    let db = Database::open_paged(dir).unwrap();
    let again = row_values(&db);
    prop_assert_eq!(
        again.len(),
        got.len() + 1,
        "an insert after recovery was lost"
    );
    prop_assert_eq!(
        format!("{again:?}"),
        format!("{:?}", [got, vec![next]].concat())
    );
    Ok(())
}

/// Writes a random table, then reopens 8 mutations of its log.
fn check(seed: u64) -> Result<(), TestCaseError> {
    let mut g = Gen(seed);
    let written = write_table(&mut g);
    let wal = &written
        .files
        .iter()
        .find(|(n, _)| *n == written.wal_name)
        .unwrap()
        .1;
    prop_assert!(!record_offsets(wal).is_empty());
    for _ in 0..8 {
        let dir = TempDir::new("mutated");
        std::fs::create_dir_all(dir.path()).unwrap();
        for (name, bytes) in &written.files {
            let bytes = if *name == written.wal_name {
                mutate(&mut g, bytes)
            } else {
                bytes.clone()
            };
            std::fs::write(dir.path().join(name), bytes).unwrap();
        }
        reopen_is_safe(dir.path(), &written.rows)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn mutated_logs_recover_a_row_prefix_or_fail_typed(seed in any::<u64>()) {
        check(seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6400, ..ProptestConfig::default() })]

    #[test]
    #[ignore = "100x the cases of the tier-1 property; run in release"]
    fn mutated_logs_recover_a_row_prefix_or_fail_typed_at_scale(seed in any::<u64>()) {
        check(seed)?;
    }
}
