//! On-disk page and extent formats of the `Paged` backend.
//!
//! The unit of disk allocation is the fixed-size [`PAGE_SIZE`] page; one
//! sealed columnar block is stored as one **extent** — a contiguous,
//! page-aligned run of pages in the table's data file:
//!
//! ```text
//! extent := header | payload | zero padding to a page boundary
//! header := magic u32 | block_no u64 | rows u32 | n_cols u32
//!         | payload_len u32 | payload_crc32 u32
//! payload := column*            (one per schema column)
//! column := tag u8 | data       (0 = Int64, 1 = Float64, 2 = Generic)
//! ```
//!
//! `Int64`/`Float64` columns store `rows × 8` little-endian bytes; generic
//! columns store per-value tagged encodings (see `encode_value`).  Zone
//! maps and score maxima are **not** stored.  They are folded once per
//! block into its RAM-resident [`BlockMeta`] — at seal, or at recovery from
//! the decoded columns ([`DecodedExtent::fold`]) — and pruning reads only
//! that copy, making a pruned block a page never read.  A fault pairs the
//! decoded columns with the same copy and folds nothing.
//!
//! Torn writes are detected, not prevented: recovery accepts the longest
//! prefix of CRC-valid extents and truncates the rest (the write-ahead log
//! re-covers those rows — see [`crate::wal`]).

use ranksql_common::{RankSqlError, Result, Value};

use crate::column::{BlockData, ColumnKind, ColumnSlice, SealedBlock, ZoneEntry};

/// Bytes per disk page — the buffer pool's accounting unit and the
/// alignment of every extent.
pub const PAGE_SIZE: usize = 16 * 1024;

/// Magic number opening every extent header (`"RqPg"`).
pub(crate) const EXTENT_MAGIC: u32 = 0x5271_5067;

/// Fixed extent header size in bytes.
pub(crate) const EXTENT_HEADER: usize = 4 + 8 + 4 + 4 + 4 + 4;

/// Independent 8-byte lanes the CRC braids through (zlib's `N`).
const LANES: usize = 5;

/// The byte-at-a-time table of the reflected IEEE polynomial.
const CRC_BYTE: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut b = 0;
    while b < 256 {
        let (mut crc, mut bit) = (b as u32, 0);
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[b] = crc;
        b += 1;
    }
    t
};

/// The braid tables: `CRC_BRAID[k][b]` is the CRC of byte `b` at position
/// `k` of a lane's word followed by `8 * LANES - 1 - k` zero bytes — the
/// rest of that word and the other lanes' words — so it lands where the
/// lane's next word begins.
const CRC_BRAID: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let (mut crc, mut zeros) = (CRC_BYTE[b], 0);
        while zeros < 8 * LANES - 1 {
            crc = (crc >> 8) ^ CRC_BYTE[(crc & 0xFF) as usize];
            zeros += 1;
            if zeros >= 8 * LANES - 8 {
                t[8 * LANES - 1 - zeros][b] = crc;
            }
        }
        b += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the checksum guarding
/// extent payloads, WAL records and the catalog file.  Braided as in zlib's
/// `crc32.c`: every 40-byte block feeds one 8-byte word to each of five
/// independent lane CRCs, the last block folds the lanes into one through
/// the byte table, and the tail goes byte at a time.  The bits equal the
/// bitwise definition's.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut blocks = bytes.chunks_exact(8 * LANES);
    let tail = blocks.remainder();
    let Some(last) = blocks.next_back() else {
        return !crc32_bytes(!0, bytes);
    };
    let mut lanes = [0u32; LANES];
    lanes[0] = !0;
    for block in blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let w = le_word(word) ^ u64::from(*lane);
            *lane = (0..8).fold(0, |acc, k| {
                acc ^ CRC_BRAID[k][(w >> (8 * k)) as usize & 0xFF]
            });
        }
    }
    let crc = lanes
        .iter()
        .zip(last.chunks_exact(8))
        .fold(0, |crc, (&lane, word)| crc32_bytes(crc ^ lane, word));
    !crc32_bytes(crc, tail)
}

/// Advances the CRC register `crc` over `bytes`, one table step a byte.
fn crc32_bytes(crc: u32, bytes: &[u8]) -> u32 {
    bytes.iter().fold(crc, |crc, &b| {
        (crc >> 8) ^ CRC_BYTE[((crc ^ u32::from(b)) & 0xFF) as usize]
    })
}

/// The little-endian word of an 8-byte chunk.
fn le_word(chunk: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(chunk);
    u64::from_le_bytes(w)
}

/// Rounds `len` up to the next page boundary.
pub(crate) fn page_aligned(len: usize) -> usize {
    len.div_ceil(PAGE_SIZE) * PAGE_SIZE
}

/// The RAM-resident description of one paged-out block: where its extent
/// lives in the data file plus the per-column zone metadata pruning needs.
///
/// This is what a [`crate::TableEpoch`] actually pins for a paged table —
/// page ids (an offset/length extent) instead of the block data itself.
#[derive(Debug)]
pub struct BlockMeta {
    /// The block ordinal within the table (`row = block_no * 1024 + local`).
    pub block_no: u64,
    /// Rows in the block.
    pub rows: usize,
    /// Byte offset of the extent in the table's data file (page-aligned).
    pub offset: u64,
    /// Page-aligned extent length in bytes.
    pub len: usize,
    /// Pages the extent spans (`len / PAGE_SIZE`) — what a prune saves.
    pub pages: u64,
    /// Per-column kind + zone metadata, kept in RAM so pruning decides
    /// without touching disk.
    pub columns: Vec<PagedColumn>,
}

/// The RAM-resident zone metadata of one column of a paged block.
#[derive(Debug, Clone)]
pub struct PagedColumn {
    /// The column's storage kind within this block.
    pub kind: ColumnKind,
    /// Min/max zone (`None` for generic columns).
    pub zone: Option<ZoneEntry>,
    /// Score maximum, clamped `[0, 1]`, `NaN` ignored (`None` for generic
    /// columns).
    pub score_max: Option<f64>,
}

impl BlockMeta {
    /// Describes `block` as it was written at `offset` with page-aligned
    /// length `len`.
    pub(crate) fn describe(block_no: u64, offset: u64, len: usize, block: &SealedBlock) -> Self {
        let columns = (0..block.num_columns())
            .map(|c| PagedColumn {
                kind: match block.slice(c) {
                    ColumnSlice::Int64(_) => ColumnKind::Int64,
                    ColumnSlice::Float64(_) => ColumnKind::Float64,
                    ColumnSlice::Generic(_) => ColumnKind::Generic,
                },
                zone: block.zone(c),
                score_max: block.score_max(c),
            })
            .collect();
        BlockMeta {
            block_no,
            rows: block.rows(),
            offset,
            len,
            pages: (len / PAGE_SIZE) as u64,
            columns,
        }
    }
}

// ---------------------------------------------------------------------------
// Little-endian primitives and the tagged value codec, shared by the extent
// format, the WAL record format and the catalog file.
// ---------------------------------------------------------------------------

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked little-endian reader over a byte slice; every decode
/// error surfaces as [`RankSqlError::Storage`] so recovery can stop at the
/// first torn record instead of panicking.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(RankSqlError::Storage(format!(
                "truncated page data: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn skip(&mut self, n: usize) -> Result<()> {
        self.take(n).map(|_| ())
    }

    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub(crate) fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// The next `n` little-endian 8-byte words, bounds-checked once.
    fn words(&mut self, n: usize) -> Result<impl Iterator<Item = u64> + 'a> {
        let bytes = self.take(n.saturating_mul(8))?;
        Ok(bytes.chunks_exact(8).map(le_word))
    }

    pub(crate) fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| RankSqlError::Storage("invalid UTF-8 in page data".into()))
    }
}

/// Appends the tagged encoding of one dynamic value.
pub(crate) fn encode_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.push(0),
        Value::Int64(v) => {
            out.push(1);
            put_u64(out, *v as u64);
        }
        Value::Float64(v) => {
            out.push(2);
            put_u64(out, v.to_bits());
        }
        Value::Bool(v) => {
            out.push(3);
            out.push(*v as u8);
        }
        Value::Utf8(s) => {
            out.push(4);
            put_str(out, s);
        }
    }
}

/// Decodes one tagged dynamic value.
pub(crate) fn decode_value(r: &mut Reader<'_>) -> Result<Value> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Int64(r.i64()?),
        2 => Value::Float64(r.f64()?),
        3 => match r.u8()? {
            b @ (0 | 1) => Value::Bool(b == 1),
            b => {
                return Err(RankSqlError::Storage(format!(
                    "invalid bool {b} in page data"
                )))
            }
        },
        4 => Value::from(r.str()?),
        tag => {
            return Err(RankSqlError::Storage(format!(
                "unknown value tag {tag} in page data"
            )))
        }
    })
}

// ---------------------------------------------------------------------------
// Extent encode / decode.
// ---------------------------------------------------------------------------

/// Encodes `block` as one page-aligned extent.
pub fn encode_extent(block_no: u64, block: &SealedBlock) -> Vec<u8> {
    let mut payload = Vec::new();
    for c in 0..block.num_columns() {
        match block.slice(c) {
            ColumnSlice::Int64(v) => {
                payload.push(0);
                for &x in v {
                    put_u64(&mut payload, x as u64);
                }
            }
            ColumnSlice::Float64(v) => {
                payload.push(1);
                for &x in v {
                    put_u64(&mut payload, x.to_bits());
                }
            }
            ColumnSlice::Generic(v) => {
                payload.push(2);
                for x in v {
                    encode_value(&mut payload, x);
                }
            }
        }
    }
    let mut out = Vec::with_capacity(page_aligned(EXTENT_HEADER + payload.len()));
    put_u32(&mut out, EXTENT_MAGIC);
    put_u64(&mut out, block_no);
    put_u32(&mut out, block.rows() as u32);
    put_u32(&mut out, block.num_columns() as u32);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out.resize(page_aligned(out.len()), 0);
    out
}

/// One extent decoded from the data file: its columns as stored, with no
/// zone metadata folded yet.
#[derive(Debug)]
pub struct DecodedExtent {
    /// The block ordinal the header names.
    pub block_no: u64,
    /// Page-aligned on-disk length of the extent.
    pub len: usize,
    columns: Vec<BlockData>,
}

impl DecodedExtent {
    /// The block with zone maps and score maxima folded from its columns —
    /// the recovery path, whose [`BlockMeta`] is then described from it.
    pub fn fold(self) -> SealedBlock {
        SealedBlock::from_data(self.columns)
    }

    /// The block with `meta`'s RAM-resident zone metadata and no fold — the
    /// fault path.  `None` when the extent does not match `meta`: another
    /// block number, row count or column count, or a column of another kind.
    pub(crate) fn paired(self, meta: &BlockMeta) -> Option<SealedBlock> {
        let kinds_match = self.columns.len() == meta.columns.len()
            && self
                .columns
                .iter()
                .zip(&meta.columns)
                .all(|(d, m)| d.kind() == m.kind);
        let block = SealedBlock::with_zones(self.columns, &meta.columns);
        (kinds_match && self.block_no == meta.block_no && block.rows() == meta.rows)
            .then_some(block)
    }
}

/// The page-aligned on-disk length the extent header opening `header`
/// claims, or `None` when `header` is short or lacks the magic — what
/// recovery reads to size the rest of the extent before decoding it.
pub(crate) fn extent_len(header: &[u8]) -> Option<usize> {
    let mut r = Reader::new(header);
    if r.u32().ok()? != EXTENT_MAGIC {
        return None;
    }
    r.skip(8 + 4 + 4).ok()?;
    Some(page_aligned(EXTENT_HEADER + r.u32().ok()? as usize))
}

/// Decodes the extent starting at `bytes[0]`.  Returns `Ok(None)` for a
/// torn or invalid extent (bad magic, short payload, CRC mismatch) — the
/// recovery path treats that as the end of the durable prefix — and a
/// typed error for a checksummed payload its header does not describe.
pub fn decode_extent(bytes: &[u8]) -> Result<Option<DecodedExtent>> {
    if bytes.len() < EXTENT_HEADER {
        return Ok(None);
    }
    let mut r = Reader::new(bytes);
    if r.u32()? != EXTENT_MAGIC {
        return Ok(None);
    }
    let block_no = r.u64()?;
    let rows = r.u32()? as usize;
    let n_cols = r.u32()? as usize;
    let payload_len = r.u32()? as usize;
    let want_crc = r.u32()?;
    if bytes.len() < EXTENT_HEADER + payload_len {
        return Ok(None);
    }
    let payload = &bytes[EXTENT_HEADER..EXTENT_HEADER + payload_len];
    if crc32(payload) != want_crc {
        return Ok(None);
    }
    let mut pr = Reader::new(payload);
    // Every column opens with a tag byte, so the payload bounds `n_cols`.
    let mut columns = Vec::with_capacity(n_cols.min(payload_len));
    for _ in 0..n_cols {
        columns.push(match pr.u8()? {
            0 => BlockData::Int64(pr.words(rows)?.map(|w| w as i64).collect()),
            1 => BlockData::Float64(pr.words(rows)?.map(f64::from_bits).collect()),
            2 => BlockData::Generic(
                (0..rows)
                    .map(|_| decode_value(&mut pr))
                    .collect::<Result<_>>()?,
            ),
            tag => {
                return Err(RankSqlError::Storage(format!(
                    "unknown column tag {tag} in extent {block_no}"
                )))
            }
        });
    }
    if pr.remaining() != 0 {
        return Err(RankSqlError::Storage(format!(
            "extent {block_no} has {} payload bytes past its columns",
            pr.remaining()
        )));
    }
    Ok(Some(DecodedExtent {
        block_no,
        len: page_aligned(EXTENT_HEADER + payload_len),
        columns,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksql_common::Tuple;
    use ranksql_common::TupleId;

    fn block(rows: usize) -> SealedBlock {
        let tuples: Vec<Tuple> = (0..rows)
            .map(|i| {
                Tuple::new(
                    TupleId::base(1, i as u64),
                    vec![
                        Value::from(i as i64),
                        Value::from(i as f64 / 100.0),
                        Value::from(format!("r{i}").as_str()),
                    ],
                )
            })
            .collect();
        let b = SealedBlock::seal(&tuples, 3);
        SealedBlock::from_data(
            (0..b.num_columns())
                .map(|c| match b.slice(c) {
                    ColumnSlice::Int64(v) => BlockData::Int64(v.to_vec()),
                    ColumnSlice::Float64(v) => BlockData::Float64(v.to_vec()),
                    ColumnSlice::Generic(v) => BlockData::Generic(v.to_vec()),
                })
                .collect(),
        )
    }

    /// The bitwise definition the table-driven `crc32` must equal.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_equals_the_bitwise_definition() {
        let bytes: Vec<u8> = (0..1024 * 1024u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        // Every length up to six 40-byte braid blocks: inputs too short to
        // braid, a lone last block, the braided loop, and every tail length.
        for len in 0..=256 {
            assert_eq!(
                crc32(&bytes[..len]),
                crc32_bitwise(&bytes[..len]),
                "len {len}"
            );
        }
        // Every start offset within an eight-byte word, over a 33 KiB extent.
        for start in 0..8 {
            let s = &bytes[start..start + 33 * 1024];
            assert_eq!(crc32(s), crc32_bitwise(s), "33 KiB at offset {start}");
        }
        assert_eq!(crc32(&bytes), crc32_bitwise(&bytes), "1 MiB");
        let extent = encode_extent(3, &block(1024));
        assert_eq!(crc32(&extent), crc32_bitwise(&extent));
    }

    #[test]
    fn extent_round_trips_and_is_page_aligned() {
        let b = block(100);
        let bytes = encode_extent(7, &b);
        assert_eq!(bytes.len() % PAGE_SIZE, 0);
        let d = decode_extent(&bytes).unwrap().expect("valid extent");
        assert_eq!(d.block_no, 7);
        assert_eq!(d.len, bytes.len());
        let d = d.fold();
        assert_eq!(d.rows(), 100);
        // Values and refolded zone metadata both round-trip.
        for row in [0, 42, 99] {
            assert_eq!(d.value(row, 0), b.value(row, 0));
            assert_eq!(d.value(row, 1), b.value(row, 1));
            assert_eq!(d.value(row, 2), b.value(row, 2));
        }
        assert_eq!(d.zone(0), b.zone(0));
        assert_eq!(d.score_max(1), b.score_max(1));
    }

    /// The header and payload of [`golden_block`]'s extent as written before
    /// the CRC kernel was braided (block 9, zero padding to one page after
    /// them), so a change of kernel cannot move a byte of the format.
    const GOLDEN_EXTENT: [u8; 143] = [
        0x67, 0x50, 0x71, 0x52, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00,
        0x00, 0x03, 0x00, 0x00, 0x00, 0x73, 0x00, 0x00, 0x00, 0x2f, 0x51, 0x1d, 0xa8, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0xf8, 0x7f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0xff, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0xd0, 0xbf, 0x02, 0x00, 0x03, 0x01, 0x04, 0x06, 0x00, 0x00, 0x00, 0x68,
        0xc3, 0xa9, 0x6c, 0x6c, 0x6f, 0x01, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f,
    ];

    fn golden_block() -> SealedBlock {
        SealedBlock::from_data(vec![
            BlockData::Int64(vec![i64::MIN, -1, 0, 1, i64::MAX]),
            BlockData::Float64(vec![f64::NAN, f64::NEG_INFINITY, -0.0, 1.5, -0.25]),
            BlockData::Generic(vec![
                Value::Null,
                Value::Bool(true),
                Value::from("héllo"),
                Value::Int64(7),
                Value::Float64(0.5),
            ]),
        ])
    }

    #[test]
    fn golden_extent_decodes_and_re_encodes_byte_for_byte() {
        let mut golden = GOLDEN_EXTENT.to_vec();
        golden.resize(PAGE_SIZE, 0);
        assert_eq!(encode_extent(9, &golden_block()), golden);
        let d = decode_extent(&golden)
            .unwrap()
            .expect("valid golden extent");
        assert_eq!((d.block_no, d.len), (9, PAGE_SIZE));
        assert_eq!(encode_extent(9, &d.fold()), golden);
    }

    #[test]
    fn corrupt_extents_read_as_torn_not_errors() {
        let b = block(10);
        let mut bytes = encode_extent(0, &b);
        assert!(decode_extent(&bytes).unwrap().is_some());
        // Flip a payload byte: CRC catches it.
        bytes[EXTENT_HEADER + 3] ^= 0xFF;
        assert!(decode_extent(&bytes).unwrap().is_none());
        // A write torn inside the payload is rejected ...
        let whole = encode_extent(0, &b);
        assert!(decode_extent(&whole[..EXTENT_HEADER + 4])
            .unwrap()
            .is_none());
        // ... but one torn inside the trailing padding still decodes: the
        // header and payload are complete, so the block's data survives.
        assert!(decode_extent(&whole[..whole.len() - 8]).unwrap().is_some());
        // Garbage magic is rejected.
        assert!(decode_extent(&[0u8; 64]).unwrap().is_none());
    }

    #[test]
    fn value_codec_round_trips_every_variant() {
        let values = vec![
            Value::Null,
            Value::from(-42),
            Value::from(f64::NAN),
            Value::from(true),
            Value::from("héllo"),
        ];
        let mut buf = Vec::new();
        for v in &values {
            encode_value(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for v in &values {
            let got = decode_value(&mut r).unwrap();
            match (v, &got) {
                (Value::Float64(a), Value::Float64(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                _ => assert_eq!(v, &got),
            }
        }
        assert_eq!(r.remaining(), 0);
    }
}
