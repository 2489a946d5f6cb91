//! Structure-aware mutation of the paged backend's extent decoder.
//!
//! Random blocks (typed `Int64` / `Float64` columns and generic columns of
//! NULLs, booleans, integers, floats and text, edge values included) are
//! encoded as extents; then:
//!
//! 1. decoding an encoded block returns the same block: re-encoding the
//!    decoded columns gives the same bytes, and their refolded zone maps
//!    and score maxima equal the original's bit for bit;
//! 2. every mutation of an encoded extent (a bit flip, a truncation, a
//!    rewritten `rows` / `n_cols` / `payload_len` header field or column
//!    tag, with or without a re-sealed payload CRC) decodes to `Ok(None)`,
//!    a typed `Storage` error, or a block the encoder itself writes as
//!    exactly the accepted header and payload bytes — never a panic, a hang
//!    or a divergent accept.
//!
//! The tier-1 property runs a bounded number of cases; its `#[ignore]`d
//! twin runs 100× as many (`cargo test --release --test extent_decoder --
//! --ignored`).

use std::sync::Arc;

use proptest::prelude::*;

use ranksql::storage::column::ColumnTable;
use ranksql::storage::crc32;
use ranksql::storage::page::{decode_extent, encode_extent};
use ranksql::storage::SealedBlock;
use ranksql::{DataType, Field, RankSqlError, Schema, Tuple, Value};

/// `magic u32 | block_no u64 | rows u32 | n_cols u32 | payload_len u32 |
/// payload_crc32 u32`: the byte offsets of the header fields.
const ROWS_AT: usize = 12;
const N_COLS_AT: usize = 16;
const PAYLOAD_LEN_AT: usize = 20;
const CRC_AT: usize = 24;
const HEADER: usize = 28;

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

    fn int(&mut self) -> i64 {
        const EDGES: [i64; 5] = [i64::MIN, -1, 0, 1, i64::MAX];
        match self.below(3) {
            0 => EDGES[self.below(EDGES.len())],
            _ => self.next() as i64 >> self.below(64),
        }
    }

    fn float(&mut self) -> f64 {
        const EDGES: [f64; 7] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            1.5,
            -0.25,
        ];
        match self.below(3) {
            0 => EDGES[self.below(EDGES.len())],
            _ => self.next() as f64 / u64::MAX as f64,
        }
    }

    fn value(&mut self, kind: usize) -> Value {
        match (kind, self.below(5)) {
            (0, _) | (2, 0) => Value::Int64(self.int()),
            (1, _) | (2, 1) => Value::Float64(self.float()),
            (_, 2) => Value::Null,
            (_, 3) => Value::Bool(self.below(2) == 1),
            _ => {
                const TEXT: [&str; 4] = ["", "a", "héllo", "字"];
                Value::from(TEXT[self.below(TEXT.len())].repeat(self.below(4)))
            }
        }
    }
}

/// A random block of 1..=64 rows and 1..=4 columns, each column typed
/// `Int64`, typed `Float64` or generic.
fn random_block(g: &mut Gen) -> (Vec<Vec<Value>>, Arc<SealedBlock>) {
    let kinds: Vec<usize> = (0..1 + g.below(4)).map(|_| g.below(3)).collect();
    let rows: Vec<Vec<Value>> = (0..1 + g.below(64))
        .map(|_| kinds.iter().map(|&k| g.value(k)).collect())
        .collect();
    let block = block_of(&rows, kinds.len());
    (rows, block)
}

/// The sealed block holding the first `n_cols` columns of `rows`.
fn block_of(rows: &[Vec<Value>], n_cols: usize) -> Arc<SealedBlock> {
    let schema = Schema::new(
        (0..n_cols)
            .map(|c| Field::new(format!("c{c}"), DataType::Utf8))
            .collect(),
    );
    let tuples: Vec<Tuple> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            Tuple::new(
                ranksql::common::TupleId::base(0, i as u64),
                r[..n_cols].to_vec(),
            )
        })
        .collect();
    ColumnTable::from_rows(0, "X", &schema, &tuples)
        .fetch_block(0)
        .unwrap()
        .0
}

fn zone_bits(b: &SealedBlock) -> Vec<String> {
    (0..b.num_columns())
        .map(|c| {
            format!(
                "{:?} {:?}",
                b.zone(c).map(|z| format!("{z:?}")),
                b.score_max(c).map(f64::to_bits)
            )
        })
        .collect()
}

fn put_u32(bytes: &mut [u8], at: usize, v: u32) {
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn get_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

/// Recomputes the payload CRC over what the header's `payload_len` claims,
/// when the claim fits the buffer.
fn reseal(bytes: &mut [u8]) {
    let end = HEADER + get_u32(bytes, PAYLOAD_LEN_AT) as usize;
    if bytes.len() >= end {
        let crc = crc32(&bytes[HEADER..end]);
        put_u32(bytes, CRC_AT, crc);
    }
}

/// One structure-aware mutation of `extent`; `tags` are the byte offsets
/// of its column tags.
fn mutate(g: &mut Gen, extent: &[u8], tags: &[usize]) -> Vec<u8> {
    let mut m = extent.to_vec();
    let payload_end = HEADER + get_u32(extent, PAYLOAD_LEN_AT) as usize;
    let field = |g: &mut Gen, old: u32| match g.below(5) {
        0 => 0,
        1 => u32::MAX,
        2 => old.wrapping_add(1),
        3 => old.wrapping_sub(1),
        _ => g.next() as u32 >> g.below(32),
    };
    match g.below(7) {
        0 => {
            // A bit flip in the header, the payload or just past it.
            let at = g.below((payload_end + 8).min(m.len()));
            m[at] ^= 1 << g.below(8);
        }
        1 => {
            m.truncate(g.below(payload_end + 1));
            return m;
        }
        2 => {
            let v = field(g, get_u32(extent, ROWS_AT));
            put_u32(&mut m, ROWS_AT, v);
        }
        3 => {
            let v = field(g, get_u32(extent, N_COLS_AT));
            put_u32(&mut m, N_COLS_AT, v);
        }
        4 => {
            let v = field(g, get_u32(extent, PAYLOAD_LEN_AT));
            put_u32(&mut m, PAYLOAD_LEN_AT, v);
        }
        5 => m[tags[g.below(tags.len())]] = g.next() as u8 % 4,
        _ => {
            // A payload byte rewritten, anywhere in the column data.
            let at = HEADER + g.below(payload_end - HEADER);
            m[at] = g.next() as u8;
        }
    }
    if g.below(2) == 0 {
        reseal(&mut m);
    }
    m
}

/// Decodes `bytes`, which must give `Ok(None)`, a typed storage error, or
/// a block that re-encodes to exactly the header and payload it accepted.
fn decode_is_safe(bytes: &[u8]) -> Result<(), TestCaseError> {
    match decode_extent(bytes) {
        Ok(None) | Err(RankSqlError::Storage(_)) => Ok(()),
        Err(e) => Err(TestCaseError::fail(format!("untyped decode error: {e:?}"))),
        Ok(Some(d)) => {
            let accepted = HEADER + get_u32(bytes, PAYLOAD_LEN_AT) as usize;
            let (block_no, len) = (d.block_no, d.len);
            let again = encode_extent(block_no, &d.fold());
            prop_assert_eq!(again.len(), len);
            prop_assert!(
                again[..accepted] == bytes[..accepted],
                "accepted bytes the encoder would not write"
            );
            Ok(())
        }
    }
}

fn check(seed: u64) -> Result<(), TestCaseError> {
    let mut g = Gen(seed);
    let (rows, block) = random_block(&mut g);
    let block_no = g.next() >> g.below(64);
    let extent = encode_extent(block_no, &block);

    // decode ∘ encode is the identity, zones included.
    let d = decode_extent(&extent)
        .map_err(|e| TestCaseError::fail(format!("{e:?}")))?
        .ok_or_else(|| TestCaseError::fail("a fresh extent reads as torn"))?;
    prop_assert_eq!((d.block_no, d.len), (block_no, extent.len()));
    let decoded = d.fold();
    prop_assert_eq!(decoded.rows(), rows.len());
    prop_assert!(encode_extent(block_no, &decoded) == extent);
    prop_assert_eq!(zone_bits(&decoded), zone_bits(&block));

    // Column `c`'s tag sits where the payload of the first `c` columns ends.
    let tags: Vec<usize> = (0..block.num_columns())
        .map(|c| HEADER + get_u32(&encode_extent(0, &block_of(&rows, c)), PAYLOAD_LEN_AT) as usize)
        .collect();
    prop_assert!(tags.iter().all(|&t| extent[t] <= 2));
    for _ in 0..12 {
        decode_is_safe(&mutate(&mut g, &extent, &tags))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn mutated_extents_decode_to_torn_typed_errors_or_their_own_bytes(seed in any::<u64>()) {
        check(seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6400, ..ProptestConfig::default() })]

    #[test]
    #[ignore = "100x the cases of the tier-1 property; run in release"]
    fn mutated_extents_decode_to_torn_typed_errors_or_their_own_bytes_at_scale(seed in any::<u64>()) {
        check(seed)?;
    }
}
