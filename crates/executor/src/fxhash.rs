//! A fast, non-cryptographic hasher for the executor's internal hash tables.
//!
//! Join build/probe sides hash small keys (a handful of [`Value`]s) once per
//! input tuple; with the standard library's DoS-resistant SipHash that
//! hashing is a measurable slice of the hash-join hot path.  The executor's
//! tables are query-internal — keys come from the data already admitted into
//! the engine, not from an adversary choosing hash inputs — so the
//! rustc-hash ("Fx") multiply-rotate hash is the appropriate trade-off, as
//! in rustc itself.
//!
//! [`Value`]: ranksql_common::Value

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash mixing function: rotate, xor, multiply.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Full-avalanche finalizer (murmur3's fmix64).  The multiply in
        // `add_to_hash` only propagates entropy upward, and the engine's
        // join keys concentrate their entropy in high bits (`Value` hashes
        // integers through their f64 bit pattern, whose mantissa low bits
        // are zero for small integers) — without the avalanche such keys
        // collide in the low bucket-index bits of a SwissTable, degrading
        // the join to linear probing.
        let mut h = self.hash;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        h
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Little-endian words, the last one zero-padded and followed by its
        // length.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
            if chunk.len() < 8 {
                self.add_to_hash(chunk.len() as u64);
            }
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// A `BuildHasher` producing [`FxHasher`]s (deterministic, zero-sized).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`] — the executor's join tables.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use ranksql_common::Value;
    use std::hash::{BuildHasher, Hash};

    fn fx_hash_of(v: &impl Hash) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal_and_unequal_keys_spread() {
        let a = vec![Value::from(1i64), Value::from("x")];
        let b = vec![Value::from(1i64), Value::from("x")];
        assert_eq!(fx_hash_of(&a), fx_hash_of(&b));
        let distinct: std::collections::HashSet<u64> =
            (0..1000i64).map(|i| fx_hash_of(&Value::from(i))).collect();
        assert!(
            distinct.len() > 990,
            "only {} distinct hashes",
            distinct.len()
        );
    }

    #[test]
    fn byte_writes_hash_as_full_words_then_a_padded_tail() {
        let bytes: Vec<u8> = (1..=24).collect();
        for len in 0..=bytes.len() {
            let (words, tail) = bytes[..len].split_at(len / 8 * 8);
            let mut reference = FxHasher::default();
            for w in words.chunks(8) {
                reference.add_to_hash(u64::from_le_bytes(w.try_into().unwrap()));
            }
            if !tail.is_empty() {
                let mut buf = [0u8; 8];
                buf[..tail.len()].copy_from_slice(tail);
                reference.add_to_hash(u64::from_le_bytes(buf));
                reference.add_to_hash(tail.len() as u64);
            }
            let mut h = FxHasher::default();
            h.write(&bytes[..len]);
            assert_eq!(h.finish(), reference.finish(), "{len} bytes");
        }
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<Vec<Value>, u32> = FxHashMap::default();
        m.insert(vec![Value::from(7i64)], 1);
        assert_eq!(m.get([Value::from(7i64)].as_slice()), Some(&1));
        assert_eq!(m.get([Value::from(8i64)].as_slice()), None);
    }
}
