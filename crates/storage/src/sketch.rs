//! Staged distinct-count sketches for the statistics catalog.
//!
//! The catalog needs a number-of-distinct-values (NDV) figure per column
//! that is cheap to maintain on every insert and cheap to merge across the
//! 1024-row blocks the columnar layer already works in.  An exact
//! `HashSet<Value>` gives the right answer but costs a full-column scan to
//! (re)build and unbounded memory to keep; a plain HyperLogLog gives bounded
//! memory but throws away exactness for the small columns where the
//! optimizer's selectivity arithmetic is most sensitive to NDV error.
//!
//! [`DistinctSketch`] therefore grows through three representations:
//!
//! 1. **Small** — up to [`SMALL_CAPACITY`] hashes inline, exact;
//! 2. **Array** — a sorted, deduplicated packed array of up to
//!    [`ARRAY_CAPACITY`] hashes, still exact (modulo 64-bit hash
//!    collisions, negligible at this size);
//! 3. **Hll** — HyperLogLog++ registers (`2^`[`HLL_PRECISION`] bytes) with
//!    the zero-register count and harmonic sum maintained incrementally, so
//!    estimation is O(1) rather than a pass over the registers.
//!
//! Every stage supports `insert` and lossless `merge` into the larger of
//! the two operands' stages, which is what makes per-block partial sketches
//! (built alongside the zone maps) foldable into a per-column total without
//! rescanning the column.
//!
//! Values are hashed through [`Value`]'s `Hash` impl — which already
//! canonicalises `-0.0`/`NaN` and hashes `Int64`/`Float64` identically when
//! numerically equal — into a fixed-key 64-bit FNV-1a, so sketches are
//! deterministic across runs and processes (the std `RandomState` is not).

use std::hash::{Hash, Hasher};

use ranksql_common::Value;

/// Maximum number of distinct hashes held inline by the `Small` stage.
pub const SMALL_CAPACITY: usize = 16;

/// Maximum number of distinct hashes held by the exact `Array` stage.
///
/// NDV answers are exact up to this many distinct values — comfortably
/// above the distinct counts of the synthetic workload's join columns, so
/// the optimizer's equi-join arithmetic sees exact counts there and the
/// ±2 % HLL error only applies to genuinely high-cardinality columns.
pub const ARRAY_CAPACITY: usize = 1024;

/// HyperLogLog precision: `2^12 = 4096` one-byte registers (~0.8 KiB after
/// the `Vec` is shared per column, standard error ≈ 1.04 / √4096 ≈ 1.6 %).
pub const HLL_PRECISION: u32 = 12;

const HLL_REGISTERS: usize = 1 << HLL_PRECISION;

/// A 64-bit FNV-1a hasher with fixed keys: deterministic across runs, which
/// keeps sketches reproducible and mergeable between independently built
/// block partials.
#[derive(Debug, Clone)]
pub struct StableHasher(u64);

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        // One finalization round (SplitMix64) on top of FNV-1a: FNV's low
        // bits are weak, and HLL reads both the low `p` bits (register
        // index) and the leading-zero count of the rest.
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
}

/// Hashes a value with the catalog's stable hasher.
pub fn stable_value_hash(v: &Value) -> u64 {
    let mut h = StableHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// The three representations a sketch grows through.
#[derive(Debug, Clone, PartialEq)]
enum Repr {
    /// Unsorted inline hashes, linear-probed (tiny, exact).
    Small(Vec<u64>),
    /// Sorted deduplicated hashes (exact, binary-searched).
    Array(Vec<u64>),
    /// HyperLogLog++ registers with incrementally maintained summaries.
    Hll {
        registers: Vec<u8>,
        /// Number of registers still at zero (drives linear counting).
        zeros: usize,
        /// `Σ 2^-register`, maintained on every register raise so the
        /// harmonic-mean estimate needs no register pass.
        harmonic_sum: f64,
    },
}

/// A staged distinct-count sketch: exact small set → exact packed array →
/// HyperLogLog++ registers.
#[derive(Debug, Clone, PartialEq)]
pub struct DistinctSketch {
    repr: Repr,
}

impl Default for DistinctSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl DistinctSketch {
    /// An empty sketch (starts in the `Small` stage).
    pub fn new() -> Self {
        DistinctSketch {
            repr: Repr::Small(Vec::new()),
        }
    }

    /// Observes one value.
    pub fn insert(&mut self, v: &Value) {
        self.insert_hash(stable_value_hash(v));
    }

    /// Observes one pre-hashed value.
    pub fn insert_hash(&mut self, h: u64) {
        match &mut self.repr {
            Repr::Small(hashes) => {
                if hashes.contains(&h) {
                    return;
                }
                hashes.push(h);
                if hashes.len() > SMALL_CAPACITY {
                    self.promote_to_array();
                }
            }
            Repr::Array(hashes) => {
                if let Err(pos) = hashes.binary_search(&h) {
                    hashes.insert(pos, h);
                    if hashes.len() > ARRAY_CAPACITY {
                        self.promote_to_hll();
                    }
                }
            }
            Repr::Hll { .. } => self.hll_insert(h),
        }
    }

    /// Observes many pre-hashed values, leaving the sketch that inserting
    /// them one by one leaves: the small stage takes them in order, and
    /// the exact array stage, when they all fit in it, in one sort.
    pub fn insert_hashes(&mut self, hashes: &[u64]) {
        let mut rest = hashes;
        while let (Repr::Small(_), [h, tail @ ..]) = (&self.repr, rest) {
            self.insert_hash(*h);
            rest = tail;
        }
        match &mut self.repr {
            Repr::Array(array) if array.len() + rest.len() <= ARRAY_CAPACITY => {
                array.extend_from_slice(rest);
                array.sort_unstable();
                array.dedup();
            }
            _ => rest.iter().for_each(|&h| self.insert_hash(h)),
        }
    }

    /// The estimated number of distinct values observed.
    ///
    /// Exact while the sketch is in the `Small` or `Array` stage (up to
    /// [`ARRAY_CAPACITY`] distinct values); a HyperLogLog++ estimate with
    /// ~1.6 % standard error beyond that.
    pub fn estimate(&self) -> usize {
        match &self.repr {
            Repr::Small(hashes) => hashes.len(),
            Repr::Array(hashes) => hashes.len(),
            Repr::Hll {
                zeros,
                harmonic_sum,
                ..
            } => {
                let m = HLL_REGISTERS as f64;
                // Linear counting while many registers are empty (the
                // small-range correction of HLL++).
                if *zeros > 0 {
                    let linear = m * (m / *zeros as f64).ln();
                    if linear <= 2.5 * m {
                        return linear.round() as usize;
                    }
                }
                let alpha = 0.7213 / (1.0 + 1.079 / m);
                (alpha * m * m / harmonic_sum).round() as usize
            }
        }
    }

    /// Whether the sketch is still exact (below the packed-array capacity).
    pub fn is_exact(&self) -> bool {
        !matches!(self.repr, Repr::Hll { .. })
    }

    /// Name of the current stage (`"small"`, `"array"` or `"hll"`), for
    /// diagnostics and `EXPLAIN ANALYZE` output.
    pub fn stage(&self) -> &'static str {
        match self.repr {
            Repr::Small(_) => "small",
            Repr::Array(_) => "array",
            Repr::Hll { .. } => "hll",
        }
    }

    /// Folds `other` into `self`.
    ///
    /// Merging is lossless with respect to the information either operand
    /// holds: two exact sketches merge exactly (promoting stages only when
    /// capacity demands it), and any operand already in the `Hll` stage
    /// forces the merged sketch into registers, where merge is the
    /// register-wise maximum.
    pub fn merge(&mut self, other: &DistinctSketch) {
        match &other.repr {
            Repr::Small(hashes) | Repr::Array(hashes) => self.insert_hashes(hashes),
            Repr::Hll {
                registers: other_regs,
                ..
            } => {
                if self.is_exact() {
                    self.promote_to_hll();
                }
                if let Repr::Hll {
                    registers,
                    zeros,
                    harmonic_sum,
                } = &mut self.repr
                {
                    for (r, &o) in registers.iter_mut().zip(other_regs) {
                        if o > *r {
                            if *r == 0 {
                                *zeros -= 1;
                            }
                            *harmonic_sum -= pow2_neg(*r);
                            *harmonic_sum += pow2_neg(o);
                            *r = o;
                        }
                    }
                }
            }
        }
    }

    fn promote_to_array(&mut self) {
        if let Repr::Small(hashes) = &mut self.repr {
            let mut sorted = std::mem::take(hashes);
            sorted.sort_unstable();
            sorted.dedup();
            self.repr = Repr::Array(sorted);
        }
    }

    fn promote_to_hll(&mut self) {
        let hashes = match &mut self.repr {
            Repr::Small(h) | Repr::Array(h) => std::mem::take(h),
            Repr::Hll { .. } => return,
        };
        self.repr = Repr::Hll {
            registers: vec![0u8; HLL_REGISTERS],
            zeros: HLL_REGISTERS,
            harmonic_sum: HLL_REGISTERS as f64,
        };
        for h in hashes {
            self.hll_insert(h);
        }
    }

    fn hll_insert(&mut self, h: u64) {
        if let Repr::Hll {
            registers,
            zeros,
            harmonic_sum,
        } = &mut self.repr
        {
            let idx = (h & (HLL_REGISTERS as u64 - 1)) as usize;
            // Rank of the first set bit in the remaining 64 - p bits.
            let rest = h >> HLL_PRECISION;
            let rank = (rest.trailing_zeros().min(63 - HLL_PRECISION) + 1) as u8;
            let r = &mut registers[idx];
            if rank > *r {
                if *r == 0 {
                    *zeros -= 1;
                }
                *harmonic_sum -= pow2_neg(*r);
                *harmonic_sum += pow2_neg(rank);
                *r = rank;
            }
        }
    }
}

/// `2^-r` for a register value.
fn pow2_neg(r: u8) -> f64 {
    f64::from_bits((1023u64 - u64::from(r)) << 52)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_of(n: u64) -> DistinctSketch {
        let mut s = DistinctSketch::new();
        for i in 0..n {
            s.insert(&Value::from(i as i64));
        }
        s
    }

    /// Batched inserts leave the sketch one-by-one inserts leave, through
    /// every stage and across batches that cross a stage's capacity.
    #[test]
    fn batched_inserts_equal_one_by_one_inserts() {
        let mut state = 7u64;
        let mut hashes = Vec::new();
        for n in 0..3000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(n);
            // Repeats keep the dedup honest.
            hashes.push(if n % 3 == 0 { n / 2 } else { state });
        }
        for batch in [1, 5, 16, 17, 100, 1000, 1025, 3000] {
            let (mut batched, mut single) = (DistinctSketch::new(), DistinctSketch::new());
            for chunk in hashes.chunks(batch) {
                batched.insert_hashes(chunk);
                chunk.iter().for_each(|&h| single.insert_hash(h));
                assert_eq!(batched, single, "batches of {batch}");
            }
        }
    }

    #[test]
    fn exact_through_small_and_array_stages() {
        let s = sketch_of(10);
        assert_eq!(s.stage(), "small");
        assert_eq!(s.estimate(), 10);
        let s = sketch_of(500);
        assert_eq!(s.stage(), "array");
        assert_eq!(s.estimate(), 500);
        assert!(s.is_exact());
        // Duplicates never inflate the count.
        let mut s = sketch_of(100);
        for i in 0..100 {
            s.insert(&Value::from(i as i64));
        }
        assert_eq!(s.estimate(), 100);
    }

    #[test]
    fn hll_stage_estimates_within_tolerance() {
        for n in [5_000u64, 50_000] {
            let s = sketch_of(n);
            assert_eq!(s.stage(), "hll");
            assert!(!s.is_exact());
            let est = s.estimate() as f64;
            let err = (est - n as f64).abs() / n as f64;
            assert!(err < 0.05, "n = {n}: estimate {est} off by {err:.3}");
        }
    }

    #[test]
    fn merge_of_partials_matches_from_scratch() {
        for n in [40u64, 2_000, 20_000] {
            let whole = sketch_of(n);
            // Build per-1024 block partials, merge them in order.
            let mut merged = DistinctSketch::new();
            let mut lo = 0;
            while lo < n {
                let hi = (lo + 1024).min(n);
                let mut part = DistinctSketch::new();
                for i in lo..hi {
                    part.insert(&Value::from(i as i64));
                }
                merged.merge(&part);
                lo = hi;
            }
            assert_eq!(merged, whole, "n = {n}");
        }
    }

    #[test]
    fn merge_with_overlap_does_not_double_count() {
        let mut a = sketch_of(300);
        let b = sketch_of(300);
        a.merge(&b);
        assert_eq!(a.estimate(), 300);
    }

    #[test]
    fn merge_into_hll_operand_is_register_max() {
        let mut big = sketch_of(10_000);
        let small = sketch_of(100);
        let before = big.estimate();
        big.merge(&small); // subset: estimate must not move
        assert_eq!(big.estimate(), before);

        // Exact ∪ HLL promotes the exact side.
        let mut exact = sketch_of(100);
        exact.merge(&sketch_of(10_000));
        assert_eq!(exact.stage(), "hll");
        let est = exact.estimate() as f64;
        assert!((est - 10_000.0).abs() / 10_000.0 < 0.05, "estimate {est}");
    }

    #[test]
    fn numeric_cross_type_values_hash_identically() {
        let mut s = DistinctSketch::new();
        s.insert(&Value::from(3i64));
        s.insert(&Value::from(3.0f64));
        s.insert(&Value::from(0.0f64));
        s.insert(&Value::from(-0.0f64));
        assert_eq!(s.estimate(), 2);
    }

    #[test]
    fn empty_sketch() {
        let s = DistinctSketch::new();
        assert_eq!(s.estimate(), 0);
        assert!(s.is_exact());
        let mut a = DistinctSketch::new();
        a.merge(&s);
        assert_eq!(a.estimate(), 0);
    }
}
