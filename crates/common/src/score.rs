//! Totally ordered ranking scores.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Sub};

/// A ranking score: an `f64` with a *total* order.
///
/// Ranking-predicate scores and maximal-possible scores (`F_P[t]`, Property 1
/// of the paper) are represented by this type so they can be used directly as
/// priority-queue and B-tree keys.  `NaN` is ordered below every other score
/// (a tuple with an undefined score can never displace a ranked one).
#[derive(Debug, Clone, Copy, Default)]
pub struct Score(pub f64);

impl Score {
    /// The score `0.0`.
    pub const ZERO: Score = Score(0.0);
    /// The score `1.0` — the maximal possible value of a single ranking
    /// predicate (the paper assumes predicate scores lie in `[0, 1]`).
    pub const ONE: Score = Score(1.0);

    /// Creates a score from a raw float.
    pub fn new(v: f64) -> Self {
        Score(v)
    }

    /// The raw float value.
    pub fn value(self) -> f64 {
        self.0
    }

    /// This score's place in the total order as an integer: NaN is 0, below
    /// every number, and `-0.0` maps where `0.0` does.  `Ord` compares these
    /// keys, and a sort can key on them directly.
    pub fn order_key(self) -> u64 {
        if self.0.is_nan() {
            return 0;
        }
        let bits = if self.0 == 0.0 { 0 } else { self.0.to_bits() };
        // Non-negative floats order as their bits; negative ones in reverse.
        if bits >> 63 == 0 {
            bits | 1 << 63
        } else {
            !bits
        }
    }

    /// Clamps the score into `[0, 1]`.
    pub fn clamp_unit(self) -> Score {
        Score(self.0.clamp(0.0, 1.0))
    }

    /// Returns the larger of two scores.
    pub fn max(self, other: Score) -> Score {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two scores.
    pub fn min(self, other: Score) -> Score {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl PartialEq for Score {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Score {}

impl PartialOrd for Score {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Score {
    fn cmp(&self, other: &Self) -> Ordering {
        self.order_key().cmp(&other.order_key())
    }
}

impl Add for Score {
    type Output = Score;
    fn add(self, rhs: Score) -> Score {
        Score(self.0 + rhs.0)
    }
}

impl Sub for Score {
    type Output = Score;
    fn sub(self, rhs: Score) -> Score {
        Score(self.0 - rhs.0)
    }
}

impl From<f64> for Score {
    fn from(v: f64) -> Self {
        Score(v)
    }
}

impl fmt::Display for Score {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn total_order_with_nan_lowest() {
        let mut v = [Score(0.5), Score(f64::NAN), Score(1.5), Score(-1.0)];
        v.sort();
        assert!(v[0].0.is_nan());
        assert_eq!(v[1], Score(-1.0));
        assert_eq!(v[3], Score(1.5));
    }

    /// The values the grid tests cover: ties, NaN, ±0.0, ±∞, subnormals.
    pub(crate) const GRID: [f64; 14] = [
        f64::NAN,
        -f64::NAN,
        f64::NEG_INFINITY,
        f64::MIN,
        -1.0,
        -f64::MIN_POSITIVE / 2.0,
        -0.0,
        0.0,
        f64::MIN_POSITIVE / 2.0,
        f64::MIN_POSITIVE,
        0.5,
        1.0,
        f64::MAX,
        f64::INFINITY,
    ];

    #[test]
    fn order_key_agrees_with_the_float_comparison() {
        // The definition `Ord` had before it compared keys.
        let reference = |a: f64, b: f64| match (a.is_nan(), b.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => a.partial_cmp(&b).unwrap(),
        };
        for a in GRID {
            for b in GRID {
                assert_eq!(Score(a).cmp(&Score(b)), reference(a, b), "{a} vs {b}");
            }
        }
        assert_eq!(Score(-0.0).order_key(), Score(0.0).order_key());
        assert_eq!(Score(f64::NAN).order_key(), 0);
        assert!(Score(f64::NEG_INFINITY).order_key() > 0);
    }

    #[test]
    fn arithmetic_and_constants() {
        assert_eq!(Score::ZERO + Score::ONE, Score(1.0));
        assert_eq!(Score(0.75) - Score(0.25), Score(0.5));
        assert_eq!(Score(3.0).clamp_unit(), Score::ONE);
        assert_eq!(Score(-0.5).clamp_unit(), Score::ZERO);
    }

    #[test]
    fn min_max_helpers() {
        assert_eq!(Score(0.2).max(Score(0.8)), Score(0.8));
        assert_eq!(Score(0.2).min(Score(0.8)), Score(0.2));
        assert_eq!(Score(f64::NAN).max(Score(0.1)), Score(0.1));
    }

    #[test]
    fn display_rounds() {
        assert_eq!(Score(0.123456).to_string(), "0.1235");
    }
}
