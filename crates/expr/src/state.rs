//! Score states and ranked tuples: the bookkeeping of partial ranking.

use std::cmp::Ordering;

use ranksql_common::{BitSet64, Score, Tuple};

use crate::scoring::ScoringFunction;

/// Score storage: queries rarely rank by more than a handful of predicates,
/// so the scores live inline in the state (no heap allocation per tuple) up
/// to [`INLINE_PREDICATES`]; wider ranking contexts spill to a `Vec`.
///
/// Unused inline slots stay `0.0`, so the derived `PartialEq` matches the
/// previous `Vec`-based semantics (unevaluated positions are always `0.0`).
#[derive(Debug, Clone, PartialEq)]
enum Values {
    Inline {
        len: u8,
        data: [f64; INLINE_PREDICATES],
    },
    Heap(Vec<f64>),
}

/// Maximum number of ranking predicates stored inline in a [`ScoreState`]
/// without a heap allocation.
pub const INLINE_PREDICATES: usize = 6;

/// The most ranking predicates one query may have: the `BitSet64` tracking
/// a [`ScoreState`]'s evaluated set holds 64.
pub const MAX_RANKING_PREDICATES: usize = 64;

impl Values {
    fn new(n: usize) -> Self {
        if n <= INLINE_PREDICATES {
            Values::Inline {
                len: n as u8,
                data: [0.0; INLINE_PREDICATES],
            }
        } else {
            Values::Heap(vec![0.0; n])
        }
    }

    fn len(&self) -> usize {
        match self {
            Values::Inline { len, .. } => *len as usize,
            Values::Heap(v) => v.len(),
        }
    }

    fn as_slice(&self) -> &[f64] {
        match self {
            Values::Inline { len, data } => &data[..*len as usize],
            Values::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [f64] {
        match self {
            Values::Inline { len, data } => &mut data[..*len as usize],
            Values::Heap(v) => v,
        }
    }
}

/// Which of a query's ranking predicates have been evaluated for a tuple, and
/// with what scores.
///
/// A rank-relation `R_P` (Definition 1) is a relation whose tuples are ordered
/// by their maximal-possible score under the evaluated predicate set `P`.
/// `ScoreState` is the per-tuple record of `P` and the evaluated scores; the
/// upper bound is obtained by substituting the maximal predicate value for
/// every unevaluated predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreState {
    evaluated: BitSet64,
    /// Evaluated scores; positions not in `evaluated` are meaningless.
    values: Values,
}

impl ScoreState {
    /// A state over `n` predicates with nothing evaluated.
    ///
    /// Panics if `n > MAX_RANKING_PREDICATES` — the `BitSet64` tracking
    /// the evaluated set (and the spilled-state stack scratch of
    /// [`ScoreState::upper_bound`]) cap the engine at 64 ranking predicates
    /// per query.
    pub fn new(n: usize) -> Self {
        assert!(
            n <= MAX_RANKING_PREDICATES,
            "at most {MAX_RANKING_PREDICATES} ranking predicates are supported, got {n}"
        );
        ScoreState {
            evaluated: BitSet64::EMPTY,
            values: Values::new(n),
        }
    }

    /// Number of predicates tracked.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The set `P` of evaluated predicate indices.
    pub fn evaluated(&self) -> BitSet64 {
        self.evaluated
    }

    /// Whether predicate `i` has been evaluated.
    pub fn is_evaluated(&self, i: usize) -> bool {
        self.evaluated.contains(i)
    }

    /// Whether every predicate has been evaluated (the score is final).
    pub fn is_complete(&self) -> bool {
        self.evaluated.len() == self.values.len()
    }

    /// Records the score of predicate `i`.
    pub fn set(&mut self, i: usize, score: f64) {
        let values = self.values.as_mut_slice();
        assert!(i < values.len(), "predicate index {i} out of range");
        values[i] = score;
        self.evaluated.insert(i);
    }

    /// The evaluated score of predicate `i`, if present.
    pub fn get(&self, i: usize) -> Option<f64> {
        if self.is_evaluated(i) {
            Some(self.values.as_slice()[i])
        } else {
            None
        }
    }

    /// The maximal-possible score `F_P[t]` (Property 1): unevaluated
    /// predicates contribute `max_value`.
    pub fn upper_bound(&self, scoring: &ScoringFunction, max_value: f64) -> Score {
        self.bound_with(scoring, |_| max_value)
    }

    /// Like [`ScoreState::upper_bound`] but with a *per-predicate* maximum:
    /// unevaluated predicate `i` contributes `caps[i]` instead of one global
    /// maximum.  Callers supply data-derived caps (e.g. zone-map maxima), so
    /// the bound is tighter but still dominates every reachable final score.
    pub fn upper_bound_capped(&self, scoring: &ScoringFunction, caps: &[f64]) -> Score {
        debug_assert_eq!(caps.len(), self.arity(), "cap arity mismatch");
        self.bound_with(scoring, |i| caps[i])
    }

    /// Combines the evaluated scores with `fill(i)` for every unevaluated
    /// predicate `i`.
    ///
    /// Hot path (ranking queues call this once per push): the filled vector
    /// lives in a stack scratch sized to the state — the inline width for
    /// the states queries actually have, the `BitSet64` cap of 64 only for
    /// spilled ones — so a call zeroes 48 bytes, not 512.
    fn bound_with(&self, scoring: &ScoringFunction, fill: impl Fn(usize) -> f64) -> Score {
        let values = self.values.as_slice();
        let combine = |scratch: &mut [f64]| {
            for (i, slot) in scratch.iter_mut().enumerate() {
                *slot = if self.evaluated.contains(i) {
                    values[i]
                } else {
                    fill(i)
                };
            }
            scoring.combine(scratch)
        };
        match &self.values {
            Values::Inline { len, .. } => combine(&mut [0.0; INLINE_PREDICATES][..*len as usize]),
            Values::Heap(v) => combine(&mut [0.0; 64][..v.len()]),
        }
    }

    /// Merges two score states over the same predicate universe (used by
    /// binary operators: the output order is induced by `P1 ∪ P2`).
    ///
    /// When both sides evaluated the same predicate the left value wins; the
    /// engine only merges states for the *same* underlying tuple (set
    /// operators) or for tuples over disjoint relations (joins), so the
    /// values agree whenever they overlap.
    #[inline]
    pub fn merge(&self, other: &ScoreState) -> ScoreState {
        self.merge_scores(other.evaluated, other.scores())
    }

    /// [`ScoreState::merge`] with a state given by its evaluated set and
    /// score vector (see [`ScoreState::scores`]).
    pub fn merge_scores(&self, evaluated: BitSet64, scores: &[f64]) -> ScoreState {
        debug_assert_eq!(
            self.arity(),
            scores.len(),
            "merging states of different arity"
        );
        let mut out = self.clone();
        for i in evaluated.iter() {
            if !out.evaluated.contains(i) {
                out.set(i, scores[i]);
            }
        }
        out
    }

    /// The score vector, one entry per predicate; an entry not in
    /// [`ScoreState::evaluated`] is meaningless.
    pub fn scores(&self) -> &[f64] {
        self.values.as_slice()
    }
}

/// A tuple travelling through a ranking query plan together with its score
/// state.  This is the unit of data flow between rank-aware operators.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedTuple {
    /// The tuple.
    pub tuple: Tuple,
    /// Its score state.
    pub state: ScoreState,
}

impl RankedTuple {
    /// Wraps a tuple with a fresh (unevaluated) state over `n` predicates.
    pub fn unranked(tuple: Tuple, n: usize) -> Self {
        RankedTuple {
            tuple,
            state: ScoreState::new(n),
        }
    }

    /// Wraps a tuple with a given state.
    pub fn new(tuple: Tuple, state: ScoreState) -> Self {
        RankedTuple { tuple, state }
    }

    /// The maximal-possible score of this tuple.
    pub fn upper_bound(&self, scoring: &ScoringFunction, max_value: f64) -> Score {
        self.state.upper_bound(scoring, max_value)
    }

    /// Joins two ranked tuples: concatenates values, combines identities and
    /// merges score states (the aggregate order of the paper's join
    /// definition: ordered by `P1 ∪ P2`).
    pub fn join(&self, other: &RankedTuple) -> RankedTuple {
        RankedTuple {
            tuple: self.tuple.join(&other.tuple),
            state: self.state.merge(&other.state),
        }
    }

    /// Total order used everywhere ranked streams need determinism:
    /// descending upper bound, ties broken by ascending tuple id.
    pub fn cmp_desc(
        &self,
        other: &RankedTuple,
        scoring: &ScoringFunction,
        max_value: f64,
    ) -> Ordering {
        other
            .upper_bound(scoring, max_value)
            .cmp(&self.upper_bound(scoring, max_value))
            .then_with(|| self.tuple.id().cmp(other.tuple.id()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksql_common::Value;

    fn t(n: u64) -> Tuple {
        Tuple::synthetic(n, vec![Value::from(n as i64)])
    }

    #[test]
    fn a_ranked_tuple_fits_in_120_bytes() {
        assert!(std::mem::size_of::<RankedTuple>() <= 120);
    }

    #[test]
    fn fresh_state_has_full_upper_bound() {
        let s = ScoreState::new(3);
        assert_eq!(s.upper_bound(&ScoringFunction::Sum, 1.0), Score::new(3.0));
        assert!(!s.is_complete());
        assert!((0..s.arity()).all(|i| s.get(i).is_none()));
    }

    #[test]
    fn set_and_upper_bound_progression() {
        // Mirrors Figure 6(b): p3 = 0.9 seen → 2.9; then p4 = 0.85 → 2.75...
        let mut s = ScoreState::new(3);
        s.set(0, 0.9);
        assert_eq!(s.upper_bound(&ScoringFunction::Sum, 1.0), Score::new(2.9));
        s.set(1, 0.85);
        assert_eq!(s.upper_bound(&ScoringFunction::Sum, 1.0), Score::new(2.75));
        s.set(2, 0.8);
        assert!(s.is_complete());
        assert_eq!(s.upper_bound(&ScoringFunction::Sum, 1.0), Score::new(2.55));
        assert_eq!(s.get(1), Some(0.85));
        assert_eq!(s.get(2), Some(0.8));
    }

    #[test]
    fn upper_bound_is_monotone_decreasing_as_predicates_evaluate() {
        let mut s = ScoreState::new(4);
        let f = ScoringFunction::Sum;
        let mut prev = s.upper_bound(&f, 1.0);
        for (i, v) in [(0, 0.4), (1, 0.9), (2, 0.0), (3, 1.0)] {
            s.set(i, v);
            let now = s.upper_bound(&f, 1.0);
            assert!(now <= prev, "upper bound must never increase");
            prev = now;
        }
    }

    #[test]
    fn spilled_state_bounds_like_an_inline_one() {
        // Past the inline width the scratch switches size, not meaning.
        let n = INLINE_PREDICATES + 3;
        let mut s = ScoreState::new(n);
        s.set(0, 0.25);
        s.set(n - 1, 0.5);
        let f = ScoringFunction::Sum;
        assert_eq!(s.upper_bound(&f, 1.0), Score::new(0.75 + (n - 2) as f64));
        let caps = vec![0.5; n];
        assert_eq!(
            s.upper_bound_capped(&f, &caps),
            Score::new(0.75 + 0.5 * (n - 2) as f64)
        );
    }

    #[test]
    fn merge_unions_evaluated_sets() {
        let mut a = ScoreState::new(3);
        a.set(0, 0.5);
        let mut b = ScoreState::new(3);
        b.set(2, 0.25);
        let m = a.merge(&b);
        assert_eq!(m.evaluated(), BitSet64::from_indices([0, 2]));
        assert_eq!(m.get(0), Some(0.5));
        assert_eq!(m.get(2), Some(0.25));
        assert_eq!(m.upper_bound(&ScoringFunction::Sum, 1.0), Score::new(1.75));
    }

    #[test]
    fn merge_overlap_keeps_left() {
        let mut a = ScoreState::new(2);
        a.set(0, 0.3);
        let mut b = ScoreState::new(2);
        b.set(0, 0.3);
        b.set(1, 0.6);
        let m = a.merge(&b);
        assert_eq!(m.get(0), Some(0.3));
        assert_eq!(m.get(1), Some(0.6));
    }

    #[test]
    fn ranked_tuple_join_merges_scores_and_values() {
        let mut sa = ScoreState::new(3);
        sa.set(0, 0.9);
        let mut sb = ScoreState::new(3);
        sb.set(1, 0.7);
        let a = RankedTuple::new(t(1), sa);
        let b = RankedTuple::new(t(2), sb);
        let j = a.join(&b);
        assert_eq!(j.tuple.arity(), 2);
        assert_eq!(j.state.evaluated().len(), 2);
        assert_eq!(
            j.upper_bound(&ScoringFunction::Sum, 1.0),
            Score::new(0.9 + 0.7 + 1.0)
        );
    }

    #[test]
    fn cmp_desc_orders_by_score_then_id() {
        let f = ScoringFunction::Sum;
        let mut s1 = ScoreState::new(1);
        s1.set(0, 0.9);
        let mut s2 = ScoreState::new(1);
        s2.set(0, 0.5);
        let hi = RankedTuple::new(t(5), s1.clone());
        let lo = RankedTuple::new(t(1), s2);
        assert_eq!(hi.cmp_desc(&lo, &f, 1.0), Ordering::Less); // hi sorts first
        let tie_a = RankedTuple::new(t(1), s1.clone());
        let tie_b = RankedTuple::new(t(2), s1);
        assert_eq!(tie_a.cmp_desc(&tie_b, &f, 1.0), Ordering::Less);
    }

    #[test]
    #[should_panic]
    fn out_of_range_set_panics() {
        let mut s = ScoreState::new(1);
        s.set(3, 0.1);
    }
}
