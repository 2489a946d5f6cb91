//! Tuples (rows) and their provenance identities.

use std::fmt;
use std::sync::Arc;

use crate::value::Value;

#[derive(Debug, Clone)]
enum IdParts {
    /// A single-constituent (base-table or synthetic) identity, stored
    /// inline: cloning a base tuple allocates nothing, which matters on the
    /// scan hot path where every snapshot clone copies N identities.
    Single([(u32, u64); 1]),
    /// A two-constituent join identity (sorted), also inline: joining two
    /// base tuples allocates only the joined values.
    Pair([(u32, u64); 2]),
    /// A join identity of ≥ 3 constituents (sorted); `Arc`-shared so
    /// cloning join results into ranking queues and hash tables is one
    /// refcount bump instead of a heap allocation.
    Joined(Arc<[(u32, u64)]>),
}

/// The identity of a tuple.
///
/// Base-table tuples are identified by `(table_id, row_index)`; tuples
/// produced by joins carry the identities of all their constituents.  The
/// identity serves two purposes in the rank-relational model:
///
/// 1. a deterministic tie-breaker when maximal-possible scores are equal
///    (Definition 1 allows "an arbitrary deterministic tie-breaker function,
///    e.g. by unique tuple IDs"), and
/// 2. duplicate detection for the set operators (∪, ∩, −) and for counting
///    distinct tuples in the cardinality estimator.
///
/// Equality, ordering and hashing are all defined over [`TupleId::parts`],
/// regardless of the internal representation.
pub struct TupleId {
    parts: IdParts,
}

impl TupleId {
    /// Identity of a base-table tuple.
    pub fn base(table_id: u32, row_index: u64) -> Self {
        TupleId {
            parts: IdParts::Single([(table_id, row_index)]),
        }
    }

    /// An identity for tuples synthesised outside any table (e.g. literals in
    /// tests); uses table id `u32::MAX`.
    pub fn synthetic(n: u64) -> Self {
        TupleId::base(u32::MAX, n)
    }

    /// Combines two identities (join / product): the result is the multiset
    /// union of constituents kept in sorted order so that combination is
    /// commutative and associative.
    #[inline]
    pub fn combine(&self, other: &TupleId) -> TupleId {
        self.combine_parts(other.parts())
    }

    /// [`TupleId::combine`] with an identity given by its sorted
    /// constituents, as [`TupleId::parts`] lists them.
    pub fn combine_parts(&self, b: &[(u32, u64)]) -> TupleId {
        let a = self.parts();
        // Base ⋈ base is the overwhelmingly common case on the join hot
        // path: order the two constituents inline, with no allocation.
        let parts = match (a, b) {
            ([x], [y]) => IdParts::Pair(if x <= y { [*x, *y] } else { [*y, *x] }),
            _ => {
                // `merged` yields exactly `n` parts; a range-driven map is
                // exact-size, so they collect in one allocation.
                let mut merged = merged_parts(a, b);
                let n = a.len() + b.len();
                IdParts::Joined((0..n).map(|_| merged.next().unwrap_or_default()).collect())
            }
        };
        TupleId { parts }
    }

    /// The constituent `(table_id, row_index)` pairs.
    pub fn parts(&self) -> &[(u32, u64)] {
        match &self.parts {
            IdParts::Single(one) => one,
            IdParts::Pair(two) => two,
            IdParts::Joined(many) => many,
        }
    }

    /// Orders the join identities `a ⋈ b` and `c ⋈ d` exactly as
    /// `a.combine(b).cmp(&c.combine(d))` would, without building either:
    /// each side's sorted constituents are merged on the fly.  This is how a
    /// rank-join tie-breaks candidates it has not materialised yet.
    pub fn cmp_combined(a: &TupleId, b: &TupleId, c: &TupleId, d: &TupleId) -> std::cmp::Ordering {
        merged_parts(a.parts(), b.parts()).cmp(merged_parts(c.parts(), d.parts()))
    }
}

/// The sorted multiset union of two sorted constituent lists — the parts
/// [`TupleId::combine`] would store, as an iterator.
fn merged_parts<'a>(
    mut a: &'a [(u32, u64)],
    mut b: &'a [(u32, u64)],
) -> impl Iterator<Item = (u32, u64)> + 'a {
    std::iter::from_fn(move || {
        let from_a = match (a.first(), b.first()) {
            (Some(x), Some(y)) => x <= y,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        let side = if from_a { &mut a } else { &mut b };
        let (head, rest) = side.split_first()?;
        *side = rest;
        Some(*head)
    })
}

impl Clone for TupleId {
    fn clone(&self) -> Self {
        TupleId {
            parts: self.parts.clone(),
        }
    }
}

impl fmt::Debug for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TupleId")
            .field("parts", &self.parts())
            .finish()
    }
}

impl PartialEq for TupleId {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for TupleId {}

impl std::hash::Hash for TupleId {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialOrd for TupleId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TupleId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.parts().cmp(other.parts())
    }
}

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#")?;
        for (i, (t, r)) in self.parts().iter().enumerate() {
            if i > 0 {
                write!(f, "+")?;
            }
            if *t == u32::MAX {
                write!(f, "s{r}")?;
            } else {
                write!(f, "{t}:{r}")?;
            }
        }
        Ok(())
    }
}

/// A row of values together with its identity.
///
/// The values are one shared slice (`Arc<[Value]>`, header and values in a
/// single allocation) because tuples are buffered in priority queues, hash
/// tables and sample caches simultaneously.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tuple {
    id: TupleId,
    values: Arc<[Value]>,
}

impl Tuple {
    /// Creates a tuple with an explicit identity.  An exact-size iterator
    /// (a `Vec`, an array, a `map` over a range or slice) is collected
    /// straight into the tuple's one allocation.
    pub fn new(id: TupleId, values: impl IntoIterator<Item = Value>) -> Self {
        Tuple {
            id,
            values: values.into_iter().collect(),
        }
    }

    /// Creates a synthetic tuple (identity derived from `n`).
    pub fn synthetic(n: u64, values: impl IntoIterator<Item = Value>) -> Self {
        Tuple::new(TupleId::synthetic(n), values)
    }

    /// The identity of this tuple.
    pub fn id(&self) -> &TupleId {
        &self.id
    }

    /// The values of this tuple.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The value at column `i`.
    pub fn value(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Concatenates two tuples (join / product), combining identities.
    /// Allocates once when the result has two constituents, twice past that.
    pub fn join(&self, other: &Tuple) -> Tuple {
        Tuple::new(
            self.id.combine(&other.id),
            self.values.iter().chain(other.values.iter()).cloned(),
        )
    }

    /// Projects this tuple onto the given column indices (keeping identity).
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple::new(
            self.id.clone(),
            indices.iter().map(|&i| self.values[i].clone()),
        )
    }
}

/// Read access to a row's values by column index: what bound expressions
/// evaluate against, so a join can test its condition on a pair of tuples
/// before (or without ever) concatenating them.
pub trait Row {
    /// The value at column `i`, or `None` past the row's arity.
    fn get(&self, i: usize) -> Option<&Value>;

    /// Number of columns.
    fn arity(&self) -> usize;
}

impl Row for Tuple {
    fn get(&self, i: usize) -> Option<&Value> {
        self.values.get(i)
    }

    fn arity(&self) -> usize {
        self.values.len()
    }
}

impl Row for [Value] {
    fn get(&self, i: usize) -> Option<&Value> {
        <[Value]>::get(self, i)
    }

    fn arity(&self) -> usize {
        self.len()
    }
}

/// The concatenation `left ++ right` viewed in place: column `i` of the
/// joined schema is `left[i]` below the left arity and `right[i - arity]`
/// from there on — the same layout [`Tuple::join`] materialises.
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinedRow<'a> {
    /// The left constituent's values.
    pub left: &'a [Value],
    /// The right constituent's values.
    pub right: &'a [Value],
}

impl Row for JoinedRow<'_> {
    fn get(&self, i: usize) -> Option<&Value> {
        match i.checked_sub(self.left.len()) {
            None => self.left.get(i),
            Some(j) => self.right.get(j),
        }
    }

    fn arity(&self) -> usize {
        self.left.len() + self.right.len()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.id)?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_and_synthetic_ids_differ() {
        assert_ne!(TupleId::base(0, 1), TupleId::synthetic(1));
        assert_eq!(TupleId::base(2, 3), TupleId::base(2, 3));
    }

    #[test]
    fn pair_identities_are_inline() {
        assert_eq!(std::mem::size_of::<TupleId>(), 40);
        assert_eq!(std::mem::size_of::<Tuple>(), 56);
        let pair = TupleId::base(2, 20).combine(&TupleId::base(1, 10));
        assert!(matches!(pair.parts, IdParts::Pair(_)));
        assert_eq!(pair.parts(), &[(1, 10), (2, 20)]);
        let triple = pair.combine(&TupleId::base(1, 5));
        assert_eq!(triple.parts(), &[(1, 5), (1, 10), (2, 20)]);
    }

    #[test]
    fn combine_is_commutative() {
        let a = TupleId::base(1, 10);
        let b = TupleId::base(2, 20);
        assert_eq!(a.combine(&b), b.combine(&a));
    }

    #[test]
    fn combine_is_associative() {
        let a = TupleId::base(1, 1);
        let b = TupleId::base(2, 2);
        let c = TupleId::base(3, 3);
        assert_eq!(a.combine(&b).combine(&c), a.combine(&b.combine(&c)));
    }

    #[test]
    fn join_concatenates_values_and_ids() {
        let t1 = Tuple::new(TupleId::base(0, 0), vec![Value::from(1), Value::from(2)]);
        let t2 = Tuple::new(TupleId::base(1, 5), vec![Value::from("x")]);
        let j = t1.join(&t2);
        assert_eq!(j.arity(), 3);
        assert_eq!(j.value(2), &Value::from("x"));
        assert_eq!(j.id().parts().len(), 2);
    }

    #[test]
    fn cmp_combined_matches_materialised_order() {
        // Every pairing of single and joined identities, including shared
        // prefixes and duplicates, orders like the combined identities.
        let singles: Vec<TupleId> = [(0, 3), (0, 7), (1, 0), (1, 3), (2, 5)]
            .iter()
            .map(|&(t, r)| TupleId::base(t, r))
            .collect();
        let mut ids = singles.clone();
        for a in &singles {
            for b in &singles {
                ids.push(a.combine(b));
            }
        }
        for a in &ids {
            for b in &singles {
                for c in &ids {
                    for d in &singles {
                        assert_eq!(
                            TupleId::cmp_combined(a, b, c, d),
                            a.combine(b).cmp(&c.combine(d)),
                            "{a} ⋈ {b} vs {c} ⋈ {d}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn joined_row_reads_like_the_joined_tuple() {
        let t1 = Tuple::new(TupleId::base(0, 0), vec![Value::from(1), Value::from(2)]);
        let t2 = Tuple::new(TupleId::base(1, 5), vec![Value::from("x")]);
        let joined = t1.join(&t2);
        let row = JoinedRow {
            left: t1.values(),
            right: t2.values(),
        };
        assert_eq!(Row::arity(&row), joined.arity());
        for i in 0..=joined.arity() {
            assert_eq!(row.get(i), Row::get(&joined, i));
        }
    }

    #[test]
    fn project_keeps_identity() {
        let t = Tuple::new(
            TupleId::base(0, 7),
            vec![Value::from(1), Value::from(2), Value::from(3)],
        );
        let p = t.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::from(3), Value::from(1)]);
        assert_eq!(p.id(), t.id());
    }

    #[test]
    fn display_is_compact() {
        let t = Tuple::new(TupleId::base(1, 2), vec![Value::from(9)]);
        assert_eq!(t.to_string(), "#1:2(9)");
        let s = Tuple::synthetic(4, vec![Value::Null]);
        assert_eq!(s.to_string(), "#s4(NULL)");
    }

    #[test]
    fn tuple_ids_provide_total_order_for_tie_breaking() {
        let mut ids = [
            TupleId::base(1, 2),
            TupleId::base(0, 9),
            TupleId::base(1, 0),
        ];
        ids.sort();
        assert_eq!(ids[0], TupleId::base(0, 9));
        assert_eq!(ids[1], TupleId::base(1, 0));
    }
}
