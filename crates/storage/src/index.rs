//! Index structures: score (rank) indexes, ordered attribute indexes and
//! hash indexes.
//!
//! The rank-scan access path of the paper (`idxScan_p(R)`, Section 4.2)
//! "accesses tuples of a table in the order of some predicate `p` when there
//! exists an index such as B+tree on `p`".  [`ScoreIndex`] is exactly that
//! index: the scores of one ranking predicate, pre-computed for every row and
//! kept sorted descending, so a scan returns rows in rank order without
//! evaluating the predicate at query time.

use std::collections::HashMap;

use ranksql_common::{Result, Schema, Score, Tuple, Value};
use ranksql_expr::RankPredicate;

/// An ordered index over the scores of one ranking predicate.
///
/// Entries are sorted by descending score (ties broken by row index), which
/// is the emission order of a rank-scan.
#[derive(Debug, Clone)]
pub struct ScoreIndex {
    predicate_name: String,
    /// `(score, row_index)` sorted by descending score, ascending row index.
    entries: Vec<(Score, u64)>,
}

impl ScoreIndex {
    /// Builds a score index by evaluating `predicate` on every tuple.
    ///
    /// Building the index evaluates the predicate once per row — the paper's
    /// model is that such indexes exist ahead of query time, so this
    /// evaluation is *not* charged to query execution (it bypasses the
    /// query-time evaluation counters by evaluating through the predicate
    /// directly, which only burns the build-time cost).
    pub fn build(
        predicate: &RankPredicate,
        schema: &Schema,
        tuples: &[Tuple],
    ) -> Result<ScoreIndex> {
        let bound = predicate.bind(schema)?;
        let mut entries = Vec::with_capacity(tuples.len());
        for (i, t) in tuples.iter().enumerate() {
            entries.push((bound.evaluate(t)?, i as u64));
        }
        entries.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        Ok(ScoreIndex {
            predicate_name: predicate.name.clone(),
            entries,
        })
    }

    /// The ranking predicate this index covers.
    pub fn predicate_name(&self) -> &str {
        &self.predicate_name
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of table rows this index covered when it was built; an index
    /// whose coverage differs from the table's current row count is stale.
    pub fn indexed_rows(&self) -> usize {
        self.entries.len()
    }

    /// The entries in descending-score order.
    pub fn entries(&self) -> &[(Score, u64)] {
        &self.entries
    }

    /// The `i`-th best `(score, row_index)` pair.
    pub fn get(&self, i: usize) -> Option<(Score, u64)> {
        self.entries.get(i).copied()
    }

    /// Extends the index over rows appended after it was built, evaluating
    /// `predicate` only on `new_tuples` (the rows starting at table row
    /// `first_row`, i.e. the index's coverage watermark) and merging the
    /// two descending-sorted runs.  Cost is O(new · log new + total) —
    /// never a from-scratch re-evaluation of already-indexed rows.
    pub fn extended(
        &self,
        predicate: &RankPredicate,
        schema: &Schema,
        new_tuples: &[Tuple],
        first_row: u64,
    ) -> Result<ScoreIndex> {
        let bound = predicate.bind(schema)?;
        let mut new_run = Vec::with_capacity(new_tuples.len());
        for (i, t) in new_tuples.iter().enumerate() {
            new_run.push((bound.evaluate(t)?, first_row + i as u64));
        }
        new_run.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        Ok(ScoreIndex {
            predicate_name: self.predicate_name.clone(),
            entries: merge_runs(&self.entries, new_run, |o, n| o.0 >= n.0),
        })
    }
}

/// An ordered index over an attribute (ascending `Value` order).
///
/// Provides the *interesting order* physical property used by sort-merge
/// joins, and range scans for selections.
#[derive(Debug, Clone)]
pub struct BTreeIndex {
    column_name: String,
    column_index: usize,
    /// `(value, row_index)` sorted ascending.
    entries: Vec<(Value, u64)>,
}

impl BTreeIndex {
    /// Builds an ordered index over the column named `column` (qualified).
    pub fn build(column: &str, schema: &Schema, tuples: &[Tuple]) -> Result<BTreeIndex> {
        let column_index = schema.index_of_str(column)?;
        let mut entries: Vec<(Value, u64)> = tuples
            .iter()
            .enumerate()
            .map(|(i, t)| (t.value(column_index).clone(), i as u64))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        Ok(BTreeIndex {
            column_name: column.to_owned(),
            column_index,
            entries,
        })
    }

    /// The indexed column name.
    pub fn column_name(&self) -> &str {
        &self.column_name
    }

    /// The indexed column position in the table schema.
    pub fn column_index(&self) -> usize {
        self.column_index
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of table rows this index covered when it was built; an index
    /// whose coverage differs from the table's current row count is stale.
    pub fn indexed_rows(&self) -> usize {
        self.entries.len()
    }

    /// Entries in ascending value order.
    pub fn entries(&self) -> &[(Value, u64)] {
        &self.entries
    }

    /// Row indexes whose value equals `key`.
    pub fn lookup(&self, key: &Value) -> Vec<u64> {
        let start = self.entries.partition_point(|(v, _)| v < key);
        self.entries[start..]
            .iter()
            .take_while(|(v, _)| v == key)
            .map(|&(_, r)| r)
            .collect()
    }

    /// Row indexes whose value lies in `[low, high]` (inclusive); `None`
    /// bounds are unbounded.
    pub fn range(&self, low: Option<&Value>, high: Option<&Value>) -> Vec<u64> {
        let start = match low {
            Some(l) => self.entries.partition_point(|(v, _)| v < l),
            None => 0,
        };
        let end = match high {
            Some(h) => self.entries.partition_point(|(v, _)| v <= h),
            None => self.entries.len(),
        };
        self.entries[start..end].iter().map(|&(_, r)| r).collect()
    }

    /// Extends the index over rows appended after it was built: `new_tuples`
    /// are the rows starting at table row `first_row` (the index's coverage
    /// watermark).  Merges the two ascending-sorted runs without touching
    /// already-indexed entries.
    pub fn extended(&self, new_tuples: &[Tuple], first_row: u64) -> BTreeIndex {
        let mut new_run: Vec<(Value, u64)> = new_tuples
            .iter()
            .enumerate()
            .map(|(i, t)| (t.value(self.column_index).clone(), first_row + i as u64))
            .collect();
        new_run.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        BTreeIndex {
            column_name: self.column_name.clone(),
            column_index: self.column_index,
            entries: merge_runs(&self.entries, new_run, |o, n| o.0 <= n.0),
        }
    }
}

/// Merges an index's sorted run `old` with the sorted run `new` of rows
/// appended after it.  `old_first(o, n)` says whether `o` goes before `n`;
/// it must hold on key ties, since old rows precede every new row and so
/// the ascending-row tie-break is kept.
fn merge_runs<T: Clone>(old: &[T], new: Vec<T>, old_first: impl Fn(&T, &T) -> bool) -> Vec<T> {
    let mut entries = Vec::with_capacity(old.len() + new.len());
    let mut old = old.iter().peekable();
    for n in new {
        while let Some(o) = old.next_if(|o| old_first(o, &n)) {
            entries.push(o.clone());
        }
        entries.push(n);
    }
    entries.extend(old.cloned());
    entries
}

/// A hash index over an attribute, mapping each value to the rows holding it.
#[derive(Debug, Clone)]
pub struct HashIndex {
    column_name: String,
    column_index: usize,
    buckets: HashMap<Value, Vec<u64>>,
}

impl HashIndex {
    /// Builds a hash index over the column named `column` (qualified).
    pub fn build(column: &str, schema: &Schema, tuples: &[Tuple]) -> Result<HashIndex> {
        let column_index = schema.index_of_str(column)?;
        let mut buckets: HashMap<Value, Vec<u64>> = HashMap::new();
        for (i, t) in tuples.iter().enumerate() {
            buckets
                .entry(t.value(column_index).clone())
                .or_default()
                .push(i as u64);
        }
        Ok(HashIndex {
            column_name: column.to_owned(),
            column_index,
            buckets,
        })
    }

    /// The indexed column name.
    pub fn column_name(&self) -> &str {
        &self.column_name
    }

    /// The indexed column position in the table schema.
    pub fn column_index(&self) -> usize {
        self.column_index
    }

    /// Rows matching `key`.
    pub fn lookup(&self, key: &Value) -> &[u64] {
        self.buckets.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Extends the index over rows appended after it was built: `new_tuples`
    /// are the rows starting at table row `first_row`.  Buckets gain the new
    /// rows in ascending order (appended row ids exceed all existing ones).
    pub fn extended(&self, new_tuples: &[Tuple], first_row: u64) -> HashIndex {
        let mut buckets = self.buckets.clone();
        for (i, t) in new_tuples.iter().enumerate() {
            buckets
                .entry(t.value(self.column_index).clone())
                .or_default()
                .push(first_row + i as u64);
        }
        HashIndex {
            column_name: self.column_name.clone(),
            column_index: self.column_index,
            buckets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksql_common::{DataType, Field, TupleId};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::qualified("S", "a", DataType::Int64),
            Field::qualified("S", "p3", DataType::Float64),
        ])
    }

    fn tuples() -> Vec<Tuple> {
        // Mirrors the `a` and `p3` columns of relation S in Figure 2(c).
        let rows = [(4, 0.7), (1, 0.9), (1, 0.5), (4, 0.4), (5, 0.3), (2, 0.25)];
        rows.iter()
            .enumerate()
            .map(|(i, &(a, p3))| {
                Tuple::new(
                    TupleId::base(0, i as u64),
                    vec![Value::from(a), Value::from(p3)],
                )
            })
            .collect()
    }

    #[test]
    fn score_index_orders_descending() {
        let p = RankPredicate::attribute("p3", "S.p3");
        let idx = ScoreIndex::build(&p, &schema(), &tuples()).unwrap();
        assert_eq!(idx.len(), 6);
        // Figure 2(f): order s2, s1, s3, s4, s5, s6 (row indexes 1,0,2,3,4,5).
        let order: Vec<u64> = idx.entries().iter().map(|&(_, r)| r).collect();
        assert_eq!(order, vec![1, 0, 2, 3, 4, 5]);
        assert_eq!(idx.get(0).unwrap().0, Score::new(0.9));
        assert_eq!(idx.predicate_name(), "p3");
    }

    #[test]
    fn score_index_tie_break_by_row() {
        // `a / 10` as the score: rows 0 and 3 tie at 0.4, rows 1 and 2 at 0.1.
        let a = ranksql_expr::ScalarExpr::col("S.a");
        let p = RankPredicate::expression("a", a.mul(ranksql_expr::ScalarExpr::lit(0.1)), 0);
        let idx = ScoreIndex::build(&p, &schema(), &tuples()).unwrap();
        let order: Vec<u64> = idx.entries().iter().map(|&(_, r)| r).collect();
        assert_eq!(order, vec![4, 0, 3, 5, 1, 2]);
    }

    #[test]
    fn btree_index_lookup_and_range() {
        let idx = BTreeIndex::build("S.a", &schema(), &tuples()).unwrap();
        assert_eq!(idx.len(), 6);
        assert_eq!(idx.lookup(&Value::from(1)), vec![1, 2]);
        assert_eq!(idx.lookup(&Value::from(4)), vec![0, 3]);
        assert_eq!(idx.lookup(&Value::from(99)), Vec::<u64>::new());
        let r = idx.range(Some(&Value::from(2)), Some(&Value::from(4)));
        assert_eq!(r, vec![5, 0, 3]);
        let all = idx.range(None, None);
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn hash_index_lookup() {
        let idx = HashIndex::build("S.a", &schema(), &tuples()).unwrap();
        assert_eq!(idx.buckets.len(), 4);
        assert_eq!(idx.lookup(&Value::from(1)), &[1, 2]);
        assert_eq!(idx.lookup(&Value::from(7)), &[] as &[u64]);
        assert_eq!(idx.column_name(), "S.a");
        assert_eq!(idx.column_index(), 0);
    }

    #[test]
    fn extended_indexes_match_from_scratch_builds() {
        let p = RankPredicate::attribute("p3", "S.p3");
        let all = tuples();
        // Build over a 4-row prefix, then extend with the remaining rows —
        // including a score tie against an already-indexed row (0.5 at rows
        // 2 and 6) to exercise the merge tie-break.
        let mut rows = all.clone();
        rows.push(Tuple::new(
            TupleId::base(0, 6),
            vec![Value::from(1), Value::from(0.5)],
        ));
        let (prefix, suffix) = rows.split_at(4);

        let score = ScoreIndex::build(&p, &schema(), prefix).unwrap();
        let ext = score.extended(&p, &schema(), suffix, 4).unwrap();
        let cold = ScoreIndex::build(&p, &schema(), &rows).unwrap();
        assert_eq!(ext.entries(), cold.entries());
        assert_eq!(ext.indexed_rows(), 7);

        let btree = BTreeIndex::build("S.a", &schema(), prefix).unwrap();
        let ext = btree.extended(suffix, 4);
        let cold = BTreeIndex::build("S.a", &schema(), &rows).unwrap();
        assert_eq!(ext.entries(), cold.entries());

        let hash = HashIndex::build("S.a", &schema(), prefix).unwrap();
        let ext = hash.extended(suffix, 4);
        let cold = HashIndex::build("S.a", &schema(), &rows).unwrap();
        assert_eq!(ext.lookup(&Value::from(1)), cold.lookup(&Value::from(1)));
        assert_eq!(ext.lookup(&Value::from(4)), cold.lookup(&Value::from(4)));
        assert_eq!(ext.buckets.len(), cold.buckets.len());
    }

    #[test]
    fn unknown_column_rejected() {
        assert!(BTreeIndex::build("S.zzz", &schema(), &tuples()).is_err());
        assert!(HashIndex::build("S.zzz", &schema(), &tuples()).is_err());
    }
}
