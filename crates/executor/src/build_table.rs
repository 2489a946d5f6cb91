//! A keyed join's drained build side: the [`JoinTable`], one
//! [`Partition`] per build morsel, and the [`KeyIndex`] both join families
//! find keys by.
//!
//! A partition holds its rows in a few flat arrays — values row after row
//! as a tag byte and a word each, identities and score states beside them
//! — and its key groups as ranges of one member array.  It holds no
//! allocation per row, so dropping it is a few frees, and a row is
//! materialised only when a probe reaches it.  A nested-loops join is the
//! keyed join on the empty key: its rows form one group, walked in
//! partition order, then input order.  `=` is never true of a NULL, so a
//! row with a NULL in a key column is drawn but joins no group.
//!
//! An equi hash join's output is held *factored*: one input's table, each
//! row linked to its pairs in the other's, no pair encoded.  Beneath a
//! top-k each key keeps the *upper state* of its rows: each scored
//! predicate's highest score among them (NaN, bounding nothing, if one is).

use std::hash::{Hash, Hasher};
use std::sync::atomic::AtomicU64;

use ranksql_common::{BitSet64, Result, Schema, Score, Tuple, Value};
use ranksql_expr::ScoreState;

use crate::context::TopKScoring;
use crate::fxhash::{FxHashMap, FxHasher};
use crate::join::Factored;

/// A [`Partition`] value's tag: which [`Value`] variant its word holds.
const NULL: u8 = 0;
const INT: u8 = 1;
const FLOAT: u8 = 2;
const BOOL: u8 = 3;
/// Any other value: the word indexes the partition's `others`.
const OTHER: u8 = 4;

/// A key's group in one [`Partition`]: `members[start..end]`, and the
/// key's hash.
#[derive(Debug, Clone, Copy)]
struct Group {
    start: u32,
    end: u32,
    hash: u64,
}

/// Ids by the hash of their join key, numbered in insertion order, ids
/// whose hashes collide chained: a hash join's keys (one id a key) and a
/// rank-join's drawn rows (one id a row).  The caller compares keys.
#[derive(Default)]
pub(crate) struct KeyIndex {
    /// Hash → the last id inserted with it.
    heads: FxHashMap<u64, u32>,
    /// Id → the id inserted before it with the same hash.
    next: Vec<u32>,
}

const NO_KEY: u32 = u32::MAX;

impl KeyIndex {
    /// The ids inserted hashed as `hash`, newest first.
    pub(crate) fn chain(&self, hash: u64) -> impl Iterator<Item = u32> + '_ {
        let next = |&at: &u32| Some(self.next[at as usize]).filter(|&n| n != NO_KEY);
        std::iter::successors(self.heads.get(&hash).copied(), next)
    }

    /// The id hashed as `hash` whose key `is_key` accepts.
    fn find(&self, hash: u64, is_key: impl Fn(u32) -> bool) -> Option<u32> {
        self.chain(hash).find(|&at| is_key(at))
    }

    /// Adds the next id, hashed as `hash`.
    pub(crate) fn insert(&mut self, hash: u64) -> u32 {
        let id = self.next.len() as u32;
        let before = self.heads.insert(hash, id);
        self.next.push(before.unwrap_or(NO_KEY));
        id
    }
}

/// A keyed row's link into the other side of a factored build side: the
/// other side's key, how many pairs the row makes with its rows, and their
/// upper state.
pub(crate) struct Link<'a> {
    pub(crate) key: u32,
    pub(crate) pairs: u32,
    pub(crate) top: &'a [f64],
}

/// One partition of a join's build side: the rows one build morsel drained
/// — a serial drain's whole input — in a few flat arrays and, for a hash
/// join, their groups.
///
/// A group is a contiguous range of `members` listing its rows in input
/// order — the property that makes hash-join output order deterministic —
/// or, when a top-k scored the partition (see
/// [`HashJoin`](crate::join::HashJoin)), in the order a probe walks them:
/// descending upper bound in [`Score`]'s total order (NaN lowest, as
/// [`crate::context::TopKThreshold::prunes`] compares), equal bounds in
/// input order.
#[derive(Default)]
pub(crate) struct Partition {
    /// `arity` values per row.
    tags: Vec<u8>,
    words: Vec<u64>,
    others: Vec<Value>,
    arity: usize,
    /// Row `r`'s sorted identity parts are `id_parts[id_ends[r - 1]..id_ends[r]]`.
    id_parts: Vec<(u32, u64)>,
    id_ends: Vec<u32>,
    /// Each row's evaluated predicates, and `predicates` scores per row.
    evaluated: Vec<BitSet64>,
    scores: Vec<f64>,
    predicates: usize,
    /// Each row's upper bound under the top-k that scored the partition
    /// (empty when none did).
    pub(crate) bounds: Vec<Score>,
    /// On a keyed side, `predicates` scores per row: its upper state over
    /// the predicates `top_set`, its scores and its link's (elsewhere, its
    /// `scores`).
    tops: Vec<f64>,
    pub(crate) top_set: BitSet64,
    /// A factored build side's keyed rows: each row's key in the other
    /// side and its pairs there (empty otherwise: one result a row).
    pub(crate) links: Vec<u32>,
    pairs: Vec<u32>,
    /// Row numbers, group after group.
    members: Vec<u32>,
    groups: Vec<Group>,
    /// Each group's key, `key_cols.len()` values a group: compared apart
    /// from the rows, so finding a key reads no row.
    group_keys: Vec<Value>,
    /// The key columns (none for a nested-loops join's partition).
    key_cols: Vec<usize>,
    /// The rows drained, and the results those with a NULL key make: drawn,
    /// but in no group.
    pub(crate) drawn: usize,
    ungrouped: u64,
    /// While the partition drains: its groups by key, each row's group,
    /// the last row's key, and the top-k scoring it.
    index: KeyIndex,
    group_of: Vec<u32>,
    key: Vec<Value>,
    top_k: Option<TopKScoring>,
}

impl Partition {
    /// An empty partition to drain rows into: grouped on `key_cols` (a
    /// hash join's) and, with `top_k`, scored for it.
    pub(crate) fn draining(key_cols: &[usize], top_k: Option<&TopKScoring>) -> Self {
        Partition {
            key_cols: key_cols.to_vec(),
            top_set: top_k.map_or(BitSet64::EMPTY, |t| t.build_set.union(t.other_set)),
            // A copy of its own: partitions drain on different workers.
            top_k: top_k.cloned(),
            ..Partition::default()
        }
    }

    /// Adds a row: its values `row`, identity parts `id` and `state`, which
    /// the partition's top-k completes; `link` joins a factored build
    /// side's keyed row to its other side.  A row with a NULL key is only
    /// counted.
    pub(crate) fn drain_row(
        &mut self,
        row: &[Value],
        id: impl Iterator<Item = (u32, u64)>,
        state: &mut ScoreState,
        link: Option<Link<'_>>,
    ) -> Result<()> {
        self.drawn += 1;
        if self.key_cols.iter().any(|&c| row[c].is_null()) {
            self.ungrouped += link.map_or(1, |l| u64::from(l.pairs));
            return Ok(());
        }
        if let Some(top_k) = &mut self.top_k {
            top_k.score_build_row(row, state)?;
            // A keyed row's bound covers its pairs: its link's upper state.
            let (set, top) = match &link {
                Some(l) => (top_k.other_set, l.top),
                None => (BitSet64::EMPTY, state.scores()),
            };
            let bound = top_k.bound_under(state, set, top);
            self.bounds.push(bound.unwrap_or(Score::new(f64::INFINITY)));
            if link.is_some() {
                self.tops
                    .extend_from_slice(state.merge_scores(set, top).scores());
            }
        }
        if let Some(link) = link {
            self.links.push(link.key);
            self.pairs.push(link.pairs);
        }
        self.push(row, id, state);
        // Runs of rows share a key: a join's pairs of one probe row.
        let key = self.key_cols.iter().map(|&c| &row[c]);
        let group = match self.group_of.last() {
            Some(&last) if key.clone().eq(&self.key) => {
                self.groups[last as usize].end += 1;
                last
            }
            _ => {
                self.key.clear();
                self.key.extend(key.cloned());
                self.group_of_last()
            }
        };
        self.group_of.push(group);
        Ok(())
    }

    /// Appends a row: its values `row`, identity parts `id` and `state`.
    fn push(&mut self, row: &[Value], id: impl Iterator<Item = (u32, u64)>, state: &ScoreState) {
        if self.id_ends.is_empty() {
            (self.arity, self.predicates) = (row.len(), state.arity());
        }
        for v in row {
            let (tag, word) = match v {
                Value::Null => (NULL, 0),
                Value::Int64(i) => (INT, *i as u64),
                Value::Float64(f) => (FLOAT, f.to_bits()),
                Value::Bool(b) => (BOOL, u64::from(*b)),
                Value::Utf8(_) => (OTHER, self.others.len() as u64),
            };
            if tag == OTHER {
                self.others.push(v.clone());
            }
            self.tags.push(tag);
            self.words.push(word);
        }
        let start = self.id_parts.len();
        self.id_parts.extend(id);
        self.id_parts[start..].sort_unstable();
        // An identity has one part per base table joined.
        self.id_ends.push(self.id_parts.len() as u32);
        self.evaluated.push(state.evaluated());
        self.scores.extend_from_slice(state.scores());
    }

    pub(crate) fn id(&self, row: usize) -> &[(u32, u64)] {
        let start = row.checked_sub(1).map_or(0, |r| self.id_ends[r] as usize);
        &self.id_parts[start..self.id_ends[row] as usize]
    }

    /// The value at `at` of the row-major values.
    fn value(&self, at: usize) -> Value {
        let word = self.words[at];
        match self.tags[at] {
            NULL => Value::Null,
            INT => Value::Int64(word as i64),
            FLOAT => Value::Float64(f64::from_bits(word)),
            BOOL => Value::Bool(word != 0),
            _ => self.others[word as usize].clone(),
        }
    }

    /// Appends row `row`'s values to `out`.
    pub(crate) fn load(&self, row: usize, out: &mut Vec<Value>) {
        out.extend((row * self.arity..(row + 1) * self.arity).map(|at| self.value(at)));
    }

    /// `left` joined with row `row`: values concatenated, identities
    /// combined (see [`Tuple::join`]).
    pub(crate) fn join_tuple(&self, left: &Tuple, row: usize) -> Tuple {
        let right = (row * self.arity..(row + 1) * self.arity).map(|at| self.value(at));
        let values = left.values().iter().cloned().chain(right);
        Tuple::new(left.id().combine_parts(self.id(row)), values)
    }

    /// `state` merged with row `row`'s (see [`ScoreState::merge`]).
    pub(crate) fn merged_state(&self, state: &ScoreState, row: usize) -> ScoreState {
        let n = self.predicates;
        state.merge_scores(self.evaluated[row], &self.scores[row * n..(row + 1) * n])
    }

    /// The results the rows `rows` make: their pairs on a factored build
    /// side's keyed side, one a row otherwise.
    pub(crate) fn results(&self, rows: &[u32]) -> usize {
        match self.pairs.is_empty() {
            true => rows.len(),
            false => rows.iter().map(|&r| self.pairs[r as usize] as usize).sum(),
        }
    }

    /// Group `g`'s key.
    fn group_key(&self, g: u32) -> &[Value] {
        let n = self.key_cols.len();
        &self.group_keys[g as usize * n..(g as usize + 1) * n]
    }

    /// The rows of group `g`, in walk order.
    pub(crate) fn group(&self, g: u32) -> &[u32] {
        let g = self.groups[g as usize];
        &self.members[g.start as usize..g.end as usize]
    }

    /// The group of the last row pushed, whose key is `self.key`: found,
    /// or made.  While draining, a group's `end` counts its rows.
    fn group_of_last(&mut self) -> u32 {
        let hash = key_hash(&self.key);
        let same = |g: u32| self.group_key(g) == self.key.as_slice();
        if let Some(found) = self.index.find(hash, same) {
            self.groups[found as usize].end += 1;
            return found;
        }
        self.index.insert(hash);
        self.group_keys.extend_from_slice(&self.key);
        let (start, end) = (0, 1);
        self.groups.push(Group { start, end, hash });
        self.groups.len() as u32 - 1
    }

    /// The drained partition: `members` laid out group after group, each
    /// group best-first when scored.
    pub(crate) fn finish(mut self) -> Self {
        let group_of = std::mem::take(&mut self.group_of);
        let mut start = 0;
        for g in &mut self.groups {
            // `end` counted the rows; it becomes the fill cursor.
            (g.start, g.end, start) = (start, start, start + g.end);
        }
        self.members = vec![0; group_of.len()];
        for (row, &g) in group_of.iter().enumerate() {
            let g = &mut self.groups[g as usize];
            self.members[g.end as usize] = row as u32;
            g.end += 1;
        }
        if !self.bounds.is_empty() {
            let bounds = &self.bounds;
            let mut keys: Vec<u128> = (self.members.iter())
                .map(|&r| best_first(bounds[r as usize], r))
                .collect();
            for g in &self.groups {
                keys[g.start as usize..g.end as usize].sort_unstable();
            }
            // The low word is the row.
            self.members = keys.into_iter().map(|k| k as u32).collect();
        }
        // Drop the drain's state and the arrays' growth slack.
        (self.index, self.key, self.top_k) = Default::default();
        self.tags.shrink_to_fit();
        self.words.shrink_to_fit();
        self.id_parts.shrink_to_fit();
        self.id_ends.shrink_to_fit();
        self.evaluated.shrink_to_fit();
        self.scores.shrink_to_fit();
        self.bounds.shrink_to_fit();
        self.tops.shrink_to_fit();
        self.links.shrink_to_fit();
        self.pairs.shrink_to_fit();
        self.group_keys.shrink_to_fit();
        self
    }
}

/// Raises `top` to `other` on the predicates `set`: each the higher score,
/// NaN when either is.
fn raise(top: &mut [f64], other: &[f64], set: BitSet64) {
    for i in set.iter() {
        top[i] = match top[i].is_nan() || other[i].is_nan() {
            true => f64::NAN,
            false => top[i].max(other[i]),
        };
    }
}

/// The hash a join key's values are grouped and probed by.
pub(crate) fn key_hash<'a>(key: impl IntoIterator<Item = &'a Value>) -> u64 {
    let mut hasher = FxHasher::default();
    key.into_iter().for_each(|v| v.hash(&mut hasher));
    hasher.finish()
}

/// One of a key's runs in a [`JoinTable`]: its group in partition `part`,
/// and how many results the key's later runs make.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run {
    pub(crate) part: u32,
    pub(crate) group: u32,
    pub(crate) after: u32,
}

/// A join's drained build side: one [`Partition`] per build morsel, in
/// morsel order (one for a serial drain), and one index of their keys.
/// Partitions are never merged: a key's *runs* are its groups, one per
/// partition that holds it, and a probe walks them in turn.  When a top-k
/// scored them, runs go best head bound first (ties in partition order),
/// so a probe that prunes a run's head prunes every later run too;
/// otherwise they go in partition order — the key's rows in input order,
/// which on the empty key is the nested-loops order.
pub(crate) struct JoinTable {
    pub(crate) schema: Schema,
    /// Results no join has counted as input yet: the first join to pull
    /// takes the count, so a shared build side counts once.
    pub(crate) uncounted: AtomicU64,
    pub(crate) parts: Vec<Partition>,
    /// A factored build side's other side: its table, grouped on the inner
    /// join's key, and how the build side factors.
    pub(crate) other: Option<Box<(JoinTable, Factored)>>,
    keys: KeyIndex,
    /// Key `k`'s first run, `(partition, group)`.
    firsts: Vec<(u32, u32)>,
    /// The runs, key after key; key `k`'s end at `run_ends[k]`.
    runs: Vec<Run>,
    run_ends: Vec<usize>,
    /// Per key, the upper state of its rows.
    key_tops: Vec<f64>,
    predicates: usize,
}

impl JoinTable {
    /// The build side with this `schema` drained as `parts`, in morsel
    /// order; a pass over their groups indexes the keys.
    pub(crate) fn new(schema: Schema, parts: Vec<Partition>) -> Self {
        let rows = (parts.iter())
            .map(|p| p.results(&p.members) as u64 + p.ungrouped)
            .sum();
        let (mut keys, mut firsts, mut order) = (KeyIndex::default(), Vec::new(), Vec::new());
        for (p, part) in (0..).zip(&parts) {
            for (g, group) in (0..).zip(&part.groups) {
                let key = part.group_key(g);
                let same = |k: u32| {
                    let (kp, kg): (u32, u32) = firsts[k as usize];
                    parts[kp as usize].group_key(kg) == key
                };
                let k = keys.find(group.hash, same).unwrap_or_else(|| {
                    firsts.push((p, g));
                    keys.insert(group.hash)
                });
                let head = part.group(g)[0] as usize;
                let rank = part.bounds.get(head).map_or(0, |b| !b.order_key());
                order.push((k, rank, p, g));
            }
        }
        order.sort_unstable();
        let run_ends: Vec<usize> = (0..firsts.len() as u32)
            .map(|k| order.partition_point(|r| r.0 <= k))
            .collect();
        let mut runs = Vec::with_capacity(order.len());
        let mut after = 0;
        for (i, &(k, _, part, group)) in order.iter().enumerate().rev() {
            if order.get(i + 1).is_none_or(|next| next.0 != k) {
                after = 0;
            }
            runs.push(Run { part, group, after });
            let part = &parts[part as usize];
            after += part.results(part.group(group)) as u32;
        }
        runs.reverse();
        let n = parts.iter().map(|p| p.predicates).max().unwrap_or(0);
        let mut key_tops = Vec::new();
        if parts.iter().any(|p| !p.bounds.is_empty()) {
            key_tops = vec![f64::NEG_INFINITY; firsts.len() * n];
            for &(k, _, p, g) in &order {
                let (part, top) = (&parts[p as usize], &mut key_tops[k as usize * n..]);
                let tops = if part.links.is_empty() {
                    &part.scores
                } else {
                    &part.tops
                };
                for &row in part.group(g) {
                    raise(&mut top[..n], &tops[row as usize * n..][..n], part.top_set);
                }
            }
        }
        JoinTable {
            schema,
            uncounted: AtomicU64::new(rows),
            parts,
            other: None,
            keys,
            firsts,
            runs,
            run_ends,
            key_tops,
            predicates: n,
        }
    }

    /// The key whose values are `key`, compared in place, if a partition
    /// holds it.
    pub(crate) fn key<'v>(&self, key: impl Iterator<Item = &'v Value> + Clone) -> Option<u32> {
        let same = |k: u32| {
            let (p, g) = self.firsts[k as usize];
            self.parts[p as usize].group_key(g).iter().eq(key.clone())
        };
        self.keys.find(key_hash(key.clone()), same)
    }

    /// The runs of key `k`, in walk order.
    pub(crate) fn runs(&self, k: u32) -> &[Run] {
        let start = k.checked_sub(1).map_or(0, |j| self.run_ends[j as usize]);
        &self.runs[start..self.run_ends[k as usize]]
    }

    /// The upper state of key `k`'s rows.
    pub(crate) fn key_top(&self, k: u32) -> &[f64] {
        let (n, k) = (self.predicates, k as usize);
        self.key_tops.get(k * n..(k + 1) * n).unwrap_or_default()
    }
}

/// The key that sorts a group best-first: descending bound, equal bounds in
/// input order — with unique rows, the stable sort by `Reverse(bound)` of
/// rows in input order, as one integer.
fn best_first(bound: Score, row: u32) -> u128 {
    u128::from(!bound.order_key()) << 32 | u128::from(row)
}
#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    use crate::column_scan::ColumnScan;
    use crate::context::{ExecutionContext, TopKThreshold};
    use crate::join::drain_partition;
    use crate::operator::BoxedOperator;
    use ranksql_common::{DataType, Field};
    use ranksql_expr::{RankPredicate, RankingContext, ScoringFunction};
    use ranksql_storage::TableBuilder;

    impl JoinTable {
        /// The heap blocks the table's rows and groups hold, and their
        /// bytes (a string value's text is shared with its source).
        fn heap(&self) -> (usize, usize) {
            fn held<T>(v: &Vec<T>) -> usize {
                v.capacity() * std::mem::size_of::<T>()
            }
            let heads = self.keys.heads.capacity() * (std::mem::size_of::<(u64, u32)>() + 1);
            let mut blocks = vec![heads, held(&self.keys.next), held(&self.firsts)];
            blocks.extend([held(&self.runs), held(&self.run_ends), held(&self.key_tops)]);
            // A partition's drain state is freed when it finishes.
            for p in &self.parts {
                blocks.extend([held(&p.tags), held(&p.words), held(&p.others)]);
                blocks.extend([held(&p.id_parts), held(&p.id_ends), held(&p.evaluated)]);
                blocks.extend([held(&p.scores), held(&p.bounds), held(&p.members)]);
                blocks.extend([held(&p.groups), held(&p.group_keys), held(&p.key_cols)]);
                blocks.extend([held(&p.tops), held(&p.links), held(&p.pairs)]);
            }
            blocks.retain(|&bytes| bytes > 0);
            (blocks.len(), blocks.iter().sum())
        }
    }

    /// Counted, not timed: 10 000 scored rows of 8 numeric columns drained
    /// into 4 partitions hold a few heap blocks per partition, however
    /// many rows, in well under the ≈ 280 bytes a row took as a
    /// `RankedTuple` with its own values (120 + 160).
    #[test]
    fn a_drained_build_side_holds_a_few_blocks_per_partition() {
        const ROWS: usize = 10_000;
        let fields = (0..8).map(|c| match c % 2 {
            0 => Field::new(format!("i{c}"), DataType::Int64),
            _ => Field::new(format!("f{c}"), DataType::Float64),
        });
        let schema = Schema::new(fields.collect()).qualify_all("T");
        let table = TableBuilder::new("T", schema.clone())
            .rows((0..ROWS).map(|r| {
                let v = |c: usize| match c % 2 {
                    0 => Value::from(((r * 7 + c) % 100) as i64),
                    _ => Value::from(((r * 37 + c) % 1000) as f64 / 1000.0),
                };
                (0..8).map(v).collect::<Vec<_>>()
            }))
            .build(0)
            .unwrap();
        let probe = Schema::new(vec![Field::new("k", DataType::Int64)]).qualify_all("P");
        let ranking = RankingContext::new(
            vec![RankPredicate::attribute("f", "T.f1")],
            ScoringFunction::Sum,
        );
        let exec = ExecutionContext::new(ranking);
        let pushed = (BitSet64::all(1), Arc::new(TopKThreshold::new()));
        let top_k =
            TopKScoring::for_join(&probe, std::slice::from_ref(&schema), 0, pushed, &exec).unwrap();
        let epoch = table.pin_epoch();
        let parts = (0..4)
            .map(|i| {
                let rows = i * ROWS / 4..(i + 1) * ROWS / 4;
                let scan = ColumnScan::new(&epoch, rows, None, false, None, &exec, "T");
                let mut input: BoxedOperator = Box::new(scan.unwrap());
                drain_partition(&mut input, 1024, &[0], Some(&top_k), None).unwrap()
            })
            .collect();
        let built = JoinTable::new(schema, parts);
        assert_eq!(built.uncounted.load(Ordering::Relaxed), ROWS as u64);
        let (blocks, bytes) = built.heap();
        assert!(blocks <= 13 * 4 + 5, "{blocks} heap blocks");
        assert!(bytes / ROWS <= 140, "{} bytes a row", bytes / ROWS);
    }

    #[test]
    fn best_first_sort_equals_the_stable_score_sort() {
        const SPECIAL: [f64; 10] = [
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            0.5,
            1.0,
        ];
        let mut seed = 7u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed
        };
        // A draw below `bound` from a step's high bits.
        let below = |x: u64, bound: u64| (x >> 33) % bound;
        for _ in 0..500 {
            let len = below(next(), 64) as usize;
            // Rows in input order.
            let mut group: Vec<(Score, u32)> = (0..len)
                .map(|row| {
                    // Ties, the special values, and arbitrary bit patterns
                    // (every NaN payload, subnormals, both signs).
                    let v = match below(next(), 3) {
                        0 => SPECIAL[below(next(), SPECIAL.len() as u64) as usize],
                        1 => below(next(), 5) as f64 / 4.0,
                        _ => f64::from_bits(next()),
                    };
                    (Score(v), row as u32)
                })
                .collect();
            let mut stable = group.clone();
            stable.sort_by_key(|&(bound, _)| std::cmp::Reverse(bound));
            group.sort_unstable_by_key(|&(bound, row)| best_first(bound, row));
            let rows = |g: &[(Score, u32)]| g.iter().map(|&(_, row)| row).collect::<Vec<_>>();
            assert_eq!(rows(&group), rows(&stable));
        }
    }
}
