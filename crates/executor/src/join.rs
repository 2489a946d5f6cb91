//! Traditional (ranking-blind) join operators: nested loops, hash join and
//! sort-merge join.
//!
//! These operators implement the membership semantics of ⋈ and *merge* the
//! score states of their inputs (so predicates evaluated below the join stay
//! evaluated above it), but they make no promise about output order — they
//! are the joins a conventional engine would use in the materialise-then-sort
//! plans the paper compares against (Plan 1 and Plan 4 of Figure 11).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use ranksql_common::{JoinedRow, RankSqlError, Result, Schema, Score, Value, WorkerPool};
use ranksql_expr::{BoolExpr, BoundBoolExpr, CompareOp, RankedTuple, ScalarExpr};

use crate::context::{ExecutionContext, TopKScoring};
use crate::fxhash::FxHashMap;
use crate::metrics::OperatorMetrics;
use crate::operator::{drain_batched, draw_one, Batch, BoxedOperator, PhysicalOperator};

/// Equi-join keys extracted from a join condition, plus whatever part of the
/// condition is not a simple column equality (the *residual*, evaluated on
/// the joined tuple).
#[derive(Debug, Clone)]
pub struct JoinKeys {
    /// Pairs of (left column index, right column index).
    pub keys: Vec<(usize, usize)>,
    /// Remaining condition to evaluate on the concatenated tuple.
    pub residual: Option<BoolExpr>,
}

/// Splits a join condition into equi-join column pairs and a residual.
///
/// A conjunct of the form `L.col = R.col` (either orientation) where one side
/// resolves against the left schema and the other against the right schema
/// becomes a key pair; every other conjunct goes to the residual.
pub fn extract_join_keys(condition: Option<&BoolExpr>, left: &Schema, right: &Schema) -> JoinKeys {
    let Some(condition) = condition else {
        return JoinKeys {
            keys: vec![],
            residual: None,
        };
    };
    let mut keys = Vec::new();
    let mut residual = Vec::new();
    for conjunct in condition.split_conjuncts() {
        if let BoolExpr::Compare {
            op: CompareOp::Eq,
            left: ScalarExpr::Column(a),
            right: ScalarExpr::Column(b),
        } = &conjunct
        {
            match (a.resolve(left), b.resolve(right)) {
                (Ok(li), Ok(ri)) => {
                    keys.push((li, ri));
                    continue;
                }
                _ => {
                    if let (Ok(li), Ok(ri)) = (b.resolve(left), a.resolve(right)) {
                        keys.push((li, ri));
                        continue;
                    }
                }
            }
        }
        residual.push(conjunct);
    }
    JoinKeys {
        keys,
        residual: BoolExpr::conjoin(residual),
    }
}

/// One row of a hash join's key group: where the row lives in its
/// [`JoinTable`] and its upper bound under the top-k that scored the build
/// side ([`UNSCORED`] when none did).
#[derive(Debug, Clone, Copy)]
struct Member {
    bound: Score,
    chunk: u32,
    row: u32,
}

/// Rows per chunk of a [`JoinTable`]: a growing build side copies rows
/// only within its first chunk, and freeing it is a few large frees.
const CHUNK_ROWS: usize = 8192;

/// The bound of a build row no top-k scored: it never prunes.
const UNSCORED: Score = Score(f64::INFINITY);

/// Join-key values → the members of that key's group.
type Groups = FxHashMap<Vec<Value>, Vec<Member>>;

/// One partition of a join's build side: the rows one build morsel drained
/// — a serial drain's whole input — and, for a hash join, their groups.
#[derive(Default)]
pub(crate) struct Partition {
    chunks: Vec<Vec<RankedTuple>>,
    groups: Groups,
    /// Whether a top-k scored the rows (each group is then best-first).
    scored: bool,
}

/// A join's drained build side: its rows, in chunks, partition after
/// partition as they were drained (one partition per build morsel, in
/// morsel order), and — for a hash join — each key's group over them.
///
/// Rows never move once drained; a group indexes them.  It lists its rows
/// in input order (chunk, then position), the property that makes
/// hash-join output order deterministic — or, when a top-k scored the build
/// side (see [`HashJoin`]), in the order a probe walks them: descending
/// upper bound in [`Score`]'s total order (NaN lowest, as
/// [`crate::context::TopKThreshold::prunes`] compares), equal bounds in
/// input order.  A nested-loops join reads the chunks in order.
pub(crate) struct JoinTable {
    schema: Schema,
    /// Drained rows no join has counted as input yet: the first join to
    /// pull takes the count, so a shared build side counts once.
    uncounted: AtomicU64,
    /// The rows, in input order.
    pub(crate) chunks: Vec<Vec<RankedTuple>>,
    groups: Groups,
}

impl JoinTable {
    /// The build side with this `schema` drained as `parts`, in morsel
    /// order.  Each key's groups are appended in that order; scored groups
    /// of several partitions are then merged best-first across a pool of
    /// `threads`.
    pub(crate) fn new(schema: Schema, parts: Vec<Partition>, threads: usize) -> Result<Self> {
        let merge = parts.len() > 1 && parts.iter().any(|p| p.scored);
        let mut parts = parts.into_iter();
        let (mut groups, mut chunks) = parts
            .next()
            .map_or_else(Default::default, |p| (p.groups, p.chunks));
        for part in parts {
            // A partition numbers its chunks from 0.  A chunk holds 8192
            // rows, so 2^32 chunks would be 3·10^13 rows held in memory.
            let first = chunks.len() as u32;
            for (key, mut members) in part.groups {
                members.iter_mut().for_each(|m| m.chunk += first);
                groups.entry(key).or_default().append(&mut members);
            }
            chunks.extend(part.chunks);
        }
        if merge {
            let mut order: Vec<&mut Vec<Member>> = groups.values_mut().collect();
            let pool = WorkerPool::new(threads);
            // A few tasks per worker, so uneven groups still balance.
            let per_task = order.len().div_ceil(pool.threads() * 4).max(1);
            let tasks: Vec<Mutex<&mut [&mut Vec<Member>]>> =
                order.chunks_mut(per_task).map(Mutex::new).collect();
            pool.run(tasks.len(), |i| {
                // A stable sort merges the partitions' sorted runs.
                let mut task = tasks[i].lock();
                task.iter_mut().for_each(|g| g.sort_by_key(best_first));
                Ok(())
            })?;
        }
        Ok(JoinTable {
            schema,
            uncounted: AtomicU64::new(chunks.iter().map(|c| c.len() as u64).sum()),
            chunks,
            groups,
        })
    }

    /// The build side drained from `input` serially, as one partition (see
    /// [`drain_partition`]).
    fn drain(
        input: &mut dyn PhysicalOperator,
        batch_size: usize,
        key_cols: Option<&[usize]>,
        top_k: Option<&TopKScoring>,
    ) -> Result<Self> {
        let part = drain_partition(input, batch_size, key_cols, top_k)?;
        JoinTable::new(input.schema().clone(), vec![part], 1)
    }

    fn row(&self, m: &Member) -> &RankedTuple {
        &self.chunks[m.chunk as usize][m.row as usize]
    }
}

/// The build-side key columns of a hash join on `condition` (empty when it
/// has no equi-join conjunct).
pub(crate) fn build_key_cols(
    condition: Option<&BoolExpr>,
    left: &Schema,
    right: &Schema,
) -> Vec<usize> {
    let keys = extract_join_keys(condition, left, right);
    keys.keys.iter().map(|&(_, r)| r).collect()
}

/// Drains a join's build input, batch by batch, into one partition of its
/// [`JoinTable`].  With `key_cols` (a hash join) each row also joins
/// its key's group — a key is allocated the first time the partition sees
/// it, not per row — and, with `top_k`, its build-side predicates are
/// evaluated here, once, and its upper bound kept for the best-first walk:
/// each group is sorted best-first once drained.
pub(crate) fn drain_partition(
    input: &mut dyn PhysicalOperator,
    batch_size: usize,
    key_cols: Option<&[usize]>,
    top_k: Option<&TopKScoring>,
) -> Result<Partition> {
    // A copy of its own: partitions drain on different workers.
    let mut top_k = top_k.cloned();
    let mut out = Partition {
        scored: top_k.is_some(),
        ..Partition::default()
    };
    let mut buf = Batch::with_capacity(batch_size);
    let (mut rows, mut scratch) = (Vec::new(), Vec::new());
    loop {
        buf.clear();
        if input.next_batch(batch_size, &mut buf)? == 0 {
            break;
        }
        for mut t in buf.drain(..) {
            if rows.len() == CHUNK_ROWS {
                out.chunks
                    .push(std::mem::replace(&mut rows, Vec::with_capacity(CHUNK_ROWS)));
            }
            if let Some(key_cols) = key_cols {
                let bound = match &mut top_k {
                    Some(top_k) => top_k.score_build_row(&mut t)?,
                    None => UNSCORED,
                };
                let (chunk, row) = (out.chunks.len() as u32, rows.len() as u32);
                let member = Member { bound, chunk, row };
                let key = borrowed_key(key_cols, &mut scratch, &t);
                match out.groups.get_mut(key) {
                    Some(group) => group.push(member),
                    None => {
                        out.groups.insert(key.to_vec(), vec![member]);
                    }
                }
            }
            rows.push(t);
        }
    }
    if !rows.is_empty() {
        out.chunks.push(rows);
    }
    if out.scored {
        out.groups
            .values_mut()
            .for_each(|g| g.sort_unstable_by_key(best_first));
    }
    Ok(out)
}

/// The key that sorts a group best-first: descending bound, equal bounds in
/// input order — with unique positions, the stable sort by `Reverse(bound)`
/// of members in input order, on integer keys.
fn best_first(m: &Member) -> (std::cmp::Reverse<u64>, u32, u32) {
    (std::cmp::Reverse(m.bound.order_key()), m.chunk, m.row)
}

/// A join's build (inner) side: its input operator until the join's first
/// pull drains it, what the drain built afterwards.  An exchange's morsel
/// pipelines get the built form from the start — the spine's first
/// lowering drains the build side once and every morsel shares it.
pub(crate) enum BuildSide {
    /// Not drained yet.
    Input(BoxedOperator),
    /// Drained, read-only.
    Built(Arc<JoinTable>),
}

impl BuildSide {
    fn schema(&self) -> &Schema {
        match self {
            BuildSide::Input(input) => input.schema(),
            BuildSide::Built(built) => &built.schema,
        }
    }

    /// The drained build side, draining the input with `drain` on the first
    /// call; build rows no join has counted yet are counted into `metrics`.
    fn drained(
        &mut self,
        metrics: &OperatorMetrics,
        drain: impl FnOnce(&mut dyn PhysicalOperator) -> Result<JoinTable>,
    ) -> Result<Arc<JoinTable>> {
        let built = match self {
            BuildSide::Built(built) => Arc::clone(built),
            BuildSide::Input(input) => {
                let built = Arc::new(drain(input.as_mut())?);
                *self = BuildSide::Built(Arc::clone(&built));
                built
            }
        };
        metrics.add_in(built.uncounted.swap(0, Ordering::Relaxed));
        Ok(built)
    }

    fn can_extend_limit(&self) -> bool {
        match self {
            BuildSide::Input(input) => input.can_extend_limit(),
            BuildSide::Built(_) => true,
        }
    }

    /// A built side is complete — nothing was discarded, so no cap exists.
    fn extend_limit(&mut self, extra: usize) -> bool {
        match self {
            BuildSide::Input(input) => input.extend_limit(extra),
            BuildSide::Built(_) => true,
        }
    }
}

/// Compares `a`'s key columns `a_keys` with `b`'s `b_keys`, in place.
fn cmp_keys(
    a: &RankedTuple,
    a_keys: &[usize],
    b: &RankedTuple,
    b_keys: &[usize],
) -> std::cmp::Ordering {
    a_keys
        .iter()
        .zip(b_keys)
        .map(|(&i, &j)| a.tuple.value(i).cmp(b.tuple.value(j)))
        .find(|o| o.is_ne())
        .unwrap_or(std::cmp::Ordering::Equal)
}

/// `t`'s join key as a slice to look a [`JoinTable`] group up with
/// (`Vec<Value>: Borrow<[Value]>`), without allocating: a single-column key
/// is the value in place, a multi-column key is copied into `scratch`.
fn borrowed_key<'a>(
    key_cols: &[usize],
    scratch: &'a mut Vec<Value>,
    t: &'a RankedTuple,
) -> &'a [Value] {
    if let [col] = key_cols {
        std::slice::from_ref(t.tuple.value(*col))
    } else {
        scratch.clear();
        scratch.extend(key_cols.iter().map(|&i| t.tuple.value(i).clone()));
        scratch
    }
}

/// Binds the condition to evaluate on joined tuples (residual for equi-joins,
/// or the full condition for nested loops).
fn bind_on_joined(condition: Option<&BoolExpr>, joined: &Schema) -> Result<Option<BoundBoolExpr>> {
    condition.map(|c| c.bind(joined)).transpose()
}

/// Block nested-loops join: materialises the right input and loops over it
/// for every left tuple.  Supports arbitrary (or absent = cross) conditions.
pub struct NestedLoopJoin {
    left: BoxedOperator,
    right: BuildSide,
    condition: Option<BoundBoolExpr>,
    schema: Schema,
    /// The outer tuple being joined (empty between outer tuples) — the
    /// buffer the left input appends each draw to.
    current_left: Batch,
    /// The next inner row to pair with it: `(chunk, row)`.
    right_pos: (usize, usize),
    metrics: Arc<OperatorMetrics>,
    batch_size: usize,
}

impl NestedLoopJoin {
    /// Creates a nested-loops join.
    pub(crate) fn new(
        left: BoxedOperator,
        right: BuildSide,
        condition: Option<&BoolExpr>,
        exec: &ExecutionContext,
        label: impl Into<String>,
    ) -> Result<Self> {
        let metrics = exec.register(label);
        let schema = left.schema().join(right.schema());
        let bound = bind_on_joined(condition, &schema)?;
        Ok(NestedLoopJoin {
            left,
            right,
            condition: bound,
            schema,
            current_left: Batch::with_capacity(1),
            right_pos: (0, 0),
            metrics,
            batch_size: exec.batch_size(),
        })
    }
}

impl PhysicalOperator for NestedLoopJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> Result<usize> {
        let batch_size = self.batch_size;
        let inner = self.right.drained(&self.metrics, |input| {
            JoinTable::drain(input, batch_size, None, None)
        })?;
        let chunks = &inner.chunks;
        let (mut pulled, mut produced) = (0u64, 0usize);
        while produced < max {
            // One outer tuple at a time: a pass over the inner relation per
            // outer tuple dwarfs the dispatch a larger draw would save.
            if self.current_left.is_empty() {
                if !draw_one(self.left.as_mut(), &mut self.current_left)? {
                    break;
                }
                pulled += 1;
                self.right_pos = (0, 0);
            }
            let left = &self.current_left[0];
            while self.right_pos.0 < chunks.len() && produced < max {
                let (chunk, row) = self.right_pos;
                let Some(right) = chunks[chunk].get(row) else {
                    self.right_pos = (chunk + 1, 0);
                    continue;
                };
                self.right_pos.1 += 1;
                // Decide on the pair in place; build only the pairs that pass.
                if let Some(c) = &self.condition {
                    let pair = JoinedRow {
                        left: &left.tuple,
                        right: &right.tuple,
                    };
                    if !c.eval(&pair)? {
                        continue;
                    }
                }
                out.push(left.join(right));
                produced += 1;
            }
            if self.right_pos.0 == chunks.len() {
                self.current_left.clear();
            }
        }
        self.metrics.add_in(pulled);
        if produced > 0 {
            self.metrics.add_out(produced as u64);
            self.metrics.add_batch();
        }
        Ok(produced)
    }

    fn is_ranked(&self) -> bool {
        false
    }

    fn can_extend_limit(&self) -> bool {
        self.left.can_extend_limit() && self.right.can_extend_limit()
    }

    fn extend_limit(&mut self, extra: usize) -> bool {
        // The inner side is (or will be) fully materialised — no discard.
        self.left.extend_limit(extra) & self.right.extend_limit(extra)
    }
}

/// Hash join: builds a hash table on the right input's join keys and probes
/// it with left tuples.  Requires at least one equi-join key.
///
/// `tuples_out` counts the join results *decided* — matched on the keys and
/// passed by the residual.  Beneath a `SortLimit` (see
/// `HashJoin::with_scoring`) fewer are constructed and emitted —
/// `tuples_built` counts those — and the join scores each side once: a
/// predicate over the build side per build row as it is hashed, one over
/// the probe side per probe row that finds a group; only a rank-join
/// predicate is evaluated per pair, on the pairs the walk reaches.  A probe
/// walks its group by descending build-row upper bound and stops at the
/// first row whose bound is strictly below the sort's threshold: no pair
/// with it or a later row can beat the heap.  The rows it skips still
/// count as decided.
pub struct HashJoin {
    left: BoxedOperator,
    right: BuildSide,
    left_key_cols: Vec<usize>,
    right_key_cols: Vec<usize>,
    residual: Option<BoundBoolExpr>,
    schema: Schema,
    /// Offset into the match group of the probe tuple at the front of
    /// `left_buf`: where a call that filled its batch mid-group resumes.
    match_pos: usize,
    metrics: Arc<OperatorMetrics>,
    batch_size: usize,
    /// Probe-side tuples pulled in batches; the front one is being matched.
    left_buf: VecDeque<RankedTuple>,
    left_scratch: Batch,
    left_done: bool,
    /// Reusable key buffer for multi-column probes.
    probe_key: Vec<Value>,
    top_k: Option<TopKScoring>,
}

impl HashJoin {
    /// Creates a hash join from an explicit condition.  A built `right`
    /// must have been hashed on [`build_key_cols`] of the same condition.
    pub(crate) fn new(
        left: BoxedOperator,
        right: BuildSide,
        condition: Option<&BoolExpr>,
        exec: &ExecutionContext,
        label: impl Into<String>,
    ) -> Result<Self> {
        let metrics = exec.register(label);
        let keys = extract_join_keys(condition, left.schema(), right.schema());
        if keys.keys.is_empty() {
            return Err(RankSqlError::Execution(
                "hash join requires at least one equi-join condition".into(),
            ));
        }
        let schema = left.schema().join(right.schema());
        let residual = bind_on_joined(keys.residual.as_ref(), &schema)?;
        Ok(HashJoin {
            left,
            right,
            left_key_cols: keys.keys.iter().map(|&(l, _)| l).collect(),
            right_key_cols: keys.keys.iter().map(|&(_, r)| r).collect(),
            residual,
            schema,
            match_pos: 0,
            metrics,
            batch_size: exec.batch_size(),
            left_buf: VecDeque::new(),
            left_scratch: Batch::new(),
            left_done: false,
            probe_key: Vec::new(),
            top_k: None,
        })
    }

    /// Makes this join score its results for the `SortLimit` directly above
    /// it: `scoring` is [`TopKScoring::for_join`] over what that sort pushed
    /// for it ([`ExecutionContext::pop_prune_threshold`], taken before this
    /// join's inputs were lowered) — the sort's predicates and the cell
    /// where its bounded heap publishes its worst kept entry.  A build side
    /// drained before the join was made must have been scored by the same
    /// value.  Emitted tuples carry their evaluated state, so the sort
    /// evaluates nothing again.  `None` (no such sort) leaves the join as it
    /// is.
    pub(crate) fn with_scoring(mut self, scoring: Option<TopKScoring>) -> Self {
        self.top_k = scoring;
        self
    }

    /// Refills the (empty) probe buffer with a batch of up to `refill`
    /// tuples; `false` once the probe side is exhausted.
    fn refill_left(&mut self, refill: usize) -> Result<bool> {
        if !self.left_done {
            self.left_scratch.clear();
            let n = self
                .left
                .next_batch(refill.max(1), &mut self.left_scratch)?;
            if n == 0 {
                self.left_done = true;
            } else {
                self.metrics.add_in(n as u64);
                self.left_buf.extend(self.left_scratch.drain(..));
            }
        }
        Ok(!self.left_buf.is_empty())
    }
}

impl PhysicalOperator for HashJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> Result<usize> {
        let (key_cols, batch_size) = (&self.right_key_cols, self.batch_size);
        let top_k = self.top_k.as_ref();
        let build = self.right.drained(&self.metrics, |input| {
            JoinTable::drain(input, batch_size, Some(key_cols), top_k)
        })?;
        let (mut decided, mut built) = (0usize, 0usize);
        // A call ends after deciding `max` results, so the threshold it
        // prunes against is never more than one batch stale — but not
        // before it built one: returning 0 means exhausted.
        while decided < max || built == 0 {
            let Some(left) = self.left_buf.front_mut() else {
                if self.refill_left(max)? {
                    continue;
                }
                break;
            };
            let key = borrowed_key(&self.left_key_cols, &mut self.probe_key, left);
            let group = build.groups.get(key).map_or(&[][..], Vec::as_slice);
            if let Some(top_k) = self.top_k.as_mut().filter(|_| !group.is_empty()) {
                top_k.score_probe_row(left)?;
            }
            let left = &*left;
            while self.match_pos < group.len() && (decided < max || built == 0) {
                let pos = self.match_pos;
                self.match_pos += 1;
                let member = &group[pos];
                if self.top_k.as_ref().is_some_and(|t| t.prunes(member.bound)) {
                    // Rows are walked best bound first: no pair with this
                    // row or a later one can beat the heap.  They are
                    // decided all the same.
                    decided += match &self.residual {
                        None => group.len() - pos,
                        Some(c) => group[pos..]
                            .iter()
                            .map(|m| {
                                let pair = JoinedRow {
                                    left: &left.tuple,
                                    right: &build.row(m).tuple,
                                };
                                c.eval(&pair).map(usize::from)
                            })
                            .sum::<Result<usize>>()?,
                    };
                    self.match_pos = group.len();
                    break;
                }
                let right = build.row(member);
                let pair = JoinedRow {
                    left: &left.tuple,
                    right: &right.tuple,
                };
                if let Some(c) = &self.residual {
                    if !c.eval(&pair)? {
                        continue;
                    }
                }
                decided += 1;
                match &mut self.top_k {
                    None => out.push(left.join(right)),
                    Some(top_k) => {
                        let mut state = left.state.merge(&right.state);
                        if !top_k.keeps(&pair, &mut state, None)? {
                            continue;
                        }
                        out.push(RankedTuple::new(left.tuple.join(&right.tuple), state));
                    }
                }
                built += 1;
            }
            if self.match_pos == group.len() {
                self.left_buf.pop_front();
                self.match_pos = 0;
            }
        }
        if let Some(top_k) = &mut self.top_k {
            top_k.flush();
        }
        self.metrics.add_out(decided as u64);
        if built > 0 {
            self.metrics.add_built(built as u64);
            self.metrics.add_batch();
        }
        Ok(built)
    }

    fn is_ranked(&self) -> bool {
        false
    }

    fn can_extend_limit(&self) -> bool {
        self.left.can_extend_limit() && self.right.can_extend_limit()
    }

    fn extend_limit(&mut self, extra: usize) -> bool {
        // The build side is (or will be) fully hashed — no discard.
        self.left.extend_limit(extra) & self.right.extend_limit(extra)
    }
}

/// Sort-merge join: materialises and sorts both inputs on the join keys, then
/// merges equal-key groups.  Requires at least one equi-join key.
pub struct SortMergeJoin {
    output: std::vec::IntoIter<RankedTuple>,
    schema: Schema,
    metrics: Arc<OperatorMetrics>,
    /// The inputs until the first pull drains them.
    left: Option<BoxedOperator>,
    right: Option<BoxedOperator>,
    keys: Vec<(usize, usize)>,
    residual: Option<BoundBoolExpr>,
    batch_size: usize,
}

impl SortMergeJoin {
    /// Creates a sort-merge join from an explicit condition.
    pub fn new(
        left: BoxedOperator,
        right: BoxedOperator,
        condition: Option<&BoolExpr>,
        exec: &ExecutionContext,
        label: impl Into<String>,
    ) -> Result<Self> {
        let metrics = exec.register(label);
        let keys = extract_join_keys(condition, left.schema(), right.schema());
        if keys.keys.is_empty() {
            return Err(RankSqlError::Execution(
                "sort-merge join requires at least one equi-join condition".into(),
            ));
        }
        let schema = left.schema().join(right.schema());
        let residual = bind_on_joined(keys.residual.as_ref(), &schema)?;
        Ok(SortMergeJoin {
            output: Vec::new().into_iter(),
            schema,
            metrics,
            left: Some(left),
            right: Some(right),
            keys: keys.keys,
            residual,
            batch_size: exec.batch_size(),
        })
    }

    fn prepare(&mut self) -> Result<()> {
        let (Some(mut left), Some(mut right)) = (self.left.take(), self.right.take()) else {
            return Ok(());
        };
        let left_keys: Vec<usize> = self.keys.iter().map(|&(l, _)| l).collect();
        let right_keys: Vec<usize> = self.keys.iter().map(|&(_, r)| r).collect();
        let mut l_rows = drain_batched(left.as_mut(), self.batch_size)?;
        let mut r_rows = drain_batched(right.as_mut(), self.batch_size)?;
        self.metrics.add_in((l_rows.len() + r_rows.len()) as u64);
        // Stable: rows with equal keys keep their input order.
        l_rows.sort_by(|a, b| cmp_keys(a, &left_keys, b, &left_keys));
        r_rows.sort_by(|a, b| cmp_keys(a, &right_keys, b, &right_keys));
        // Where the run of rows sharing `rows[at]`'s key ends.
        let run_end = |rows: &[RankedTuple], at: usize, keys: &[usize]| {
            at + rows[at..].partition_point(|x| cmp_keys(x, keys, &rows[at], keys).is_eq())
        };

        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < l_rows.len() && j < r_rows.len() {
            match cmp_keys(&l_rows[i], &left_keys, &r_rows[j], &right_keys) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let i_end = run_end(&l_rows, i, &left_keys);
                    let j_end = run_end(&r_rows, j, &right_keys);
                    for l in &l_rows[i..i_end] {
                        for r in &r_rows[j..j_end] {
                            if let Some(c) = &self.residual {
                                let pair = JoinedRow {
                                    left: &l.tuple,
                                    right: &r.tuple,
                                };
                                if !c.eval(&pair)? {
                                    continue;
                                }
                            }
                            out.push(l.join(r));
                        }
                    }
                    i = i_end;
                    j = j_end;
                }
            }
        }
        self.output = out.into_iter();
        Ok(())
    }
}

impl PhysicalOperator for SortMergeJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> Result<usize> {
        self.prepare()?;
        let before = out.len();
        out.extend(self.output.by_ref().take(max));
        let n = out.len() - before;
        if n > 0 {
            self.metrics.add_out(n as u64);
            self.metrics.add_batch();
        }
        Ok(n)
    }

    fn is_ranked(&self) -> bool {
        false
    }

    fn can_extend_limit(&self) -> bool {
        self.left.as_ref().is_none_or(|l| l.can_extend_limit())
            && self.right.as_ref().is_none_or(|r| r.can_extend_limit())
    }

    fn extend_limit(&mut self, extra: usize) -> bool {
        // Both sides are fully materialised into the sorted output buffer —
        // nothing was discarded, so no cap exists at this node.
        self.left.as_mut().is_none_or(|l| l.extend_limit(extra))
            & self.right.as_mut().is_none_or(|r| r.extend_limit(extra))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column_scan::tests::scan_table;
    use crate::context::TopKThreshold;
    use crate::operator::drain_batched;
    use ranksql_common::{BitSet64, DataType, Field};
    use ranksql_expr::RankingContext;
    use ranksql_storage::{Table, TableBuilder};

    fn table_r() -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("x", DataType::Int64),
        ])
        .qualify_all("R");
        TableBuilder::new("R", schema)
            .rows([
                vec![Value::from(1), Value::from(10)],
                vec![Value::from(2), Value::from(20)],
                vec![Value::from(3), Value::from(30)],
                vec![Value::from(1), Value::from(40)],
            ])
            .build(0)
            .unwrap()
    }

    fn table_s() -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("y", DataType::Int64),
        ])
        .qualify_all("S");
        TableBuilder::new("S", schema)
            .rows([
                vec![Value::from(1), Value::from(100)],
                vec![Value::from(3), Value::from(300)],
                vec![Value::from(3), Value::from(301)],
                vec![Value::from(9), Value::from(900)],
            ])
            .build(1)
            .unwrap()
    }

    fn exec() -> ExecutionContext {
        ExecutionContext::new(RankingContext::unranked())
    }

    fn scan(t: &Table, exec: &ExecutionContext) -> BoxedOperator {
        Box::new(scan_table(t, exec, "scan"))
    }

    /// `t` as a join's undrained build side.
    fn side(t: &Table, exec: &ExecutionContext) -> BuildSide {
        BuildSide::Input(scan(t, exec))
    }

    fn join_result_pairs(out: &[RankedTuple]) -> Vec<(i64, i64)> {
        let mut pairs: Vec<(i64, i64)> = out
            .iter()
            .map(|t| {
                (
                    t.tuple.value(0).as_i64().unwrap(),
                    t.tuple.value(3).as_i64().unwrap(),
                )
            })
            .collect();
        pairs.sort();
        pairs
    }

    /// Expected R ⋈ S on a: (1,100) x2 [R rows 1 and 4], (3,300), (3,301).
    fn expected_pairs() -> Vec<(i64, i64)> {
        vec![(1, 100), (1, 100), (3, 300), (3, 301)]
    }

    #[test]
    fn extract_keys_and_residual() {
        let r = table_r();
        let s = table_s();
        let cond = BoolExpr::col_eq_col("R.a", "S.a").and(BoolExpr::compare(
            ScalarExpr::col("R.x").add(ScalarExpr::col("S.y")),
            CompareOp::Lt,
            ScalarExpr::lit(1000),
        ));
        let keys = extract_join_keys(Some(&cond), r.schema(), s.schema());
        assert_eq!(keys.keys, vec![(0, 0)]);
        assert!(keys.residual.is_some());
        // Reversed orientation also works.
        let cond2 = BoolExpr::col_eq_col("S.a", "R.a");
        let keys2 = extract_join_keys(Some(&cond2), r.schema(), s.schema());
        assert_eq!(keys2.keys, vec![(0, 0)]);
        assert!(keys2.residual.is_none());
        // Cross join: no condition.
        let keys3 = extract_join_keys(None, r.schema(), s.schema());
        assert!(keys3.keys.is_empty() && keys3.residual.is_none());
    }

    #[test]
    fn nested_loop_join_matches_expected() {
        let r = table_r();
        let s = table_s();
        let exec = exec();
        let cond = BoolExpr::col_eq_col("R.a", "S.a");
        let mut j =
            NestedLoopJoin::new(scan(&r, &exec), side(&s, &exec), Some(&cond), &exec, "nlj")
                .unwrap();
        let out = drain_batched(&mut j, 4).unwrap();
        assert_eq!(join_result_pairs(&out), expected_pairs());
        assert_eq!(out[0].tuple.arity(), 4);
    }

    #[test]
    fn cross_join_produces_product() {
        let r = table_r();
        let s = table_s();
        let exec = exec();
        let mut j =
            NestedLoopJoin::new(scan(&r, &exec), side(&s, &exec), None, &exec, "nlj").unwrap();
        assert_eq!(drain_batched(&mut j, 4).unwrap().len(), 16);
    }

    #[test]
    fn hash_join_matches_expected() {
        let r = table_r();
        let s = table_s();
        let exec = exec();
        let cond = BoolExpr::col_eq_col("R.a", "S.a");
        let mut j =
            HashJoin::new(scan(&r, &exec), side(&s, &exec), Some(&cond), &exec, "hj").unwrap();
        let out = drain_batched(&mut j, 4).unwrap();
        assert_eq!(join_result_pairs(&out), expected_pairs());
    }

    #[test]
    fn hash_join_requires_equi_key() {
        let r = table_r();
        let s = table_s();
        let exec = exec();
        let cond = BoolExpr::compare(
            ScalarExpr::col("R.x"),
            CompareOp::Lt,
            ScalarExpr::col("S.y"),
        );
        assert!(HashJoin::new(scan(&r, &exec), side(&s, &exec), Some(&cond), &exec, "hj").is_err());
    }

    #[test]
    fn sort_merge_join_matches_expected() {
        let r = table_r();
        let s = table_s();
        let exec = exec();
        let cond = BoolExpr::col_eq_col("R.a", "S.a");
        let mut j = SortMergeJoin::new(scan(&r, &exec), scan(&s, &exec), Some(&cond), &exec, "smj")
            .unwrap();
        let out = drain_batched(&mut j, 4).unwrap();
        assert_eq!(join_result_pairs(&out), expected_pairs());
    }

    #[test]
    fn residual_condition_filters_join_results() {
        let r = table_r();
        let s = table_s();
        let exec = exec();
        // R.a = S.a AND R.x + S.y < 200  → keeps only (1,100)x2 pairs
        // (10+100, 40+100); (3,300/301) pairs exceed 200.
        let cond = BoolExpr::col_eq_col("R.a", "S.a").and(BoolExpr::compare(
            ScalarExpr::col("R.x").add(ScalarExpr::col("S.y")),
            CompareOp::Lt,
            ScalarExpr::lit(200),
        ));
        for mk in ["hash", "smj", "nlj"] {
            let op: BoxedOperator = match mk {
                "hash" => Box::new(
                    HashJoin::new(scan(&r, &exec), side(&s, &exec), Some(&cond), &exec, "j")
                        .unwrap(),
                ),
                "smj" => Box::new(
                    SortMergeJoin::new(scan(&r, &exec), scan(&s, &exec), Some(&cond), &exec, "j")
                        .unwrap(),
                ),
                _ => Box::new(
                    NestedLoopJoin::new(scan(&r, &exec), side(&s, &exec), Some(&cond), &exec, "j")
                        .unwrap(),
                ),
            };
            let mut op = op;
            let out = drain_batched(op.as_mut(), 4).unwrap();
            assert_eq!(
                join_result_pairs(&out),
                vec![(1, 100), (1, 100)],
                "algorithm {mk}"
            );
        }
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
            // Input order spread over chunks of up to 8 rows.
            let mut group: Vec<Member> = (0..len)
                .map(|i| {
                    // Ties, the special values, and arbitrary bit patterns
                    // (every NaN payload, subnormals, both signs).
                    let v = match below(next(), 3) {
                        0 => SPECIAL[below(next(), SPECIAL.len() as u64) as usize],
                        1 => below(next(), 5) as f64 / 4.0,
                        _ => f64::from_bits(next()),
                    };
                    let (chunk, row) = ((i / 8) as u32, (i % 8) as u32);
                    Member {
                        bound: Score(v),
                        chunk,
                        row,
                    }
                })
                .collect();
            let mut stable = group.clone();
            stable.sort_by_key(|m| std::cmp::Reverse(m.bound));
            group.sort_unstable_by_key(best_first);
            let positions = |g: &[Member]| g.iter().map(|m| (m.chunk, m.row)).collect::<Vec<_>>();
            assert_eq!(positions(&group), positions(&stable));
        }
    }

    /// Under a `SortLimit`, the best-first walk returns the unpruned join's
    /// top-k and decides as many pairs, for every scoring function, with
    /// tied, NULL (probe side) and NaN (build side) scores, with and without
    /// a residual, at every batch size — and reaches few pairs: the
    /// rank-join predicate is evaluated on at most 10 % of those decided.
    /// The caps (p ≤ 0.5, so p·q ≤ 0.5) let a bound under `Max` fall below 1.
    #[test]
    fn ordered_walk_returns_the_unpruned_top_k() {
        use crate::sort_limit::SortLimitOp;
        use ranksql_expr::{RankPredicate, ScoringFunction};
        let schema = |rel: &str, score: &str| {
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("a", DataType::Int64),
                Field::new(score, DataType::Float64),
            ])
            .qualify_all(rel)
        };
        let r = TableBuilder::new("R", schema("R", "p"))
            .rows((0..400i64).map(|i| {
                let p = match i % 40 {
                    3 => Value::Null,
                    _ => Value::from((i % 6) as f64 / 10.0),
                };
                vec![Value::from(i), Value::from(i % 2), p]
            }))
            .build(0)
            .unwrap();
        let s = TableBuilder::new("S", schema("S", "q"))
            .rows((0..400i64).map(|i| {
                let q = match i % 100 {
                    7 => f64::NAN,
                    _ => ((i * 37 % 101) as f64 / 100.0).powi(32),
                };
                vec![Value::from(i), Value::from(i % 2), Value::from(q)]
            }))
            .build(1)
            .unwrap();
        let predicates = vec![
            RankPredicate::attribute("fr", "R.p"),
            RankPredicate::attribute("fs", "S.q"),
            RankPredicate::expression("frs", ScalarExpr::col("R.p").mul(ScalarExpr::col("S.q")), 0),
        ];
        let keys = BoolExpr::col_eq_col("R.a", "S.a");
        let residual = BoolExpr::compare(
            ScalarExpr::col("R.id"),
            CompareOp::Lt,
            ScalarExpr::col("S.id"),
        );
        for scoring in [
            ScoringFunction::Sum,
            ScoringFunction::weighted_sum(vec![1.0, 2.0, 0.5]),
            ScoringFunction::Product,
            ScoringFunction::Min,
            ScoringFunction::Max,
            ScoringFunction::Average,
        ] {
            for cond in [keys.clone(), keys.clone().and(residual.clone())] {
                let run = |batch: usize, pruned: bool| {
                    let ctx = RankingContext::new(predicates.clone(), scoring.clone())
                        .with_predicate_caps(vec![0.5, 1.0, 0.5]);
                    let exec = ExecutionContext::new(ctx).with_batch_size(batch);
                    let (all, cell) = (BitSet64::all(3), Arc::new(TopKThreshold::new()));
                    let (probe, build) = (scan(&r, &exec), side(&s, &exec));
                    let scoring = pruned.then(|| {
                        let pushed = (all, Arc::clone(&cell));
                        TopKScoring::for_join(probe.schema(), build.schema(), pushed, &exec)
                            .unwrap()
                    });
                    let join = HashJoin::new(probe, build, Some(&cond), &exec, "hj")
                        .unwrap()
                        .with_scoring(scoring);
                    let mut top = SortLimitOp::new(Box::new(join), all, 5, &exec, "top").unwrap();
                    if pruned {
                        top = top.with_threshold(cell);
                    }
                    let got: Vec<_> = drain_batched(&mut top, batch)
                        .unwrap()
                        .iter()
                        .map(|t| (t.tuple.id().clone(), exec.ranking().upper_bound(&t.state)))
                        .collect();
                    let metrics = exec.metrics().snapshot();
                    let join = metrics.iter().find(|m| m.name() == "hj").unwrap();
                    (got, join.tuples_out(), exec.ranking().counters().count(2))
                };
                let (want, decided, _) = run(1024, false);
                for batch in [1, 16, 1024] {
                    let (got, got_decided, pair_evals) = run(batch, true);
                    let at = format!("{scoring} {cond:?} batch={batch}");
                    assert_eq!(got, want, "{at}");
                    assert_eq!(got_decided, decided, "{at}");
                    assert!(
                        pair_evals * 10 <= decided,
                        "{at}: {pair_evals} of {decided}"
                    );
                }
            }
        }
    }

    #[test]
    fn joins_report_unranked() {
        let r = table_r();
        let s = table_s();
        let exec = exec();
        let cond = BoolExpr::col_eq_col("R.a", "S.a");
        let j = HashJoin::new(scan(&r, &exec), side(&s, &exec), Some(&cond), &exec, "hj").unwrap();
        assert!(!j.is_ranked());
    }
}
