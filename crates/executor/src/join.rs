//! Traditional (ranking-blind) join operators: nested loops, hash join and
//! sort-merge join.
//!
//! These operators implement the membership semantics of ⋈ and *merge* the
//! score states of their inputs (so predicates evaluated below the join stay
//! evaluated above it), but they make no promise about output order — they
//! are the joins a conventional engine would use in the materialise-then-sort
//! plans the paper compares against (Plan 1 and Plan 4 of Figure 11).

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use ranksql_common::{JoinedRow, RankSqlError, Result, Schema, Value};
use ranksql_expr::{BoolExpr, BoundBoolExpr, CompareOp, RankedTuple, ScalarExpr, ScoreState};

use crate::build_table::{key_hash, JoinTable, Partition};
use crate::context::{ExecutionContext, TopKScoring};
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

/// What a join's build side drains: an operator's rows or — when the build
/// side is itself a hash join — that join's pairs, encoded from its two
/// sides without being built.  Its metrics count the same either way.
pub(crate) enum BuildInput {
    Rows(BoxedOperator),
    Pairs(Box<HashJoin>),
}

impl BuildInput {
    pub(crate) fn op(&self) -> &dyn PhysicalOperator {
        match self {
            BuildInput::Rows(input) => input.as_ref(),
            BuildInput::Pairs(join) => join.as_ref(),
        }
    }

    fn op_mut(&mut self) -> &mut dyn PhysicalOperator {
        match self {
            BuildInput::Rows(input) => input.as_mut(),
            BuildInput::Pairs(join) => join.as_mut(),
        }
    }
}

/// Drains a join's build input, batch by batch, into one partition of its
/// [`JoinTable`].  With `key_cols` (a hash join's) each row also joins its
/// key's group and, with `top_k`, its build-side predicates are evaluated
/// here, once, and its upper bound kept for the best-first walk.
pub(crate) fn drain_partition(
    input: &mut BuildInput,
    batch_size: usize,
    key_cols: &[usize],
    top_k: Option<&TopKScoring>,
) -> Result<Partition> {
    let mut part = Partition::draining(key_cols, top_k);
    match input {
        BuildInput::Pairs(join) => join.drain_into(&mut part)?,
        input => {
            let (input, mut buf) = (input.op_mut(), Batch::with_capacity(batch_size));
            while input.next_batch(batch_size, &mut buf)? > 0 {
                for t in buf.iter_mut() {
                    let (values, id) = (t.tuple.values(), t.tuple.id().parts().iter());
                    part.drain_row(values, &[], id.copied(), &mut t.state)?;
                }
                buf.clear();
            }
        }
    }
    Ok(part.finish())
}

/// A join's build (inner) side: its input operator until the join's first
/// pull drains it, what the drain built afterwards.  An exchange's morsel
/// pipelines get the built form from the start — the spine's first
/// lowering drains the build side once and every morsel shares it.
pub(crate) enum BuildSide {
    /// Not drained yet.
    Input(BuildInput),
    /// Drained, read-only.
    Built(Arc<JoinTable>),
}

impl BuildSide {
    fn schema(&self) -> &Schema {
        match self {
            BuildSide::Input(input) => input.op().schema(),
            BuildSide::Built(built) => &built.schema,
        }
    }

    /// The drained build side, draining the input serially, as one
    /// partition (see [`drain_partition`]), on the first call; build rows
    /// no join has counted yet are counted into `metrics`.
    fn drained(
        &mut self,
        metrics: &OperatorMetrics,
        batch_size: usize,
        key_cols: &[usize],
        top_k: Option<&TopKScoring>,
    ) -> Result<Arc<JoinTable>> {
        let built = match self {
            BuildSide::Built(built) => Arc::clone(built),
            BuildSide::Input(input) => {
                let part = drain_partition(input, batch_size, key_cols, top_k)?;
                let built = Arc::new(JoinTable::new(input.op().schema().clone(), vec![part]));
                *self = BuildSide::Built(Arc::clone(&built));
                built
            }
        };
        metrics.add_in(built.uncounted.swap(0, Ordering::Relaxed));
        Ok(built)
    }

    fn can_extend_limit(&self) -> bool {
        match self {
            BuildSide::Input(input) => input.op().can_extend_limit(),
            BuildSide::Built(_) => true,
        }
    }

    /// A built side is complete — nothing was discarded, so no cap exists.
    fn extend_limit(&mut self, extra: usize) -> bool {
        match self {
            BuildSide::Input(input) => input.op_mut().extend_limit(extra),
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

/// `t`'s join key as a slice, without allocating: a single-column key is
/// the value in place, a multi-column key is copied into `scratch`.
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
    /// The next inner row to pair with it: `(partition, row)`.
    right_pos: (usize, usize),
    /// The inner row being tested, materialised.
    right_row: Vec<Value>,
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
            right_row: Vec::new(),
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
        let inner = self
            .right
            .drained(&self.metrics, self.batch_size, &[], None)?;
        let parts = &inner.parts;
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
            while self.right_pos.0 < parts.len() && produced < max {
                let (p, row) = self.right_pos;
                let part = &parts[p];
                if row == part.len() {
                    self.right_pos = (p + 1, 0);
                    continue;
                }
                self.right_pos.1 += 1;
                // Decide on the pair in place; build only the pairs that pass.
                if let Some(c) = &self.condition {
                    part.load(row, &mut self.right_row);
                    let pair = JoinedRow {
                        left: left.tuple.values(),
                        right: &self.right_row,
                    };
                    if !c.eval(&pair)? {
                        continue;
                    }
                }
                let tuple = part.join_tuple(&left.tuple, row);
                out.push(RankedTuple::new(tuple, part.merged_state(&left.state, row)));
                produced += 1;
            }
            if self.right_pos.0 == parts.len() {
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
    /// Where the walk of the probe tuple at the front of `left_buf`
    /// resumes after a call that filled its batch mid-walk: `(partition,
    /// offset into its group)`.
    at: (usize, usize),
    metrics: Arc<OperatorMetrics>,
    batch_size: usize,
    /// Probe-side tuples pulled in batches; the front one is being matched.
    left_buf: VecDeque<RankedTuple>,
    left_scratch: Batch,
    left_done: bool,
    /// Reusable key buffer for multi-column probes.
    probe_key: Vec<Value>,
    /// The build row being tested, materialised.
    right_row: Vec<Value>,
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
            at: (0, 0),
            metrics,
            batch_size: exec.batch_size(),
            left_buf: VecDeque::new(),
            left_scratch: Batch::new(),
            left_done: false,
            probe_key: Vec::new(),
            right_row: Vec::new(),
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

    /// Decides join results until `max` are decided (and one is built),
    /// handing each pair that passes the residual to `emit`, which says
    /// whether it built the result; returns how many it built — 0 once
    /// exhausted.  A call ends after deciding `max` results, so the
    /// threshold it prunes against is never more than one batch stale.
    fn walk(
        &mut self,
        max: usize,
        mut emit: impl FnMut(&mut Option<TopKScoring>, Pair<'_>) -> Result<bool>,
    ) -> Result<usize> {
        let (batch_size, key_cols) = (self.batch_size, &self.right_key_cols);
        let top_k = self.top_k.as_ref();
        let build = self
            .right
            .drained(&self.metrics, batch_size, key_cols, top_k)?;
        let (mut decided, mut built) = (0usize, 0usize);
        while decided < max || built == 0 {
            let Some(left) = self.left_buf.front_mut() else {
                if self.refill_left(max)? {
                    continue;
                }
                break;
            };
            let key = borrowed_key(&self.left_key_cols, &mut self.probe_key, left);
            let runs = build.runs(key_hash(key), key);
            if let Some(top_k) = self.top_k.as_mut().filter(|_| !runs.is_empty()) {
                top_k.score_probe_row(left)?;
            }
            let left = &*left;
            // The key's group in each partition that holds it.
            'runs: while let Some(run) = runs.get(self.at.0) {
                let part = &build.parts[run.part as usize];
                let group = part.group(run.group);
                while self.at.1 < group.len() && (decided < max || built == 0) {
                    let pos = self.at.1;
                    self.at.1 += 1;
                    let (row, right) = (group[pos] as usize, &mut self.right_row);
                    let mut pair = Pair {
                        left,
                        part,
                        row,
                        right,
                        loaded: false,
                    };
                    if self
                        .top_k
                        .as_ref()
                        .is_some_and(|t| t.prunes(part.bounds[row]))
                    {
                        // Runs are walked best head first and their rows
                        // best bound first: no pair with this row or a
                        // later one — nor, at a run's head, with a later
                        // run's row — can beat the heap.  They are decided
                        // all the same.
                        let skipped = if pos == 0 { runs.len() } else { self.at.0 + 1 };
                        decided += match &self.residual {
                            None if pos == 0 => group.len() + run.after as usize,
                            None => group.len() - pos,
                            Some(c) => {
                                let later = runs[self.at.0 + 1..skipped].iter().map(|r| {
                                    let part = &build.parts[r.part as usize];
                                    (part, part.group(r.group))
                                });
                                let mut passed = 0;
                                let rows = std::iter::once((part, &group[pos..])).chain(later);
                                for (part, rows) in rows {
                                    for &r in rows {
                                        (pair.part, pair.row) = (part, r as usize);
                                        pair.loaded = false;
                                        passed += usize::from(c.eval(&pair.values())?);
                                    }
                                }
                                passed
                            }
                        };
                        self.at = (skipped, 0);
                        continue 'runs;
                    }
                    if let Some(c) = &self.residual {
                        if !c.eval(&pair.values())? {
                            continue;
                        }
                    }
                    decided += 1;
                    built += usize::from(emit(&mut self.top_k, pair)?);
                }
                if self.at.1 < group.len() {
                    break;
                }
                self.at = (self.at.0 + 1, 0);
            }
            if self.at.0 == runs.len() {
                self.left_buf.pop_front();
                self.at = (0, 0);
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

    /// Drains this join into a build side's partition the way
    /// [`drain_partition`] drains an operator, batch by batch, but encodes
    /// each result from its probe row and build row instead of building it.
    fn drain_into(&mut self, part: &mut Partition) -> Result<()> {
        let batch_size = self.batch_size;
        while self.walk(batch_size, |top_k, mut p| {
            let Some(mut state) = p.kept(top_k.as_mut())? else {
                return Ok(false);
            };
            let ids = p.left.tuple.id().parts().iter().chain(p.part.id(p.row));
            let row = p.values();
            part.drain_row(row.left, row.right, ids.copied(), &mut state)?;
            Ok(true)
        })? > 0
        {}
        Ok(())
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
        self.walk(max, |top_k, mut p| {
            let Some(state) = p.kept(top_k.as_mut())? else {
                return Ok(false);
            };
            let tuple = p.part.join_tuple(&p.left.tuple, p.row);
            out.push(RankedTuple::new(tuple, state));
            Ok(true)
        })
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

/// A pair a hash join's walk decided: its probe row `left` and build row
/// `row` of `part`, whose values are loaded into `right` on first use.
struct Pair<'a> {
    left: &'a RankedTuple,
    part: &'a Partition,
    row: usize,
    right: &'a mut Vec<Value>,
    loaded: bool,
}

impl Pair<'_> {
    /// The pair's values, in place.
    fn values(&mut self) -> JoinedRow<'_> {
        if !self.loaded {
            self.part.load(self.row, self.right);
            self.loaded = true;
        }
        JoinedRow {
            left: self.left.tuple.values(),
            right: self.right,
        }
    }

    /// The pair's score state: both rows' merged and, with `top_k`,
    /// completed — `None` when the top-k's heap would drop the pair.
    fn kept(&mut self, top_k: Option<&mut TopKScoring>) -> Result<Option<ScoreState>> {
        let mut state = self.part.merged_state(&self.left.state, self.row);
        if let Some(top_k) = top_k {
            // The sort's own predicates read both sides, if any does.
            let pair = match top_k.reads_rows() {
                true => self.values(),
                false => JoinedRow::default(),
            };
            if !top_k.keeps(&pair, &mut state, None)? {
                return Ok(None);
            }
        }
        Ok(Some(state))
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
                                    left: l.tuple.values(),
                                    right: r.tuple.values(),
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
        BuildSide::Input(BuildInput::Rows(scan(t, exec)))
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
