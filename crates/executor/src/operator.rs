//! The physical operator interface and shared ordering utilities.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use ranksql_common::{Result, Schema, Score};
use ranksql_expr::{RankedTuple, RankingContext};

/// A chunk of [`RankedTuple`]s flowing between batched operators — the
/// executor's instantiation of the reusable [`ranksql_common::Batch`] buffer.
pub type Batch = ranksql_common::Batch<RankedTuple>;

/// A Volcano-style physical operator producing [`RankedTuple`]s on demand.
///
/// The paper's iterator interface is `Open` / `GetNext` / `Close`; in Rust
/// construction plays the role of `Open`, [`PhysicalOperator::next_batch`]
/// is `GetNext` — the one pull method, with `max = 1` the paper's
/// tuple-at-a-time call — and `Drop` is `Close`.
///
/// **Ordering contract.** An operator whose [`PhysicalOperator::is_ranked`]
/// returns `true` must emit tuples in non-increasing order of their
/// maximal-possible score `F_P[t]` with respect to the shared
/// [`RankingContext`]; this is the incremental execution model of
/// Section 4.1.  Operators that are not rank-aware (traditional joins, plain
/// sort inputs) make no ordering promise.
///
/// **Pull contract.** A call appends the next chunk of the operator's one
/// tuple stream, so the stream (membership *and* emission order) does not
/// depend on how the calls cut it up.  A rank-aware operator (µ, MPro,
/// HRJN/NRJN, ∩) never over-draws: it takes one tuple at a time from its
/// inputs and stops as soon as `max` results surfaced, so `k` calls with
/// `max = 1` and one call with `max = k` leave every input at the same
/// depth.  Metrics are written once per call, not once per tuple.
///
/// Operators are `Send`: an exchange lowers its morsel pipelines on the
/// calling thread and hands them to its workers to drain.
pub trait PhysicalOperator: Send {
    /// The schema of emitted tuples.
    fn schema(&self) -> &Schema;

    /// Appends up to `max` tuples to `out`, returning how many were appended.
    ///
    /// A return of `0` (with `max > 0`) means the stream is exhausted (until
    /// a [`PhysicalOperator::extend_limit`] re-opens it).  On `Err`, what
    /// the call had already appended stays in `out` for the caller to
    /// discard.
    fn next_batch(&mut self, max: usize, out: &mut Batch) -> Result<usize>;

    /// Whether this operator's output respects the rank-relational ordering
    /// contract.
    fn is_ranked(&self) -> bool {
        true
    }

    /// Whether this subtree could serve tuples beyond its current top-k cap
    /// if [`PhysicalOperator::extend_limit`] were called — `false` when some
    /// operator discarded tuples beyond recovery (a bounded-heap top-k sort
    /// that already materialised, an ordered exchange that already
    /// re-limited its merge).
    ///
    /// This is the *pure* query half of top-k extension: callers (e.g.
    /// `Cursor::fetch_more`) check it over the whole tree before mutating
    /// anything, so a refusal leaves every cap untouched.  The default is
    /// conservative (`false`); operators that impose no cap return `true`
    /// and order/membership-preserving operators forward to their inputs.
    fn can_extend_limit(&self) -> bool {
        false
    }

    /// Raises every top-k cap this subtree imposes by `extra` tuples, so an
    /// exhausted stream can resume — the executor half of
    /// `Cursor::fetch_more`.  Returns whether the subtree accepted the
    /// extension (the same answer as [`PhysicalOperator::can_extend_limit`]).
    ///
    /// Call [`PhysicalOperator::can_extend_limit`] first: invoking this on a
    /// tree that cannot extend may have raised caps in *sibling* subtrees by
    /// the time the refusing operator is reached.  Incremental rank-aware
    /// operators (µ, MPro, HRJN/NRJN) buffer but never discard, which is
    /// exactly why top-k extension is cheap on the paper's pipelined
    /// ranking plans.
    fn extend_limit(&mut self, extra: usize) -> bool {
        let _ = extra;
        false
    }
}

/// A boxed physical operator.
pub type BoxedOperator = Box<dyn PhysicalOperator>;

/// Draws one tuple from `input` onto the end of `into` — the only way a
/// rank-aware operator consumes input — and returns whether there was one.
/// An input may append before it fails (a scan charges the tuple budget
/// last), so a failed draw is cut back off: `into` may be long-lived
/// operator state, and a tuple the operator never accounted for must not
/// stay in it.
pub(crate) fn draw_one(input: &mut dyn PhysicalOperator, into: &mut Batch) -> Result<bool> {
    let len = into.len();
    match input.next_batch(1, into) {
        Ok(n) => Ok(n > 0),
        Err(e) => {
            into.truncate(len);
            Err(e)
        }
    }
}

/// Squeezes the tuples `keep` rejects out of `out[from..]` — the chunk an
/// input just appended — preserving order, and returns how many stayed.
pub(crate) fn retain_from(
    out: &mut Batch,
    from: usize,
    mut keep: impl FnMut(&RankedTuple) -> Result<bool>,
) -> Result<usize> {
    let mut kept = from;
    for i in from..out.len() {
        if keep(&out[i])? {
            out.swap(kept, i);
            kept += 1;
        }
    }
    out.truncate(kept);
    Ok(kept - from)
}

/// An entry of a ranking (priority) queue: a tuple keyed by its upper-bound
/// score, with deterministic tie-breaking on tuple identity.
#[derive(Debug, Clone)]
pub struct HeapEntry {
    /// The buffered tuple.
    pub tuple: RankedTuple,
    /// The upper-bound score it is ordered by.
    pub score: Score,
}

impl HeapEntry {
    /// Creates an entry, computing the score from the ranking context.
    pub fn new(tuple: RankedTuple, ctx: &RankingContext) -> Self {
        let score = ctx.upper_bound(&tuple.state);
        HeapEntry { tuple, score }
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on score; ties broken so that the smaller tuple id pops
        // first (BinaryHeap pops the maximum, so invert the id comparison).
        self.score
            .cmp(&other.score)
            .then_with(|| other.tuple.tuple.id().cmp(self.tuple.tuple.id()))
    }
}

/// A ranking queue: a max-priority queue of tuples ordered by upper-bound
/// score (deterministic ties), as used by µ, MPro and the rank-aware set
/// operators.  (The rank-joins queue index pairs in the same order and
/// build a tuple only on emit; see `rank_join`.)
#[derive(Debug)]
pub struct RankingQueue {
    heap: BinaryHeap<HeapEntry>,
    ctx: Arc<RankingContext>,
}

impl RankingQueue {
    /// Creates an empty queue bound to a ranking context.
    pub fn new(ctx: Arc<RankingContext>) -> Self {
        RankingQueue {
            heap: BinaryHeap::new(),
            ctx,
        }
    }

    /// Buffers a tuple.
    pub fn push(&mut self, tuple: RankedTuple) {
        let entry = HeapEntry::new(tuple, &self.ctx);
        self.heap.push(entry);
    }

    /// Removes and returns the best buffered tuple.
    pub fn pop(&mut self) -> Option<RankedTuple> {
        self.heap.pop().map(|e| e.tuple)
    }

    /// Removes the best tuple only if its score is at least `threshold`.
    pub fn pop_if_at_least(&mut self, threshold: Score) -> Option<RankedTuple> {
        match self.heap.peek() {
            Some(e) if e.score >= threshold => self.heap.pop().map(|e| e.tuple),
            _ => None,
        }
    }

    /// Number of buffered tuples.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Replays a stream recorded elsewhere, in recorded order: the input a
/// caller hands [`build_over_inputs`](crate::build::build_over_inputs) in
/// place of a subplan it already ran.  `ranked` is what the recorded
/// subplan's root reports from [`PhysicalOperator::is_ranked`], which µ and
/// the rank-joins read to decide whether they may emit incrementally.
pub struct Replay<I> {
    schema: Schema,
    rows: I,
    ranked: bool,
}

impl<I: Iterator<Item = RankedTuple> + Send> Replay<I> {
    /// A replay of `rows` under `schema`.
    pub fn new(schema: Schema, rows: I, ranked: bool) -> Self {
        Replay {
            schema,
            rows,
            ranked,
        }
    }
}

impl<I: Iterator<Item = RankedTuple> + Send> PhysicalOperator for Replay<I> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> Result<usize> {
        let before = out.len();
        out.extend(self.rows.by_ref().take(max));
        Ok(out.len() - before)
    }

    fn is_ranked(&self) -> bool {
        self.ranked
    }
}

/// Drains an operator completely, pulling chunks of `batch_size` tuples at
/// a time.
pub fn drain_batched(op: &mut dyn PhysicalOperator, batch_size: usize) -> Result<Vec<RankedTuple>> {
    let batch_size = batch_size.max(1);
    let mut batch = Batch::with_capacity(batch_size);
    let mut out = Vec::new();
    loop {
        batch.clear();
        let n = op.next_batch(batch_size, &mut batch)?;
        if n == 0 {
            return Ok(out);
        }
        out.append(&mut batch);
    }
}

/// Draws at most `k` tuples from an operator.
pub fn take(op: &mut dyn PhysicalOperator, k: usize) -> Result<Vec<RankedTuple>> {
    let mut out = Batch::with_capacity(k);
    while out.len() < k && op.next_batch(k - out.len(), &mut out)? > 0 {}
    Ok(out.into_vec())
}

/// Debug helper: asserts that a sequence of tuples is in non-increasing
/// upper-bound order; returns the violating index if any.
pub fn check_rank_order(tuples: &[RankedTuple], ctx: &RankingContext) -> Option<usize> {
    for i in 1..tuples.len() {
        let prev = ctx.upper_bound(&tuples[i - 1].state);
        let cur = ctx.upper_bound(&tuples[i].state);
        if cur > prev {
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksql_common::{Tuple, Value};
    use ranksql_expr::{RankPredicate, ScoreState, ScoringFunction};

    fn ctx() -> Arc<RankingContext> {
        RankingContext::new(
            vec![
                RankPredicate::attribute("p1", "R.p1"),
                RankPredicate::attribute("p2", "R.p2"),
            ],
            ScoringFunction::Sum,
        )
    }

    fn rt(id: u64, p1: Option<f64>, p2: Option<f64>) -> RankedTuple {
        let mut state = ScoreState::new(2);
        if let Some(v) = p1 {
            state.set(0, v);
        }
        if let Some(v) = p2 {
            state.set(1, v);
        }
        RankedTuple::new(Tuple::synthetic(id, vec![Value::from(id as i64)]), state)
    }

    #[test]
    fn queue_orders_by_upper_bound_desc() {
        let ctx = ctx();
        let mut q = RankingQueue::new(Arc::clone(&ctx));
        q.push(rt(1, Some(0.2), None)); // bound 1.2
        q.push(rt(2, Some(0.9), Some(0.9))); // bound 1.8
        q.push(rt(3, None, None)); // bound 2.0
        assert_eq!(q.len(), 3);
        assert_eq!(q.heap.peek().map(|e| e.score), Some(Score::new(2.0)));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|t| t.tuple.id().parts()[0].1)
            .collect();
        assert_eq!(order, vec![3, 2, 1]);
        assert!(q.is_empty());
    }

    #[test]
    fn queue_tie_break_is_deterministic() {
        let ctx = ctx();
        let mut q = RankingQueue::new(Arc::clone(&ctx));
        q.push(rt(7, Some(0.5), Some(0.5)));
        q.push(rt(3, Some(0.5), Some(0.5)));
        assert_eq!(q.pop().unwrap().tuple.id().parts()[0].1, 3);
        assert_eq!(q.pop().unwrap().tuple.id().parts()[0].1, 7);
    }

    #[test]
    fn pop_if_at_least_respects_threshold() {
        let ctx = ctx();
        let mut q = RankingQueue::new(Arc::clone(&ctx));
        q.push(rt(1, Some(0.3), Some(0.3))); // bound 0.6
        assert!(q.pop_if_at_least(Score::new(0.7)).is_none());
        assert!(q.pop_if_at_least(Score::new(0.6)).is_some());
        assert!(q.pop_if_at_least(Score::ZERO).is_none());
    }

    #[test]
    fn check_rank_order_detects_violations() {
        let ctx = ctx();
        let good = vec![
            rt(1, None, None),
            rt(2, Some(0.5), None),
            rt(3, Some(0.1), Some(0.1)),
        ];
        assert_eq!(check_rank_order(&good, &ctx), None);
        let bad = vec![rt(1, Some(0.1), Some(0.1)), rt(2, None, None)];
        assert_eq!(check_rank_order(&bad, &ctx), Some(1));
    }
}
