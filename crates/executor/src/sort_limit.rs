//! The traditional blocking sort (τ) and the top-k limit (λ).

use std::sync::Arc;

use ranksql_common::{BitSet64, Result, Schema};
use ranksql_expr::{BoundRanking, RankedTuple, RankingContext};

use crate::context::{ExecutionContext, TopKThreshold};
use crate::metrics::OperatorMetrics;
use crate::operator::{Batch, BoxedOperator, PhysicalOperator};

/// The monolithic sort operator τ_F of the canonical plan: drains its input
/// completely, evaluates every still-missing ranking predicate of
/// `predicates` on every tuple, sorts by the (now complete) score and emits.
///
/// This is the operator the paper's *materialise-then-sort* scheme relies on;
/// its cost is independent of `k`, the first result appears only after the
/// whole input is consumed, and every predicate is evaluated on every tuple —
/// the three problems rank-aware plans avoid.
pub struct SortOp {
    input: BoxedOperator,
    schema: Schema,
    ctx: Arc<RankingContext>,
    /// The sort's predicates, bound to `schema` at construction.
    ranking: BoundRanking,
    metrics: Arc<OperatorMetrics>,
    sorted: Option<std::vec::IntoIter<RankedTuple>>,
    batch_size: usize,
}

impl SortOp {
    /// Creates a sort over `predicates` (the scoring function's predicates).
    pub fn new(
        input: BoxedOperator,
        predicates: BitSet64,
        exec: &ExecutionContext,
        label: impl Into<String>,
    ) -> Result<Self> {
        let schema = input.schema().clone();
        let ctx = exec.ranking_arc();
        Ok(SortOp {
            input,
            ranking: ctx.bind(&schema, predicates.iter())?,
            ctx,
            schema,
            metrics: exec.register(label),
            sorted: None,
            batch_size: exec.batch_size(),
        })
    }

    /// The sorted output, materialised on the first call.
    fn prepare(&mut self) -> Result<&mut std::vec::IntoIter<RankedTuple>> {
        if let Some(sorted) = self.sorted.take() {
            return Ok(self.sorted.insert(sorted));
        }
        let mut rows = Vec::new();
        let mut buf = Batch::with_capacity(self.batch_size);
        loop {
            buf.clear();
            let n = self.input.next_batch(self.batch_size, &mut buf)?;
            if n == 0 {
                break;
            }
            self.metrics.add_in(n as u64);
            for mut rt in buf.drain(..) {
                self.ranking.evaluate_missing(&rt.tuple, &mut rt.state)?;
                rows.push(rt);
            }
        }
        // Context-aware comparator: identical to `cmp_desc` under the
        // global predicate maximum, and consistent with the capped bounds
        // the rest of the pipeline uses when zone-map caps are installed.
        self.ranking.flush();
        let ctx = Arc::clone(&self.ctx);
        rows.sort_by(|a, b| ctx.cmp_desc(a, b));
        self.metrics.observe_buffered(rows.len() as u64);
        Ok(self.sorted.insert(rows.into_iter()))
    }
}

impl PhysicalOperator for SortOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> Result<usize> {
        let sorted = self.prepare()?;
        let before = out.len();
        out.extend(sorted.by_ref().take(max));
        let n = out.len() - before;
        if n > 0 {
            self.metrics.add_out(n as u64);
            self.metrics.add_batch();
        }
        Ok(n)
    }

    fn can_extend_limit(&self) -> bool {
        // A full sort materialises *everything* — nothing is discarded, so
        // no cap exists here; before materialisation defer to the input.
        self.sorted.is_some() || self.input.can_extend_limit()
    }

    fn extend_limit(&mut self, extra: usize) -> bool {
        if self.sorted.is_none() {
            self.input.extend_limit(extra)
        } else {
            true
        }
    }
}

/// One buffered tuple of [`SortLimitOp`], ordered so that the heap maximum
/// is the tuple that sorts *last* under [`RankedTuple::cmp_desc`] — i.e. the
/// current worst of the kept top-k.
struct TopKEntry {
    tuple: RankedTuple,
    score: ranksql_common::Score,
}

impl PartialEq for TopKEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for TopKEntry {}

impl PartialOrd for TopKEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TopKEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Mirrors `cmp_desc`: higher score sorts first, ties broken by
        // ascending tuple id — so `Greater` means "sorts later" (worse).
        other
            .score
            .cmp(&self.score)
            .then_with(|| self.tuple.tuple.id().cmp(other.tuple.tuple.id()))
    }
}

/// The fused top-k sort (τ_F + λ_k): evaluates the missing predicates of
/// `predicates` like [`SortOp`], but keeps only the best `k` tuples in a
/// bounded heap instead of materialising and fully sorting the input —
/// `O(n log k)` comparisons and `O(k)` buffered tuples instead of
/// `O(n log n)` / `O(n)`.
///
/// Emission order is identical to `Limit(Sort(input))`: the shared
/// [`RankedTuple::cmp_desc`] comparator is a total order (deterministic
/// tie-break on tuple identity), so keeping the `k` smallest under it and
/// sorting them equals sorting everything and truncating.
pub struct SortLimitOp {
    input: BoxedOperator,
    k: usize,
    schema: Schema,
    ctx: Arc<RankingContext>,
    /// The sort's predicates, bound to `schema` at construction.
    ranking: BoundRanking,
    metrics: Arc<OperatorMetrics>,
    sorted: Option<std::vec::IntoIter<RankedTuple>>,
    batch_size: usize,
    /// Feedback channel: once the bounded heap holds `k` tuples, its worst
    /// kept `(score, id)` is published here, so the columnar scan on this
    /// operator's σ/π spine (skipping blocks too) or the hash join directly
    /// beneath it can skip building rows that cannot beat it.
    threshold: Option<Arc<TopKThreshold>>,
}

impl SortLimitOp {
    /// Creates a fused top-k sort over `predicates` keeping `k` tuples.
    pub fn new(
        input: BoxedOperator,
        predicates: BitSet64,
        k: usize,
        exec: &ExecutionContext,
        label: impl Into<String>,
    ) -> Result<Self> {
        let schema = input.schema().clone();
        let ctx = exec.ranking_arc();
        Ok(SortLimitOp {
            input,
            k,
            ranking: ctx.bind(&schema, predicates.iter())?,
            ctx,
            schema,
            metrics: exec.register(label),
            sorted: None,
            batch_size: exec.batch_size(),
            threshold: None,
        })
    }

    /// Attaches the top-k threshold cell shared with the zone-pruning
    /// columnar scan or the hash join feeding this operator.
    pub fn with_threshold(mut self, cell: Arc<TopKThreshold>) -> Self {
        self.threshold = Some(cell);
        self
    }

    /// The kept top-k in output order, materialised on the first call.
    fn prepare(&mut self) -> Result<&mut std::vec::IntoIter<RankedTuple>> {
        if let Some(sorted) = self.sorted.take() {
            return Ok(self.sorted.insert(sorted));
        }
        if self.k == 0 {
            // The unfused Limit(Sort(x)) never pulls its input for k = 0;
            // match that and do no work at all.
            return Ok(self.sorted.insert(Vec::new().into_iter()));
        }
        let mut heap: std::collections::BinaryHeap<TopKEntry> =
            std::collections::BinaryHeap::with_capacity(self.k + 1);
        let mut buf = Batch::with_capacity(self.batch_size);
        let mut scores: Vec<ranksql_common::Score> = Vec::with_capacity(self.batch_size);
        loop {
            buf.clear();
            let n = self.input.next_batch(self.batch_size, &mut buf)?;
            if n == 0 {
                break;
            }
            self.metrics.add_in(n as u64);
            // Score phase: one tight pass over the batch evaluating the
            // still-missing predicates and the completed scores into a
            // scratch column, keeping the heap bookkeeping out of the
            // evaluation loop.
            scores.clear();
            for rt in buf.iter_mut() {
                self.ranking.evaluate_missing(&rt.tuple, &mut rt.state)?;
                scores.push(self.ctx.upper_bound(&rt.state));
            }
            // Heap phase.  Once the heap is full, a candidate that sorts
            // *after* the current worst kept entry under `cmp_desc` (lower
            // score, or an equal score with a later tuple id) would be
            // pushed and immediately popped again — reject it with one
            // comparison instead of `O(log k)` heap churn.  The kept set
            // and its order are exactly those of the push-then-pop loop.
            for (rt, score) in buf.drain(..).zip(scores.drain(..)) {
                if heap.len() == self.k {
                    if let Some(worst) = heap.peek() {
                        let loses = match score.cmp(&worst.score) {
                            std::cmp::Ordering::Less => true,
                            std::cmp::Ordering::Equal => rt.tuple.id() > worst.tuple.tuple.id(),
                            std::cmp::Ordering::Greater => false,
                        };
                        if loses {
                            continue;
                        }
                    }
                }
                heap.push(TopKEntry { tuple: rt, score });
                if heap.len() > self.k {
                    heap.pop();
                }
            }
            self.metrics.observe_buffered(heap.len() as u64);
            // A full heap's worst kept entry bounds the k-th best result
            // under the heap's total order: publish `(score, id)` so the
            // scan or join below can prune.  A tuple that sorts after it
            // would be pushed and immediately popped, so skipping it
            // upstream cannot change the kept set.
            if let Some(cell) = &self.threshold {
                if heap.len() == self.k {
                    if let Some(worst) = heap.peek() {
                        cell.raise(worst.score.value(), worst.tuple.tuple.id());
                    }
                }
            }
        }
        self.ranking.flush();
        // Ascending heap order = best first (the maximum is the worst kept).
        let rows: Vec<RankedTuple> = heap
            .into_sorted_vec()
            .into_iter()
            .map(|e| e.tuple)
            .collect();
        Ok(self.sorted.insert(rows.into_iter()))
    }
}

impl PhysicalOperator for SortLimitOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> Result<usize> {
        let sorted = self.prepare()?;
        let before = out.len();
        out.extend(sorted.by_ref().take(max));
        let n = out.len() - before;
        if n > 0 {
            self.metrics.add_out(n as u64);
            self.metrics.add_batch();
        }
        Ok(n)
    }

    fn can_extend_limit(&self) -> bool {
        // The bounded heap throws tuples beyond k away while materialising:
        // once that has happened the extension tuples are gone for good and
        // the caller must re-plan with a larger k.  Before the first pull
        // the cap can still simply be raised.
        self.sorted.is_none() && self.input.can_extend_limit()
    }

    fn extend_limit(&mut self, extra: usize) -> bool {
        if self.sorted.is_some() {
            return false;
        }
        if self.input.extend_limit(extra) {
            self.k = self.k.saturating_add(extra);
            true
        } else {
            false
        }
    }
}

/// The top-k limit operator λ_k: passes through the first `k` tuples of its
/// (already ranked) input and then stops drawing.
pub struct LimitOp {
    input: BoxedOperator,
    k: usize,
    emitted: usize,
    schema: Schema,
    metrics: Arc<OperatorMetrics>,
}

impl LimitOp {
    /// Creates a limit of `k` tuples.
    pub fn new(
        input: BoxedOperator,
        k: usize,
        exec: &ExecutionContext,
        label: impl Into<String>,
    ) -> Self {
        let schema = input.schema().clone();
        LimitOp {
            input,
            k,
            emitted: 0,
            schema,
            metrics: exec.register(label),
        }
    }
}

impl PhysicalOperator for LimitOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> Result<usize> {
        // Never ask the input for more than the limit still allows, so the
        // early-stop property of λ_k holds for every `max`.
        let want = max.min(self.k - self.emitted.min(self.k));
        if want == 0 {
            return Ok(0);
        }
        let n = self.input.next_batch(want, out)?;
        self.emitted += n;
        if n > 0 {
            self.metrics.add_in(n as u64);
            self.metrics.add_out(n as u64);
            self.metrics.add_batch();
        }
        Ok(n)
    }

    fn is_ranked(&self) -> bool {
        self.input.is_ranked()
    }

    fn can_extend_limit(&self) -> bool {
        // λ_k only stops *drawing*; the input below still holds its state,
        // so raising k resumes exactly where the stream stopped.
        self.input.can_extend_limit()
    }

    fn extend_limit(&mut self, extra: usize) -> bool {
        if self.input.extend_limit(extra) {
            self.k = self.k.saturating_add(extra);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column_scan::tests::scan_table;
    use crate::operator::{check_rank_order, drain_batched};
    use ranksql_common::{DataType, Field, Score, Value};
    use ranksql_expr::{RankPredicate, ScoringFunction};
    use ranksql_storage::{Table, TableBuilder};

    fn table_s() -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("p3", DataType::Float64),
            Field::new("p4", DataType::Float64),
            Field::new("p5", DataType::Float64),
        ])
        .qualify_all("S");
        let rows = [
            (4, 0.7, 0.8, 0.9),
            (1, 0.9, 0.85, 0.8),
            (1, 0.5, 0.45, 0.75),
            (4, 0.4, 0.7, 0.95),
            (5, 0.3, 0.9, 0.6),
            (2, 0.25, 0.45, 0.9),
        ];
        TableBuilder::new("S", schema)
            .rows(rows.iter().map(|&(a, p3, p4, p5)| {
                vec![
                    Value::from(a),
                    Value::from(p3),
                    Value::from(p4),
                    Value::from(p5),
                ]
            }))
            .build(0)
            .unwrap()
    }

    fn ctx() -> Arc<RankingContext> {
        RankingContext::new(
            vec![
                RankPredicate::attribute("p3", "S.p3"),
                RankPredicate::attribute("p4", "S.p4"),
                RankPredicate::attribute("p5", "S.p5"),
            ],
            ScoringFunction::Sum,
        )
    }

    #[test]
    fn sort_produces_figure6a_order_and_evaluates_everything() {
        // Plan (a) of Figure 6: seq-scan + sort; every predicate evaluated on
        // every tuple (6 * 3 = 18 evaluations).
        let t = table_s();
        let ctx = ctx();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let scan = scan_table(&t, &exec, "seqscan");
        let mut sort = SortOp::new(Box::new(scan), BitSet64::all(3), &exec, "sort").unwrap();
        let all = drain_batched(&mut sort, 4).unwrap();
        assert_eq!(all.len(), 6);
        assert_eq!(check_rank_order(&all, &ctx), None);
        assert_eq!(ctx.upper_bound(&all[0].state), Score::new(2.55));
        assert_eq!(ctx.upper_bound(&all[5].state), Score::new(1.6));
        assert_eq!(ctx.counters().total(), 18);
        assert!(all.iter().all(|t| t.state.is_complete()));
    }

    #[test]
    fn sort_skips_predicates_already_evaluated_below() {
        let t = table_s();
        let ctx = ctx();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let scan = scan_table(&t, &exec, "seqscan");
        let mu = crate::rank::RankOp::new(Box::new(scan), 0, &exec, "mu").unwrap();
        let mut sort = SortOp::new(Box::new(mu), BitSet64::all(3), &exec, "sort").unwrap();
        let _ = drain_batched(&mut sort, 4).unwrap();
        // p3 evaluated by µ (6 times), sort adds only p4 and p5 (12 times).
        assert_eq!(ctx.counters().count(0), 6);
        assert_eq!(ctx.counters().total(), 18);
    }

    #[test]
    fn limit_caps_output_and_stops_pulling() {
        let t = table_s();
        let ctx = ctx();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let scan = scan_table(&t, &exec, "seqscan");
        let mut limit = LimitOp::new(Box::new(scan), 2, &exec, "limit");
        let out = drain_batched(&mut limit, 4).unwrap();
        assert_eq!(out.len(), 2);
        // The scan only served 2 tuples.
        assert_eq!(exec.metrics().snapshot()[0].tuples_out(), 2);
    }

    #[test]
    fn limit_zero_and_oversized_limits() {
        let t = table_s();
        let ctx = ctx();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let scan = scan_table(&t, &exec, "s");
        let mut l0 = LimitOp::new(Box::new(scan), 0, &exec, "l0");
        assert!(drain_batched(&mut l0, 4).unwrap().is_empty());
        let scan = scan_table(&t, &exec, "s2");
        let mut l100 = LimitOp::new(Box::new(scan), 100, &exec, "l100");
        assert_eq!(drain_batched(&mut l100, 4).unwrap().len(), 6);
    }

    #[test]
    fn sort_limit_matches_sort_then_limit() {
        for k in 0..=7 {
            let t = table_s();
            let ctx = ctx();
            let exec = ExecutionContext::new(Arc::clone(&ctx));
            let scan = scan_table(&t, &exec, "seqscan");
            let mut fused =
                SortLimitOp::new(Box::new(scan), BitSet64::all(3), k, &exec, "sortlimit").unwrap();
            let got = drain_batched(&mut fused, 4).unwrap();

            let exec2 = ExecutionContext::new(Arc::clone(&ctx));
            let scan = scan_table(&t, &exec2, "seqscan");
            let sort = SortOp::new(Box::new(scan), BitSet64::all(3), &exec2, "sort").unwrap();
            let mut limit = LimitOp::new(Box::new(sort), k, &exec2, "limit");
            let want = drain_batched(&mut limit, 4).unwrap();

            assert_eq!(got.len(), want.len(), "k = {k}");
            for (g, w) in got.iter().zip(want.iter()) {
                assert_eq!(g.tuple.id(), w.tuple.id(), "k = {k}");
            }
        }
    }

    #[test]
    fn sort_limit_zero_k_does_no_work() {
        let t = table_s();
        let ctx = ctx();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let scan = scan_table(&t, &exec, "seqscan");
        let mut fused =
            SortLimitOp::new(Box::new(scan), BitSet64::all(3), 0, &exec, "topk").unwrap();
        assert!(drain_batched(&mut fused, 4).unwrap().is_empty());
        // Like the unfused Limit(Sort) for k = 0: the input is never pulled
        // and no predicate is evaluated.
        assert_eq!(exec.metrics().snapshot()[0].tuples_out(), 0);
        assert_eq!(ctx.counters().total(), 0);
    }

    #[test]
    fn limit_extends_but_materialized_sort_limit_refuses() {
        let t = table_s();
        let ctx = ctx();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        // λ_2 over µ over a scan: take 2, extend by 2, take 2 more — the
        // stream resumes exactly where it stopped.
        let scan = scan_table(&t, &exec, "s");
        let mu = crate::rank::RankOp::new(Box::new(scan), 0, &exec, "mu").unwrap();
        let mut limit = LimitOp::new(Box::new(mu), 2, &exec, "l");
        let first = drain_batched(&mut limit, 4).unwrap();
        assert_eq!(first.len(), 2);
        assert!(limit.can_extend_limit());
        assert!(limit.extend_limit(2));
        let more = drain_batched(&mut limit, 4).unwrap();
        assert_eq!(more.len(), 2);
        // Together they equal a single k=4 run.
        let exec2 = ExecutionContext::new(Arc::clone(&ctx));
        let scan = scan_table(&t, &exec2, "s");
        let mu = crate::rank::RankOp::new(Box::new(scan), 0, &exec2, "mu").unwrap();
        let mut l4 = LimitOp::new(Box::new(mu), 4, &exec2, "l4");
        let want = drain_batched(&mut l4, 4).unwrap();
        let got: Vec<_> = first.iter().chain(more.iter()).collect();
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.tuple.id(), w.tuple.id());
        }

        // A bounded-heap top-k that already materialised discarded its
        // losers; extension must refuse.
        let scan = scan_table(&t, &exec, "s2");
        let mut fused =
            SortLimitOp::new(Box::new(scan), BitSet64::all(3), 2, &exec, "topk").unwrap();
        assert!(fused.can_extend_limit());
        assert!(fused.extend_limit(1), "pre-materialisation extension is ok");
        assert_eq!(fused.k, 3);
        let _ = drain_batched(&mut fused, 4).unwrap();
        assert!(!fused.can_extend_limit());
        assert!(!fused.extend_limit(1));
    }

    #[test]
    fn sort_limit_buffers_at_most_k_tuples() {
        let t = table_s();
        let ctx = ctx();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let scan = scan_table(&t, &exec, "seqscan");
        let mut fused =
            SortLimitOp::new(Box::new(scan), BitSet64::all(3), 2, &exec, "topk").unwrap();
        let out = drain_batched(&mut fused, 4).unwrap();
        assert_eq!(out.len(), 2);
        let m = exec.metrics().snapshot();
        let topk = m.iter().find(|x| x.name() == "topk").unwrap();
        assert_eq!(topk.tuples_in(), 6);
        assert!(topk.buffered_peak() <= 2, "peak {}", topk.buffered_peak());
    }
}
