//! Rank-aware set operators: union, intersection and difference.
//!
//! The rank-relational definitions (Figure 3) require:
//!
//! * `R_{P1} ∪ S_{P2}` / `R_{P1} ∩ S_{P2}` — membership as usual, output
//!   ordered by the *aggregate* order `P1 ∪ P2` (duplicate occurrences of a
//!   tuple contribute their evaluated predicates to one output tuple);
//! * `R_{P1} − S_{P2}` — membership as usual, output ordered by `P1` only.
//!
//! Tuples are identified by their [`TupleId`] (set semantics over
//! provenance), matching Proposition 6's multiple-scan law where both
//! operands range over the same base relation.
//!
//! The intersection is *incremental*: a tuple can be emitted as soon as both
//! of its occurrences have been seen and its merged upper bound dominates the
//! frontier of both inputs — no full materialisation is needed.  Union must
//! in general see both inputs before it can prove a tuple's final aggregate
//! score (a duplicate may still be pending), so it buffers its inputs; the
//! difference materialises only the subtrahend and streams the outer side.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use ranksql_common::{Result, Schema, Score, TupleId};
use ranksql_expr::{RankedTuple, RankingContext};

use crate::context::ExecutionContext;
use crate::metrics::OperatorMetrics;
use crate::operator::{
    draw_one, retain_from, Batch, BoxedOperator, PhysicalOperator, RankingQueue,
};

/// Rank-aware union (set semantics by tuple identity).
pub struct UnionOp {
    left: BoxedOperator,
    right: BoxedOperator,
    schema: Schema,
    ctx: Arc<RankingContext>,
    metrics: Arc<OperatorMetrics>,
    output: Option<std::vec::IntoIter<RankedTuple>>,
    batch_size: usize,
}

impl UnionOp {
    /// Creates a union of two union-compatible inputs.
    pub fn new(
        left: BoxedOperator,
        right: BoxedOperator,
        exec: &ExecutionContext,
        label: impl Into<String>,
    ) -> Self {
        let schema = left.schema().clone();
        UnionOp {
            left,
            right,
            schema,
            ctx: exec.ranking_arc(),
            metrics: exec.register(label),
            output: None,
            batch_size: exec.batch_size(),
        }
    }

    fn prepare(&mut self) -> Result<()> {
        if self.output.is_some() {
            return Ok(());
        }
        let mut merged: HashMap<TupleId, RankedTuple> = HashMap::new();
        let mut order: Vec<TupleId> = Vec::new();
        let mut buf = Batch::with_capacity(self.batch_size);
        for input in [&mut self.left, &mut self.right] {
            loop {
                buf.clear();
                let n = input.next_batch(self.batch_size, &mut buf)?;
                if n == 0 {
                    break;
                }
                self.metrics.add_in(n as u64);
                for rt in buf.drain(..) {
                    match merged.get_mut(rt.tuple.id()) {
                        Some(existing) => {
                            existing.state = existing.state.merge(&rt.state);
                        }
                        None => {
                            order.push(rt.tuple.id().clone());
                            merged.insert(rt.tuple.id().clone(), rt);
                        }
                    }
                }
            }
        }
        let mut rows: Vec<RankedTuple> = order
            .into_iter()
            .map(|id| merged.remove(&id).expect("inserted above"))
            .collect();
        let ctx = Arc::clone(&self.ctx);
        rows.sort_by(|a, b| ctx.cmp_desc(a, b));
        self.metrics.observe_buffered(rows.len() as u64);
        self.output = Some(rows.into_iter());
        Ok(())
    }
}

impl PhysicalOperator for UnionOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> Result<usize> {
        self.prepare()?;
        let output = self.output.as_mut().expect("prepared");
        let before = out.len();
        out.extend(output.by_ref().take(max));
        let n = out.len() - before;
        if n > 0 {
            self.metrics.add_out(n as u64);
            self.metrics.add_batch();
        }
        Ok(n)
    }

    fn can_extend_limit(&self) -> bool {
        self.left.can_extend_limit() && self.right.can_extend_limit()
    }

    fn extend_limit(&mut self, extra: usize) -> bool {
        // Both inputs are fully merged into the output buffer — no discard.
        self.left.extend_limit(extra) & self.right.extend_limit(extra)
    }
}

/// Rank-aware, incremental intersection.
///
/// A tuple appears in the output once both inputs have produced it; its score
/// state is the merge of the two occurrences (aggregate order `P1 ∪ P2`).
/// The head of the buffer can be emitted as soon as its merged upper bound is
/// at least the frontier bound of both inputs, because any *future* match
/// must involve a tuple one of the inputs has not yet produced, whose bound
/// cannot exceed that input's frontier.
pub struct IntersectOp {
    left: BoxedOperator,
    right: BoxedOperator,
    schema: Schema,
    ctx: Arc<RankingContext>,
    metrics: Arc<OperatorMetrics>,
    /// Tuples seen on exactly one side so far, by identity.
    pending_left: HashMap<TupleId, RankedTuple>,
    pending_right: HashMap<TupleId, RankedTuple>,
    /// Matched tuples waiting for emission.
    output: RankingQueue,
    left_bound: Score,
    right_bound: Score,
    left_exhausted: bool,
    right_exhausted: bool,
    left_ranked: bool,
    right_ranked: bool,
    turn_left: bool,
    /// Where an input appends the one tuple of a draw, on its way into the
    /// pending maps or the output queue.
    drawn: Batch,
}

impl IntersectOp {
    /// Creates an intersection of two union-compatible inputs.
    pub fn new(
        left: BoxedOperator,
        right: BoxedOperator,
        exec: &ExecutionContext,
        label: impl Into<String>,
    ) -> Self {
        let ctx = exec.ranking_arc();
        let metrics = exec.register(label);
        let schema = left.schema().clone();
        let initial = ctx.initial_upper_bound();
        let left_ranked = left.is_ranked();
        let right_ranked = right.is_ranked();
        IntersectOp {
            left,
            right,
            schema,
            output: RankingQueue::new(Arc::clone(&ctx)),
            ctx,
            metrics,
            pending_left: HashMap::new(),
            pending_right: HashMap::new(),
            left_bound: initial,
            right_bound: initial,
            left_exhausted: false,
            right_exhausted: false,
            left_ranked,
            right_ranked,
            turn_left: true,
            drawn: Batch::with_capacity(1),
        }
    }

    fn frontier(&self) -> Score {
        let l = if self.left_exhausted {
            Score::new(f64::NEG_INFINITY)
        } else if !self.left_ranked {
            self.ctx.initial_upper_bound()
        } else {
            self.left_bound
        };
        let r = if self.right_exhausted {
            Score::new(f64::NEG_INFINITY)
        } else if !self.right_ranked {
            self.ctx.initial_upper_bound()
        } else {
            self.right_bound
        };
        l.max(r)
    }

    /// Draws one tuple from one side and matches it against the other
    /// side's pending tuples.  Returns whether the side had a tuple to give.
    fn advance(&mut self, from_left: bool) -> Result<bool> {
        let input = if from_left {
            &mut self.left
        } else {
            &mut self.right
        };
        draw_one(input.as_mut(), &mut self.drawn)?;
        let Some(rt) = self.drawn.pop() else {
            if from_left {
                self.left_exhausted = true;
            } else {
                self.right_exhausted = true;
            }
            return Ok(false);
        };
        let bound = self.ctx.upper_bound(&rt.state);
        let (own_pending, other_pending) = if from_left {
            self.left_bound = bound;
            (&mut self.pending_left, &mut self.pending_right)
        } else {
            self.right_bound = bound;
            (&mut self.pending_right, &mut self.pending_left)
        };
        if let Some(other) = other_pending.remove(rt.tuple.id()) {
            let merged = RankedTuple::new(rt.tuple, rt.state.merge(&other.state));
            self.output.push(merged);
        } else {
            own_pending.insert(rt.tuple.id().clone(), rt);
        }
        Ok(true)
    }
}

impl PhysicalOperator for IntersectOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> Result<usize> {
        let (mut drawn, mut produced, mut peak) = (0u64, 0usize, 0usize);
        while produced < max {
            let head = if self.left_exhausted && self.right_exhausted {
                self.output.pop()
            } else {
                self.output.pop_if_at_least(self.frontier())
            };
            if let Some(t) = head {
                out.push(t);
                produced += 1;
                continue;
            }
            if self.left_exhausted && self.right_exhausted {
                break;
            }
            // Pull from the side with the higher frontier (it is the one
            // blocking emission); alternate on ties.
            let from_left = if self.left_exhausted {
                false
            } else if self.right_exhausted || self.left_bound > self.right_bound {
                true
            } else if self.right_bound > self.left_bound {
                false
            } else {
                self.turn_left = !self.turn_left;
                self.turn_left
            };
            if self.advance(from_left)? {
                drawn += 1;
                peak = peak
                    .max(self.pending_left.len() + self.pending_right.len() + self.output.len());
            }
        }
        self.metrics
            .record_call(drawn, produced as u64, peak as u64);
        Ok(produced)
    }

    fn can_extend_limit(&self) -> bool {
        self.left.can_extend_limit() && self.right.can_extend_limit()
    }

    fn extend_limit(&mut self, extra: usize) -> bool {
        // Incremental: drawn tuples are buffered, never discarded.
        self.left.extend_limit(extra) & self.right.extend_limit(extra)
    }
}

/// Rank-aware difference: `R_{P1} − S_{P2}` keeps the outer input's order and
/// membership minus the subtrahend's members.  The subtrahend must be fully
/// consumed (membership cannot be decided earlier), the outer side streams.
pub struct ExceptOp {
    left: BoxedOperator,
    right: Option<BoxedOperator>,
    excluded: Option<HashSet<TupleId>>,
    schema: Schema,
    metrics: Arc<OperatorMetrics>,
    batch_size: usize,
}

impl ExceptOp {
    /// Creates a difference (left minus right).
    pub fn new(
        left: BoxedOperator,
        right: BoxedOperator,
        exec: &ExecutionContext,
        label: impl Into<String>,
    ) -> Self {
        let schema = left.schema().clone();
        ExceptOp {
            left,
            right: Some(right),
            excluded: None,
            schema,
            metrics: exec.register(label),
            batch_size: exec.batch_size(),
        }
    }

    fn ensure_excluded(&mut self) -> Result<()> {
        if self.excluded.is_none() {
            let mut right = self.right.take().expect("right present");
            let mut set = HashSet::new();
            let mut buf = Batch::with_capacity(self.batch_size);
            loop {
                buf.clear();
                let n = right.next_batch(self.batch_size, &mut buf)?;
                if n == 0 {
                    break;
                }
                self.metrics.add_in(n as u64);
                for rt in buf.drain(..) {
                    set.insert(rt.tuple.id().clone());
                }
            }
            self.excluded = Some(set);
        }
        Ok(())
    }
}

impl PhysicalOperator for ExceptOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> Result<usize> {
        self.ensure_excluded()?;
        let excluded = self.excluded.as_ref().expect("built");
        let mut produced = 0;
        let mut pulled = 0u64;
        while produced < max {
            let chunk = out.len();
            let n = self.left.next_batch(max - produced, out)?;
            if n == 0 {
                break;
            }
            pulled += n as u64;
            produced += retain_from(out, chunk, |rt| Ok(!excluded.contains(rt.tuple.id())))?;
        }
        self.metrics.add_in(pulled);
        if produced > 0 {
            self.metrics.add_out(produced as u64);
            self.metrics.add_batch();
        }
        Ok(produced)
    }

    fn is_ranked(&self) -> bool {
        self.left.is_ranked()
    }

    fn can_extend_limit(&self) -> bool {
        self.left.can_extend_limit() && self.right.as_ref().is_none_or(|r| r.can_extend_limit())
    }

    fn extend_limit(&mut self, extra: usize) -> bool {
        // The subtrahend is (or will be) fully drained into the exclusion
        // set; only the streaming outer side matters for extension.
        self.left.extend_limit(extra) & self.right.as_mut().is_none_or(|r| r.extend_limit(extra))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column_scan::tests::scan_table;
    use crate::operator::{check_rank_order, drain_batched, take};
    use crate::rank::RankOp;
    use crate::scan::RankScan;
    use ranksql_common::{DataType, Field, Value};
    use ranksql_expr::{RankPredicate, ScoringFunction};
    use ranksql_storage::{ScoreIndex, Table, TableBuilder};

    /// One shared base relation R with two ranking predicates p1, p2 —
    /// the multiple-scan scenario of Proposition 6 and Figure 2(a).
    fn table_r() -> Arc<Table> {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
            Field::new("p1", DataType::Float64),
            Field::new("p2", DataType::Float64),
        ])
        .qualify_all("R");
        let rows = [(1, 2, 0.9, 0.65), (2, 3, 0.8, 0.5), (3, 4, 0.7, 0.7)];
        Arc::new(
            TableBuilder::new("R", schema)
                .rows(rows.iter().map(|&(a, b, p1, p2)| {
                    vec![
                        Value::from(a),
                        Value::from(b),
                        Value::from(p1),
                        Value::from(p2),
                    ]
                }))
                .build(0)
                .unwrap(),
        )
    }

    fn ctx_r() -> Arc<RankingContext> {
        RankingContext::new(
            vec![
                RankPredicate::attribute("p1", "R.p1"),
                RankPredicate::attribute("p2", "R.p2"),
            ],
            ScoringFunction::Sum,
        )
    }

    fn rank_scan(
        t: &Arc<Table>,
        pred: usize,
        exec: &ExecutionContext,
        name: &str,
    ) -> BoxedOperator {
        let idx = Arc::new(
            ScoreIndex::build(exec.ranking().predicate(pred), t.schema(), &t.scan()).unwrap(),
        );
        Box::new(RankScan::new(Arc::clone(t), idx, pred, exec, name).unwrap())
    }

    #[test]
    fn intersection_implements_the_multiple_scan_law() {
        // Proposition 6: µ_{p1}(µ_{p2}(R)) ≡ µ_{p1}(R) ∩ µ_{p2}(R).
        // Left-hand side via two µ over a seq-scan; right-hand side via two
        // rank-scans merged by the incremental intersection.
        let t = table_r();
        let ctx_lhs = ctx_r();
        let exec_lhs = ExecutionContext::new(Arc::clone(&ctx_lhs));
        let scan = scan_table(&t, &exec_lhs, "seq");
        let mu2 = RankOp::new(Box::new(scan), 1, &exec_lhs, "mu_p2").unwrap();
        let mut lhs = RankOp::new(Box::new(mu2), 0, &exec_lhs, "mu_p1").unwrap();

        let ctx_rhs = ctx_r();
        let exec_rhs = ExecutionContext::new(Arc::clone(&ctx_rhs));
        let left = rank_scan(&t, 0, &exec_rhs, "rs_p1");
        let right = rank_scan(&t, 1, &exec_rhs, "rs_p2");
        let mut rhs = IntersectOp::new(left, right, &exec_rhs, "intersect");

        let a = drain_batched(&mut lhs, 4).unwrap();
        let b = drain_batched(&mut rhs, 4).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 3);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.tuple.id(), y.tuple.id());
            assert_eq!(ctx_lhs.upper_bound(&x.state), ctx_rhs.upper_bound(&y.state));
        }
        // Figure 4(a): final order r1 (1.55), r3 (1.4), r2 (1.3).
        assert_eq!(ctx_rhs.upper_bound(&b[0].state), Score::new(1.55));
        assert_eq!(ctx_rhs.upper_bound(&b[1].state), Score::new(1.4));
        assert_eq!(ctx_rhs.upper_bound(&b[2].state), Score::new(1.3));
    }

    #[test]
    fn intersection_is_incremental_for_top_1() {
        // A relation where one tuple dominates both predicates by a wide
        // margin: the incremental intersection must find it without draining
        // either input.
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("p1", DataType::Float64),
            Field::new("p2", DataType::Float64),
        ])
        .qualify_all("W");
        let mut builder = TableBuilder::new("W", schema);
        builder = builder.row(vec![Value::from(0), Value::from(0.99), Value::from(0.98)]);
        for i in 1..50i64 {
            let low = 0.5 - (i as f64) / 200.0;
            builder = builder.row(vec![Value::from(i), Value::from(low), Value::from(low)]);
        }
        let t = Arc::new(builder.build(3).unwrap());
        let ctx = RankingContext::new(
            vec![
                RankPredicate::attribute("p1", "W.p1"),
                RankPredicate::attribute("p2", "W.p2"),
            ],
            ScoringFunction::Sum,
        );
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let left = rank_scan(&t, 0, &exec, "rs_p1");
        let right = rank_scan(&t, 1, &exec, "rs_p2");
        let mut op = IntersectOp::new(left, right, &exec, "intersect");
        let top = take(&mut op, 1).unwrap();
        assert_eq!(ctx.upper_bound(&top[0].state), Score::new(0.99 + 0.98));
        let pulled: u64 = exec
            .metrics()
            .snapshot()
            .iter()
            .filter(|m| m.name().starts_with("rs_"))
            .map(|m| m.tuples_out())
            .sum();
        assert!(
            pulled < 20,
            "intersection pulled {pulled} of 100 available tuples for a top-1 query"
        );
    }

    #[test]
    fn union_merges_duplicate_scores_and_orders_by_aggregate() {
        // Figure 4(d): R_{p1} ∪ R'_{p2} where the duplicates (r1/r1', r3/r2')
        // combine their evaluated predicates.  We model R' = the same base
        // table scanned by p2 so identities coincide for all three tuples;
        // the aggregate order is then the final F1 order of Figure 4(a).
        let t = table_r();
        let ctx = ctx_r();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let left = rank_scan(&t, 0, &exec, "rs_p1");
        let right = rank_scan(&t, 1, &exec, "rs_p2");
        let mut op = UnionOp::new(left, right, &exec, "union");
        let out = drain_batched(&mut op, 4).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(check_rank_order(&out, &ctx), None);
        let scores: Vec<f64> = out
            .iter()
            .map(|t| ctx.upper_bound(&t.state).value())
            .collect();
        assert!((scores[0] - 1.55).abs() < 1e-9);
        assert!((scores[1] - 1.4).abs() < 1e-9);
        assert!((scores[2] - 1.3).abs() < 1e-9);
    }

    #[test]
    fn union_keeps_tuples_present_on_only_one_side() {
        let t = table_r();
        let ctx = ctx_r();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        // Left: only tuples with a >= 2 (r2, r3); right: all three.
        let left_inner = rank_scan(&t, 0, &exec, "rs_p1");
        let filter = crate::filter::Filter::new(
            left_inner,
            &ranksql_expr::BoolExpr::compare(
                ranksql_expr::ScalarExpr::col("R.a"),
                ranksql_expr::CompareOp::GtEq,
                ranksql_expr::ScalarExpr::lit(2),
            ),
            &exec,
            "filter",
        )
        .unwrap();
        let right = rank_scan(&t, 1, &exec, "rs_p2");
        let mut op = UnionOp::new(Box::new(filter), right, &exec, "union");
        let out = drain_batched(&mut op, 4).unwrap();
        assert_eq!(out.len(), 3);
        // r1 was only on the right, so only p2 is evaluated for it.
        let r1 = out
            .iter()
            .find(|t| t.tuple.value(0) == &Value::from(1))
            .unwrap();
        assert!(!r1.state.is_evaluated(0));
        assert!(r1.state.is_evaluated(1));
    }

    #[test]
    fn except_keeps_outer_order_and_removes_matches() {
        // Figure 4(e): R_{p1} − R'_{p2} where R' misses r2 → result is {r2}
        // in the order of P1.  Model R' as a filtered scan excluding a = 2.
        let t = table_r();
        let ctx = ctx_r();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let left = rank_scan(&t, 0, &exec, "rs_p1");
        let right_inner = rank_scan(&t, 1, &exec, "rs_p2");
        let right = crate::filter::Filter::new(
            right_inner,
            &ranksql_expr::BoolExpr::compare(
                ranksql_expr::ScalarExpr::col("R.a"),
                ranksql_expr::CompareOp::NotEq,
                ranksql_expr::ScalarExpr::lit(2),
            ),
            &exec,
            "filter",
        )
        .unwrap();
        let mut op = ExceptOp::new(left, Box::new(right), &exec, "except");
        let out = drain_batched(&mut op, 4).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tuple.value(0), &Value::from(2));
        // Ordered by P1 only: the upper bound reflects p1 = 0.8 → 1.8.
        assert_eq!(ctx.upper_bound(&out[0].state), Score::new(1.8));
        assert!(!out[0].state.is_evaluated(1));
    }

    #[test]
    fn intersect_with_disjoint_inputs_is_empty() {
        let t = table_r();
        let ctx = ctx_r();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let left_inner = rank_scan(&t, 0, &exec, "rs_p1");
        let left = crate::filter::Filter::new(
            left_inner,
            &ranksql_expr::BoolExpr::compare(
                ranksql_expr::ScalarExpr::col("R.a"),
                ranksql_expr::CompareOp::Lt,
                ranksql_expr::ScalarExpr::lit(2),
            ),
            &exec,
            "f1",
        )
        .unwrap();
        let right_inner = rank_scan(&t, 1, &exec, "rs_p2");
        let right = crate::filter::Filter::new(
            right_inner,
            &ranksql_expr::BoolExpr::compare(
                ranksql_expr::ScalarExpr::col("R.a"),
                ranksql_expr::CompareOp::GtEq,
                ranksql_expr::ScalarExpr::lit(2),
            ),
            &exec,
            "f2",
        )
        .unwrap();
        let mut op = IntersectOp::new(Box::new(left), Box::new(right), &exec, "intersect");
        assert!(drain_batched(&mut op, 4).unwrap().is_empty());
    }
}
