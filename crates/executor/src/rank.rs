//! The rank operator µ (physical implementation).

use std::sync::Arc;

use ranksql_common::{Result, Schema, Score};
use ranksql_expr::{BoundRanking, RankingContext};

use crate::context::ExecutionContext;
use crate::metrics::OperatorMetrics;
use crate::operator::{draw_one, Batch, BoxedOperator, PhysicalOperator, RankingQueue};

/// The physical rank operator µ_p (Section 4.1 / Example 3).
///
/// The input arrives in non-increasing order of `F_P[t]`.  For each input
/// tuple, µ evaluates the additional predicate `p`, obtaining `F_{P∪{p}}[t]`,
/// and buffers the tuple in a *ranking queue* (priority queue).  The queue
/// head can be emitted as soon as its score is at least the upper bound of
/// every *future* input tuple — which is the `F_P` bound of the most recently
/// drawn input tuple, because the input stream is ordered.  This makes µ
/// incremental and selective: it emits only as many tuples as its consumer
/// requests and never re-orders retroactively.
pub struct RankOp {
    input: BoxedOperator,
    predicate: usize,
    schema: Schema,
    ctx: Arc<RankingContext>,
    /// `predicate`, bound to `schema` at construction.
    ranking: BoundRanking,
    metrics: Arc<OperatorMetrics>,
    queue: RankingQueue,
    /// Upper bound (`F_P`) of any tuple the input may still produce.
    input_bound: Score,
    input_exhausted: bool,
    /// Whether the input honours the rank-ordering contract; if it does not
    /// (e.g. a traditional join), µ only emits after exhausting it, which is
    /// still correct — just not incremental.
    input_ranked: bool,
    /// Where the input appends the one tuple of a draw, on its way into the
    /// queue.
    drawn: Batch,
}

impl RankOp {
    /// Creates a µ operator evaluating context predicate `predicate`.
    pub fn new(
        input: BoxedOperator,
        predicate: usize,
        exec: &ExecutionContext,
        label: impl Into<String>,
    ) -> Result<Self> {
        let ctx = exec.ranking_arc();
        let metrics = exec.register(label);
        let schema = input.schema().clone();
        let initial_bound = ctx.initial_upper_bound();
        let input_ranked = input.is_ranked();
        Ok(RankOp {
            input,
            predicate,
            queue: RankingQueue::new(Arc::clone(&ctx)),
            ranking: ctx.bind(&schema, [predicate])?,
            ctx,
            schema,
            metrics,
            input_bound: initial_bound,
            input_exhausted: false,
            input_ranked,
            drawn: Batch::with_capacity(1),
        })
    }
}

impl PhysicalOperator for RankOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> Result<usize> {
        let (mut drawn, mut produced, mut peak) = (0u64, 0usize, 0usize);
        while produced < max {
            // Emit the queue head if it can no longer be beaten by future
            // input.
            let head = if self.input_exhausted {
                self.queue.pop()
            } else if self.input_ranked {
                self.queue.pop_if_at_least(self.input_bound)
            } else {
                None
            };
            if let Some(t) = head {
                out.push(t);
                produced += 1;
                continue;
            }
            if self.input_exhausted {
                break;
            }

            // Otherwise draw one more input tuple.
            draw_one(self.input.as_mut(), &mut self.drawn)?;
            let Some(mut rt) = self.drawn.pop() else {
                self.input_exhausted = true;
                continue;
            };
            drawn += 1;
            // The child's emission order bound — any future child tuple is
            // no better than this.
            self.input_bound = self.ctx.upper_bound(&rt.state);
            if !rt.state.is_evaluated(self.predicate) {
                self.ranking
                    .evaluate_into(self.predicate, &rt.tuple, &mut rt.state)?;
            }
            self.queue.push(rt);
            peak = peak.max(self.queue.len());
        }
        self.ranking.flush();
        self.metrics
            .record_call(drawn, produced as u64, peak as u64);
        Ok(produced)
    }

    fn can_extend_limit(&self) -> bool {
        self.input.can_extend_limit()
    }

    fn extend_limit(&mut self, extra: usize) -> bool {
        // µ buffers but never discards: everything still unemitted sits in
        // the ranking queue, so extension is just a matter of the input.
        self.input.extend_limit(extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column_scan::tests::scan_table;
    use crate::operator::{check_rank_order, drain_batched, take};
    use crate::scan::RankScan;
    use ranksql_common::{DataType, Field, Value};
    use ranksql_expr::{RankPredicate, ScoringFunction};
    use ranksql_storage::{ScoreIndex, Table, TableBuilder};

    /// Relation S of Figure 2(c) with ranking predicates p3, p4, p5.
    fn table_s() -> Arc<Table> {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("c", DataType::Int64),
            Field::new("p3", DataType::Float64),
            Field::new("p4", DataType::Float64),
            Field::new("p5", DataType::Float64),
        ])
        .qualify_all("S");
        let rows = [
            (4, 3, 0.7, 0.8, 0.9),
            (1, 1, 0.9, 0.85, 0.8),
            (1, 2, 0.5, 0.45, 0.75),
            (4, 2, 0.4, 0.7, 0.95),
            (5, 1, 0.3, 0.9, 0.6),
            (2, 3, 0.25, 0.45, 0.9),
        ];
        Arc::new(
            TableBuilder::new("S", schema)
                .rows(rows.iter().map(|&(a, c, p3, p4, p5)| {
                    vec![
                        Value::from(a),
                        Value::from(c),
                        Value::from(p3),
                        Value::from(p4),
                        Value::from(p5),
                    ]
                }))
                .build(0)
                .unwrap(),
        )
    }

    fn ctx_s() -> Arc<RankingContext> {
        RankingContext::new(
            vec![
                RankPredicate::attribute("p3", "S.p3"),
                RankPredicate::attribute("p4", "S.p4"),
                RankPredicate::attribute("p5", "S.p5"),
            ],
            ScoringFunction::Sum,
        )
    }

    /// Builds the plan of Figure 6(b): µ_{p5}(µ_{p4}(idxScan_{p3}(S))).
    fn figure6b_plan(t: &Arc<Table>, exec: &ExecutionContext) -> RankOp {
        let idx = Arc::new(
            ScoreIndex::build(exec.ranking().predicate(0), t.schema(), &t.scan()).unwrap(),
        );
        let scan = RankScan::new(Arc::clone(t), idx, 0, exec, "idxScan_p3(S)").unwrap();
        let mu_p4 = RankOp::new(Box::new(scan), 1, exec, "mu_p4").unwrap();
        RankOp::new(Box::new(mu_p4), 2, exec, "mu_p5").unwrap()
    }

    #[test]
    fn figure6b_top1_is_s2_with_score_2_55() {
        // Example 3: top-1 of `SELECT * FROM S ORDER BY p3+p4+p5 LIMIT 1`
        // is s2 with final score 2.55.
        let t = table_s();
        let ctx = ctx_s();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let mut plan = figure6b_plan(&t, &exec);
        let top = take(&mut plan, 1).unwrap();
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].tuple.value(0), &Value::from(1));
        assert_eq!(top[0].tuple.value(1), &Value::from(1));
        assert_eq!(ctx.upper_bound(&top[0].state), Score::new(2.55));
        assert!(top[0].state.is_complete());
    }

    #[test]
    fn figure6b_processes_only_a_prefix_of_the_table() {
        // The paper's trace: µ_{p4} processes 3 tuples (s2, s1, s3) and
        // µ_{p5} processes 2 (s2, s1) to produce the top-1 answer; only 3 of
        // the 6 tuples are read from the scan.
        let t = table_s();
        let ctx = ctx_s();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let mut plan = figure6b_plan(&t, &exec);
        let _ = take(&mut plan, 1).unwrap();
        let m = exec.metrics().snapshot();
        let by_name = |n: &str| m.iter().find(|x| x.name() == n).unwrap().clone();
        assert_eq!(by_name("idxScan_p3(S)").tuples_out(), 3);
        assert_eq!(by_name("mu_p4").tuples_in(), 3);
        assert_eq!(by_name("mu_p5").tuples_in(), 2);
        assert_eq!(by_name("mu_p5").tuples_out(), 1);
        // Predicate evaluation counts match Example 4's analysis for plan (b):
        // 3 evaluations of p4 and 2 of p5 (p3 comes from the index).
        assert_eq!(ctx.counters().count(0), 0);
        assert_eq!(ctx.counters().count(1), 3);
        assert_eq!(ctx.counters().count(2), 2);
    }

    #[test]
    fn full_drain_is_in_final_score_order() {
        let t = table_s();
        let ctx = ctx_s();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let mut plan = figure6b_plan(&t, &exec);
        let all = drain_batched(&mut plan, 4).unwrap();
        assert_eq!(all.len(), 6);
        assert_eq!(check_rank_order(&all, &ctx), None);
        // Final order of Figure 6(a)'s sorted relation:
        // s2 (2.55), s1 (2.4), s4 (2.05), s5 (1.8), s3 (1.7), s6 (1.6).
        let scores: Vec<f64> = all
            .iter()
            .map(|t| ctx.upper_bound(&t.state).value())
            .collect();
        let expected = [2.55, 2.4, 2.05, 1.8, 1.7, 1.6];
        for (s, e) in scores.iter().zip(expected.iter()) {
            assert!((s - e).abs() < 1e-9, "scores {scores:?} != {expected:?}");
        }
    }

    #[test]
    fn figure6c_reversed_mu_order_gives_same_results_different_work() {
        // Plan (c) applies µ_{p5} before µ_{p4}; results identical, but the
        // number of tuples processed differs (selectivities are
        // context-sensitive, Section 4.1).
        let t = table_s();
        let exec_b = ExecutionContext::new(ctx_s());
        let exec_c = ExecutionContext::new(ctx_s());

        let mut plan_b = figure6b_plan(&t, &exec_b);
        let idx = Arc::new(
            ScoreIndex::build(exec_c.ranking().predicate(0), t.schema(), &t.scan()).unwrap(),
        );
        let scan = RankScan::new(Arc::clone(&t), idx, 0, &exec_c, "idxScan_p3(S)").unwrap();
        let mu_p5 = RankOp::new(Box::new(scan), 2, &exec_c, "mu_p5").unwrap();
        let mut plan_c = RankOp::new(Box::new(mu_p5), 1, &exec_c, "mu_p4").unwrap();

        let top_b = take(&mut plan_b, 1).unwrap();
        let top_c = take(&mut plan_c, 1).unwrap();
        assert_eq!(top_b[0].tuple.id(), top_c[0].tuple.id());
        // Figure 6(c): the scan feeds 5 tuples in plan (c) vs 3 in plan (b).
        let scanned_b = exec_b.metrics().snapshot()[0].tuples_out();
        let scanned_c = exec_c.metrics().snapshot()[0].tuples_out();
        assert_eq!(scanned_b, 3);
        assert_eq!(scanned_c, 5);
    }

    #[test]
    fn rank_over_seq_scan_is_correct_but_blocking() {
        let t = table_s();
        let ctx = ctx_s();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let scan = scan_table(&t, &exec, "seqscan");
        let mu = RankOp::new(Box::new(scan), 0, &exec, "mu_p3").unwrap();
        let mu2 = RankOp::new(Box::new(mu), 1, &exec, "mu_p4").unwrap();
        let mut mu3 = RankOp::new(Box::new(mu2), 2, &exec, "mu_p5").unwrap();
        let top = take(&mut mu3, 2).unwrap();
        assert_eq!(ctx.upper_bound(&top[0].state), Score::new(2.55));
        assert_eq!(ctx.upper_bound(&top[1].state), Score::new(2.4));
        // All 6 tuples had to be read by the first µ (the input is unordered
        // in the ranking sense), demonstrating why rank-scans matter.
        assert_eq!(exec.metrics().snapshot()[0].tuples_out(), 6);
    }

    #[test]
    fn duplicate_rank_operator_is_idempotent() {
        let t = table_s();
        let ctx = ctx_s();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let scan = scan_table(&t, &exec, "seqscan");
        let mu = RankOp::new(Box::new(scan), 0, &exec, "mu_p3").unwrap();
        let mut mu_again = RankOp::new(Box::new(mu), 0, &exec, "mu_p3'").unwrap();
        let all = drain_batched(&mut mu_again, 4).unwrap();
        assert_eq!(all.len(), 6);
        // p3 evaluated once per tuple, not twice.
        assert_eq!(ctx.counters().count(0), 6);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let schema = Schema::new(vec![Field::new("p", DataType::Float64)]).qualify_all("E");
        let empty = Arc::new(TableBuilder::new("E", schema).build(9).unwrap());
        let ctx = RankingContext::new(
            vec![RankPredicate::attribute("p", "E.p")],
            ScoringFunction::Sum,
        );
        let exec = ExecutionContext::new(ctx);
        let scan = scan_table(&empty, &exec, "scan");
        let mut mu = RankOp::new(Box::new(scan), 0, &exec, "mu").unwrap();
        assert!(take(&mut mu, 1).unwrap().is_empty());
        assert!(take(&mut mu, 1).unwrap().is_empty());
    }
}
