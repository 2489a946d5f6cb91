//! The MPro-style multi-predicate rank operator (minimal probing).
//!
//! The paper notes (Section 4.2) that the physical µ operator "is a special
//! case (because it schedules one predicate) of the algorithms (MPro \[4\],
//! Upper \[2\]) for scheduling random object accesses in middleware top-k
//! query evaluation".  This module supplies the general case: a single operator
//! that is responsible for a *set* of ranking predicates and probes them
//! lazily, one predicate of one tuple at a time, only when that probe is
//! *necessary* for deciding the next output.
//!
//! A chain `µ_{p_j}(… µ_{p_1}(input))` evaluates `p_1` for every tuple that
//! reaches the first stage, `p_2` for every tuple that leaves it, and so on.
//! [`MProOp`] produces exactly the same rank-relation (same membership, same
//! order by `F_{P ∪ {p_1..p_j}}`), but a predicate of a tuple is evaluated
//! only when the tuple sits at the head of the ranking queue and could be
//! emitted next — the minimal-probing principle of Chang & Hwang (SIGMOD'02).
//! For small `k` this usually performs fewer predicate evaluations than the
//! equivalent µ chain (never more than once per tuple and predicate), at the
//! cost of a single shared priority queue.  The counts are not always
//! strictly lower: the chain's inner µ operators emit against tighter bounds
//! than the shared queue's raw input bound, which occasionally saves the
//! chain a probe near the stopping point.

use std::sync::Arc;

use ranksql_common::{Result, Schema, Score};
use ranksql_expr::{BoundRanking, RankedTuple, RankingContext};

use crate::context::ExecutionContext;
use crate::metrics::OperatorMetrics;
use crate::operator::{draw_one, Batch, BoxedOperator, PhysicalOperator, RankingQueue};

/// A multi-predicate rank operator with minimal-probing scheduling.
///
/// `MProOp::new(input, vec![p4, p5], …)` is algebraically equivalent to
/// `µ_{p5}(µ_{p4}(input))`: it emits the same tuples in the same order
/// (non-increasing `F_{P ∪ {p4, p5}}`), but decides *per tuple* when each
/// predicate is worth evaluating.
pub struct MProOp {
    input: BoxedOperator,
    /// The predicates this operator is responsible for, in probe order.
    schedule: Vec<usize>,
    schema: Schema,
    ctx: Arc<RankingContext>,
    /// The scheduled predicates, bound to `schema` at construction.
    ranking: BoundRanking,
    metrics: Arc<OperatorMetrics>,
    queue: RankingQueue,
    /// Upper bound (`F_P`) of any tuple the input may still produce.
    input_bound: Score,
    input_exhausted: bool,
    /// Whether the input honours the rank-ordering contract; if not, the
    /// operator must exhaust it before emitting (correct but blocking).
    input_ranked: bool,
    /// Number of predicate probes performed (exposed for tests/benches).
    probes: u64,
    /// Where the input appends the one tuple of a draw, on its way into the
    /// queue.
    drawn: Batch,
}

impl MProOp {
    /// Creates an MPro operator evaluating the context predicates listed in
    /// `schedule` (probed per tuple in that order).
    pub fn new(
        input: BoxedOperator,
        schedule: Vec<usize>,
        exec: &ExecutionContext,
        label: impl Into<String>,
    ) -> Result<Self> {
        let ctx = exec.ranking_arc();
        let metrics = exec.register(label);
        let schema = input.schema().clone();
        let initial_bound = ctx.initial_upper_bound();
        let input_ranked = input.is_ranked();
        Ok(MProOp {
            input,
            ranking: ctx.bind(&schema, schedule.iter().copied())?,
            schedule,
            queue: RankingQueue::new(Arc::clone(&ctx)),
            ctx,
            schema,
            metrics,
            input_bound: initial_bound,
            input_exhausted: false,
            input_ranked,
            probes: 0,
            drawn: Batch::with_capacity(1),
        })
    }

    /// Number of predicate probes performed so far.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// The first predicate of `schedule` the tuple has not evaluated yet.
    fn next_unevaluated(&self, t: &RankedTuple) -> Option<usize> {
        self.schedule
            .iter()
            .copied()
            .find(|&p| !t.state.is_evaluated(p))
    }
}

impl PhysicalOperator for MProOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> Result<usize> {
        let (mut drawn, mut produced, mut peak) = (0u64, 0usize, 0usize);
        while produced < max {
            // The queue head surfaces (is emitted or probed) once no
            // *future* input tuple can beat it.
            let head = if self.input_exhausted {
                self.queue.pop()
            } else if self.input_ranked {
                self.queue.pop_if_at_least(self.input_bound)
            } else {
                None
            };
            if let Some(mut t) = head {
                match self.next_unevaluated(&t) {
                    // Fully probed and unbeatable: this is the next output.
                    None => {
                        out.push(t);
                        produced += 1;
                    }
                    // The probe of `p` on this tuple is *necessary*: the
                    // tuple cannot be emitted or discarded without it.
                    Some(p) => {
                        self.ranking.evaluate_into(p, &t.tuple, &mut t.state)?;
                        self.probes += 1;
                        self.queue.push(t);
                    }
                }
                continue;
            }
            if self.input_exhausted {
                break;
            }

            // The head (if any) may still be beaten by future input: draw one
            // more input tuple.
            draw_one(self.input.as_mut(), &mut self.drawn)?;
            let Some(rt) = self.drawn.pop() else {
                self.input_exhausted = true;
                continue;
            };
            drawn += 1;
            self.input_bound = self.ctx.upper_bound(&rt.state);
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
        // MPro buffers but never discards; extension only concerns the input.
        self.input.extend_limit(extra)
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

    /// Relation S of Figure 2(c).
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

    fn rank_scan_p3(t: &Arc<Table>, exec: &ExecutionContext) -> RankScan {
        let idx = Arc::new(
            ScoreIndex::build(exec.ranking().predicate(0), t.schema(), &t.scan()).unwrap(),
        );
        RankScan::new(Arc::clone(t), idx, 0, exec, "idxScan_p3(S)").unwrap()
    }

    #[test]
    fn top1_matches_example3() {
        // Example 3: top-1 of `ORDER BY p3+p4+p5` over S is s2, score 2.55.
        let t = table_s();
        let ctx = ctx_s();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let scan = rank_scan_p3(&t, &exec);
        let mut mpro = MProOp::new(Box::new(scan), vec![1, 2], &exec, "mpro").unwrap();
        let top = take(&mut mpro, 1).unwrap();
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].tuple.value(0), &Value::from(1));
        assert_eq!(top[0].tuple.value(1), &Value::from(1));
        assert_eq!(ctx.upper_bound(&top[0].state), Score::new(2.55));
        assert!(top[0].state.is_complete());
    }

    #[test]
    fn minimal_probing_beats_the_mu_chain_for_top1() {
        // The Figure 6(b) chain evaluates p4 three times and p5 twice (five
        // probes) for the top-1 answer; MPro needs only three probes
        // (p4 on s2 and s1, p5 on s2).
        let t = table_s();

        let ctx_chain = ctx_s();
        let exec = ExecutionContext::new(Arc::clone(&ctx_chain));
        let scan = rank_scan_p3(&t, &exec);
        let mu_p4 = RankOp::new(Box::new(scan), 1, &exec, "mu_p4").unwrap();
        let mut mu_p5 = RankOp::new(Box::new(mu_p4), 2, &exec, "mu_p5").unwrap();
        let _ = take(&mut mu_p5, 1).unwrap();
        let chain_probes = ctx_chain.counters().count(1) + ctx_chain.counters().count(2);

        let ctx_mpro = ctx_s();
        let exec2 = ExecutionContext::new(Arc::clone(&ctx_mpro));
        let scan2 = rank_scan_p3(&t, &exec2);
        let mut mpro = MProOp::new(Box::new(scan2), vec![1, 2], &exec2, "mpro").unwrap();
        let _ = take(&mut mpro, 1).unwrap();
        let mpro_probes = ctx_mpro.counters().count(1) + ctx_mpro.counters().count(2);

        assert_eq!(chain_probes, 5);
        assert_eq!(mpro_probes, 3);
        assert_eq!(mpro.probes(), 3);
        assert!(mpro_probes < chain_probes);
    }

    #[test]
    fn full_drain_matches_the_mu_chain_order() {
        // Same rank-relation as the chain: membership and order identical.
        let t = table_s();
        let ctx = ctx_s();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let scan = rank_scan_p3(&t, &exec);
        let mut mpro = MProOp::new(Box::new(scan), vec![1, 2], &exec, "mpro").unwrap();
        let all = drain_batched(&mut mpro, 4).unwrap();
        assert_eq!(all.len(), 6);
        assert_eq!(check_rank_order(&all, &ctx), None);
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
    fn empty_schedule_is_a_pass_through() {
        let t = table_s();
        let ctx = ctx_s();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let scan = rank_scan_p3(&t, &exec);
        let mut mpro = MProOp::new(Box::new(scan), vec![], &exec, "mpro").unwrap();
        let all = drain_batched(&mut mpro, 4).unwrap();
        assert_eq!(all.len(), 6);
        // No probes at all: p4, p5 never evaluated.
        assert_eq!(ctx.counters().count(1), 0);
        assert_eq!(ctx.counters().count(2), 0);
        assert_eq!(mpro.probes(), 0);
        // Order is by F_{p3} (the input order).
        assert_eq!(check_rank_order(&all, &ctx), None);
    }

    #[test]
    fn unranked_input_is_correct_but_blocking() {
        let t = table_s();
        let ctx = ctx_s();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let scan = scan_table(&t, &exec, "seqscan");
        let mut mpro = MProOp::new(Box::new(scan), vec![0, 1, 2], &exec, "mpro").unwrap();
        let top = take(&mut mpro, 2).unwrap();
        assert_eq!(ctx.upper_bound(&top[0].state), Score::new(2.55));
        assert_eq!(ctx.upper_bound(&top[1].state), Score::new(2.4));
        // The whole table had to be read before the first emission.
        assert_eq!(exec.metrics().snapshot()[0].tuples_out(), 6);
    }

    #[test]
    fn probe_counts_never_exceed_the_chain_on_any_k() {
        // For every k, MPro's probe count is at most the chain's.
        for k in 1..=6 {
            let t = table_s();

            let ctx_chain = ctx_s();
            let exec = ExecutionContext::new(Arc::clone(&ctx_chain));
            let scan = rank_scan_p3(&t, &exec);
            let mu_p4 = RankOp::new(Box::new(scan), 1, &exec, "mu_p4").unwrap();
            let mut mu_p5 = RankOp::new(Box::new(mu_p4), 2, &exec, "mu_p5").unwrap();
            let chain = take(&mut mu_p5, k).unwrap();
            let chain_probes = ctx_chain.counters().total();

            let ctx_mpro = ctx_s();
            let exec2 = ExecutionContext::new(Arc::clone(&ctx_mpro));
            let scan2 = rank_scan_p3(&t, &exec2);
            let mut mpro = MProOp::new(Box::new(scan2), vec![1, 2], &exec2, "mpro").unwrap();
            let got = take(&mut mpro, k).unwrap();
            let mpro_probes = ctx_mpro.counters().total();

            assert_eq!(chain.len(), got.len(), "k = {k}");
            for (c, g) in chain.iter().zip(got.iter()) {
                assert_eq!(c.tuple.id(), g.tuple.id(), "k = {k}");
            }
            assert!(
                mpro_probes <= chain_probes,
                "k = {k}: MPro probed {mpro_probes} times, chain {chain_probes}"
            );
        }
    }
}
