//! Morsel-driven parallel execution: the `Exchange` / `Repartition`
//! operators.
//!
//! An [`ExchangeOp`] executes a *parallel-safe spine* — a chain of
//! membership operators (`Repartition`-marked scan → σ/π → hash-join or
//! nested-loops probe → optional per-partition τ/τ+λ) — once per **morsel**
//! (a contiguous chunk of the driving table's rows) across a scoped-thread
//! [`WorkerPool`], then reassembles the per-morsel outputs into one serial
//! stream.
//!
//! **One builder.** A morsel pipeline is [`build_operator`] over the spine
//! under a morsel context.  The first lowering records what must exist once
//! per spine — the spine operators' metrics handles (registered in plan
//! post-order, like serial lowering), each build side (lowered through the
//! ordinary serial path, so a nested concat-exchange still parallelises
//! it, then drained and hashed), the prune bitmap and the threshold cell —
//! and every later lowering replays that record in order.  So per-operator
//! counters aggregate across workers, `explain_analyze` reports one row per
//! plan node, and every morsel probes one build table.  The cell rule: a
//! top-k over a hash join gets a cell of its morsel's own, so what the join
//! builds does not depend on how far other workers have got; a top-k over
//! a zone-pruning scan shares the spine's cell with every morsel's scan
//! (any partition's k-th best score is a valid global bound).  All
//! lowering happens in [`ExchangeOp::new`]; workers only drain.
//!
//! Output is byte-identical across any thread count, and identical to
//! serial execution, because morsels are fixed-size row ranges (the worker
//! count only decides who drains a morsel, never what it is) and
//! reassembly is order-defined: `Concat` glues morsel outputs back in
//! morsel order, `Ordered` k-way merges rank-sorted runs under the *total*
//! order of `RankedTuple::cmp_desc` (score descending, ties on tuple
//! identity).
//!
//! Rank-aware operators (µ, HRJN/NRJN) are never placed inside an
//! exchange: they keep their incremental single-threaded top-k semantics
//! *above* it, exactly as the paper's ranking principle requires.

use std::collections::BinaryHeap;
use std::sync::Arc;

use parking_lot::Mutex;
use ranksql_algebra::{ExchangeMerge, JoinAlgorithm, PhysicalOp, PhysicalPlan};
use ranksql_common::{morsel_ranges, RankSqlError, Result, Schema, Score, WorkerPool};
use ranksql_expr::{RankedTuple, RankingContext};
use ranksql_storage::Catalog;

use crate::build::build_operator;
use crate::context::ExecutionContext;
use crate::metrics::OperatorMetrics;
use crate::operator::{drain_batched, Batch, BoxedOperator, PhysicalOperator};

/// The parallel-safety check: `plan` must be a spine of σ, π, the probe
/// side of a hash or nested-loops join, a sort or a top-k, down to one
/// `Repartition`-marked sequential scan.  Returns that scan's table;
/// builds nothing.
fn driving_scan<'p>(plan: &'p PhysicalPlan, exec: &ExecutionContext) -> Result<&'p str> {
    match &plan.op {
        PhysicalOp::Repartition { input } => match &input.op {
            PhysicalOp::SeqScan { table, .. } => Ok(table),
            _ => Err(RankSqlError::Plan(format!(
                "Repartition must mark a sequential scan, found `{}`",
                input.node_label(Some(exec.ranking()))
            ))),
        },
        PhysicalOp::Filter { input, .. }
        | PhysicalOp::Project { input, .. }
        | PhysicalOp::Sort { input, .. }
        | PhysicalOp::SortLimit { input, .. } => driving_scan(input, exec),
        PhysicalOp::Join {
            left,
            algorithm: JoinAlgorithm::Hash | JoinAlgorithm::NestedLoop,
            ..
        } => driving_scan(left, exec),
        _ => Err(RankSqlError::Plan(format!(
            "operator `{}` is not parallel-safe under an Exchange",
            plan.node_label(Some(exec.ranking()))
        ))),
    }
}

/// The gather operator of morsel-driven parallel execution.
///
/// Construction lowers one pipeline per morsel (see the module docs); the
/// first pull drains them across a [`WorkerPool`] of
/// `ExecutionContext::threads` workers and materialises the
/// deterministically merged output, which subsequent pulls stream out.  A
/// worker error or panic surfaces as the `Err` of the first pull — never a
/// deadlock, never partial results.
pub struct ExchangeOp {
    schema: Schema,
    metrics: Arc<OperatorMetrics>,
    merge: ExchangeMerge,
    ranking: Arc<RankingContext>,
    threads: usize,
    batch_size: usize,
    /// One lowered pipeline per morsel, in morsel order; drained by the
    /// first pull.
    pipelines: Vec<BoxedOperator>,
    merged: Option<std::vec::IntoIter<RankedTuple>>,
}

impl ExchangeOp {
    /// Lowers an exchange over `input`, which must be a parallel-safe spine
    /// containing exactly one `Repartition`-marked scan.
    pub fn new(
        input: &PhysicalPlan,
        merge: ExchangeMerge,
        catalog: &Catalog,
        exec: &ExecutionContext,
        label: impl Into<String>,
    ) -> Result<Self> {
        let table = driving_scan(input, exec)?;
        // Morsels cover the execution's pinned epoch, so every morsel (and
        // every other access path of this execution) reads one watermark
        // however many rows writers append meanwhile.  An empty table still
        // gets one lowering, over an empty range, so its build sides are
        // drained and its operators registered exactly once.
        let table = catalog.table(table)?;
        let rows = exec.pin_epoch(&table).row_count();
        let mut ranges = morsel_ranges(rows, exec.morsel_size());
        if ranges.is_empty() {
            ranges.push((0, 0));
        }
        let record = Arc::default();
        let pipelines = ranges
            .into_iter()
            .map(|(start, end)| {
                build_operator(input, catalog, &exec.in_morsel(start..end, &record))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(ExchangeOp {
            schema: input.schema()?,
            // Registered last — after the whole subtree — preserving the
            // global post-order pairing.
            metrics: exec.register(label),
            merge,
            ranking: exec.ranking_arc(),
            threads: exec.threads(),
            batch_size: exec.batch_size(),
            pipelines,
            merged: None,
        })
    }

    /// Drains every morsel pipeline across the pool and merges the outputs.
    fn run(&mut self) -> Result<Vec<RankedTuple>> {
        // Each worker takes its pipeline out, so it is freed where drained.
        let slots: Vec<Mutex<Option<BoxedOperator>>> = std::mem::take(&mut self.pipelines)
            .into_iter()
            .map(|p| Mutex::new(Some(p)))
            .collect();
        let outputs = WorkerPool::new(self.threads).run(slots.len(), |i| {
            let mut pipeline = slots[i].lock().take();
            pipeline
                .as_deref_mut()
                .map_or(Ok(Vec::new()), |p| drain_batched(p, self.batch_size))
        })?;
        let merged: Vec<RankedTuple> = match self.merge {
            ExchangeMerge::Concat => outputs.into_iter().flatten().collect(),
            ExchangeMerge::Ordered { limit } => merge_ordered(outputs, &self.ranking, limit),
        };
        self.metrics.observe_buffered(merged.len() as u64);
        Ok(merged)
    }
}

impl PhysicalOperator for ExchangeOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> Result<usize> {
        let merged = match self.merged.take() {
            Some(merged) => merged,
            None => self.run()?.into_iter(),
        };
        let merged = self.merged.insert(merged);
        let before = out.len();
        out.extend(merged.by_ref().take(max));
        let n = out.len() - before;
        if n > 0 {
            self.metrics.add_out(n as u64);
            self.metrics.add_batch();
        }
        Ok(n)
    }

    fn is_ranked(&self) -> bool {
        // An ordered merge emits in non-increasing complete-score order; a
        // concat makes no ordering promise of its own.
        matches!(self.merge, ExchangeMerge::Ordered { .. })
    }

    fn can_extend_limit(&self) -> bool {
        // Concat and unlimited ordered merges materialise the *complete*
        // partition outputs — no discard, nothing to raise.  A re-limiting
        // merge (and the per-partition top-k sorts feeding it) discards
        // beyond k, so it cannot be extended after the fact.
        !matches!(self.merge, ExchangeMerge::Ordered { limit: Some(_) })
    }

    fn extend_limit(&mut self, _extra: usize) -> bool {
        self.can_extend_limit()
    }
}

/// One run head inside the k-way merge heap: max-heap on score, ties popped
/// in ascending tuple-id order — the same total order as
/// `RankedTuple::cmp_desc`, so merging per-partition sorted runs reproduces
/// a full serial sort exactly.
struct MergeHead {
    tuple: RankedTuple,
    score: Score,
    run: usize,
}

impl PartialEq for MergeHead {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for MergeHead {}

impl PartialOrd for MergeHead {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MergeHead {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .cmp(&other.score)
            .then_with(|| other.tuple.tuple.id().cmp(self.tuple.tuple.id()))
    }
}

/// K-way merges rank-sorted runs (each in `cmp_desc` order) into one sorted
/// stream, keeping at most `limit` tuples.
fn merge_ordered(
    runs: Vec<Vec<RankedTuple>>,
    ctx: &Arc<RankingContext>,
    limit: Option<usize>,
) -> Vec<RankedTuple> {
    let cap = limit.unwrap_or(usize::MAX);
    let mut iters: Vec<std::vec::IntoIter<RankedTuple>> =
        runs.into_iter().map(|r| r.into_iter()).collect();
    let mut heap = BinaryHeap::with_capacity(iters.len());
    for (run, iter) in iters.iter_mut().enumerate() {
        if let Some(t) = iter.next() {
            heap.push(MergeHead {
                score: ctx.upper_bound(&t.state),
                tuple: t,
                run,
            });
        }
    }
    let mut out = Vec::new();
    while out.len() < cap {
        let Some(head) = heap.pop() else {
            break;
        };
        if let Some(t) = iters[head.run].next() {
            heap.push(MergeHead {
                score: ctx.upper_bound(&t.state),
                tuple: t,
                run: head.run,
            });
        }
        out.push(head.tuple);
    }
    out
}

/// The `Repartition` operator: a transparent pass-through over its scan —
/// the whole table serially, one morsel of it in an exchange's pipeline.
pub struct RepartitionPassthrough {
    inner: BoxedOperator,
    schema: Schema,
    metrics: Arc<OperatorMetrics>,
}

impl RepartitionPassthrough {
    /// Wraps the already-built scan.
    pub fn new(inner: BoxedOperator, exec: &ExecutionContext, label: impl Into<String>) -> Self {
        let schema = inner.schema().clone();
        RepartitionPassthrough {
            inner,
            schema,
            metrics: exec.register(label),
        }
    }
}

impl PhysicalOperator for RepartitionPassthrough {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> Result<usize> {
        let n = self.inner.next_batch(max, out)?;
        if n > 0 {
            self.metrics.add_in(n as u64);
            self.metrics.add_out(n as u64);
            self.metrics.add_batch();
        }
        Ok(n)
    }

    fn is_ranked(&self) -> bool {
        self.inner.is_ranked()
    }

    fn can_extend_limit(&self) -> bool {
        self.inner.can_extend_limit()
    }

    fn extend_limit(&mut self, extra: usize) -> bool {
        self.inner.extend_limit(extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::execute_physical_plan;
    use ranksql_common::{BitSet64, DataType, Field, Value};
    use ranksql_expr::{BoolExpr, CompareOp, RankPredicate, ScalarExpr, ScoringFunction};

    /// Two-table catalog with deterministic pseudo-random content.
    fn setup(rows: usize) -> (Catalog, Arc<RankingContext>) {
        let cat = Catalog::new();
        let r = cat
            .create_table(
                "R",
                ranksql_common::Schema::new(vec![
                    Field::new("a", DataType::Int64),
                    Field::new("p1", DataType::Float64),
                ]),
            )
            .unwrap();
        let s = cat
            .create_table(
                "S",
                ranksql_common::Schema::new(vec![
                    Field::new("a", DataType::Int64),
                    Field::new("p2", DataType::Float64),
                ]),
            )
            .unwrap();
        for i in 0..rows {
            r.insert(vec![
                Value::from((i * 7 % 13) as i64),
                Value::from(((i * 37 % 100) as f64) / 100.0),
            ])
            .unwrap();
            s.insert(vec![
                Value::from((i * 5 % 13) as i64),
                Value::from(((i * 61 % 100) as f64) / 100.0),
            ])
            .unwrap();
        }
        let ctx = RankingContext::new(
            vec![
                RankPredicate::attribute("p1", "R.p1"),
                RankPredicate::attribute("p2", "S.p2"),
            ],
            ScoringFunction::Sum,
        );
        (cat, ctx)
    }

    fn seq_scan(cat: &Catalog, name: &str) -> PhysicalPlan {
        let t = cat.table(name).unwrap();
        PhysicalPlan::unestimated(PhysicalOp::SeqScan {
            table: name.to_owned(),
            schema: t.schema().clone(),
            columnar: None,
        })
    }

    fn repartitioned(scan: PhysicalPlan) -> PhysicalPlan {
        PhysicalPlan::unestimated(PhysicalOp::Repartition {
            input: Box::new(scan),
        })
    }

    /// `Exchange(concat)(Filter(Repartition(SeqScan R)))`.
    fn parallel_filter_plan(cat: &Catalog) -> PhysicalPlan {
        let filter = PhysicalPlan::unestimated(PhysicalOp::Filter {
            input: Box::new(repartitioned(seq_scan(cat, "R"))),
            predicate: BoolExpr::compare(
                ScalarExpr::col("R.p1"),
                CompareOp::GtEq,
                ScalarExpr::lit(0.25),
            ),
        });
        PhysicalPlan::unestimated(PhysicalOp::Exchange {
            input: Box::new(filter),
            merge: ExchangeMerge::Concat,
        })
    }

    /// `Exchange(merge k)(SortLimit(HashJoin(Repartition(SeqScan R), SeqScan S)))`.
    fn parallel_join_topk_plan(cat: &Catalog, k: usize) -> PhysicalPlan {
        let join = PhysicalPlan::unestimated(PhysicalOp::Join {
            left: Box::new(repartitioned(seq_scan(cat, "R"))),
            right: Box::new(seq_scan(cat, "S")),
            condition: Some(BoolExpr::col_eq_col("R.a", "S.a")),
            algorithm: JoinAlgorithm::Hash,
        });
        let topk = PhysicalPlan::unestimated(PhysicalOp::SortLimit {
            input: Box::new(join),
            predicates: BitSet64::all(2),
            k,
        });
        PhysicalPlan::unestimated(PhysicalOp::Exchange {
            input: Box::new(topk),
            merge: ExchangeMerge::Ordered { limit: Some(k) },
        })
    }

    fn ids(tuples: &[RankedTuple]) -> Vec<ranksql_common::TupleId> {
        tuples.iter().map(|t| t.tuple.id().clone()).collect()
    }

    #[test]
    fn concat_exchange_matches_serial_filter_for_every_thread_count() {
        let (cat, ctx) = setup(97);
        // Serial reference: the same pipeline without exchange machinery.
        let serial = PhysicalPlan::unestimated(PhysicalOp::Filter {
            input: Box::new(seq_scan(&cat, "R")),
            predicate: BoolExpr::compare(
                ScalarExpr::col("R.p1"),
                CompareOp::GtEq,
                ScalarExpr::lit(0.25),
            ),
        });
        let exec = ExecutionContext::new(Arc::clone(&ctx)).with_threads(1);
        let want = ids(&execute_physical_plan(&serial, &cat, &exec).unwrap().tuples);
        assert!(!want.is_empty());
        let plan = parallel_filter_plan(&cat);
        for threads in [1, 2, 4, 8] {
            for morsel in [7, 64, 4096] {
                let exec = ExecutionContext::new(Arc::clone(&ctx))
                    .with_threads(threads)
                    .with_morsel_size(morsel);
                let got = execute_physical_plan(&plan, &cat, &exec).unwrap();
                assert_eq!(ids(&got.tuples), want, "threads={threads} morsel={morsel}");
            }
        }
    }

    #[test]
    fn ordered_exchange_matches_serial_top_k_for_every_thread_count() {
        let (cat, ctx) = setup(120);
        let serial = PhysicalPlan::unestimated(PhysicalOp::SortLimit {
            input: Box::new(PhysicalPlan::unestimated(PhysicalOp::Join {
                left: Box::new(seq_scan(&cat, "R")),
                right: Box::new(seq_scan(&cat, "S")),
                condition: Some(BoolExpr::col_eq_col("R.a", "S.a")),
                algorithm: JoinAlgorithm::Hash,
            })),
            predicates: BitSet64::all(2),
            k: 9,
        });
        let exec = ExecutionContext::new(Arc::clone(&ctx)).with_threads(1);
        let want = ids(&execute_physical_plan(&serial, &cat, &exec).unwrap().tuples);
        assert_eq!(want.len(), 9);
        let plan = parallel_join_topk_plan(&cat, 9);
        for threads in [1, 2, 4, 8] {
            for morsel in [11, 4096] {
                let exec = ExecutionContext::new(Arc::clone(&ctx))
                    .with_threads(threads)
                    .with_morsel_size(morsel);
                let got = execute_physical_plan(&plan, &cat, &exec).unwrap();
                assert_eq!(ids(&got.tuples), want, "threads={threads} morsel={morsel}");
            }
        }
    }

    #[test]
    fn exchange_metrics_register_one_entry_per_plan_node() {
        let (cat, ctx) = setup(50);
        let plan = parallel_join_topk_plan(&cat, 5);
        let exec = ExecutionContext::new(Arc::clone(&ctx))
            .with_threads(4)
            .with_morsel_size(8);
        let result = execute_physical_plan(&plan, &cat, &exec).unwrap();
        // One metrics entry per plan node — morsel pipelines must not add
        // registry entries of their own.
        assert_eq!(result.metrics.len(), plan.node_count());
        // The scan node aggregated all 50 rows across all workers.
        let cards = result.actual_cardinalities();
        assert_eq!(cards[0].0, "SeqScan(R)");
        assert_eq!(cards[0].1, 50);
        // The explain pairing holds: each node carries its actuals.
        let text = plan.explain_with_actuals(Some(&ctx), &result.operator_actuals());
        assert!(text.contains("Exchange(merge; k=5)"), "{text}");
        assert!(text.contains("Repartition(morsels)"), "{text}");
    }

    #[test]
    fn worker_errors_surface_as_clean_query_errors() {
        let (cat, ctx) = setup(60);
        let plan = parallel_filter_plan(&cat);
        // A tuple budget of 10 trips inside the workers.
        let exec = ExecutionContext::with_budget(Arc::clone(&ctx), 10)
            .with_threads(4)
            .with_morsel_size(8);
        let err = execute_physical_plan(&plan, &cat, &exec).unwrap_err();
        assert!(err.to_string().contains("tuple budget exceeded"), "{err}");
        // The catalog and plan are unaffected: a fresh context succeeds.
        let exec = ExecutionContext::new(Arc::clone(&ctx)).with_threads(4);
        assert!(execute_physical_plan(&plan, &cat, &exec).is_ok());
    }

    #[test]
    fn repartition_without_exchange_degrades_to_a_passthrough() {
        let (cat, ctx) = setup(20);
        let plan = repartitioned(seq_scan(&cat, "R"));
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let result = execute_physical_plan(&plan, &cat, &exec).unwrap();
        assert_eq!(result.tuples.len(), 20);
        assert_eq!(result.metrics.len(), 2);
    }

    #[test]
    fn exchange_rejects_non_parallel_safe_spines() {
        let (cat, ctx) = setup(10);
        // A rank-materialize on the spine is not parallel-safe.
        let bad = PhysicalPlan::unestimated(PhysicalOp::Exchange {
            input: Box::new(PhysicalPlan::unestimated(PhysicalOp::RankMaterialize {
                input: Box::new(repartitioned(seq_scan(&cat, "R"))),
                predicate: 0,
            })),
            merge: ExchangeMerge::Concat,
        });
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let err = execute_physical_plan(&bad, &cat, &exec).unwrap_err();
        assert!(err.to_string().contains("not parallel-safe"), "{err}");
        // A repartition over something that is not a SeqScan is rejected.
        let bad_scan = PhysicalPlan::unestimated(PhysicalOp::Exchange {
            input: Box::new(repartitioned(PhysicalPlan::unestimated(
                PhysicalOp::RankScan {
                    table: "R".into(),
                    schema: cat.table("R").unwrap().schema().clone(),
                    predicate: 0,
                },
            ))),
            merge: ExchangeMerge::Concat,
        });
        let err = execute_physical_plan(&bad_scan, &cat, &exec).unwrap_err();
        assert!(
            err.to_string().contains("must mark a sequential scan"),
            "{err}"
        );
    }
}
