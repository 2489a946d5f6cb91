//! Morsel-driven parallel execution: the [`ExchangeOp`].
//!
//! Parallelism is not a node of the plan; it is a way the executor lowers
//! one.  [`build_operator`] lowers a `Sort` or `SortLimit` as an ordered
//! exchange when the execution has more than one thread, is not already
//! inside an exchange, and the sort's input is a *spine* (`spine_table`):
//! σ, π and the probe sides of hash or nested-loops joins, down to a
//! sequential scan that is not zone-pruned.  The exchange runs the sort over
//! each **morsel** (a contiguous chunk of the driving table's rows) across a
//! scoped-thread [`WorkerPool`], then k-way merges the per-morsel runs,
//! keeping the sort's own `k`.  A join's build side that is itself a spine
//! is drained by a nested concat exchange, which glues its morsel outputs
//! back together in morsel order.  One plan thus serves every thread count.
//!
//! **One builder.** A morsel pipeline is [`build_operator`] over the sort
//! under a morsel context.  The first lowering records what must exist once
//! per spine — the spine operators' metrics handles (registered in plan
//! post-order, like serial lowering), each build side (lowered through the
//! ordinary serial path, then drained and hashed) and the prune bitmap —
//! and every later lowering replays that record in order.  So per-operator
//! counters aggregate across workers, `explain_analyze` reports one row per
//! plan node, and every morsel probes one build table.  A top-k over a hash
//! join gets a threshold cell of its morsel's own, so what the join builds
//! does not depend on how far other workers have got.  All lowering happens
//! in `ExchangeOp::new`; workers only drain.
//!
//! Output is byte-identical across any thread count, and identical to
//! serial execution, because morsels are fixed-size row ranges (the worker
//! count only decides who drains a morsel, never what it is) and
//! reassembly is order-defined: concat glues morsel outputs back in morsel
//! order, the ordered merge follows the *total* order of
//! `RankedTuple::cmp_desc` (score descending, ties on tuple identity).
//!
//! Rank-aware operators (µ, HRJN/NRJN) are never on a spine: they keep
//! their incremental single-threaded top-k semantics *above* the sort, as
//! the paper's ranking principle requires.  A zone-pruned scan is no spine
//! either: serially it skips every block the shared top-k threshold rules
//! out, while per-morsel top-ks would each read their morsel until their
//! own threshold formed.

use std::collections::BinaryHeap;
use std::sync::Arc;

use parking_lot::Mutex;
use ranksql_algebra::{JoinAlgorithm, PhysicalOp, PhysicalPlan};
use ranksql_common::{morsel_ranges, Result, Schema, Score, WorkerPool};
use ranksql_expr::{RankedTuple, RankingContext};
use ranksql_storage::Catalog;

use crate::build::build_operator;
use crate::context::ExecutionContext;
use crate::operator::{drain_batched, Batch, BoxedOperator, PhysicalOperator};

/// The table whose rows a morsel lowering of `plan` partitions, if `plan`
/// is a spine: σ, π and the probe sides of hash and nested-loops joins
/// whose build sides hold no rank-aware operator, down to a sequential scan
/// that is not zone-pruned.
pub(crate) fn spine_table(plan: &PhysicalPlan) -> Option<&str> {
    match &plan.op {
        PhysicalOp::SeqScan {
            columnar: Some(c), ..
        } if c.zone_prune => None,
        PhysicalOp::SeqScan { table, .. } => Some(table),
        PhysicalOp::Filter { input, .. } | PhysicalOp::Project { input, .. } => spine_table(input),
        PhysicalOp::Join {
            left,
            right,
            algorithm: JoinAlgorithm::Hash | JoinAlgorithm::NestedLoop,
            ..
        } if !right.is_rank_aware() => spine_table(left),
        _ => None,
    }
}

/// How an exchange reassembles its morsel outputs into one stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Merge {
    /// Morsel outputs back to back, in morsel (scan) order.
    Concat,
    /// A k-way merge of rank-sorted morsel runs, keeping the first `limit`
    /// tuples (all with `None`).
    Ordered { limit: Option<usize> },
}

/// The gather operator of morsel-driven parallel execution.
///
/// Construction lowers one pipeline per morsel (see the module docs); the
/// first pull drains them across a [`WorkerPool`] of
/// `ExecutionContext::threads` workers and materialises the
/// deterministically merged output, which subsequent pulls stream out.  A
/// worker error or panic surfaces as the `Err` of the first pull — never a
/// deadlock, never partial results.  The exchange is no plan node and
/// registers no metrics of its own: its pipelines' operators report under
/// their plan nodes, and [`ExecutionContext::morsels`] counts the morsels.
pub struct ExchangeOp {
    schema: Schema,
    merge: Merge,
    ranking: Arc<RankingContext>,
    threads: usize,
    batch_size: usize,
    /// One lowered pipeline per morsel, in morsel order; drained by the
    /// first pull.
    pipelines: Vec<BoxedOperator>,
    merged: Option<std::vec::IntoIter<RankedTuple>>,
}

impl ExchangeOp {
    /// Lowers `plan` — a `Sort` or `SortLimit` — as an ordered exchange
    /// when `exec` fans out and the sort's input is a spine; `None` when
    /// the sort runs serially.
    pub(crate) fn over_sort(
        plan: &PhysicalPlan,
        catalog: &Catalog,
        exec: &ExecutionContext,
    ) -> Result<Option<Self>> {
        let (input, limit) = match &plan.op {
            PhysicalOp::Sort { input, .. } => (input, None),
            PhysicalOp::SortLimit { input, k, .. } => (input, Some(*k)),
            _ => return Ok(None),
        };
        match spine_table(input) {
            Some(table) if exec.fans_out() => {
                let merge = Merge::Ordered { limit };
                ExchangeOp::new(plan, table, merge, catalog, exec).map(Some)
            }
            _ => Ok(None),
        }
    }

    /// Lowers a join's build side as a concat exchange when it is itself a
    /// spine; `None` otherwise.  Called where a morsel lowering drains the
    /// build side its morsels share.
    pub(crate) fn over_build_side(
        plan: &PhysicalPlan,
        catalog: &Catalog,
        exec: &ExecutionContext,
    ) -> Result<Option<Self>> {
        spine_table(plan)
            .map(|table| ExchangeOp::new(plan, table, Merge::Concat, catalog, exec))
            .transpose()
    }

    /// Lowers `plan` once per morsel of `table`, which drives its spine.
    fn new(
        plan: &PhysicalPlan,
        table: &str,
        merge: Merge,
        catalog: &Catalog,
        exec: &ExecutionContext,
    ) -> Result<Self> {
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
            .map(|(start, end)| build_operator(plan, catalog, &exec.in_morsel(start..end, &record)))
            .collect::<Result<Vec<_>>>()?;
        exec.count_morsels(pipelines.len());
        Ok(ExchangeOp {
            schema: plan.schema()?,
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
        Ok(match self.merge {
            Merge::Concat => outputs.into_iter().flatten().collect(),
            Merge::Ordered { limit } => merge_ordered(outputs, &self.ranking, limit),
        })
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
        Ok(out.len() - before)
    }

    fn is_ranked(&self) -> bool {
        // An ordered merge emits in non-increasing complete-score order; a
        // concat makes no ordering promise of its own.
        matches!(self.merge, Merge::Ordered { .. })
    }

    fn can_extend_limit(&self) -> bool {
        match &self.merged {
            // Before the first pull, whatever every morsel's pipeline
            // allows: a top-k that has not run can still raise its k.
            None => self.pipelines.iter().all(|p| p.can_extend_limit()),
            // After it, concat and unlimited merges hold the *complete*
            // morsel outputs; a limited merge discarded beyond its k.
            Some(_) => !matches!(self.merge, Merge::Ordered { limit: Some(_) }),
        }
    }

    fn extend_limit(&mut self, extra: usize) -> bool {
        if !self.can_extend_limit() {
            return false;
        }
        if self.merged.is_none() {
            for pipeline in &mut self.pipelines {
                pipeline.extend_limit(extra);
            }
            if let Merge::Ordered { limit: Some(k) } = &mut self.merge {
                *k += extra;
            }
        }
        true
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{execute_physical_plan, ExecutionResult};
    use ranksql_algebra::ColumnarScan;
    use ranksql_common::{BitSet64, DataType, Field, Value};
    use ranksql_expr::{BoolExpr, CompareOp, RankPredicate, ScalarExpr, ScoringFunction};

    /// Two-table catalog with deterministic pseudo-random content.
    fn setup(rows: usize) -> (Catalog, Arc<RankingContext>) {
        let cat = Catalog::new();
        let r = cat
            .create_table(
                "R",
                Schema::new(vec![
                    Field::new("a", DataType::Int64),
                    Field::new("p1", DataType::Float64),
                ]),
            )
            .unwrap();
        let s = cat
            .create_table(
                "S",
                Schema::new(vec![
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

    fn plan(op: PhysicalOp) -> PhysicalPlan {
        PhysicalPlan::unestimated(op)
    }

    fn seq_scan(cat: &Catalog, name: &str) -> PhysicalPlan {
        plan(PhysicalOp::SeqScan {
            table: name.to_owned(),
            schema: cat.table(name).unwrap().schema().clone(),
            columnar: None,
        })
    }

    /// `Sort(Filter(SeqScan R))`: an unlimited ordered merge.
    fn filter_sort_plan(cat: &Catalog) -> PhysicalPlan {
        plan(PhysicalOp::Sort {
            input: Box::new(plan(PhysicalOp::Filter {
                input: Box::new(seq_scan(cat, "R")),
                predicate: BoolExpr::compare(
                    ScalarExpr::col("R.p1"),
                    CompareOp::GtEq,
                    ScalarExpr::lit(0.25),
                ),
            })),
            predicates: BitSet64::singleton(0),
        })
    }

    /// `SortLimit(HashJoin(SeqScan R, SeqScan S))`: both scans are spines,
    /// so the build side is drained by a nested concat exchange.
    fn join_topk_plan(cat: &Catalog, k: usize) -> PhysicalPlan {
        plan(PhysicalOp::SortLimit {
            input: Box::new(plan(PhysicalOp::Join {
                left: Box::new(seq_scan(cat, "R")),
                right: Box::new(seq_scan(cat, "S")),
                condition: Some(BoolExpr::col_eq_col("R.a", "S.a")),
                algorithm: JoinAlgorithm::Hash,
            })),
            predicates: BitSet64::all(2),
            k,
        })
    }

    fn run(cat: &Catalog, plan: &PhysicalPlan, exec: ExecutionContext) -> ExecutionResult {
        execute_physical_plan(plan, cat, &exec).unwrap()
    }

    fn ids(result: &ExecutionResult) -> Vec<ranksql_common::TupleId> {
        result.tuples.iter().map(|t| t.tuple.id().clone()).collect()
    }

    #[test]
    fn sorts_over_spines_match_serial_for_every_thread_and_morsel_count() {
        let (cat, ctx) = setup(120);
        for (plan, sizes) in [
            (filter_sort_plan(&cat), [7, 64, 4096]),
            (join_topk_plan(&cat, 9), [11, 40, 4096]),
        ] {
            let exec = || ExecutionContext::new(Arc::clone(&ctx));
            let serial = run(&cat, &plan, exec().with_threads(1));
            assert_eq!(serial.morsels, 0, "one thread never fans out");
            assert!(!serial.tuples.is_empty());
            for threads in [2, 4, 8] {
                for morsel in sizes {
                    let exec = exec().with_threads(threads).with_morsel_size(morsel);
                    let got = run(&cat, &plan, exec);
                    let at = format!("threads={threads} morsel={morsel}");
                    assert_eq!(ids(&got), ids(&serial), "{at}");
                    assert!(got.morsels > 0, "{at}");
                }
            }
        }
    }

    #[test]
    fn exchange_metrics_register_one_entry_per_plan_node() {
        let (cat, ctx) = setup(50);
        let plan = join_topk_plan(&cat, 5);
        let exec = ExecutionContext::new(Arc::clone(&ctx))
            .with_threads(4)
            .with_morsel_size(8);
        let result = run(&cat, &plan, exec);
        // One metrics entry per plan node — neither the morsel pipelines
        // nor the exchanges add registry entries of their own.
        assert_eq!(result.metrics.len(), plan.node_count());
        // The scans aggregated all 50 rows across all workers.
        let cards = result.actual_cardinalities();
        assert_eq!(cards[0], ("SeqScan(R)".to_owned(), 50));
        assert_eq!(cards[1], ("SeqScan(S)".to_owned(), 50));
        // 7 morsels of R, and 7 of S for the build side's concat exchange.
        assert_eq!(result.morsels, 14);
        assert_eq!(result.threads, 4);
    }

    #[test]
    fn a_limited_merge_extends_only_before_its_first_pull() {
        let (cat, ctx) = setup(60);
        let exec = ExecutionContext::new(Arc::clone(&ctx))
            .with_threads(4)
            .with_morsel_size(8);
        let want = ids(&run(&cat, &join_topk_plan(&cat, 7), exec.clone()));
        let mut root = build_operator(&join_topk_plan(&cat, 4), &cat, &exec).unwrap();
        assert!(root.can_extend_limit() && root.extend_limit(3));
        let got = drain_batched(root.as_mut(), 16).unwrap();
        let got: Vec<_> = got.iter().map(|t| t.tuple.id().clone()).collect();
        assert_eq!(got, want);
        assert!(!root.can_extend_limit() && !root.extend_limit(1));
    }

    #[test]
    fn worker_errors_surface_as_clean_query_errors() {
        let (cat, ctx) = setup(60);
        let plan = filter_sort_plan(&cat);
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
    fn sorts_over_anything_but_a_spine_run_serially() {
        let (cat, ctx) = setup(40);
        let zone_pruned = plan(PhysicalOp::SeqScan {
            table: "R".into(),
            schema: cat.table("R").unwrap().schema().clone(),
            columnar: Some(ColumnarScan {
                pushed_filter: None,
                zone_prune: true,
            }),
        });
        let rank_build = plan(PhysicalOp::Join {
            left: Box::new(seq_scan(&cat, "R")),
            right: Box::new(plan(PhysicalOp::RankMaterialize {
                input: Box::new(seq_scan(&cat, "S")),
                predicate: 1,
            })),
            condition: Some(BoolExpr::col_eq_col("R.a", "S.a")),
            algorithm: JoinAlgorithm::Hash,
        });
        let ranked = plan(PhysicalOp::RankMaterialize {
            input: Box::new(seq_scan(&cat, "R")),
            predicate: 0,
        });
        let r_only = BitSet64::singleton(0);
        for (input, predicates) in [
            (zone_pruned, r_only),
            (rank_build, BitSet64::all(2)),
            (ranked, r_only),
        ] {
            assert_eq!(spine_table(&input), None, "{}", input.explain(None));
            let topk = plan(PhysicalOp::SortLimit {
                input: Box::new(input),
                predicates,
                k: 3,
            });
            let exec = ExecutionContext::new(Arc::clone(&ctx)).with_threads(4);
            assert_eq!(run(&cat, &topk, exec).morsels, 0);
        }
    }
}
