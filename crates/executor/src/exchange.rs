//! Morsel-driven parallel execution: the [`ExchangeOp`].
//!
//! Parallelism is not a node of the plan; it is a way the executor lowers
//! one.  [`build_operator`] lowers a `Sort` or `SortLimit` as an ordered
//! exchange when the execution has more than one thread, is not already
//! inside an exchange, and the sort's input is a *spine* (`spine_table`):
//! σ, π and the probe sides of hash joins (nested loops, the hash join on
//! the empty key, included), down to a sequential scan that is not
//! zone-pruned.  The exchange runs the sort over
//! each **morsel** (a contiguous chunk of the driving table's rows) across a
//! scoped-thread [`WorkerPool`], then k-way merges the per-morsel runs,
//! keeping the sort's own `k`.  One plan thus serves every thread count.
//!
//! **One builder.** A morsel pipeline is [`build_operator`] over the sort
//! under a morsel context.  The first lowering records what must exist once
//! per spine — the spine operators' metrics handles (registered in plan
//! post-order, like serial lowering), each join's drained build side and
//! the prune bitmap — and every later lowering replays that record in
//! order.  So per-operator counters aggregate across workers,
//! `explain_analyze` reports one row per plan node, and every morsel probes
//! one build table.  Workers only drain.
//!
//! **Partitioned build sides.** A join's build side that is itself a spine
//! is drained per morsel too (`build_pipelines`): each worker drains its
//! morsel into one partition of the `JoinTable`, scoring and grouping its
//! rows there, into a few flat arrays of its own.  Partitions are never
//! merged: the table indexes each key's groups across them.  A build
//! spine splits by its own rule (`build_ranges`): a power of two of equal
//! morsels, at least four, so two or four workers (eight, from eight
//! morsels) drain equal shares and a larger table splits into more.  A
//! factored build side drains each of the inner join's inputs so.
//!
//! **Seeded thresholds.** A limited exchange drains in waves — morsel 0
//! alone on the calling thread, then 8, 16, 32, … morsels across the pool
//! — and after each, once the runs hold `k` entries, the k-th best entry
//! drained so far seeds every morsel left (see [`TopKThreshold`]).  Wave
//! sizes depend only on the morsel count, so what a morsel's join builds
//! depends only on how the table splits into morsels.
//!
//! Output is byte-identical across any thread count, and identical to
//! serial execution, because morsels are fixed-size row ranges (the worker
//! count only decides who drains a morsel, never what it is) and
//! reassembly is order-defined: partitions keep morsel order, the ordered
//! merge follows the *total* order of `RankedTuple::cmp_desc` (score
//! descending, ties on tuple identity).  Once drained, an exchange drops
//! the build tables its morsels shared: a few frees per partition.
//!
//! Rank-aware operators (µ, HRJN/NRJN) are never on a spine: they keep
//! their incremental single-threaded top-k semantics *above* the sort, as
//! the paper's ranking principle requires.  A zone-pruned scan is no spine
//! either: serially it skips every block the shared top-k threshold rules
//! out, while per-morsel top-ks would each read their morsel until their
//! own threshold formed.

use std::sync::Arc;

use parking_lot::Mutex;
use ranksql_algebra::{JoinAlgorithm, PhysicalOp, PhysicalPlan};
use ranksql_common::{morsel_ranges, Result, Schema, WorkerPool};
use ranksql_expr::{RankedTuple, RankingContext};
use ranksql_storage::Catalog;

use crate::build::build_operator;
use crate::context::{ExecutionContext, SpineRecord, TopKThreshold};
use crate::operator::{drain_batched, Batch, BoxedOperator, PhysicalOperator};

/// The table whose rows a morsel lowering of `plan` partitions, if `plan`
/// is a spine: σ, π and the probe sides of hash joins (nested loops
/// included) whose build sides hold no rank-aware operator, down to a
/// sequential scan that is not zone-pruned.
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

/// The pipelines of a join's build side `plan`, when it is a spine: one
/// per morsel of its table, in morsel order.  `None` when `plan` is no
/// spine.
pub(crate) fn build_pipelines(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    exec: &ExecutionContext,
) -> Result<Option<Vec<BoxedOperator>>> {
    let Some(table) = spine_table(plan) else {
        return Ok(None);
    };
    let (morsels, _) = lower_morsels(plan, table, build_ranges, catalog, exec)?;
    Ok(Some(morsels.into_iter().map(|(p, _)| p).collect()))
}

/// Runs `drain` over `pipelines` across a [`WorkerPool`] of `threads`
/// workers, returning the outputs in order.
pub(crate) fn drain_pipelines<O: Send>(
    pipelines: &mut [BoxedOperator],
    threads: usize,
    drain: impl Fn(&mut BoxedOperator) -> Result<O> + Sync,
) -> Result<Vec<O>> {
    let slots: Vec<Mutex<&mut BoxedOperator>> = pipelines.iter_mut().map(Mutex::new).collect();
    WorkerPool::new(threads).run(slots.len(), |i| drain(&mut slots[i].lock()))
}

/// The morsels a build-side spine over `rows` rows splits into: as many
/// as `morsel_size` would cut, rounded up to a power of two and at least
/// four, of equal size — never more than `rows`, and one empty morsel for
/// no rows.  So two or four workers (eight, from eight morsels) drain
/// equal shares, and a larger table splits into more morsels.  Like
/// [`morsel_ranges`], the split never depends on the thread count.
fn build_ranges(rows: usize, morsel_size: usize) -> Vec<(usize, usize)> {
    let n = rows.div_ceil(morsel_size.max(1)).next_power_of_two().max(4);
    let n = n.min(rows).max(1);
    (0..n).map(|i| (rows * i / n, rows * (i + 1) / n)).collect()
}

/// One morsel pipeline, lowered, and its top-k's threshold cell.
type Morsel = (BoxedOperator, Arc<TopKThreshold>);

/// Lowers `plan` once per morsel of `table`, which drives its spine and
/// `split` cuts into morsels, and returns what the spine holds once too
/// (the build tables it probes).
fn lower_morsels(
    plan: &PhysicalPlan,
    table: &str,
    split: fn(usize, usize) -> Vec<(usize, usize)>,
    catalog: &Catalog,
    exec: &ExecutionContext,
) -> Result<(Vec<Morsel>, Arc<SpineRecord>)> {
    // Morsels cover the execution's pinned epoch, so every morsel (and
    // every other access path of this execution) reads one watermark
    // however many rows writers append meanwhile.  An empty table still
    // gets one lowering, over an empty range, so its build sides are
    // drained and its operators registered exactly once.
    let table = catalog.table(table)?;
    let rows = exec.pin_epoch(&table).row_count();
    let mut ranges = split(rows, exec.morsel_size());
    if ranges.is_empty() {
        ranges.push((0, 0));
    }
    let record = Arc::default();
    let morsels = ranges
        .into_iter()
        .map(|(start, end)| {
            let morsel = exec.in_morsel(start..end, &record);
            let pipeline = build_operator(plan, catalog, &morsel)?;
            Ok((pipeline, morsel.morsel_threshold().unwrap_or_default()))
        })
        .collect::<Result<Vec<_>>>()?;
    exec.count_morsels(morsels.len());
    Ok((morsels, record))
}

/// The gather operator of morsel-driven parallel execution: an ordered
/// exchange.
///
/// Construction lowers one pipeline per morsel (see the module docs); the
/// first pull drains them across a [`WorkerPool`] of
/// `ExecutionContext::threads` workers — in seeding waves when the merge
/// is limited — and materialises the merged output, which
/// subsequent pulls stream out.  A worker error or panic surfaces as the
/// `Err` of the first pull — never a deadlock, never partial results.  The
/// exchange is no plan node and registers no metrics of its own: its
/// pipelines' operators report under their plan nodes, and
/// [`ExecutionContext::morsels`] counts the morsels.
pub struct ExchangeOp {
    schema: Schema,
    /// The merge keeps the first `limit` tuples (all with `None`).
    limit: Option<usize>,
    ranking: Arc<RankingContext>,
    threads: usize,
    batch_size: usize,
    /// The lowered morsels, drained by the first pull.
    morsels: Vec<Morsel>,
    /// What their spine holds once.
    record: Arc<SpineRecord>,
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
        let Some(table) = spine_table(input).filter(|_| exec.fans_out()) else {
            return Ok(None);
        };
        let (morsels, record) = lower_morsels(plan, table, morsel_ranges, catalog, exec)?;
        Ok(Some(ExchangeOp {
            schema: plan.schema()?,
            limit,
            ranking: exec.ranking_arc(),
            threads: exec.threads(),
            batch_size: exec.batch_size(),
            morsels,
            record,
            merged: None,
        }))
    }

    /// Drains every morsel pipeline and merges the runs, then drops the
    /// build tables the morsels shared.  A limited exchange drains in
    /// waves — morsel 0 alone, then 8, 16, 32, … morsels — and after each
    /// seeds every morsel left with the k-th best entry drained so far.
    fn run(&mut self) -> Result<Vec<RankedTuple>> {
        let batch_size = self.batch_size;
        let mut pipelines = std::mem::take(&mut self.morsels).into_iter();
        let mut runs = Vec::with_capacity(pipelines.len());
        while pipelines.len() > 0 {
            let wave = match self.limit {
                Some(_) => runs.len().next_multiple_of(8).max(1),
                None => pipelines.len(),
            };
            let mut wave: Vec<_> = pipelines.by_ref().take(wave).map(|(p, _)| p).collect();
            runs.extend(drain_pipelines(&mut wave, self.threads, |p| {
                drain_batched(p.as_mut(), batch_size)
            })?);
            if let Some(kth) = self.limit.and_then(|k| self.kth_best(&runs, k)) {
                let score = self.ranking.upper_bound(&kth.state).value();
                for (_, cell) in pipelines.as_slice() {
                    cell.raise(score, kth.tuple.id());
                }
            }
        }
        self.record.lock().clear();
        Ok(merge_ordered(runs, &self.ranking, self.limit))
    }

    /// The `k`-th best entry of `runs`, `None` while they hold fewer: every
    /// entry that sorts after it loses to `k` entries already drained.
    fn kth_best<'a>(&self, runs: &'a [Vec<RankedTuple>], k: usize) -> Option<&'a RankedTuple> {
        let mut all: Vec<&RankedTuple> = runs.iter().flatten().collect();
        let at = k.checked_sub(1).filter(|&at| at < all.len())?;
        all.select_nth_unstable_by(at, |a, b| self.ranking.cmp_desc(a, b));
        Some(all[at])
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
        // The merge emits in non-increasing complete-score order.
        true
    }

    fn can_extend_limit(&self) -> bool {
        match &self.merged {
            // Before the first pull, whatever every morsel's pipeline
            // allows: a top-k that has not run can still raise its k.
            None => self.morsels.iter().all(|(p, _)| p.can_extend_limit()),
            // After it, an unlimited merge holds the *complete* morsel
            // outputs; a limited one discarded beyond its k.
            Some(_) => self.limit.is_none(),
        }
    }

    fn extend_limit(&mut self, extra: usize) -> bool {
        if !self.can_extend_limit() {
            return false;
        }
        if self.merged.is_none() {
            for (pipeline, _) in &mut self.morsels {
                pipeline.extend_limit(extra);
            }
            if let Some(k) = &mut self.limit {
                *k += extra;
            }
        }
        true
    }
}

/// Merges rank-sorted runs (each in `cmp_desc` order) into one sorted
/// stream, keeping at most `limit` tuples: a stable sort of the runs laid
/// end to end merges them.
fn merge_ordered(
    runs: Vec<Vec<RankedTuple>>,
    ctx: &RankingContext,
    limit: Option<usize>,
) -> Vec<RankedTuple> {
    let mut merged: Vec<RankedTuple> = runs.into_iter().flatten().collect();
    merged.sort_by(|a, b| ctx.cmp_desc(a, b));
    merged.truncate(limit.unwrap_or(usize::MAX));
    merged
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
    /// so the build side is drained per morsel into partitions.
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
        let cards = result.metrics.output_cardinalities();
        assert_eq!(cards[0], ("SeqScan(R)".to_owned(), 50));
        assert_eq!(cards[1], ("SeqScan(S)".to_owned(), 50));
        // 7 morsels of R, and 8 of S for the partitioned build side.
        assert_eq!(result.morsels, 15);
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
