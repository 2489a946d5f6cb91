//! Morsel-driven parallel execution: the `Exchange` / `Repartition`
//! operators.
//!
//! An [`ExchangeOp`] executes a *parallel-safe spine* — a chain of
//! membership operators (morsel scan → σ/π → hash-join probe → optional
//! per-partition τ/τ+λ) — once per **morsel** (a contiguous chunk of the
//! driving table's rows) across a scoped-thread [`WorkerPool`], then
//! reassembles the per-morsel outputs into one serial stream.
//!
//! Three properties make this deterministic — byte-identical output across
//! any thread count, and identical to serial execution:
//!
//! 1. **Morsel partitioning is thread-independent**: morsels are fixed-size
//!    contiguous row ranges; the worker count only affects who processes a
//!    morsel, never what a morsel is.
//! 2. **Reassembly is order-defined**: `Concat` glues morsel outputs back in
//!    morsel order (= the serial emission order of the same pipeline), and
//!    `Ordered` k-way merges rank-sorted runs under the *total* order of
//!    `RankedTuple::cmp_desc` (score descending, ties on tuple identity).
//! 3. **Shared build state is built once, serially**: the build side of a
//!    hash join inside the spine is drained a single time (possibly itself
//!    through a nested concat-exchange) and the resulting [`JoinTable`] is
//!    shared read-only across all probe instances.
//!
//! Rank-aware operators (µ, MPro, HRJN/NRJN) are never placed inside an
//! exchange: they keep their incremental single-threaded top-k semantics
//! *above* it, exactly as the paper's ranking principle requires.
//!
//! **Metrics.** The exchange registers each spine operator exactly once (in
//! plan post-order, like serial lowering) and hands the registered handles to
//! every morsel instance through the execution context's preset-metrics
//! mechanism, so per-operator counters (`rows_out`, `batches_out`, mean
//! batch fill) aggregate across workers and `explain_analyze` reports one
//! truthful row per plan node regardless of parallelism.

use std::collections::BinaryHeap;
use std::sync::Arc;

use ranksql_algebra::{ExchangeMerge, PhysicalOp, PhysicalPlan};
use ranksql_common::{morsel_ranges, RankSqlError, Result, Schema, Score, Tuple, WorkerPool};
use ranksql_expr::{BoolExpr, RankedTuple, RankingContext};
use ranksql_storage::Catalog;

use crate::build::build_operator;
use crate::column_scan::ColumnScan;
use crate::context::{ExecutionContext, TopKThreshold, TupleBudget};
use crate::filter::{Filter, Project};
use crate::join::{build_join_table, extract_join_keys, HashJoin, JoinTable};
use crate::metrics::OperatorMetrics;
use crate::operator::{drain_batched, Batch, BoxedOperator, PhysicalOperator};
use crate::sort_limit::{SortLimitOp, SortOp};

/// A scan over one morsel (contiguous row range) of a snapshotted table.
///
/// All morsel instances share one `Arc` snapshot of the table taken when the
/// exchange was prepared; each instance clones only the tuples of its own
/// range, so the total copy work equals one full scan regardless of morsel
/// count.  The scan updates both the `SeqScan` and the `Repartition` plan
/// nodes' metrics (the repartition node is a transparent marker).
pub(crate) struct MorselScan {
    rows: Arc<Vec<Tuple>>,
    end: usize,
    pos: usize,
    schema: Schema,
    ctx: Arc<RankingContext>,
    scan_metrics: Arc<OperatorMetrics>,
    repart_metrics: Arc<OperatorMetrics>,
    budget: Arc<TupleBudget>,
}

impl MorselScan {
    fn new(
        rows: Arc<Vec<Tuple>>,
        range: (usize, usize),
        schema: Schema,
        scan_label: &str,
        repart_label: &str,
        exec: &ExecutionContext,
    ) -> Self {
        // Two `register` calls in spine order (scan, then repartition): in a
        // preset-metrics instance context these return the shared handles.
        let scan_metrics = exec.register(scan_label.to_owned());
        let repart_metrics = exec.register(repart_label.to_owned());
        MorselScan {
            rows,
            end: range.1,
            pos: range.0,
            schema,
            ctx: exec.ranking_arc(),
            scan_metrics,
            repart_metrics,
            budget: Arc::clone(exec.budget()),
        }
    }
}

impl PhysicalOperator for MorselScan {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> Result<usize> {
        let n = max.min(self.end - self.pos);
        if n == 0 {
            return Ok(0);
        }
        let n_preds = self.ctx.num_predicates();
        out.extend(
            self.rows[self.pos..self.pos + n]
                .iter()
                .map(|t| RankedTuple::unranked(t.clone(), n_preds)),
        );
        self.pos += n;
        self.budget.charge(n as u64)?;
        for m in [&self.scan_metrics, &self.repart_metrics] {
            m.add_in(n as u64);
            m.add_out(n as u64);
            m.add_batch();
        }
        Ok(n)
    }
}

/// The resolved, shareable form of an exchange's parallel-safe subtree.
///
/// Prepared once per exchange (table snapshot taken, hash-join build sides
/// drained and hashed, every operator's metrics registered); instantiated
/// once per morsel into a throw-away pipeline of ordinary executor
/// operators.
enum SpineNode {
    /// `Repartition(SeqScan)` — the morsel source.
    Morsel {
        rows: Arc<Vec<Tuple>>,
        schema: Schema,
        scan_label: String,
        repart_label: String,
    },
    /// `Repartition(ColumnScan)` — the columnar morsel source.  All morsel
    /// instances read the one shared [`ColumnTable`] projection; the
    /// optional threshold cell is shared with the per-partition `SortLimit`
    /// instances (see [`SpineNode::threshold_cell`]), so a threshold raised
    /// by any worker prunes blocks for every worker.
    MorselColumnar {
        table: Arc<ranksql_storage::ColumnTable>,
        /// The pinned epoch's frozen delta tail (rows past the sealed
        /// blocks); the morsel space covers sealed rows + tail.
        tail: Arc<Vec<Tuple>>,
        pushed_filter: Option<BoolExpr>,
        cell: Option<Arc<TopKThreshold>>,
        /// Spine-wide prune-dedup bitmap: a block overlapping several
        /// morsels is counted in `blocks_pruned` by the first morsel only.
        pruned_blocks: Arc<Vec<std::sync::atomic::AtomicU64>>,
        scan_label: String,
        repart_label: String,
    },
    /// Selection σ on the spine.
    Filter {
        input: Box<SpineNode>,
        predicate: BoolExpr,
        label: String,
    },
    /// Projection π on the spine.
    Project {
        input: Box<SpineNode>,
        columns: Vec<String>,
        label: String,
    },
    /// Hash-join probe on the spine; the build side was drained once into
    /// the shared read-only table, and the joined schema / probe key columns
    /// / residual condition were extracted once alongside it.
    HashJoin {
        probe: Box<SpineNode>,
        schema: Schema,
        left_key_cols: Vec<usize>,
        residual: Option<BoolExpr>,
        table: Arc<JoinTable>,
        label: String,
    },
    /// Nested-loops join on the spine (the canonical plan's cross product);
    /// the inner relation was materialised once and is shared read-only.
    NestedLoops {
        outer: Box<SpineNode>,
        schema: Schema,
        condition: Option<BoolExpr>,
        right_rows: Arc<Vec<RankedTuple>>,
        label: String,
    },
    /// Per-partition blocking sort (merged by an ordered exchange).
    Sort {
        input: Box<SpineNode>,
        predicates: ranksql_common::BitSet64,
        label: String,
    },
    /// Per-partition top-k sort (merged + re-limited by an ordered
    /// exchange).
    SortLimit {
        input: Box<SpineNode>,
        predicates: ranksql_common::BitSet64,
        k: usize,
        label: String,
    },
}

impl SpineNode {
    /// Rows of the driving table (the morsel space).
    fn base_rows(&self) -> usize {
        match self {
            SpineNode::Morsel { rows, .. } => rows.len(),
            SpineNode::MorselColumnar { table, tail, .. } => table.row_count() + tail.len(),
            SpineNode::Filter { input, .. }
            | SpineNode::Project { input, .. }
            | SpineNode::Sort { input, .. }
            | SpineNode::SortLimit { input, .. } => input.base_rows(),
            SpineNode::HashJoin { probe, .. } => probe.base_rows(),
            SpineNode::NestedLoops { outer, .. } => outer.base_rows(),
        }
    }

    /// The zone-pruning threshold cell of this spine's σ/π chain, if its
    /// driving scan is a zone-pruning columnar scan.
    fn threshold_cell(&self) -> Option<Arc<TopKThreshold>> {
        match self {
            SpineNode::MorselColumnar { cell, .. } => cell.clone(),
            SpineNode::Filter { input, .. } | SpineNode::Project { input, .. } => {
                input.threshold_cell()
            }
            _ => None,
        }
    }

    /// Builds one pipeline instance over the morsel `range`.
    ///
    /// `exec` must be a preset-metrics instance context with a fresh cursor;
    /// the construction below performs `register` calls in exactly the order
    /// [`prepare_spine`] registered the shared handles.
    fn instantiate(&self, range: (usize, usize), exec: &ExecutionContext) -> Result<BoxedOperator> {
        match self {
            SpineNode::Morsel {
                rows,
                schema,
                scan_label,
                repart_label,
            } => Ok(Box::new(MorselScan::new(
                Arc::clone(rows),
                range,
                schema.clone(),
                scan_label,
                repart_label,
                exec,
            ))),
            SpineNode::MorselColumnar {
                table,
                tail,
                pushed_filter,
                cell,
                pruned_blocks,
                scan_label,
                repart_label,
                ..
            } => Ok(Box::new(ColumnScan::for_morsel(
                Arc::clone(table),
                Arc::clone(tail),
                range,
                pushed_filter.as_ref(),
                cell.clone(),
                Arc::clone(pruned_blocks),
                exec,
                scan_label,
                repart_label,
            )?)),
            SpineNode::Filter {
                input,
                predicate,
                label,
            } => {
                let child = input.instantiate(range, exec)?;
                Ok(Box::new(Filter::new(
                    child,
                    predicate,
                    exec,
                    label.clone(),
                )?))
            }
            SpineNode::Project {
                input,
                columns,
                label,
            } => {
                let child = input.instantiate(range, exec)?;
                Ok(Box::new(Project::new(child, columns, exec, label.clone())?))
            }
            SpineNode::HashJoin {
                probe,
                schema,
                left_key_cols,
                residual,
                table,
                label,
            } => {
                let top_k = exec.pop_prune_threshold();
                let child = probe.instantiate(range, exec)?;
                let join = HashJoin::with_prebuilt(
                    child,
                    schema.clone(),
                    left_key_cols.clone(),
                    residual.as_ref(),
                    Arc::clone(table),
                    exec,
                    label.clone(),
                )?;
                Ok(Box::new(join.scoring_for_top_k(top_k, exec)?))
            }
            SpineNode::NestedLoops {
                outer,
                schema,
                condition,
                right_rows,
                label,
            } => {
                let child = outer.instantiate(range, exec)?;
                Ok(Box::new(crate::join::NestedLoopJoin::with_prebuilt(
                    child,
                    schema.clone(),
                    condition.as_ref(),
                    Arc::clone(right_rows),
                    exec,
                    label.clone(),
                )?))
            }
            SpineNode::Sort {
                input,
                predicates,
                label,
            } => {
                let child = input.instantiate(range, exec)?;
                Ok(Box::new(SortOp::new(
                    child,
                    *predicates,
                    exec,
                    label.clone(),
                )?))
            }
            SpineNode::SortLimit {
                input,
                predicates,
                k,
                label,
            } => {
                // Per-partition top-k instances share the spine's threshold
                // cell with the morsel scans: any partition's k-th best
                // score is a valid global bound (at least k tuples beat it),
                // so cross-worker pruning stays result-preserving.  A hash
                // join directly beneath gets a cell of this morsel's own
                // instead, so what it builds does not depend on how far the
                // other workers have got.
                let cell = if matches!(**input, SpineNode::HashJoin { .. }) {
                    let cell = Arc::new(TopKThreshold::new());
                    exec.push_prune_threshold(*predicates, Arc::clone(&cell));
                    Some(cell)
                } else {
                    input.threshold_cell()
                };
                let child = input.instantiate(range, exec)?;
                let mut op = SortLimitOp::new(child, *predicates, *k, exec, label.clone())?;
                if let Some(cell) = cell {
                    op = op.with_threshold(cell);
                }
                Ok(Box::new(op))
            }
        }
    }
}

/// Resolves an exchange's input subtree into a [`SpineNode`], registering
/// every spine operator's metrics (post-order) and collecting the handles
/// morsel instances will reuse.  Hash-join build sides are built and drained
/// here, exactly once, through the ordinary serial `build_operator` path —
/// so a nested (concat) exchange on a build side parallelizes the build.
fn prepare_spine(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    exec: &ExecutionContext,
    handles: &mut Vec<Arc<OperatorMetrics>>,
) -> Result<SpineNode> {
    let label = plan.node_label(Some(exec.ranking()));
    match &plan.op {
        PhysicalOp::Repartition { input } => {
            let PhysicalOp::SeqScan {
                table, columnar, ..
            } = &input.op
            else {
                return Err(RankSqlError::Plan(format!(
                    "Repartition must mark a sequential scan, found `{}`",
                    input.node_label(Some(exec.ranking()))
                )));
            };
            let table = catalog.table(table)?;
            let scan_label = input.node_label(Some(exec.ranking()));
            handles.push(exec.register(scan_label.clone()));
            handles.push(exec.register(label.clone()));
            // The spine resolves against the execution's pinned epoch, so
            // every morsel (and every other access path of this execution)
            // reads the same row-count watermark no matter how many rows
            // writers append while the exchange runs.
            match columnar {
                None => {
                    let epoch = exec.pin_epoch(&table, false);
                    Ok(SpineNode::Morsel {
                        rows: Arc::new(table.scan_prefix(epoch.row_count())),
                        schema: table.schema().clone(),
                        scan_label,
                        repart_label: label,
                    })
                }
                Some(c) => {
                    let epoch = exec.pin_epoch(&table, true);
                    let columnar = Arc::clone(
                        epoch
                            .columnar()
                            .expect("columnar spine requires a columnar epoch"),
                    );
                    let pruned_blocks = ColumnScan::pruned_block_map(&columnar);
                    Ok(SpineNode::MorselColumnar {
                        table: columnar,
                        tail: Arc::clone(epoch.tail()),
                        pushed_filter: c.pushed_filter.clone(),
                        cell: c.zone_prune.then(|| Arc::new(TopKThreshold::new())),
                        pruned_blocks,
                        scan_label,
                        repart_label: label,
                    })
                }
            }
        }
        PhysicalOp::Filter { input, predicate } => {
            let child = prepare_spine(input, catalog, exec, handles)?;
            handles.push(exec.register(label.clone()));
            Ok(SpineNode::Filter {
                input: Box::new(child),
                predicate: predicate.clone(),
                label,
            })
        }
        PhysicalOp::Project { input, columns } => {
            let child = prepare_spine(input, catalog, exec, handles)?;
            handles.push(exec.register(label.clone()));
            Ok(SpineNode::Project {
                input: Box::new(child),
                columns: columns.clone(),
                label,
            })
        }
        PhysicalOp::HashJoin {
            left,
            right,
            condition,
        } => {
            let probe = prepare_spine(left, catalog, exec, handles)?;
            // The build side runs once through the normal serial path (its
            // operators register their own metrics here, keeping global
            // post-order intact).
            let mut build = build_operator(right, catalog, exec)?;
            let build_rows = drain_batched(build.as_mut(), exec.batch_size())?;
            let left_schema = left.schema()?;
            let right_schema = right.schema()?;
            let keys = extract_join_keys(condition.as_ref(), &left_schema, &right_schema);
            if keys.keys.is_empty() {
                return Err(RankSqlError::Execution(
                    "hash join requires at least one equi-join condition".into(),
                ));
            }
            let right_cols: Vec<usize> = keys.keys.iter().map(|&(_, r)| r).collect();
            let metrics = exec.register(label.clone());
            metrics.add_in(build_rows.len() as u64);
            handles.push(metrics);
            let table = Arc::new(build_join_table(build_rows, &right_cols));
            Ok(SpineNode::HashJoin {
                probe: Box::new(probe),
                schema: left_schema.join(&right_schema),
                left_key_cols: keys.keys.iter().map(|&(l, _)| l).collect(),
                residual: keys.residual,
                table,
                label,
            })
        }
        PhysicalOp::NestedLoopsJoin {
            left,
            right,
            condition,
        } => {
            let outer = prepare_spine(left, catalog, exec, handles)?;
            let mut inner = build_operator(right, catalog, exec)?;
            let right_rows = drain_batched(inner.as_mut(), exec.batch_size())?;
            let metrics = exec.register(label.clone());
            metrics.add_in(right_rows.len() as u64);
            handles.push(metrics);
            Ok(SpineNode::NestedLoops {
                outer: Box::new(outer),
                schema: left.schema()?.join(&right.schema()?),
                condition: condition.clone(),
                right_rows: Arc::new(right_rows),
                label,
            })
        }
        PhysicalOp::Sort { input, predicates } => {
            let child = prepare_spine(input, catalog, exec, handles)?;
            handles.push(exec.register(label.clone()));
            Ok(SpineNode::Sort {
                input: Box::new(child),
                predicates: *predicates,
                label,
            })
        }
        PhysicalOp::SortLimit {
            input,
            predicates,
            k,
        } => {
            let child = prepare_spine(input, catalog, exec, handles)?;
            handles.push(exec.register(label.clone()));
            Ok(SpineNode::SortLimit {
                input: Box::new(child),
                predicates: *predicates,
                k: *k,
                label,
            })
        }
        _ => Err(RankSqlError::Plan(format!(
            "operator `{label}` is not parallel-safe under an Exchange"
        ))),
    }
}

/// Deferred fan-out state of an [`ExchangeOp`] (consumed by the first pull).
struct RunState {
    spine: SpineNode,
    handles: Arc<Vec<Arc<OperatorMetrics>>>,
    exec: ExecutionContext,
    merge: ExchangeMerge,
}

/// The gather operator of morsel-driven parallel execution.
///
/// Construction resolves the spine (snapshots the driving table, drains and
/// hashes build sides, registers metrics); the first pull fans the morsels
/// across a [`WorkerPool`] of `ExecutionContext::threads` workers and
/// materialises the deterministically merged output, which subsequent pulls
/// stream out.  A worker error or panic surfaces as the `Err` of the first
/// pull — never a deadlock, never partial results.
pub struct ExchangeOp {
    schema: Schema,
    metrics: Arc<OperatorMetrics>,
    ordered: bool,
    /// Whether the merge re-limits the stream (`Ordered { limit: Some(_) }`):
    /// such an exchange discards tuples beyond the cap (as do the
    /// per-partition top-k sorts feeding it), so it can never be extended.
    limited: bool,
    run: Option<RunState>,
    merged: Option<std::vec::IntoIter<RankedTuple>>,
}

impl ExchangeOp {
    /// Prepares an exchange over `input` (which must be a parallel-safe
    /// spine containing exactly one `Repartition`-marked scan).
    pub fn new(
        input: &PhysicalPlan,
        merge: ExchangeMerge,
        catalog: &Catalog,
        exec: &ExecutionContext,
        label: impl Into<String>,
    ) -> Result<Self> {
        let mut handles = Vec::new();
        let spine = prepare_spine(input, catalog, exec, &mut handles)?;
        let schema = input.schema()?;
        // The exchange's own metrics register last — after the whole
        // subtree — preserving the global post-order pairing.
        let metrics = exec.register(label);
        Ok(ExchangeOp {
            schema,
            metrics,
            ordered: matches!(merge, ExchangeMerge::Ordered { .. }),
            limited: matches!(merge, ExchangeMerge::Ordered { limit: Some(_) }),
            run: Some(RunState {
                spine,
                handles: Arc::new(handles),
                exec: exec.clone(),
                merge,
            }),
            merged: None,
        })
    }

    /// Runs the parallel fan-out if it has not run yet.
    fn execute(&mut self) -> Result<()> {
        if self.merged.is_some() {
            return Ok(());
        }
        let run = self
            .run
            .as_ref()
            .expect("exchange run state present before execution");
        let ranges = morsel_ranges(run.spine.base_rows(), run.exec.morsel_size());
        let pool = WorkerPool::new(run.exec.threads());
        let outputs = pool.run(ranges.len(), |i| {
            let instance = run.exec.with_preset_metrics(Arc::clone(&run.handles));
            let mut op = run.spine.instantiate(ranges[i], &instance)?;
            drain_batched(op.as_mut(), run.exec.batch_size())
        })?;
        let merged: Vec<RankedTuple> = match run.merge {
            ExchangeMerge::Concat => outputs.into_iter().flatten().collect(),
            ExchangeMerge::Ordered { limit } => merge_ordered(outputs, run.exec.ranking(), limit),
        };
        self.metrics.observe_buffered(merged.len() as u64);
        self.run = None;
        self.merged = Some(merged.into_iter());
        Ok(())
    }
}

impl PhysicalOperator for ExchangeOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> Result<usize> {
        self.execute()?;
        let merged = self.merged.as_mut().expect("merged after execute");
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
        self.ordered
    }

    fn can_extend_limit(&self) -> bool {
        // Concat and unlimited ordered merges materialise the *complete*
        // partition outputs — no discard, nothing to raise.  A re-limiting
        // merge (and the per-partition top-k sorts feeding it) discards
        // beyond k, so it cannot be extended after the fact.
        !self.limited
    }

    fn extend_limit(&mut self, _extra: usize) -> bool {
        !self.limited
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

/// Serial fallback for a [`Repartition`](PhysicalOp::Repartition) built
/// outside an exchange: a transparent pass-through over the full scan.
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
    use ranksql_expr::{CompareOp, RankPredicate, ScalarExpr, ScoringFunction};

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
        let join = PhysicalPlan::unestimated(PhysicalOp::HashJoin {
            left: Box::new(repartitioned(seq_scan(cat, "R"))),
            right: Box::new(seq_scan(cat, "S")),
            condition: Some(BoolExpr::col_eq_col("R.a", "S.a")),
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
            input: Box::new(PhysicalPlan::unestimated(PhysicalOp::HashJoin {
                left: Box::new(seq_scan(&cat, "R")),
                right: Box::new(seq_scan(&cat, "S")),
                condition: Some(BoolExpr::col_eq_col("R.a", "S.a")),
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
        // One metrics entry per plan node — morsel instances must not add
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
