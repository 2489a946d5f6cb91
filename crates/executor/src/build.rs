//! Building operator trees from the physical plan IR and driving execution.
//!
//! The executor consumes **only** [`PhysicalPlan`]: every physical decision
//! (scan strategy, join algorithm, sort fusion, probe scheduling) was made
//! by whoever produced the plan — the optimizer's lowering or the
//! structural [`PhysicalPlan::from_logical`] mapping.  [`build_operator`] is
//! a mechanical walk that instantiates the named operator for every node,
//! threading one [`ExecutionContext`] through all constructors.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ranksql_algebra::{LogicalPlan, PhysicalOp, PhysicalPlan, SetOpKind};
use ranksql_common::{BitSet64, RankSqlError, Result};
use ranksql_expr::{RankedTuple, RankingContext, ScoreSource};
use ranksql_storage::{BTreeIndex, Catalog, EpochSet, ScoreIndex};

use crate::column_scan::ColumnScan;
use crate::context::{ExecutionContext, TopKScoring, TopKThreshold};
use crate::exchange::{ExchangeOp, RepartitionPassthrough};
use crate::filter::{Filter, Project};
use crate::join::{
    build_key_cols, collect_build_input, hash_build_input, BuildSide, Built, HashJoin,
    NestedLoopJoin, SortMergeJoin,
};
use crate::metrics::MetricsRegistry;
use crate::mpro::MProOp;
use crate::operator::{drain_batched, BoxedOperator, PhysicalOperator};
use crate::rank::RankOp;
use crate::rank_join::RankJoin;
use crate::scan::{AttributeIndexScan, RankScan};
use crate::set_ops::{ExceptOp, IntersectOp, UnionOp};
use crate::sort_limit::{LimitOp, SortLimitOp, SortOp};

/// Whether `plan` is a σ/π (or transparent `Repartition`) chain over a
/// zone-pruning columnar scan — one of the two patterns under which a
/// `SortLimit` shares a [`TopKThreshold`] with what feeds it (the other is
/// a hash join directly beneath it) — and if so, whether every row the
/// scan emits reaches the sort (no σ in between), so the scan may score
/// rows for it: each predicate is then evaluated once per row either way.
fn pruning_scan_scores(plan: &PhysicalPlan) -> Option<bool> {
    match &plan.op {
        PhysicalOp::SeqScan {
            columnar: Some(c), ..
        } => c.zone_prune.then_some(true),
        PhysicalOp::Filter { input, .. } => pruning_scan_scores(input).map(|_| false),
        PhysicalOp::Project { input, .. } | PhysicalOp::Repartition { input } => {
            pruning_scan_scores(input)
        }
        _ => None,
    }
}

/// Collects the names of tables the plan reads through scans the
/// `columnarize` pass annotated.
fn columnar_scanned_tables(plan: &PhysicalPlan, out: &mut Vec<String>) {
    if let PhysicalOp::SeqScan {
        table,
        columnar: Some(_),
        ..
    } = &plan.op
    {
        if !out.iter().any(|t| t == table) {
            out.push(table.clone());
        }
    }
    for c in plan.children() {
        columnar_scanned_tables(c, out);
    }
}

/// Data-derived per-predicate score maxima for a planned query: for every
/// ranking predicate that reads an attribute of a table the plan scans
/// through a **`columnarize`-annotated** sequential scan, the table-wide
/// zone-map maximum of that column (clamped into `[0, 1]`); everything else
/// keeps the global predicate maximum.
///
/// Only tables the plan actually sequentially scans contribute.
///
/// The caps are read through `epochs` — the epoch set the execution will
/// run with — so the fold covers exactly the sealed blocks *and* the tail
/// the scans will stream (a tail row can carry a table's maximal score; a
/// sealed-only fold would be unsound).
///
/// Returns `None` for plans without an annotated scan (rank-scan-only plans
/// and the structural lowering of hand-built plans), which keep their exact
/// upper bounds (and byte-identical intermediate streams).  Install the
/// caps with [`RankingContext::with_predicate_caps`]; rank-aware operators
/// (µ, MPro, HRJN/NRJN) then consume the zone maps through every upper
/// bound they compute — emitting earlier and probing less, without
/// changing results.
pub fn zone_score_caps(
    ranking: &RankingContext,
    catalog: &Catalog,
    plan: &PhysicalPlan,
    epochs: &EpochSet,
) -> Option<Vec<f64>> {
    let mut tables = Vec::new();
    columnar_scanned_tables(plan, &mut tables);
    if tables.is_empty() {
        return None;
    }
    let caps = ranking
        .predicates()
        .iter()
        .map(|p| match &p.source {
            ScoreSource::Attribute(c) => c
                .relation
                .as_ref()
                .filter(|rel| tables.iter().any(|t| t == *rel))
                .and_then(|rel| catalog.table(rel).ok())
                .and_then(|t| {
                    let epoch = epochs.pin(&t);
                    c.resolve(t.schema())
                        .ok()
                        .and_then(|col| epoch.score_max(col))
                })
                .unwrap_or_else(|| ranking.max_predicate_value()),
            ScoreSource::Expression(_) => ranking.max_predicate_value(),
        })
        .collect();
    Some(caps)
}

/// Where the node being lowered gets each input: its child lowered by this
/// same walk ([`build_operator`]), or an operator the caller built
/// ([`build_over_inputs`]).
type Inputs<'a> = dyn FnMut(&PhysicalPlan, &ExecutionContext) -> Result<BoxedOperator> + 'a;

/// Lowers a join's build (inner) side.  Serially that is its input
/// operator, which the join drains on its first pull.  In a morsel lowering
/// the spine's first lowering lowers it through the serial path and drains
/// it with `drain` (which also returns the rows drained) once, and every
/// morsel's join shares the result.
fn build_side<T: Send + Sync + 'static>(
    plan: &PhysicalPlan,
    exec: &ExecutionContext,
    inputs: &mut Inputs<'_>,
    drain: impl FnOnce(&mut dyn PhysicalOperator, usize) -> Result<(usize, T)>,
) -> Result<BuildSide<T>> {
    let built = exec.spine_shared(|serial| {
        let mut input = inputs(plan, serial)?;
        let (rows, table) = drain(input.as_mut(), serial.batch_size())?;
        Ok(Built::new(input.schema().clone(), rows, table))
    })?;
    match built {
        Some(built) => Ok(BuildSide::Built(built)),
        None => Ok(BuildSide::Input(inputs(plan, exec)?)),
    }
}

/// Checks that a plan's ranking-predicate index exists in the context.
fn check_predicate(ctx: &RankingContext, predicate: usize) -> Result<()> {
    if predicate >= ctx.num_predicates() {
        return Err(RankSqlError::Plan(format!(
            "plan references predicate #{predicate} but the query has only {}",
            ctx.num_predicates()
        )));
    }
    Ok(())
}

/// Lowers a physical plan to an operator tree.
///
/// Operators register their metrics in the context's registry bottom-up
/// (inputs before parents), so the registration order is a deterministic
/// post-order walk of `plan` — the cardinality-estimation experiment and
/// `explain_with_actuals` rely on this to pair real and estimated
/// cardinalities per operator.
///
/// Every scan resolves its table through the context's pinned epoch
/// ([`ExecutionContext::pin_epoch`]), so all access paths of one execution
/// read the same row-count watermark and concurrent inserts never shift an
/// open operator tree.
///
/// Rank-scans and attribute-index scans require an index on the scanned
/// table; if none exists one is built over the epoch prefix and cached,
/// and an index lagging the watermark (rows were appended since it was
/// built) is *extended* over the missing suffix — never rebuilt from
/// scratch — mirroring the paper's assumption that such indexes are
/// available as access paths.
///
/// An exchange lowers its spine through this same walk once per morsel,
/// under a morsel context ([`ExchangeOp`]); three arms read it — the scan
/// (the morsel's row range), the hash and nested-loops joins (the spine's
/// drained build side) and the `SortLimit` (the spine's threshold cell).
pub fn build_operator(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    exec: &ExecutionContext,
) -> Result<BoxedOperator> {
    lower(plan, catalog, exec, &mut |child, exec| {
        build_operator(child, catalog, exec)
    })
}

/// Lowers `plan`'s own operator alone, over `inputs` — one operator per
/// child, in child order, typically [`Replay`](crate::operator::Replay)s of
/// streams the caller recorded — instead of lowering its children.  The
/// sampling estimator runs each subplan's root this way over its inputs'
/// kept outputs.  The children of `plan` are never lowered, so they may be
/// [`PhysicalPlan::stand_in`]s; an exchange, which lowers its own spine, is
/// rejected.
pub fn build_over_inputs(
    plan: &PhysicalPlan,
    inputs: Vec<BoxedOperator>,
    catalog: &Catalog,
    exec: &ExecutionContext,
) -> Result<BoxedOperator> {
    let given = inputs.len();
    let mismatch = || {
        RankSqlError::Plan(format!(
            "{} cannot be lowered over {given} given input(s)",
            plan.node_label(None)
        ))
    };
    let mut inputs = inputs.into_iter();
    let op = lower(plan, catalog, exec, &mut |_, _| {
        inputs.next().ok_or_else(mismatch)
    })?;
    match inputs.next() {
        Some(_) => Err(mismatch()),
        None => Ok(op),
    }
}

/// The one lowering walk: instantiates `plan`'s operator, taking each of
/// its inputs from `inputs`.
fn lower(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    exec: &ExecutionContext,
    inputs: &mut Inputs<'_>,
) -> Result<BoxedOperator> {
    let label = plan.node_label(Some(exec.ranking()));
    match &plan.op {
        PhysicalOp::SeqScan {
            table, columnar, ..
        } => {
            let table = catalog.table(table)?;
            let epoch = exec.pin_epoch(&table);
            // The whole pinned epoch — or, in an exchange, one morsel of it.
            let range = exec.morsel_range().unwrap_or(0..epoch.row_count());
            // One prune-dedup bitmap per spine, so a block spanning two
            // morsels counts once.
            let pruned_blocks =
                exec.spine_shared(|_| Ok(ColumnScan::pruned_block_map(epoch.row_count())))?;
            let (pushed_filter, zone_prune) = match columnar {
                Some(c) => (c.pushed_filter.as_ref(), c.zone_prune),
                None => (None, false),
            };
            Ok(Box::new(ColumnScan::new(
                &epoch,
                range,
                pushed_filter,
                zone_prune,
                pruned_blocks,
                exec,
                label,
            )?))
        }
        PhysicalOp::RankScan {
            table, predicate, ..
        } => {
            check_predicate(exec.ranking(), *predicate)?;
            let table = catalog.table(table)?;
            let pred = exec.ranking().predicate(*predicate);
            // The index must cover exactly the pinned epoch's watermark: a
            // lagging cached index is extended over the missing row suffix
            // (evaluating the predicate only on the new rows); a missing one
            // is built over the epoch prefix.  One built past the watermark
            // (by a later execution) is replaced by a private epoch-local
            // build without regressing the shared cache.
            let epoch = exec.pin_epoch(&table);
            let watermark = epoch.row_count();
            let index = match table.score_index(&pred.name) {
                Some(idx) if idx.indexed_rows() == watermark => idx,
                Some(idx) if idx.indexed_rows() < watermark => {
                    let first = idx.indexed_rows();
                    let rows = epoch.tuples(first..watermark)?;
                    let ext = idx.extended(pred, table.schema(), &rows, first as u64)?;
                    table.add_score_index(ext)
                }
                cached => {
                    let rows = epoch.tuples(0..watermark)?;
                    let built = ScoreIndex::build(pred, table.schema(), &rows)?;
                    if cached.is_none() {
                        table.add_score_index(built)
                    } else {
                        Arc::new(built)
                    }
                }
            };
            Ok(Box::new(RankScan::new(
                table, index, *predicate, exec, label,
            )?))
        }
        PhysicalOp::AttributeIndexScan { table, column, .. } => {
            let table = catalog.table(table)?;
            // Same extend-or-build policy as the rank-scan arm above.
            let epoch = exec.pin_epoch(&table);
            let watermark = epoch.row_count();
            let index = match table.btree_index(column) {
                Some(idx) if idx.indexed_rows() == watermark => idx,
                Some(idx) if idx.indexed_rows() < watermark => {
                    let first = idx.indexed_rows();
                    let ext = idx.extended(&epoch.tuples(first..watermark)?, first as u64);
                    table.add_btree_index(ext)
                }
                cached => {
                    let rows = epoch.tuples(0..watermark)?;
                    let built = BTreeIndex::build(column, table.schema(), &rows)?;
                    if cached.is_none() {
                        table.add_btree_index(built)
                    } else {
                        Arc::new(built)
                    }
                }
            };
            Ok(Box::new(AttributeIndexScan::new(
                table, index, exec, label,
            )?))
        }
        PhysicalOp::Filter { input, predicate } => {
            let child = inputs(input, exec)?;
            Ok(Box::new(Filter::new(child, predicate, exec, label)?))
        }
        PhysicalOp::Project { input, columns } => {
            let child = inputs(input, exec)?;
            Ok(Box::new(Project::new(child, columns, exec, label)?))
        }
        PhysicalOp::RankMaterialize { input, predicate } => {
            check_predicate(exec.ranking(), *predicate)?;
            let child = inputs(input, exec)?;
            Ok(Box::new(RankOp::new(child, *predicate, exec, label)?))
        }
        PhysicalOp::MproProbe { input, schedule } => {
            for &p in schedule {
                check_predicate(exec.ranking(), p)?;
            }
            let child = inputs(input, exec)?;
            Ok(Box::new(MProOp::new(child, schedule.clone(), exec, label)?))
        }
        PhysicalOp::NestedLoopsJoin {
            left,
            right,
            condition,
        } => {
            let l = inputs(left, exec)?;
            let r = build_side(right, exec, inputs, collect_build_input)?;
            Ok(Box::new(NestedLoopJoin::new(
                l,
                r,
                condition.as_ref(),
                exec,
                label,
            )?))
        }
        PhysicalOp::HashJoin {
            left,
            right,
            condition,
        } => {
            // Taken before the inputs are lowered: the cell on top of the
            // stack now is the one a `SortLimit` directly above pushed.
            let top_k = exec.pop_prune_threshold();
            let l = inputs(left, exec)?;
            // One scoring serves the join and, when this lowering drains a
            // shared build side, that drain.
            let mut scoring = top_k
                .map(|pushed| TopKScoring::for_join(l.schema(), &right.schema()?, pushed, exec))
                .transpose()?;
            let r = build_side(right, exec, inputs, |input, batch_size| {
                let key_cols = build_key_cols(condition.as_ref(), l.schema(), input.schema());
                hash_build_input(input, &key_cols, batch_size, scoring.as_mut())
            })?;
            let join = HashJoin::new(l, r, condition.as_ref(), exec, label)?;
            Ok(Box::new(join.with_scoring(scoring)))
        }
        PhysicalOp::SortMergeJoin {
            left,
            right,
            condition,
        } => {
            let l = inputs(left, exec)?;
            let r = inputs(right, exec)?;
            Ok(Box::new(SortMergeJoin::new(
                l,
                r,
                condition.as_ref(),
                exec,
                label,
            )?))
        }
        PhysicalOp::HashRankJoin {
            left,
            right,
            condition,
        } => {
            let l = inputs(left, exec)?;
            let r = inputs(right, exec)?;
            Ok(Box::new(RankJoin::hrjn(
                l,
                r,
                condition.as_ref(),
                exec,
                label,
            )?))
        }
        PhysicalOp::NestedLoopsRankJoin {
            left,
            right,
            condition,
        } => {
            let l = inputs(left, exec)?;
            let r = inputs(right, exec)?;
            Ok(Box::new(RankJoin::nrjn(
                l,
                r,
                condition.as_ref(),
                exec,
                label,
            )?))
        }
        PhysicalOp::SetOp { kind, left, right } => {
            let l = inputs(left, exec)?;
            let r = inputs(right, exec)?;
            if l.schema().len() != r.schema().len() {
                return Err(RankSqlError::Plan(
                    "set operation inputs are not union compatible".into(),
                ));
            }
            let op: BoxedOperator = match kind {
                SetOpKind::Union => Box::new(UnionOp::new(l, r, exec, label)),
                SetOpKind::Intersect => Box::new(IntersectOp::new(l, r, exec, label)),
                SetOpKind::Except => Box::new(ExceptOp::new(l, r, exec, label)),
            };
            Ok(op)
        }
        PhysicalOp::Sort { input, predicates } => {
            for p in predicates.iter() {
                check_predicate(exec.ranking(), p)?;
            }
            let child = inputs(input, exec)?;
            Ok(Box::new(SortOp::new(child, *predicates, exec, label)?))
        }
        PhysicalOp::SortLimit {
            input,
            predicates,
            k,
        } => {
            for p in predicates.iter() {
                check_predicate(exec.ranking(), p)?;
            }
            // Threshold feedback: when this top-k sits directly on a hash
            // join, or on a σ/π spine over a zone-pruning columnar scan,
            // hand the pair a shared cell — the heap publishes its worst
            // kept score, the producer does not build rows (the scan also
            // skips blocks) that cannot beat it.  A scan under a σ only
            // skips blocks: it is pushed no predicates to score.  The
            // push/pop protocol is strictly nested because the consumer is
            // reached through a linear operator chain (no other SortLimit
            // can be built in between).  A join's cell is this morsel's
            // own; a scan's is its spine's one, shared by every morsel's
            // scan and top-k.
            let pushed = if matches!(input.op, PhysicalOp::HashJoin { .. }) {
                Some((*predicates, Arc::new(TopKThreshold::new())))
            } else if let Some(scores) = pruning_scan_scores(input) {
                let cell = exec
                    .spine_shared(|_| Ok(TopKThreshold::new()))?
                    .unwrap_or_default();
                let scored = if scores { *predicates } else { BitSet64::EMPTY };
                Some((scored, cell))
            } else {
                None
            };
            let cell = pushed.as_ref().map(|(_, cell)| Arc::clone(cell));
            if let Some((scored, cell)) = pushed {
                exec.push_prune_threshold(scored, cell);
            }
            let child = inputs(input, exec)?;
            let mut op = SortLimitOp::new(child, *predicates, *k, exec, label)?;
            if let Some(cell) = cell {
                op = op.with_threshold(cell);
            }
            Ok(Box::new(op))
        }
        PhysicalOp::Limit { input, k } => {
            let child = inputs(input, exec)?;
            Ok(Box::new(LimitOp::new(child, *k, exec, label)))
        }
        PhysicalOp::Exchange { input, merge } => Ok(Box::new(ExchangeOp::new(
            input, *merge, catalog, exec, label,
        )?)),
        PhysicalOp::Repartition { input } => {
            // A transparent marker over the scan, which in an exchange's
            // morsel lowering reads one morsel.
            let child = inputs(input, exec)?;
            Ok(Box::new(RepartitionPassthrough::new(child, exec, label)))
        }
    }
}

/// The outcome of executing a plan.
#[derive(Debug)]
pub struct ExecutionResult {
    /// The tuples produced by the plan root, in emission order.
    pub tuples: Vec<RankedTuple>,
    /// Per-operator metrics, in bottom-up registration order.
    pub metrics: Arc<MetricsRegistry>,
    /// Wall-clock execution time (building + draining the operator tree).
    pub elapsed: Duration,
    /// Per-predicate evaluation counts accumulated during this execution.
    pub predicate_evaluations: Vec<u64>,
    /// Tuples the scans actually examined (zone-map pruning lowers this —
    /// and only this — for identical results).
    pub tuples_scanned: u64,
    /// Zone-map prune events (block ranges skipped by filter or score
    /// pruning); 0 without zone pruning.  Counted per distinct (scan, block)
    /// even under morsel-parallel execution — a block overlapping several
    /// morsels contributes once.  `tuples_scanned` carries the exact row
    /// savings.
    pub blocks_pruned: u64,
    /// Buffer-pool pages faulted in from disk by sequential scans (0 on
    /// in-memory databases).
    pub pages_faulted: u64,
    /// Pages of paged-out blocks that zone-map pruning skipped — disk reads
    /// that never happened (0 on in-memory databases).
    pub pages_pruned: u64,
}

impl ExecutionResult {
    /// Total ranking-predicate evaluations during this execution.
    pub fn total_predicate_evaluations(&self) -> u64 {
        self.predicate_evaluations.iter().sum()
    }

    /// `(label, tuples_out)` per operator in post-order.
    pub fn actual_cardinalities(&self) -> Vec<(String, u64)> {
        self.metrics.output_cardinalities()
    }

    /// Per-operator runtime actuals (tuples, batches, mean batch fill) in
    /// post-order — the series [`PhysicalPlan::explain_with_actuals`] pairs
    /// against the plan.
    pub fn operator_actuals(&self) -> Vec<ranksql_algebra::OperatorActuals> {
        self.metrics.operator_actuals()
    }
}

/// Builds and fully drains a physical plan under an explicit execution
/// context, collecting results and metrics.
///
/// The root is pulled [`ExecutionContext::batch_size`] tuples at a time;
/// plans whose root is a `Limit` still stop early because `Limit` caps what
/// it requests from its input per call.
///
/// The ranking context's evaluation counters are snapshotted around the run
/// so that [`ExecutionResult::predicate_evaluations`] reflects only this
/// execution.
pub fn execute_physical_plan(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    exec: &ExecutionContext,
) -> Result<ExecutionResult> {
    let before = exec.ranking().counters().snapshot();
    let scanned_before = exec.budget().used();
    let pruned_before = exec.blocks_pruned();
    let faulted_before = exec.pages_faulted();
    let pages_pruned_before = exec.pages_pruned();
    let start = Instant::now();
    let mut root = build_operator(plan, catalog, exec)?;
    let tuples = drain_batched(root.as_mut(), exec.batch_size())?;
    let elapsed = start.elapsed();
    let after = exec.ranking().counters().snapshot();
    let predicate_evaluations = after
        .iter()
        .zip(before.iter())
        .map(|(a, b)| a - b)
        .collect();
    Ok(ExecutionResult {
        tuples,
        metrics: Arc::clone(exec.metrics()),
        elapsed,
        predicate_evaluations,
        tuples_scanned: exec.budget().used() - scanned_before,
        blocks_pruned: exec.blocks_pruned() - pruned_before,
        pages_faulted: exec.pages_faulted() - faulted_before,
        pages_pruned: exec.pages_pruned() - pages_pruned_before,
    })
}

/// Convenience wrapper: structurally lowers a logical plan (zero-cost
/// annotations) and executes it with a fresh unlimited context.
pub fn execute_plan(
    plan: &LogicalPlan,
    catalog: &Catalog,
    ctx: &Arc<RankingContext>,
) -> Result<ExecutionResult> {
    let physical = PhysicalPlan::from_logical(plan)?;
    let exec = ExecutionContext::new(Arc::clone(ctx));
    execute_physical_plan(&physical, catalog, &exec)
}

/// Convenience wrapper taking the ranking context from a
/// [`ranksql_algebra::RankQuery`].
pub fn execute_query_plan(
    query: &ranksql_algebra::RankQuery,
    plan: &LogicalPlan,
    catalog: &Catalog,
) -> Result<ExecutionResult> {
    execute_plan(plan, catalog, &query.ranking)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::oracle_top_k;
    use ranksql_algebra::{JoinAlgorithm, RankQuery, ScanAccess};
    use ranksql_common::{BitSet64, DataType, Field, Schema, Value};
    use ranksql_expr::{BoolExpr, RankPredicate, ScoringFunction};

    /// Builds a two-table catalog and a ranking query over it.
    fn setup(rows: usize) -> (Catalog, RankQuery) {
        let cat = Catalog::new();
        let r = cat
            .create_table(
                "R",
                Schema::new(vec![
                    Field::new("a", DataType::Int64),
                    Field::new("p1", DataType::Float64),
                    Field::new("flag", DataType::Bool),
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
        // Deterministic pseudo-random content.
        for i in 0..rows {
            let a = (i * 7 % 13) as i64;
            let p1 = ((i * 37 % 100) as f64) / 100.0;
            r.insert(vec![
                Value::from(a),
                Value::from(p1),
                Value::from(i % 3 != 0),
            ])
            .unwrap();
            let a2 = (i * 5 % 13) as i64;
            let p2 = ((i * 61 % 100) as f64) / 100.0;
            s.insert(vec![Value::from(a2), Value::from(p2)]).unwrap();
        }
        let ranking = RankingContext::new(
            vec![
                RankPredicate::attribute("p1", "R.p1"),
                RankPredicate::attribute("p2", "S.p2"),
            ],
            ScoringFunction::Sum,
        );
        let query = RankQuery::new(
            vec!["R".into(), "S".into()],
            vec![
                BoolExpr::col_eq_col("R.a", "S.a"),
                BoolExpr::column_is_true("R.flag"),
            ],
            ranking,
            5,
        );
        (cat, query)
    }

    fn scores(query: &RankQuery, tuples: &[RankedTuple]) -> Vec<f64> {
        tuples
            .iter()
            .map(|t| query.ranking.upper_bound(&t.state).value())
            .collect()
    }

    #[test]
    fn canonical_plan_matches_oracle() {
        let (cat, query) = setup(40);
        let plan = query.canonical_plan(&cat).unwrap();
        let result = execute_query_plan(&query, &plan, &cat).unwrap();
        let oracle = oracle_top_k(&query, &cat).unwrap();
        assert_eq!(result.tuples.len(), oracle.len());
        assert_eq!(scores(&query, &result.tuples), scores(&query, &oracle));
    }

    #[test]
    fn pipelined_rank_plan_matches_oracle() {
        let (cat, query) = setup(40);
        let r = cat.table("R").unwrap();
        let s = cat.table("S").unwrap();
        // RankScan_p1(R) filtered, HRJN with µ_p2 over SeqScan(S), limit k.
        let plan = ranksql_algebra::LogicalPlan::rank_scan(&r, 0)
            .select(BoolExpr::column_is_true("R.flag"))
            .join(
                ranksql_algebra::LogicalPlan::scan(&s).rank(1),
                Some(BoolExpr::col_eq_col("R.a", "S.a")),
                JoinAlgorithm::HashRankJoin,
            )
            .limit(query.k);
        let result = execute_query_plan(&query, &plan, &cat).unwrap();
        let oracle = oracle_top_k(&query, &cat).unwrap();
        assert_eq!(scores(&query, &result.tuples), scores(&query, &oracle));
        assert!(result.tuples.len() <= query.k);
    }

    #[test]
    fn equivalent_plans_from_the_laws_agree_on_results() {
        let (cat, query) = setup(25);
        let canonical = query.canonical_plan(&cat).unwrap();
        let expected = scores(&query, &oracle_top_k(&query, &cat).unwrap());
        let alternatives = ranksql_algebra::equivalent_plans(&canonical, &query, 40);
        assert!(alternatives.len() > 3);
        for plan in alternatives {
            let result = execute_query_plan(&query, &plan, &cat).unwrap();
            assert_eq!(
                scores(&query, &result.tuples),
                expected,
                "plan disagreed with oracle:\n{}",
                plan.explain(Some(&query.ranking))
            );
        }
    }

    #[test]
    fn metrics_and_counters_are_reported() {
        let (cat, query) = setup(30);
        let r = cat.table("R").unwrap();
        // Sort directly under Limit fuses into one SortLimit operator, so the
        // physical tree has 3 nodes: SeqScan → Rank_p1 → SortLimit.
        let plan = ranksql_algebra::LogicalPlan::scan(&r)
            .rank(0)
            .sort(BitSet64::singleton(0))
            .limit(3);
        let result = execute_plan(&plan, &cat, &query.ranking).unwrap();
        assert_eq!(result.tuples.len(), 3);
        assert_eq!(result.metrics.len(), 3);
        let labels: Vec<String> = result
            .actual_cardinalities()
            .iter()
            .map(|(l, _)| l.clone())
            .collect();
        assert!(labels[2].starts_with("SortLimit["), "{labels:?}");
        assert_eq!(result.predicate_evaluations[0], 30);
        assert_eq!(result.predicate_evaluations[1], 0);
        assert_eq!(result.total_predicate_evaluations(), 30);
        assert!(result.elapsed.as_nanos() > 0);
    }

    #[test]
    fn fused_sort_limit_matches_unfused_sort_plus_limit() {
        let (cat, query) = setup(60);
        let r = cat.table("R").unwrap();
        let logical = ranksql_algebra::LogicalPlan::scan(&r)
            .sort(BitSet64::singleton(0))
            .limit(7);
        // Fused execution (the default structural lowering).
        let fused = execute_plan(&logical, &cat, &query.ranking).unwrap();
        // Hand-built unfused physical plan: Sort then Limit as two nodes.
        let scan = PhysicalPlan::from_logical(&ranksql_algebra::LogicalPlan::scan(&r)).unwrap();
        let unfused = PhysicalPlan::unestimated(PhysicalOp::Limit {
            input: Box::new(PhysicalPlan::unestimated(PhysicalOp::Sort {
                input: Box::new(scan),
                predicates: BitSet64::singleton(0),
            })),
            k: 7,
        });
        let exec = ExecutionContext::new(Arc::clone(&query.ranking));
        let reference = execute_physical_plan(&unfused, &cat, &exec).unwrap();
        assert_eq!(
            scores(&query, &fused.tuples),
            scores(&query, &reference.tuples)
        );
        let ids_fused: Vec<_> = fused.tuples.iter().map(|t| t.tuple.id().clone()).collect();
        let ids_ref: Vec<_> = reference
            .tuples
            .iter()
            .map(|t| t.tuple.id().clone())
            .collect();
        assert_eq!(ids_fused, ids_ref);
    }

    #[test]
    fn rank_scan_builds_missing_index_on_demand() {
        let (cat, query) = setup(10);
        let r = cat.table("R").unwrap();
        assert!(r.score_index("p1").is_none());
        let plan = ranksql_algebra::LogicalPlan::rank_scan(&r, 0).limit(2);
        let result = execute_plan(&plan, &cat, &query.ranking).unwrap();
        assert_eq!(result.tuples.len(), 2);
        assert!(r.score_index("p1").is_some());
    }

    #[test]
    fn rank_scan_extends_the_index_after_inserts() {
        let (cat, query) = setup(10);
        let r = cat.table("R").unwrap();
        let plan = ranksql_algebra::LogicalPlan::rank_scan(&r, 0).limit(3);
        execute_plan(&plan, &cat, &query.ranking).unwrap();
        assert!(r.score_index("p1").is_some());

        // Insert a new best row: the index is kept (it still covers its
        // epoch prefix) and lags the table by exactly the new row.
        r.insert(vec![Value::from(1), Value::from(0.999), Value::from(true)])
            .unwrap();
        let kept = r.score_index("p1").expect("insert must keep the index");
        assert_eq!(kept.indexed_rows(), 10, "kept index covers its epoch");

        // The next execution extends the index over the missing suffix, so
        // the new row must surface as the top result (a silently stale
        // index would miss it).
        let result = execute_plan(&plan, &cat, &query.ranking).unwrap();
        let top = query.ranking.upper_bound(&result.tuples[0].state).value();
        let n = query.ranking.num_predicates() as f64;
        assert!((top - (0.999 + (n - 1.0))).abs() < 1e-9, "top={top}");
        assert_eq!(r.score_index("p1").unwrap().indexed_rows(), 11);
    }

    #[test]
    fn lagging_cached_index_is_extended_not_fatal() {
        let (cat, query) = setup(10);
        let r = cat.table("R").unwrap();
        let pred = query.ranking.predicate(0);
        // An index built before an insert is cached after it: a valid
        // prefix epoch, lagging the table by one row.
        let lagging = ScoreIndex::build(pred, r.schema(), &r.scan()).unwrap();
        r.insert(vec![Value::from(1), Value::from(0.999), Value::from(true)])
            .unwrap();
        r.add_score_index(lagging);
        assert_ne!(r.score_index("p1").unwrap().indexed_rows(), r.row_count());

        // The executor extends the cached prefix over the missing suffix
        // and returns the current top row.
        let plan = ranksql_algebra::LogicalPlan::rank_scan(&r, 0).limit(1);
        let result = execute_plan(&plan, &cat, &query.ranking).unwrap();
        let top = query.ranking.upper_bound(&result.tuples[0].state).value();
        assert!((top - (0.999 + 1.0)).abs() < 1e-9, "top={top}");
        assert_eq!(r.score_index("p1").unwrap().indexed_rows(), r.row_count());
    }

    #[test]
    fn stale_index_handles_are_rejected_with_a_catalog_error() {
        let (cat, query) = setup(10);
        let r = cat.table("R").unwrap();
        let pred = query.ranking.predicate(0);
        let stale = Arc::new(ScoreIndex::build(pred, r.schema(), &r.scan()).unwrap());
        r.insert(vec![Value::from(1), Value::from(0.5), Value::from(true)])
            .unwrap();
        let exec = ExecutionContext::new(Arc::clone(&query.ranking));
        let err = match RankScan::new(Arc::clone(&r), stale, 0, &exec, "RankScan") {
            Err(e) => e,
            Ok(_) => panic!("stale index handle must be rejected"),
        };
        assert!(matches!(err, RankSqlError::Catalog(_)), "{err:?}");
        assert!(err.to_string().contains("stale"), "{err}");
    }

    #[test]
    fn tuple_budget_aborts_runaway_scans() {
        let (cat, query) = setup(30);
        let plan = query.canonical_plan(&cat).unwrap();
        let physical = PhysicalPlan::from_logical(&plan).unwrap();
        // The canonical plan scans 30 + 30 tuples; a budget of 10 must trip.
        let exec = ExecutionContext::with_budget(Arc::clone(&query.ranking), 10);
        let err = execute_physical_plan(&physical, &cat, &exec).unwrap_err();
        assert!(err.to_string().contains("tuple budget exceeded"), "{err}");
        // An ample budget executes normally.
        let exec = ExecutionContext::with_budget(Arc::clone(&query.ranking), 100);
        let ok = execute_physical_plan(&physical, &cat, &exec).unwrap();
        assert_eq!(ok.tuples.len(), query.k.min(ok.tuples.len()));
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let (cat, query) = setup(5);
        let r = cat.table("R").unwrap();
        // Unknown predicate index.
        let bad = ranksql_algebra::LogicalPlan::scan(&r).rank(9);
        assert!(execute_plan(&bad, &cat, &query.ranking).is_err());
        // Unknown table.
        let ghost = ranksql_algebra::LogicalPlan::Scan {
            table: "Ghost".into(),
            schema: r.schema().clone(),
            access: ScanAccess::Sequential,
        };
        assert!(execute_plan(&ghost, &cat, &query.ranking).is_err());
    }
}
