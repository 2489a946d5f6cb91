//! Index access operators: rank-scan and attribute index scan.  Both read
//! the rows an index names through the pinned epoch
//! ([`TableEpoch::read`]), faulting paged blocks in through the buffer
//! pool; the sequential scan is [`ColumnScan`](crate::column_scan::ColumnScan).

use std::sync::Arc;

use ranksql_common::{RankSqlError, Result, Schema};
use ranksql_expr::{RankedTuple, RankingContext};
use ranksql_storage::{BTreeIndex, ScoreIndex, Table, TableEpoch};

use crate::context::{ExecutionContext, TupleBudget};
use crate::metrics::OperatorMetrics;
use crate::operator::{Batch, PhysicalOperator};

/// Rank-scan (`idxScan_p`): emits tuples in descending order of one ranking
/// predicate's score, read from a pre-built [`ScoreIndex`].
///
/// The emitted tuples carry `P = {p}` — the predicate is *not* re-evaluated
/// at query time (that is the point of having the index), so rank-scans do
/// not contribute to the predicate-evaluation counters.
pub struct RankScan {
    schema: Schema,
    /// The pinned epoch every row is read through: an index entry past its
    /// watermark errors as stale instead of silently leaking a post-pin
    /// insert into the results.
    epoch: Arc<TableEpoch>,
    index: Arc<ScoreIndex>,
    predicate: usize,
    pos: usize,
    ctx: Arc<RankingContext>,
    metrics: Arc<OperatorMetrics>,
    budget: Arc<TupleBudget>,
}

impl RankScan {
    /// Creates a rank-scan over `table` for the context predicate `predicate`
    /// using `index` (which must cover that predicate and be current for the
    /// execution's pinned epoch — the plan builder extends lagging indexes
    /// over the missing row suffix before handing them here).
    pub fn new(
        table: Arc<Table>,
        index: Arc<ScoreIndex>,
        predicate: usize,
        exec: &ExecutionContext,
        label: impl Into<String>,
    ) -> Result<Self> {
        let ctx = exec.ranking_arc();
        let expected = &ctx.predicate(predicate).name;
        if index.predicate_name() != expected {
            return Err(RankSqlError::Execution(format!(
                "rank-scan index covers predicate `{}` but the plan asks for `{expected}`",
                index.predicate_name()
            )));
        }
        let epoch = exec.pin_epoch(&table);
        if index.indexed_rows() != epoch.row_count() {
            return Err(RankSqlError::Catalog(format!(
                "score index on `{}` of table `{}` is stale: built over {} rows, epoch has {}",
                index.predicate_name(),
                table.name(),
                index.indexed_rows(),
                epoch.row_count()
            )));
        }
        Ok(RankScan {
            schema: table.schema().clone(),
            epoch,
            index,
            predicate,
            pos: 0,
            ctx,
            metrics: exec.register(label),
            budget: Arc::clone(exec.budget()),
        })
    }
}

impl PhysicalOperator for RankScan {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> Result<usize> {
        // A batch is a contiguous run of index entries, so the descending
        // score order is preserved exactly.
        let n_preds = self.ctx.num_predicates();
        let run = entry_run(self.index.entries(), self.pos, max);
        let before = out.len();
        let rows = run.iter().map(|&(_, row)| row as usize);
        self.epoch
            .read(rows, |t| out.push(RankedTuple::unranked(t, n_preds)))?;
        for (rt, (score, _)) in out[before..].iter_mut().zip(run) {
            rt.state.set(self.predicate, score.value());
        }
        let n = run.len();
        self.pos += n;
        if n > 0 {
            self.budget.charge(n as u64)?;
            self.metrics.add_in(n as u64);
            self.metrics.add_out(n as u64);
            self.metrics.add_batch();
        }
        Ok(n)
    }

    fn can_extend_limit(&self) -> bool {
        true // A scan imposes no top-k cap.
    }

    fn extend_limit(&mut self, _extra: usize) -> bool {
        true // A scan imposes no top-k cap.
    }
}

/// The run of at most `max` index entries starting at `pos`.
fn entry_run<T>(entries: &[T], pos: usize, max: usize) -> &[T] {
    let rest = entries.get(pos..).unwrap_or_default();
    &rest[..max.min(rest.len())]
}

/// Ordered scan over an attribute index (ascending attribute order).
///
/// The output carries no ranking information (`P = ∅`) but has the physical
/// *interesting order* property on the indexed column, which sort-merge joins
/// exploit.
pub struct AttributeIndexScan {
    schema: Schema,
    /// The pinned epoch every row is read through (see [`RankScan::epoch`]).
    epoch: Arc<TableEpoch>,
    index: Arc<BTreeIndex>,
    pos: usize,
    ctx: Arc<RankingContext>,
    metrics: Arc<OperatorMetrics>,
    budget: Arc<TupleBudget>,
}

impl AttributeIndexScan {
    /// Creates an ordered attribute scan; the index must be current for the
    /// execution's pinned epoch (the plan builder extends lagging indexes
    /// over the missing row suffix before handing them here).
    pub fn new(
        table: Arc<Table>,
        index: Arc<BTreeIndex>,
        exec: &ExecutionContext,
        label: impl Into<String>,
    ) -> Result<Self> {
        let epoch = exec.pin_epoch(&table);
        if index.indexed_rows() != epoch.row_count() {
            return Err(RankSqlError::Catalog(format!(
                "attribute index on `{}` of table `{}` is stale: built over {} rows, epoch has {}",
                index.column_name(),
                table.name(),
                index.indexed_rows(),
                epoch.row_count()
            )));
        }
        Ok(AttributeIndexScan {
            schema: table.schema().clone(),
            epoch,
            index,
            pos: 0,
            ctx: exec.ranking_arc(),
            metrics: exec.register(label),
            budget: Arc::clone(exec.budget()),
        })
    }
}

impl PhysicalOperator for AttributeIndexScan {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> Result<usize> {
        let n_preds = self.ctx.num_predicates();
        let run = entry_run(self.index.entries(), self.pos, max);
        let rows = run.iter().map(|&(_, row)| row as usize);
        self.epoch
            .read(rows, |t| out.push(RankedTuple::unranked(t, n_preds)))?;
        let n = run.len();
        self.pos += n;
        if n > 0 {
            self.budget.charge(n as u64)?;
            self.metrics.add_in(n as u64);
            self.metrics.add_out(n as u64);
            self.metrics.add_batch();
        }
        Ok(n)
    }

    fn is_ranked(&self) -> bool {
        // Ordered by the attribute, not by upper bound — but with P = ∅ all
        // upper bounds are equal, so the rank contract still holds.
        true
    }

    fn can_extend_limit(&self) -> bool {
        true // A scan imposes no top-k cap.
    }

    fn extend_limit(&mut self, _extra: usize) -> bool {
        true // A scan imposes no top-k cap.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{check_rank_order, drain_batched};
    use ranksql_common::{DataType, Field, Value};
    use ranksql_expr::{RankPredicate, ScoringFunction};
    use ranksql_storage::TableBuilder;

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
        let t = TableBuilder::new("S", schema)
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
            .unwrap();
        Arc::new(t)
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

    #[test]
    fn rank_scan_emits_in_descending_p3_order() {
        let t = table_s();
        let ctx = ctx_s();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let idx = Arc::new(ScoreIndex::build(ctx.predicate(0), t.schema(), &t.scan()).unwrap());
        let mut scan = RankScan::new(Arc::clone(&t), idx, 0, &exec, "RankScan").unwrap();
        let all = drain_batched(&mut scan, 4).unwrap();
        assert_eq!(all.len(), 6);
        // Figure 2(f): s2 (p3=0.9) first, upper bound 2.9.
        assert_eq!(
            ctx.upper_bound(&all[0].state),
            ranksql_common::Score::new(2.9)
        );
        assert_eq!(all[0].tuple.value(0), &Value::from(1));
        assert_eq!(check_rank_order(&all, &ctx), None);
        // p3 is marked evaluated; p4/p5 are not.
        assert!(all[0].state.is_evaluated(0));
        assert!(!all[0].state.is_evaluated(1));
    }

    #[test]
    fn rank_scan_rejects_mismatched_index() {
        let t = table_s();
        let ctx = ctx_s();
        let exec = ExecutionContext::new(ctx);
        let idx_p4 = Arc::new(
            ScoreIndex::build(exec.ranking().predicate(1), t.schema(), &t.scan()).unwrap(),
        );
        let err = RankScan::new(Arc::clone(&t), idx_p4, 0, &exec, "RankScan");
        assert!(err.is_err());
    }

    #[test]
    fn attribute_index_scan_orders_by_column() {
        let t = table_s();
        let ctx = ctx_s();
        let exec = ExecutionContext::new(ctx);
        let idx = Arc::new(BTreeIndex::build("S.a", t.schema(), &t.scan()).unwrap());
        let mut scan = AttributeIndexScan::new(Arc::clone(&t), idx, &exec, "IdxScan(S.a)").unwrap();
        let all = drain_batched(&mut scan, 4).unwrap();
        let a_vals: Vec<i64> = all
            .iter()
            .map(|t| t.tuple.value(0).as_i64().unwrap())
            .collect();
        let mut sorted = a_vals.clone();
        sorted.sort();
        assert_eq!(a_vals, sorted);
    }
}
