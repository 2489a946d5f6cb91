//! Query results: ranked rows plus execution statistics.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use ranksql_algebra::{PhysicalPlan, RankQuery};
use ranksql_common::{Result, Schema};
use ranksql_executor::{ExecutionResult, MetricsRegistry};
use ranksql_expr::{RankedTuple, RankingContext};
use ranksql_storage::StatsCatalog;

use crate::database::PlanCacheLookup;

/// Renders one `statistics[T]` line for `explain_analyze`: the row count
/// plus each column's NDV as the planner saw it — `=` when the staged
/// sketch is still exact (small / array stages), `~` when it comes from the
/// HLL registers.
fn stats_line(table: &str, catalog: &StatsCatalog) -> String {
    let cols: Vec<String> = catalog
        .columns
        .iter()
        .map(|c| {
            let marker = if c.sketch.is_exact() { '=' } else { '~' };
            let name = c.name.rsplit('.').next().unwrap_or(&c.name);
            format!("{name} ndv{marker}{}", c.ndv())
        })
        .collect();
    format!(
        "statistics[{table}]: rows={} ({})",
        catalog.row_count,
        cols.join(", ")
    )
}

/// The `explain_analyze` text of an execution, shared by results and
/// cursors: the plan-cache outcome (when the execution came through a
/// prepared statement), one `statistics[T]` line per table with built
/// statistics, the paged-storage counts (when any page was faulted or
/// pruned), the parallelism (when an exchange ran), then `plan` — the
/// physical tree with its actuals.
pub(crate) fn analyzed(
    plan_cache: Option<&PlanCacheLookup>,
    table_stats: &[(String, Arc<StatsCatalog>)],
    (pages_faulted, pages_pruned): (u64, u64),
    (threads, morsels): (usize, u64),
    plan: String,
) -> String {
    let mut out = String::new();
    if let Some(cache) = plan_cache {
        out.push_str(&cache.to_line());
        out.push('\n');
    }
    for (table, catalog) in table_stats {
        out.push_str(&stats_line(table, catalog));
        out.push('\n');
    }
    if pages_faulted > 0 || pages_pruned > 0 {
        out.push_str(&format!(
            "paged storage: pages_faulted={pages_faulted}, pages_pruned={pages_pruned}\n"
        ));
    }
    if morsels > 0 {
        out.push_str(&format!("parallel: threads={threads} morsels={morsels}\n"));
    }
    out.push_str(&plan);
    out
}

/// The result of executing a top-k query.
#[derive(Debug)]
pub struct QueryResult {
    /// The result rows, best first.
    pub rows: Vec<RankedTuple>,
    /// The schema of the rows.
    pub schema: Schema,
    /// The physical plan that produced the rows.
    pub physical: PhysicalPlan,
    /// Final query scores of the rows (same order).
    scores: Vec<f64>,
    /// Per-operator runtime metrics of the executed plan.
    pub metrics: Arc<MetricsRegistry>,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Number of evaluations of each ranking predicate during execution.
    pub predicate_evaluations: Vec<u64>,
    /// Tuples the scans actually examined.  Zone-map pruning lowers this —
    /// and only this — for identical results.
    pub tuples_scanned: u64,
    /// Zone-map prune events (block ranges skipped by filter or score
    /// pruning); 0 without zone pruning.  Counted per distinct (scan, block)
    /// even under morsel-parallel execution — a block overlapping several
    /// morsels contributes once.  `tuples_scanned` carries the exact row
    /// savings.
    pub blocks_pruned: u64,
    /// Pages faulted in from disk by sequential scans of a paged database
    /// (16 KiB units); 0 on in-memory databases and for buffer-pool hits.  Each block faults at most once per scan — late
    /// materialization reuses the admitted block.
    pub pages_faulted: u64,
    /// Pages that zone-map pruning kept from ever being read (the on-disk
    /// footprint of the pruned blocks); 0 on in-memory databases.  A
    /// pruned block is a page never read: together with `pages_faulted`
    /// this quantifies the I/O the pruning saved.
    pub pages_pruned: u64,
    /// The worker threads the execution could fan a sort's input across.
    pub threads: usize,
    /// Morsel pipelines the execution's exchanges ran; 0 when every sort
    /// ran serially (one thread, or no sort over a spine).
    pub morsels: u64,
    /// The plan-cache outcome when this execution came through a prepared
    /// statement (`None` for hand-built plans executed directly).
    pub plan_cache: Option<PlanCacheLookup>,
    /// Snapshot of each referenced table's statistics catalog as it stood
    /// when the cursor opened (the statistics the planner had available).
    /// Empty when no table had built statistics yet — e.g. canonical-mode
    /// plans that bypass the optimizer.
    pub table_stats: Vec<(String, Arc<StatsCatalog>)>,
}

impl QueryResult {
    /// Builds a result from a finished execution of `physical`.
    pub fn from_execution(
        query: &RankQuery,
        physical: &PhysicalPlan,
        execution: ExecutionResult,
    ) -> Result<Self> {
        QueryResult::from_ranking(&query.ranking, physical, execution)
    }

    /// Like [`QueryResult::from_execution`] but taking the ranking context
    /// directly (what a [`Cursor`](crate::Cursor) holds).
    pub fn from_ranking(
        ranking: &Arc<RankingContext>,
        physical: &PhysicalPlan,
        execution: ExecutionResult,
    ) -> Result<Self> {
        let schema = physical.schema()?;
        let scores = execution
            .tuples
            .iter()
            .map(|t| ranking.upper_bound(&t.state).value())
            .collect();
        Ok(QueryResult {
            rows: execution.tuples,
            schema,
            physical: physical.clone(),
            scores,
            metrics: execution.metrics,
            elapsed: execution.elapsed,
            predicate_evaluations: execution.predicate_evaluations,
            tuples_scanned: execution.tuples_scanned,
            blocks_pruned: execution.blocks_pruned,
            pages_faulted: execution.pages_faulted,
            pages_pruned: execution.pages_pruned,
            threads: execution.threads,
            morsels: execution.morsels,
            plan_cache: None,
            table_stats: Vec::new(),
        })
    }

    /// The executed physical tree annotated with each operator's runtime
    /// actuals (`EXPLAIN ANALYZE`-style): tuples produced, and — for
    /// operators that produced any — the number of batches emitted and the
    /// mean batch fill.  Executions that came
    /// through a prepared statement are prefixed with the plan-cache
    /// outcome (`plan cache: hit (hits=…, misses=…, entries=…)`) and one
    /// `statistics[T]` line per referenced table with built statistics
    /// (row count and per-column NDV from the staged sketches); one that
    /// ran an exchange with `parallel: threads=T morsels=M`.  Under an
    /// exchange a sort's actuals count every morsel's run.
    pub fn explain_analyze(&self, ctx: Option<&RankingContext>) -> String {
        analyzed(
            self.plan_cache.as_ref(),
            &self.table_stats,
            (self.pages_faulted, self.pages_pruned),
            (self.threads, self.morsels),
            self.physical
                .explain_with_actuals(ctx, &self.metrics.operator_actuals()),
        )
    }

    /// The final score of each returned row, best first.
    pub fn scores(&self) -> Vec<f64> {
        self.scores.clone()
    }

    /// Total ranking-predicate evaluations during execution.
    pub fn total_predicate_evaluations(&self) -> u64 {
        self.predicate_evaluations.iter().sum()
    }

    /// Renders the result as a small text table (used by the examples).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let header: Vec<String> = std::iter::once("score".to_owned())
            .chain(self.schema.fields().iter().map(|f| f.qualified_name()))
            .collect();
        out.push_str(&header.join(" | "));
        out.push('\n');
        out.push_str(&"-".repeat(header.join(" | ").len()));
        out.push('\n');
        for (row, score) in self.rows.iter().zip(self.scores.iter()) {
            let mut cells = vec![format!("{score:.4}")];
            cells.extend(row.tuple.values().iter().map(|v| v.to_string()));
            out.push_str(&cells.join(" | "));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for QueryResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryBuilder;
    use crate::database::Database;
    use ranksql_common::{DataType, Field, Value};
    use ranksql_expr::RankPredicate;

    #[test]
    fn result_exposes_scores_table_and_metrics() {
        let db = Database::new();
        db.create_table(
            "T",
            Schema::new(vec![
                Field::new("name", DataType::Utf8),
                Field::new("score", DataType::Float64),
            ]),
        )
        .unwrap();
        for (n, s) in [("a", 0.3), ("b", 0.9), ("c", 0.6)] {
            db.insert("T", vec![Value::from(n), Value::from(s)])
                .unwrap();
        }
        let q = QueryBuilder::new()
            .table("T")
            .rank_predicate(RankPredicate::attribute("p", "T.score"))
            .limit(2)
            .build()
            .unwrap();
        let r = db
            .execute_with_mode(&q, crate::PlanMode::Canonical)
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.scores(), vec![0.9, 0.6]);
        let table = r.to_table();
        assert!(table.contains("T.name"));
        assert!(table.contains("0.9000"));
        assert!(table.contains("'b'"));
        assert!(r.total_predicate_evaluations() >= 3);
        assert!(!r.metrics.is_empty());
        assert_eq!(format!("{r}"), table);
    }
}
