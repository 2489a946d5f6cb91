//! Streaming cursors: a lazy pull handle over the live physical operator
//! tree.
//!
//! A [`Cursor`] is the non-draining root of an execution.  Opening one
//! builds the operator tree (including the morsel pipelines of any sort it
//! runs in parallel) and *nothing else*; every [`Cursor::next`] / [`Cursor::take`] pulls just
//! enough from the tree to produce the requested rows.  On the paper's
//! incremental ranking plans (rank-scans, µ, MPro, HRJN/NRJN) that means
//! first-result latency and total work track `k` — asking for the top 3 of
//! a million-row join consumes a few dozen input tuples, not the join.
//!
//! [`Cursor::fetch_more`] extends a finished top-k *past* the original
//! limit by raising the plan's limit caps
//! ([`PhysicalOperator::extend_limit`]) and resuming the incremental
//! operators exactly where they stopped — the cheap "next k" the eager API
//! could never offer.  Blocking plans that discarded tuples (bounded-heap
//! top-k sorts, serial or per morsel) refuse the extension with a
//! clear error instead of returning wrong rows.
//!
//! [`PhysicalOperator::extend_limit`]: ranksql_executor::PhysicalOperator::extend_limit

use std::sync::Arc;
use std::time::Instant;

use ranksql_algebra::{PhysicalOp, PhysicalPlan, RankQuery};
use ranksql_common::{RankSqlError, Result, Schema};
use ranksql_executor::{
    build_operator, Batch, BoxedOperator, ExecutionContext, ExecutionResult, MetricsRegistry,
};
use ranksql_expr::{RankedTuple, RankingContext};
use ranksql_storage::{Catalog, StatsCatalog};

use crate::database::PlanCacheLookup;
use crate::result::{analyzed, QueryResult};
use crate::session::SessionSettings;

/// The statistics catalog of every table the plan scans — but only the
/// *already built* ones ([`ranksql_storage::Table::cached_stats`]), so
/// opening a cursor never pays for a statistics build the planner did not
/// do itself.  Plans that went through the optimizer have them (the
/// estimators prime the catalogs); canonical-mode plans usually yield none.
/// Each is the table's shared merged catalog, so an open merges nothing
/// unless a table took an insert since the last read.
fn planner_table_stats(catalog: &Catalog, plan: &PhysicalPlan) -> Vec<(String, Arc<StatsCatalog>)> {
    let mut stats: Vec<(String, Arc<StatsCatalog>)> = Vec::new();
    for node in plan.post_order() {
        let table = match &node.op {
            PhysicalOp::SeqScan { table, .. }
            | PhysicalOp::RankScan { table, .. }
            | PhysicalOp::AttributeIndexScan { table, .. } => table,
            _ => continue,
        };
        if stats.iter().any(|(name, _)| name == table) {
            continue;
        }
        if let Some(cached) = catalog.table(table).ok().and_then(|t| t.cached_stats()) {
            stats.push((table.clone(), cached));
        }
    }
    stats
}

/// A streaming handle over one live query execution.
///
/// Obtained from [`BoundQuery::cursor`](crate::BoundQuery::cursor) (or the
/// [`Session::query`](crate::Session::query) one-liner).  The cursor owns
/// the operator tree and its [`ExecutionContext`]; dropping it abandons the
/// execution, [`Cursor::into_result`] drains the remainder into an eager
/// [`QueryResult`].
///
/// `Cursor` implements [`Iterator`] (over `Result<RankedTuple>`), so
/// `for row in cursor { ... }` streams rows as the operators produce them.
pub struct Cursor {
    root: BoxedOperator,
    exec: ExecutionContext,
    schema: Schema,
    physical: PhysicalPlan,
    ranking: Arc<RankingContext>,
    start: Instant,
    counters_before: Vec<u64>,
    plan_cache: Option<PlanCacheLookup>,
    table_stats: Vec<(String, Arc<StatsCatalog>)>,
    exhausted: bool,
    emitted: u64,
}

impl std::fmt::Debug for Cursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cursor")
            .field("emitted", &self.emitted)
            .field("exhausted", &self.exhausted)
            .field("plan", &self.physical.node_label(Some(&self.ranking)))
            .finish()
    }
}

impl Cursor {
    /// Builds the operator tree for `physical` and wraps it in a cursor.
    /// No tuple is pulled yet.
    pub(crate) fn open(
        catalog: &Catalog,
        settings: &SessionSettings,
        query: &RankQuery,
        physical: PhysicalPlan,
        plan_cache: Option<PlanCacheLookup>,
    ) -> Result<Cursor> {
        // Last line of defence before operators are built: the plan about
        // to execute must validate clean *with every parameter bound* —
        // catches a cached shape that was rebound or limit-extended
        // incoherently.  Gated like the optimizer-pass hooks: builds with
        // `debug_assertions` only.
        if cfg!(debug_assertions) {
            let diags = ranksql_verify::validate_physical(
                &physical,
                Some(&query.ranking),
                &ranksql_verify::ValidateOptions::executable(),
            );
            if ranksql_verify::has_errors(&diags) {
                return Err(RankSqlError::Plan(format!(
                    "plan validation failed at cursor open:\n{}",
                    ranksql_verify::report(&diags)
                )));
            }
        }
        // The cursor's MVCC snapshot: epochs are pinned into this set from
        // open time on (the caps derivation below pins the column-scanned
        // tables; `build_operator` pins the rest), and the execution context
        // runs with the same set — so everything the cursor ever reads,
        // including later `fetch_more` calls, is the state at open.
        let epochs = Arc::new(ranksql_storage::EpochSet::new());
        // On plans with `columnarize`-annotated scans, tighten every upper
        // bound with the scanned tables' zone-map score maxima: rank-aware
        // operators (µ, MPro, HRJN/NRJN) then emit earlier and probe less.
        // Caps never change results — they are valid per-predicate maxima —
        // and other plans get `None`, keeping their bounds bit for bit.
        let ranking =
            match ranksql_executor::zone_score_caps(&query.ranking, catalog, &physical, &epochs) {
                Some(caps) => query.ranking.with_predicate_caps(caps),
                None => Arc::clone(&query.ranking),
            };
        let exec = match settings.tuple_budget {
            Some(b) => ExecutionContext::with_budget(Arc::clone(&ranking), b),
            None => ExecutionContext::new(Arc::clone(&ranking)),
        }
        .with_epochs(epochs)
        .with_threads(settings.threads)
        .with_batch_size(settings.batch_size)
        .with_morsel_size(settings.morsel_size);
        let counters_before = ranking.counters().snapshot();
        let table_stats = planner_table_stats(catalog, &physical);
        let start = Instant::now();
        let root = build_operator(&physical, catalog, &exec)?;
        let schema = physical.schema()?;
        Ok(Cursor {
            root,
            exec,
            schema,
            physical,
            ranking,
            start,
            counters_before,
            plan_cache,
            table_stats,
            exhausted: false,
            emitted: 0,
        })
    }

    /// The schema of the emitted rows.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The physical plan this cursor is executing.
    pub fn physical(&self) -> &PhysicalPlan {
        &self.physical
    }

    /// The query's ranking context (to score returned rows).
    pub fn ranking(&self) -> &Arc<RankingContext> {
        &self.ranking
    }

    /// The final query score of a returned row.
    pub fn score(&self, row: &RankedTuple) -> f64 {
        self.ranking.upper_bound(&row.state).value()
    }

    /// The live per-operator metrics registry (updates as the cursor pulls).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.exec.metrics()
    }

    /// Rows emitted so far.
    pub fn rows_emitted(&self) -> u64 {
        self.emitted
    }

    /// Whether the stream reported end-of-stream (a later
    /// [`Cursor::fetch_more`] may re-open it).
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// The epochs this cursor's execution has pinned so far, as sorted
    /// `(table_id, epoch_ordinal)` pairs — the observable MVCC snapshot.
    /// Pins are taken lazily on first scan touch, so a cursor that has not
    /// pulled yet may report fewer tables than its plan references.
    pub fn pinned_epochs(&self) -> Vec<(u32, u64)> {
        self.exec.epochs().pins()
    }

    /// Scan-produced tuples consumed so far (the tuple-budget meter; also
    /// the per-tenant `tuples_scanned` the server's STATS verb reports).
    pub fn tuples_scanned(&self) -> u64 {
        self.exec.budget().used()
    }

    /// Pages faulted into the buffer pool by this execution so far (zero on
    /// in-memory databases).
    pub fn pages_faulted(&self) -> u64 {
        self.exec.pages_faulted()
    }

    /// Produces the next row, or `None` when the stream is exhausted.
    #[allow(clippy::should_implement_trait)] // fallible next + an Iterator impl, like std's Lines
    pub fn next(&mut self) -> Result<Option<RankedTuple>> {
        Ok(self.next_batch(1)?.pop())
    }

    /// Pulls up to `n` rows, in chunks of at most the session's batch size.
    pub fn next_batch(&mut self, n: usize) -> Result<Vec<RankedTuple>> {
        let mut out = Batch::with_capacity(n.min(self.exec.batch_size()));
        while !self.exhausted && out.len() < n {
            let want = (n - out.len()).min(self.exec.batch_size());
            if self.root.next_batch(want, &mut out)? == 0 {
                self.exhausted = true;
            }
        }
        self.emitted += out.len() as u64;
        Ok(out.into_vec())
    }

    /// Draws at most `k` rows (alias of [`Cursor::next_batch`] with the
    /// top-k reading: "give me the best `k` you have not yet returned").
    pub fn take(&mut self, k: usize) -> Result<Vec<RankedTuple>> {
        self.next_batch(k)
    }

    /// Extends a top-k past the plan's original limit by `k` further rows
    /// and returns them.
    ///
    /// Works by raising every limit cap in the live operator tree
    /// (`extend_limit`) and resuming: on incremental rank-aware plans the
    /// operators kept all their state, so the extension costs only the
    /// *additional* work for `k` more results.  Fails with an execution
    /// error on plans whose blocking operators already discarded tuples
    /// beyond the original `k` (e.g. a materialised bounded-heap top-k sort,
    /// serial or per morsel) — re-prepare with a larger
    /// `LIMIT` (or bind a larger `Params::k`) in that case.
    pub fn fetch_more(&mut self, k: usize) -> Result<Vec<RankedTuple>> {
        if k == 0 {
            return Ok(Vec::new());
        }
        // Two-phase: the pure `can_extend_limit` check runs over the whole
        // tree first, so a refusal leaves every cap untouched (the mutating
        // walk could otherwise raise caps in sibling subtrees before
        // reaching the refusing operator).
        if !self.root.can_extend_limit() {
            return Err(RankSqlError::Execution(
                "this plan cannot extend its top-k: a blocking operator discarded tuples \
                 beyond the original limit; re-prepare with a larger LIMIT or bind Params::k"
                    .into(),
            ));
        }
        let extended = self.root.extend_limit(k);
        debug_assert!(extended, "extend_limit disagreed with can_extend_limit");
        self.exhausted = false;
        self.next_batch(k)
    }

    /// Drains every remaining row.
    pub fn drain(&mut self) -> Result<Vec<RankedTuple>> {
        let mut out = Vec::new();
        let batch_size = self.exec.batch_size();
        let mut batch = Batch::with_capacity(batch_size);
        while !self.exhausted {
            batch.clear();
            if self.root.next_batch(batch_size, &mut batch)? == 0 {
                self.exhausted = true;
            } else {
                self.emitted += batch.len() as u64;
                out.append(&mut batch);
            }
        }
        Ok(out)
    }

    /// The referenced tables' statistics catalogs as they stood when this
    /// cursor opened (the statistics the planner had available); empty when
    /// no scanned table had built statistics.
    pub fn table_stats(&self) -> &[(String, Arc<StatsCatalog>)] {
        &self.table_stats
    }

    /// The executed plan annotated with live per-operator actuals, plus the
    /// plan-cache outcome when this cursor came from a prepared statement,
    /// one `statistics[T]` line per scanned table with built statistics and
    /// the parallelism when an exchange ran (see
    /// [`QueryResult::explain_analyze`]).
    pub fn explain_analyze(&self) -> String {
        let exec = &self.exec;
        analyzed(
            self.plan_cache.as_ref(),
            &self.table_stats,
            (exec.pages_faulted(), exec.pages_pruned()),
            (exec.threads(), exec.morsels()),
            self.physical
                .explain_with_actuals(Some(&self.ranking), &exec.metrics().operator_actuals()),
        )
    }

    /// Drains the remaining rows and converts the cursor into an eager
    /// [`QueryResult`] (rows already taken through the cursor are *not*
    /// included — they were handed to the caller).
    pub fn into_result(mut self) -> Result<QueryResult> {
        let tuples = self.drain()?;
        let elapsed = self.start.elapsed();
        let after = self.ranking.counters().snapshot();
        let predicate_evaluations = after
            .iter()
            .zip(self.counters_before.iter())
            .map(|(a, b)| a - b)
            .collect();
        let execution = ExecutionResult {
            tuples,
            metrics: Arc::clone(self.exec.metrics()),
            elapsed,
            predicate_evaluations,
            tuples_scanned: self.exec.budget().used(),
            blocks_pruned: self.exec.blocks_pruned(),
            pages_faulted: self.exec.pages_faulted(),
            pages_pruned: self.exec.pages_pruned(),
            threads: self.exec.threads(),
            morsels: self.exec.morsels(),
        };
        let mut result = QueryResult::from_ranking(&self.ranking, &self.physical, execution)?;
        result.plan_cache = self.plan_cache;
        result.table_stats = self.table_stats;
        Ok(result)
    }
}

/// Streaming iteration without giving up the cursor: `for row in &mut
/// cursor { ... }` yields `Result<RankedTuple>` and leaves the cursor
/// usable afterwards (e.g. for [`Cursor::fetch_more`] or metrics).
///
/// The `Iterator` impl deliberately lives on `&mut Cursor` (with an
/// [`IntoIterator`] for the owned form below) so that `Iterator::take`
/// never shadows the cursor's own top-k [`Cursor::take`].
impl Iterator for &mut Cursor {
    type Item = Result<RankedTuple>;

    fn next(&mut self) -> Option<Self::Item> {
        Cursor::next(self).transpose()
    }
}

/// The owned row iterator of a consumed [`Cursor`].
pub struct CursorRows(Cursor);

impl CursorRows {
    /// The cursor driving this iterator.
    pub fn cursor(&self) -> &Cursor {
        &self.0
    }
}

impl Iterator for CursorRows {
    type Item = Result<RankedTuple>;

    fn next(&mut self) -> Option<Self::Item> {
        Cursor::next(&mut self.0).transpose()
    }
}

impl IntoIterator for Cursor {
    type Item = Result<RankedTuple>;
    type IntoIter = CursorRows;

    fn into_iter(self) -> CursorRows {
        CursorRows(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryBuilder;
    use crate::{Database, PlanMode};
    use ranksql_common::{DataType, Field, Value};
    use ranksql_expr::{BoolExpr, RankPredicate};

    fn hrjn_db(rows: i64) -> (Database, RankQuery) {
        let db = Database::new();
        for name in ["H", "R"] {
            db.create_table(
                name,
                Schema::new(vec![
                    Field::new("id", DataType::Int64),
                    Field::new("city", DataType::Int64),
                    Field::new("score", DataType::Float64),
                ]),
            )
            .unwrap();
            for i in 0..rows {
                db.insert(
                    name,
                    vec![
                        Value::from(i),
                        Value::from(i % 10),
                        Value::from(
                            ((i * 37 + if name == "H" { 0 } else { 13 }) % 100) as f64 / 100.0,
                        ),
                    ],
                )
                .unwrap();
            }
        }
        let query = QueryBuilder::new()
            .tables(["H", "R"])
            .filter(BoolExpr::col_eq_col("H.city", "R.city"))
            .rank_predicate(RankPredicate::attribute("hs", "H.score"))
            .rank_predicate(RankPredicate::attribute("rs", "R.score"))
            .limit(100)
            .build()
            .unwrap();
        (db, query)
    }

    #[test]
    fn take_on_a_rank_aware_plan_does_not_drain_the_scans() {
        let (db, query) = hrjn_db(400);
        let session = db.session();
        let bound = session
            .prepare_query(query.clone())
            .unwrap()
            .bind(crate::Params::none())
            .unwrap();
        let mut cursor = bound.cursor().unwrap();
        let top3 = cursor.take(3).unwrap();
        assert_eq!(top3.len(), 3);
        // Scan consumption is proportional to what the top-3 needed, far
        // below the table cardinality (the acceptance criterion).
        let scanned: u64 = cursor
            .metrics()
            .snapshot()
            .iter()
            .filter(|m| m.name().contains("Scan"))
            .map(|m| m.tuples_out())
            .sum();
        assert!(
            scanned < 400,
            "cursor must not drain the inputs: scanned {scanned} of 2×400"
        );

        // An eager drain of the same plan consumes strictly more.
        let full = session.execute(&query).unwrap();
        let full_scanned: u64 = full
            .metrics
            .snapshot()
            .iter()
            .filter(|m| m.name().contains("Scan"))
            .map(|m| m.tuples_out())
            .sum();
        assert!(
            scanned < full_scanned,
            "take(3) ({scanned}) must consume fewer scan tuples than a drain ({full_scanned})"
        );
        // The streamed prefix equals the eager prefix.
        for (c, e) in top3.iter().zip(full.rows.iter()) {
            assert_eq!(c.tuple.id(), e.tuple.id());
        }
    }

    #[test]
    fn fetch_more_extends_past_the_original_limit() {
        let (db, _) = hrjn_db(60);
        let query = QueryBuilder::new()
            .tables(["H", "R"])
            .filter(BoolExpr::col_eq_col("H.city", "R.city"))
            .rank_predicate(RankPredicate::attribute("hs", "H.score"))
            .rank_predicate(RankPredicate::attribute("rs", "R.score"))
            .limit(4)
            .build()
            .unwrap();
        let session = db.session();
        let mut cursor = session
            .prepare_query(query.clone())
            .unwrap()
            .bind(crate::Params::new())
            .unwrap()
            .cursor()
            .unwrap();
        let first = cursor.drain().unwrap();
        assert_eq!(first.len(), 4);
        assert!(cursor.is_exhausted());
        let more = cursor.fetch_more(3).unwrap();
        assert_eq!(more.len(), 3);
        // first+more equal one k=7 execution, byte for byte.
        let mut q7 = query;
        q7.k = 7;
        let reference = session.with_mode(PlanMode::RankAware).execute(&q7).unwrap();
        let got: Vec<_> = first
            .iter()
            .chain(more.iter())
            .map(|t| t.tuple.id().clone())
            .collect();
        let want: Vec<_> = reference
            .rows
            .iter()
            .map(|t| t.tuple.id().clone())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn fetch_more_refuses_on_discarding_plans() {
        let (db, query) = hrjn_db(30);
        let mut cursor = db
            .session()
            .with_mode(PlanMode::Canonical)
            .prepare_query(query)
            .unwrap()
            .bind(crate::Params::none())
            .unwrap()
            .cursor()
            .unwrap();
        let _ = cursor.drain().unwrap();
        let err = cursor.fetch_more(5).unwrap_err();
        assert!(err.to_string().contains("cannot extend"), "{err}");
    }

    #[test]
    fn evaluation_counters_are_current_after_every_pull() {
        // µ over a rank-scan evaluates its predicate once per tuple it
        // draws and tallies locally; the tally must reach the shared
        // counters by the time each pull returns, not only at close.
        let (db, _) = hrjn_db(200);
        let query = QueryBuilder::new()
            .tables(["H"])
            .rank_predicate(RankPredicate::attribute("hs", "H.score"))
            .rank_predicate(RankPredicate::attribute_with_cost("id", "H.id", 1))
            .limit(50)
            .build()
            .unwrap();
        let mut cursor = db
            .session()
            .prepare_query(query)
            .unwrap()
            .bind(crate::Params::none())
            .unwrap()
            .cursor()
            .unwrap();
        let mut seen = Vec::new();
        for n in [1, 1, 7, 1] {
            assert_eq!(cursor.next_batch(n).unwrap().len(), n);
            let drawn_by_mu: u64 = cursor
                .metrics()
                .snapshot()
                .iter()
                .filter(|m| m.name().starts_with("Rank_"))
                .map(|m| m.tuples_in())
                .sum();
            let evaluated = cursor.ranking().counters().total();
            assert!(drawn_by_mu > 0, "{}", cursor.explain_analyze());
            assert_eq!(evaluated, drawn_by_mu, "after pulling {n}");
            seen.push(evaluated);
        }
        assert!(seen.windows(2).all(|w| w[0] <= w[1]), "{seen:?}");
        assert!(seen[0] < 200, "the first pull must not drain the table");
    }

    #[test]
    fn opens_share_the_statistics_catalog_until_an_insert() {
        let (db, query) = hrjn_db(30);
        let bound = db
            .session()
            .with_mode(PlanMode::RankAware)
            .prepare_query(query)
            .unwrap()
            .bind(crate::Params::none())
            .unwrap();
        let stats_of = |cursor: &Cursor| {
            let stats = cursor.table_stats();
            assert_eq!(stats.len(), 2, "both scanned tables have statistics");
            stats.iter().map(|(_, s)| Arc::clone(s)).collect::<Vec<_>>()
        };
        let first = stats_of(&bound.cursor().unwrap());
        let second = stats_of(&bound.cursor().unwrap());
        assert!(first.iter().zip(&second).all(|(a, b)| Arc::ptr_eq(a, b)));

        db.insert("H", vec![Value::from(30), Value::from(3), Value::from(0.5)])
            .unwrap();
        let third = stats_of(&bound.cursor().unwrap());
        let (changed, unchanged): (Vec<_>, Vec<_>) = first
            .iter()
            .zip(&third)
            .partition(|(before, after)| before.row_count != after.row_count);
        assert_eq!(changed.len(), 1, "H took the insert");
        assert!(changed.iter().all(|(a, b)| !Arc::ptr_eq(a, b)));
        assert!(unchanged.iter().all(|(a, b)| Arc::ptr_eq(a, b)));
    }

    #[test]
    fn cursor_iterates_and_reports() {
        let (db, query) = hrjn_db(30);
        let ranking = Arc::clone(&query.ranking);
        let mut cursor = db
            .session()
            .prepare_query(query)
            .unwrap()
            .bind(crate::Params::none())
            .unwrap()
            .cursor()
            .unwrap();
        assert_eq!(cursor.schema().len(), 6);
        let mut last = f64::INFINITY;
        let mut n = 0u64;
        for row in &mut cursor {
            let row = row.unwrap();
            let s = ranking.upper_bound(&row.state).value();
            assert!(s <= last + 1e-12, "scores must be non-increasing");
            last = s;
            n += 1;
        }
        assert!(cursor.is_exhausted());
        assert!(n > 0);
        assert_eq!(cursor.rows_emitted(), n);
        let text = cursor.explain_analyze();
        assert!(text.contains("actual_rows"), "{text}");
    }
}
