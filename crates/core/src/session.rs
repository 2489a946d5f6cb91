//! Per-caller execution sessions.
//!
//! A [`Session`] carries everything about *how* one caller wants queries
//! run — plan mode, worker threads, batch size, morsel size, optional tuple
//! budget — while the [`Database`] keeps what is shared across callers: the
//! catalog and the plan cache.  Sessions are cheap value objects; a server
//! front end creates one per connection (or per request) and concurrent
//! sessions over one database never contend except on the plan-cache map.
//!
//! The request lifecycle is `session.prepare(sql)` →
//! [`PreparedQuery::bind`](crate::PreparedQuery::bind) →
//! [`BoundQuery::cursor`](crate::BoundQuery::cursor): parse and
//! normalization happen once at prepare, optimization once per plan-cache
//! shape, and the cursor pulls rows incrementally from the live operator
//! tree.  The eager [`Session::execute`] and the `Database::execute*`
//! compatibility wrappers are thin shims over exactly that path.

use ranksql_algebra::RankQuery;
use ranksql_common::{Result, DEFAULT_BATCH_SIZE, DEFAULT_MORSEL_SIZE};

use crate::cursor::Cursor;
use crate::database::Database;
use crate::parser::parse_topk_query;
use crate::prepared::{Params, PreparedQuery};
use crate::result::QueryResult;
use crate::PlanMode;

/// The per-caller execution settings a [`Session`] carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSettings {
    /// How queries are planned (default: rank-aware heuristic).
    pub mode: PlanMode,
    /// Worker threads for morsel-driven parallel execution; above 1 the
    /// executor runs each sort over a spine per morsel across that many
    /// workers.  Plans do not depend on it.
    pub threads: usize,
    /// Tuples moved per batched pull through the operator tree.
    pub batch_size: usize,
    /// Base-table rows per parallel morsel.
    pub morsel_size: usize,
    /// Optional cap on scan-produced tuples per execution (a guard rail for
    /// top-k queries that degenerate into full materialisation).
    pub tuple_budget: Option<u64>,
}

impl Default for SessionSettings {
    fn default() -> Self {
        SessionSettings {
            mode: PlanMode::default(),
            threads: ranksql_common::default_thread_count(),
            batch_size: DEFAULT_BATCH_SIZE,
            morsel_size: DEFAULT_MORSEL_SIZE,
            tuple_budget: None,
        }
    }
}

/// A per-caller handle for executing queries against a [`Database`].
///
/// Created by [`Database::session`]; configured in one consistent consuming
/// builder style (`with_*`).  All state lives in the session value itself,
/// so cloning is cheap and sessions never observe each other's settings.
///
/// ```
/// use ranksql_core::{Database, Params};
/// use ranksql_common::{DataType, Field, Schema, Value};
///
/// let db = Database::new();
/// db.create_table(
///     "T",
///     Schema::new(vec![
///         Field::new("id", DataType::Int64),
///         Field::new("score", DataType::Float64),
///     ]),
/// )
/// .unwrap();
/// for i in 0..50i64 {
///     db.insert("T", vec![Value::from(i), Value::from((i as f64) / 50.0)])
///         .unwrap();
/// }
///
/// let session = db.session();
/// let prepared = session
///     .prepare("SELECT * FROM T WHERE T.id < ? ORDER BY T.score LIMIT 5")
///     .unwrap();
/// let mut cursor = prepared
///     .bind(Params::new().set(0, Value::from(40i64)))
///     .unwrap()
///     .cursor()
///     .unwrap();
/// let top2 = cursor.take(2).unwrap(); // pulls incrementally, no full drain
/// assert_eq!(top2.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Session<'db> {
    db: &'db Database,
    settings: SessionSettings,
}

impl<'db> Session<'db> {
    pub(crate) fn new(db: &'db Database, settings: SessionSettings) -> Self {
        Session { db, settings }
    }

    /// The database this session executes against.
    pub fn database(&self) -> &'db Database {
        self.db
    }

    /// The session's settings.
    pub fn settings(&self) -> &SessionSettings {
        &self.settings
    }

    /// Sets the plan mode used by `prepare`/`execute`.
    pub fn with_mode(mut self, mode: PlanMode) -> Self {
        self.settings.mode = mode;
        self
    }

    /// Sets the worker-thread budget (clamped to `1..=MAX_THREADS`).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.settings.threads = threads.clamp(1, ranksql_common::MAX_THREADS);
        self
    }

    /// Sets the batched-pull chunk size (clamped to at least 1).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.settings.batch_size = batch_size.max(1);
        self
    }

    /// Sets the rows-per-morsel granularity of parallel scans (clamped to at
    /// least 1).
    pub fn with_morsel_size(mut self, morsel_size: usize) -> Self {
        self.settings.morsel_size = morsel_size.max(1);
        self
    }

    /// Caps the number of scan-produced tuples per execution; exceeding the
    /// budget aborts the query with an execution error.
    pub fn with_tuple_budget(mut self, budget: u64) -> Self {
        self.settings.tuple_budget = Some(budget);
        self
    }

    /// The configured plan mode.
    pub fn mode(&self) -> PlanMode {
        self.settings.mode
    }

    /// The configured worker-thread budget.
    pub fn threads(&self) -> usize {
        self.settings.threads
    }

    /// Parses the SQL-ish top-k syntax (which may contain `?` parameter
    /// placeholders in WHERE constants and `LIMIT`) and prepares it under
    /// this session's settings.
    pub fn prepare(&self, sql: &str) -> Result<PreparedQuery<'db>> {
        self.prepare_query(parse_topk_query(sql)?)
    }

    /// Prepares an already-built [`RankQuery`] (e.g. from
    /// [`QueryBuilder`](crate::QueryBuilder), possibly containing
    /// [`ScalarExpr::param`](ranksql_expr::ScalarExpr::param) placeholders)
    /// under this session's settings.
    pub fn prepare_query(&self, query: RankQuery) -> Result<PreparedQuery<'db>> {
        PreparedQuery::new(self.db, self.settings.clone(), query)
    }

    /// Parses, prepares (parameter-free), and opens a streaming cursor —
    /// the one-liner for ad-hoc queries.
    pub fn query(&self, sql: &str) -> Result<Cursor> {
        self.prepare(sql)?.bind(Params::none())?.cursor()
    }

    /// Eagerly executes a parameter-free query to completion (through the
    /// same prepare → bind → cursor path, so it hits the plan cache).
    pub fn execute(&self, query: &RankQuery) -> Result<QueryResult> {
        self.prepare_query(query.clone())?
            .bind(Params::none())?
            .execute()
    }

    /// Plans a query under the session's mode without executing it.
    pub fn plan(&self, query: &RankQuery) -> Result<ranksql_optimizer::OptimizedPlan> {
        self.db.plan(query, self.settings.mode)
    }

    /// Runs the full plan validator over the plan this session would run
    /// for `query`, returning **every** diagnostic (warnings included); an
    /// empty vector means a clean plan.  See
    /// [`Database::verify_plan`](crate::Database::verify_plan).
    pub fn verify_plan(&self, query: &RankQuery) -> Result<Vec<ranksql_verify::Diagnostic>> {
        self.db.verify_plan(query, self.settings.mode)
    }

    /// Returns the `EXPLAIN` text of the plan this session would run for a
    /// query: logical and costed physical trees under the session's mode,
    /// plus the plan-validation footer.  See
    /// [`Database::explain`](crate::Database::explain).
    pub fn explain(&self, query: &RankQuery) -> Result<String> {
        self.db.explain(query, self.settings.mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryBuilder;
    use ranksql_common::{DataType, Field, Schema, Value};
    use ranksql_expr::RankPredicate;

    fn db() -> Database {
        let db = Database::new();
        db.create_table(
            "T",
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("p", DataType::Float64),
            ]),
        )
        .unwrap();
        for i in 0..30i64 {
            db.insert("T", vec![Value::from(i), Value::from((i as f64) / 30.0)])
                .unwrap();
        }
        db
    }

    #[test]
    fn session_builder_style_is_consistent() {
        let db = db();
        let s = db
            .session()
            .with_mode(PlanMode::Canonical)
            .with_threads(2)
            .with_batch_size(0)
            .with_morsel_size(0)
            .with_tuple_budget(10_000);
        assert_eq!(s.mode(), PlanMode::Canonical);
        assert_eq!(s.threads(), 2);
        assert_eq!(s.settings().batch_size, 1, "clamped");
        assert_eq!(s.settings().morsel_size, 1, "clamped");
        assert_eq!(s.settings().tuple_budget, Some(10_000));
    }

    #[test]
    fn session_execute_matches_modes() {
        let db = db();
        let q = QueryBuilder::new()
            .table("T")
            .rank_predicate(RankPredicate::attribute("p", "T.p"))
            .limit(3)
            .build()
            .unwrap();
        let canonical = db
            .session()
            .with_mode(PlanMode::Canonical)
            .execute(&q)
            .unwrap();
        let rank_aware = db.session().execute(&q).unwrap();
        assert_eq!(canonical.scores(), rank_aware.scores());
        assert_eq!(rank_aware.rows.len(), 3);
    }

    #[test]
    fn session_query_one_liner_streams() {
        let db = db();
        let mut cursor = db
            .session()
            .query("SELECT * FROM T ORDER BY T.p LIMIT 5")
            .unwrap();
        let first = cursor.next().unwrap().unwrap();
        assert_eq!(first.tuple.value(0), &Value::from(29));
        assert_eq!(cursor.take(10).unwrap().len(), 4, "limit caps the stream");
    }

    #[test]
    fn session_explain_mentions_mode_and_nodes() {
        let db = db();
        let q = QueryBuilder::new()
            .table("T")
            .rank_predicate(RankPredicate::attribute("p", "T.p"))
            .limit(2)
            .build()
            .unwrap();
        let text = db
            .session()
            .with_mode(PlanMode::Canonical)
            .explain(&q)
            .unwrap();
        assert!(text.contains("mode: Canonical"), "{text}");
        assert!(text.contains("Limit[2]"), "{text}");
    }

    #[test]
    fn tuple_budget_trips_through_the_session() {
        let db = db();
        let q = QueryBuilder::new()
            .table("T")
            .rank_predicate(RankPredicate::attribute("p", "T.p"))
            .limit(3)
            .build()
            .unwrap();
        let err = db
            .session()
            .with_mode(PlanMode::Canonical)
            .with_tuple_budget(5)
            .execute(&q)
            .unwrap_err();
        assert!(err.to_string().contains("tuple budget exceeded"), "{err}");
    }
}
