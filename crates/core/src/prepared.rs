//! Prepared statements: parse/build once, bind many times.
//!
//! A [`PreparedQuery`] is a query *template*: its filter constants (and
//! optionally `k` and the ranking weights) are [`Params`] placeholders.
//! [`PreparedQuery::bind`] supplies concrete values and plans the bound
//! query — once per normalized plan shape: the database's plan cache is
//! keyed by [`ranksql_optimizer::normalized_cache_key`] (query shape + plan
//! mode, *not* the bound values, `k` or the thread count), so re-executing
//! with fresh bindings skips parse and optimize entirely and only re-binds
//! the cached physical plan in place.

use std::collections::BTreeMap;

use ranksql_algebra::{LogicalPlan, PhysicalPlan, RankQuery};
use ranksql_common::{RankSqlError, Result, Value};
use ranksql_expr::ScoringFunction;

use crate::cursor::Cursor;
use crate::database::{Database, PlanCacheLookup};
use crate::result::QueryResult;
use crate::session::SessionSettings;

/// Values for one execution of a [`PreparedQuery`].
///
/// Three kinds of things are bindable:
///
/// * **value slots** (`?` in SQL, [`ScalarExpr::param`] in built queries) —
///   filter constants, set positionally with [`Params::set`];
/// * **`k`** — the top-k limit, overriding the template's `LIMIT`
///   (mandatory when the template used `LIMIT ?`);
/// * **ranking weights** — fresh weights for a `WeightedSum`-scored
///   template, re-ranking without re-planning.
///
/// [`ScalarExpr::param`]: ranksql_expr::ScalarExpr::param
#[derive(Debug, Clone, Default)]
pub struct Params {
    values: BTreeMap<usize, Value>,
    k: Option<usize>,
    weights: Option<Vec<f64>>,
}

impl Params {
    /// An empty parameter set (start of the builder chain).
    pub fn new() -> Self {
        Params::default()
    }

    /// The canonical empty binding for parameter-free queries.
    pub fn none() -> Self {
        Params::default()
    }

    /// Binds value slot `index` (the `index`-th `?`, zero-based).
    pub fn set(mut self, index: usize, value: impl Into<Value>) -> Self {
        self.values.insert(index, value.into());
        self
    }

    /// Binds value slots 0..n from an iterator, in order.
    pub fn positional<I, V>(values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        let mut p = Params::default();
        for (i, v) in values.into_iter().enumerate() {
            p.values.insert(i, v.into());
        }
        p
    }

    /// Overrides the top-k limit for this execution.
    pub fn k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// Binds fresh ranking weights (template must be `WeightedSum`-scored
    /// with the same arity).
    pub fn weights<I: IntoIterator<Item = f64>>(mut self, weights: I) -> Self {
        self.weights = Some(weights.into_iter().collect());
        self
    }
}

/// A query prepared once under a session's settings: parse and cache-key
/// normalization are done, optimization is deferred to the first
/// [`PreparedQuery::bind`] per plan shape.
#[derive(Debug)]
pub struct PreparedQuery<'db> {
    db: &'db Database,
    settings: SessionSettings,
    template: RankQuery,
    slots: Vec<usize>,
    cache_key: String,
}

impl<'db> PreparedQuery<'db> {
    pub(crate) fn new(
        db: &'db Database,
        settings: SessionSettings,
        template: RankQuery,
    ) -> Result<Self> {
        // Every SQL and built query passes here before it is planned or
        // run; past the cap the score bookkeeping would panic mid-pull.
        let n = template.ranking.num_predicates();
        if n > ranksql_expr::MAX_RANKING_PREDICATES {
            return Err(RankSqlError::Plan(format!(
                "a query may rank by at most {} predicates, got {n}",
                ranksql_expr::MAX_RANKING_PREDICATES
            )));
        }
        let slots = template.param_slots();
        let cache_key = ranksql_optimizer::normalized_cache_key(&template, settings.mode);
        Ok(PreparedQuery {
            db,
            settings,
            template,
            slots,
            cache_key,
        })
    }

    /// The query template (parameters unbound).
    pub fn query(&self) -> &RankQuery {
        &self.template
    }

    /// The value slots a binding must supply (sorted, deduplicated).
    pub fn param_slots(&self) -> &[usize] {
        &self.slots
    }

    /// The normalized plan-cache key this statement plans under.
    ///
    /// At bind time the key is further suffixed with the referenced tables'
    /// current log₂ size buckets (see [`PreparedQuery::bind`]), so a shape
    /// is re-optimized once its tables grow or shrink by about 2×.
    pub fn cache_key(&self) -> &str {
        &self.cache_key
    }

    /// The full cache key for the catalog's *current* table sizes: the
    /// normalized shape key plus each referenced table's log₂
    /// epoch-ordinal bucket (the epoch ordinal *is* the row count — tables
    /// are append-only, so the watermark doubles as the version).
    /// Bucketing (rather than exact ordinals) keeps steady inserts from
    /// defeating the cache while bounding how stale a cached plan's cost
    /// assumptions can get before it is re-optimized.
    fn size_bucketed_key(&self) -> Result<String> {
        use std::fmt::Write as _;
        let mut key = self.cache_key.clone();
        key.push_str(";sizes=");
        for (i, table) in self.template.tables.iter().enumerate() {
            if i > 0 {
                key.push(',');
            }
            let ordinal = self.db.catalog().table(table)?.epoch_ordinal();
            let _ = write!(key, "{}", u64::BITS - ordinal.leading_zeros());
        }
        Ok(key)
    }

    /// Binds parameters and plans the execution — against the plan cache:
    /// the first binding of a shape pays parse-free optimization, every
    /// later one re-binds the cached plan in place (a cache *hit*, visible
    /// in `explain_analyze` and [`Database::plan_cache_stats`]).
    pub fn bind(&self, params: Params) -> Result<BoundQuery<'db>> {
        // 1. Dense value vector covering every slot the template references:
        //    supplied values win, values already bound in the template act
        //    as defaults (so a query bound via `RankQuery::with_params`
        //    executes through the wrappers without re-supplying them), and
        //    slots with neither are an error.
        let bindings = self.template.param_bindings();
        let missing: Vec<usize> = bindings
            .iter()
            .filter(|(s, default)| default.is_none() && !params.values.contains_key(s))
            .map(|(s, _)| *s)
            .collect();
        if !missing.is_empty() {
            return Err(RankSqlError::Plan(format!(
                "missing values for parameter slot(s) {missing:?}; bind them with Params::set"
            )));
        }
        let dense_len = self.slots.iter().copied().max().map_or(0, |m| m + 1);
        let mut values = vec![Value::Null; dense_len];
        for (slot, default) in &bindings {
            if let Some(v) = params.values.get(slot).or(default.as_ref()) {
                values[*slot] = v.clone();
            }
        }

        // 2. The concrete query: parameters substituted, k and weights
        //    overridden.
        let mut query = self.template.with_params(&values)?;
        query.k = match (self.template.k_is_param, params.k) {
            (_, Some(k)) => k,
            (false, None) => self.template.k,
            (true, None) => {
                return Err(RankSqlError::Plan(
                    "the template uses `LIMIT ?`; bind k with Params::k".into(),
                ))
            }
        };
        if let Some(w) = &params.weights {
            match query.ranking.scoring() {
                ScoringFunction::WeightedSum(old) if old.len() == w.len() => {}
                ScoringFunction::WeightedSum(old) => {
                    return Err(RankSqlError::Plan(format!(
                        "weight binding has {} weights but the query has {}",
                        w.len(),
                        old.len()
                    )))
                }
                other => {
                    return Err(RankSqlError::Plan(format!(
                        "ranking weights can only be bound to a WeightedSum-scored template \
                         (template scoring is {other:?})"
                    )))
                }
            }
            // `!(x >= 0)` also rejects NaN, which would poison every score
            // and silently destabilise the rank order.
            if w.iter().any(|x| !x.is_finite() || *x < 0.0) {
                return Err(RankSqlError::Plan(
                    "ranking weights must be finite and non-negative (monotonicity)".into(),
                ));
            }
            query.ranking = query
                .ranking
                .with_scoring(ScoringFunction::WeightedSum(w.clone()));
        }

        // 3. Plan: reuse the cached shape or optimize once and cache it.
        //    The key carries the tables' current size buckets, so growth
        //    beyond ~2× re-optimizes instead of replaying a stale plan.
        let key = self.size_bucketed_key()?;
        let (entry, lookup) = match self.db.plan_cache().lookup(&key) {
            Some(hit) => hit,
            None => self.db.plan_cache().populate(&key, || {
                self.db
                    .plan(&query, self.settings.mode)
                    .map(|plan| (plan, query.k))
            })?,
        };
        let mut physical = entry.plan.physical.with_params(&values)?;
        let mut logical = entry.plan.plan.with_params(&values)?;
        if entry.k != query.k {
            physical = physical.with_limit(entry.k, query.k);
            logical = logical.with_limit(entry.k, query.k);
        }

        Ok(BoundQuery {
            db: self.db,
            settings: self.settings.clone(),
            query,
            logical,
            physical,
            lookup,
        })
    }

    /// Shorthand: bind no parameters and open a cursor.
    pub fn cursor(&self) -> Result<Cursor> {
        self.bind(Params::none())?.cursor()
    }

    /// Shorthand: bind no parameters and execute eagerly.
    pub fn execute(&self) -> Result<QueryResult> {
        self.bind(Params::none())?.execute()
    }
}

/// A fully bound, fully planned execution: concrete parameter values, `k`
/// and weights, plus the (cache-reused) physical plan.  Open it as a
/// streaming [`Cursor`] or drain it eagerly into a [`QueryResult`].
#[derive(Debug)]
pub struct BoundQuery<'db> {
    db: &'db Database,
    settings: SessionSettings,
    query: RankQuery,
    logical: LogicalPlan,
    physical: PhysicalPlan,
    lookup: PlanCacheLookup,
}

impl BoundQuery<'_> {
    /// The bound query (parameters substituted).
    pub fn query(&self) -> &RankQuery {
        &self.query
    }

    /// The physical plan the cursor will run.
    pub fn physical(&self) -> &PhysicalPlan {
        &self.physical
    }

    /// Whether this binding's plan came from the plan cache.
    pub fn cache_hit(&self) -> bool {
        self.lookup.hit
    }

    /// The plan-cache lookup outcome and counters at bind time.
    pub fn plan_cache(&self) -> PlanCacheLookup {
        self.lookup
    }

    /// The `EXPLAIN` text of the bound plan (logical + costed physical).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str("logical plan:\n");
        out.push_str(&self.logical.explain(Some(&self.query.ranking)));
        out.push_str("physical plan:\n");
        out.push_str(&self.physical.explain(Some(&self.query.ranking)));
        out
    }

    /// Opens a streaming cursor over the live operator tree.  Nothing has
    /// been executed yet; the first pull drives the plan incrementally.
    pub fn cursor(&self) -> Result<Cursor> {
        Cursor::open(
            self.db.catalog(),
            &self.settings,
            &self.query,
            self.physical.clone(),
            Some(self.lookup),
        )
    }

    /// Drains the whole result eagerly (the legacy `Database::execute`
    /// behavior): a cursor opened and pulled to exhaustion.
    pub fn execute(&self) -> Result<QueryResult> {
        self.cursor()?.into_result()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlanMode;
    use crate::QueryBuilder;
    use ranksql_common::{DataType, Field, Schema};
    use ranksql_expr::{BoolExpr, CompareOp, RankPredicate, ScalarExpr};

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
        for i in 0..40i64 {
            db.insert("T", vec![Value::from(i), Value::from((i as f64) / 40.0)])
                .unwrap();
        }
        db
    }

    fn template() -> RankQuery {
        QueryBuilder::new()
            .table("T")
            .filter(BoolExpr::compare(
                ScalarExpr::col("T.id"),
                CompareOp::Lt,
                ScalarExpr::param(0),
            ))
            .rank_predicate(RankPredicate::attribute("p", "T.p"))
            .limit(3)
            .build()
            .unwrap()
    }

    #[test]
    fn rebinding_hits_the_cache_and_changes_results() {
        let db = db();
        let session = db.session();
        let prepared = session.prepare_query(template()).unwrap();
        assert_eq!(prepared.param_slots(), &[0]);

        let cold = prepared.bind(Params::new().set(0, 40i64)).unwrap();
        assert!(!cold.cache_hit());
        let cold_rows = cold.execute().unwrap();
        assert_eq!(cold_rows.rows[0].tuple.value(0), &Value::from(39));

        // Fresh binding: plan-cache hit, different filter constant.
        let hot = prepared.bind(Params::new().set(0, 10i64)).unwrap();
        assert!(hot.cache_hit());
        let hot_rows = hot.execute().unwrap();
        assert_eq!(hot_rows.rows[0].tuple.value(0), &Value::from(9));

        let stats = db.plan_cache_stats();
        assert_eq!(stats.misses, 1);
        assert!(stats.hits >= 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn identical_rebinding_is_byte_identical_to_cold() {
        let db = db();
        let prepared = db.session().prepare_query(template()).unwrap();
        let cold = prepared
            .bind(Params::new().set(0, 25i64))
            .unwrap()
            .execute()
            .unwrap();
        let hot = prepared
            .bind(Params::new().set(0, 25i64))
            .unwrap()
            .execute()
            .unwrap();
        assert_eq!(cold.scores(), hot.scores());
        let ids =
            |r: &QueryResult| -> Vec<_> { r.rows.iter().map(|t| t.tuple.id().clone()).collect() };
        assert_eq!(ids(&cold), ids(&hot));
        assert!(hot.plan_cache.unwrap().hit);
        assert!(!cold.plan_cache.unwrap().hit);
    }

    #[test]
    fn k_rebinding_rewrites_the_cached_limit() {
        let db = db();
        let prepared = db.session().prepare_query(template()).unwrap();
        let small = prepared.bind(Params::new().set(0, 40i64)).unwrap();
        assert_eq!(small.execute().unwrap().rows.len(), 3);
        let big = prepared.bind(Params::new().set(0, 40i64).k(7)).unwrap();
        assert!(big.cache_hit(), "k is not part of the cache key");
        assert_eq!(big.execute().unwrap().rows.len(), 7);
        assert!(big.explain().contains("Limit[7]") || big.explain().contains("k=7"));
    }

    #[test]
    fn doubling_a_table_re_optimizes_the_cached_shape() {
        let db = db(); // 40 rows in T
        let prepared = db.session().prepare_query(template()).unwrap();
        let cold = prepared.bind(Params::new().set(0, 1_000i64)).unwrap();
        assert!(!cold.cache_hit());
        // Small inserts stay in the same log2 size bucket: still a hit.
        db.insert_batch(
            "T",
            (40..44i64).map(|i| vec![Value::from(i), Value::from(0.5)]),
        )
        .unwrap();
        assert!(prepared
            .bind(Params::new().set(0, 1_000i64))
            .unwrap()
            .cache_hit());
        // Doubling the table crosses a bucket: the shape is re-optimized
        // under the current statistics instead of replaying the stale plan.
        db.insert_batch(
            "T",
            (44..100i64).map(|i| vec![Value::from(i), Value::from(0.5)]),
        )
        .unwrap();
        let recosted = prepared.bind(Params::new().set(0, 1_000i64)).unwrap();
        assert!(!recosted.cache_hit());
        assert_eq!(recosted.execute().unwrap().rows.len(), 3);
        assert_eq!(db.plan_cache_stats().entries, 2);
    }

    #[test]
    fn already_bound_params_act_as_defaults() {
        let db = db();
        // A query bound via `RankQuery::with_params` executes through the
        // wrappers without re-supplying the values...
        let bound_query = template().with_params(&[Value::from(10i64)]).unwrap();
        let eager = db.execute(&bound_query).unwrap();
        assert_eq!(eager.rows[0].tuple.value(0), &Value::from(9));
        // ...and a later Params::set still overrides the default.
        let overridden = db
            .session()
            .prepare_query(bound_query)
            .unwrap()
            .bind(Params::new().set(0, 40i64))
            .unwrap()
            .execute()
            .unwrap();
        assert_eq!(overridden.rows[0].tuple.value(0), &Value::from(39));
    }

    #[test]
    fn missing_params_and_missing_k_are_rejected() {
        let db = db();
        let prepared = db.session().prepare_query(template()).unwrap();
        let err = prepared.bind(Params::none()).unwrap_err();
        assert!(err.to_string().contains("parameter slot"), "{err}");

        let k_param = template().with_k_param();
        let prepared = db.session().prepare_query(k_param).unwrap();
        let err = prepared.bind(Params::new().set(0, 5i64)).unwrap_err();
        assert!(err.to_string().contains("Params::k"), "{err}");
        let ok = prepared.bind(Params::new().set(0, 40i64).k(2)).unwrap();
        assert_eq!(ok.execute().unwrap().rows.len(), 2);
    }

    #[test]
    fn weight_rebinding_reranks_without_replanning() {
        let db = db();
        db.create_table(
            "U",
            Schema::new(vec![
                Field::new("a", DataType::Float64),
                Field::new("b", DataType::Float64),
            ]),
        )
        .unwrap();
        for i in 0..20i64 {
            let a = (i as f64) / 20.0;
            db.insert("U", vec![Value::from(a), Value::from(1.0 - a)])
                .unwrap();
        }
        let template = QueryBuilder::new()
            .table("U")
            .rank_predicate(RankPredicate::attribute("a", "U.a"))
            .rank_predicate(RankPredicate::attribute("b", "U.b"))
            .scoring(ScoringFunction::weighted_sum(vec![1.0, 1.0]))
            .limit(1)
            .build()
            .unwrap();
        let prepared = db.session().prepare_query(template).unwrap();
        let a_heavy = prepared
            .bind(Params::new().weights([10.0, 0.1]))
            .unwrap()
            .execute()
            .unwrap();
        assert_eq!(a_heavy.rows[0].tuple.value(0), &Value::from(0.95));
        let b_heavy = prepared
            .bind(Params::new().weights([0.1, 10.0]))
            .unwrap()
            .execute()
            .unwrap();
        assert_eq!(b_heavy.rows[0].tuple.value(0), &Value::from(0.0));
        assert!(b_heavy.plan_cache.unwrap().hit);
        // Arity and sign are validated.
        assert!(prepared.bind(Params::new().weights([1.0])).is_err());
        assert!(prepared.bind(Params::new().weights([1.0, -1.0])).is_err());
    }

    #[test]
    fn different_modes_key_separately() {
        let db = db();
        let q = template();
        let a = db.session().prepare_query(q.clone()).unwrap();
        let b = db
            .session()
            .with_mode(PlanMode::Canonical)
            .prepare_query(q)
            .unwrap();
        assert_ne!(a.cache_key(), b.cache_key());
    }
}
