//! Plan-cache key normalization for prepared statements.
//!
//! A prepared query is optimized once and its physical plan cached; later
//! executions with different parameter bindings reuse the cached shape after
//! re-binding parameter values ([`PhysicalPlan::with_params`]) and the top-k
//! cap ([`PhysicalPlan::with_limit`]).  The cache key must therefore be a
//! function of everything that *does* change the optimizer's output and
//! nothing that is re-bindable:
//!
//! * **included** — table list, Boolean predicate shapes (parameters render
//!   as `$i`, never as their bound values), ranking predicate names, score
//!   sources and costs, the scoring-function *kind* and arity, the
//!   projection and the plan mode.  The core layer
//!   additionally suffixes the referenced tables' log₂ size buckets at bind
//!   time, so a cached shape is re-costed once a table grows or shrinks by
//!   roughly 2× — bounding how stale the plan's cost assumptions can get;
//! * **excluded** — bound parameter values, the concrete `k`, concrete
//!   ranking weights (`WeightedSum` keys by arity only) and the worker
//!   thread count (the executor decides at run time what runs per morsel,
//!   so one plan serves every thread count).  Re-binding any of
//!   these hits the cache and rewrites the cached shape in place.  The
//!   cached shape was *costed* under the first binding's values, so a wildly
//!   different binding may execute a plan the optimizer would no longer
//!   pick — the classic generic-plan trade-off — but never an incorrect
//!   one: membership and ranking semantics live in the re-bound expressions
//!   and the query's own ranking context, not in the cached shape.
//!
//! [`PhysicalPlan::with_params`]: ranksql_algebra::PhysicalPlan::with_params
//! [`PhysicalPlan::with_limit`]: ranksql_algebra::PhysicalPlan::with_limit

use std::fmt::Write as _;

use ranksql_algebra::RankQuery;
use ranksql_expr::{ScoreSource, ScoringFunction};

use crate::PlanMode;

/// Renders the normalized plan-cache key of a query under a plan mode.
///
/// The key is value-independent: binding different parameter values (or a
/// different `k` / different ranking weights) to the same prepared query
/// yields the same key, so repeated executions skip parse + optimize.
pub fn normalized_cache_key(query: &RankQuery, mode: PlanMode) -> String {
    let mut key = String::new();
    let _ = write!(key, "mode={mode:?};from=");
    key.push_str(&query.tables.join(","));
    key.push_str(";where=");
    for (i, p) in query.bool_predicates.iter().enumerate() {
        if i > 0 {
            key.push('&');
        }
        let _ = write!(key, "{p}");
    }
    key.push_str(";rank=");
    for (i, p) in query.ranking.predicates().iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        let source = match &p.source {
            ScoreSource::Attribute(c) => c.to_string(),
            ScoreSource::Expression(e) => e.to_string(),
        };
        let _ = write!(key, "{}:{}:{}", p.name, source, p.cost);
    }
    let _ = write!(key, ";scoring={}", scoring_tag(query.ranking.scoring()));
    key.push_str(";select=");
    match &query.projection {
        None => key.push('*'),
        Some(cols) => key.push_str(&cols.join(",")),
    }
    key
}

/// The scoring-function kind and arity, without concrete weights (weights
/// are re-bindable per execution and never change the plan's correctness).
fn scoring_tag(scoring: &ScoringFunction) -> String {
    match scoring {
        ScoringFunction::Sum => "sum".to_owned(),
        ScoringFunction::WeightedSum(w) => format!("wsum/{}", w.len()),
        ScoringFunction::Product => "product".to_owned(),
        ScoringFunction::Min => "min".to_owned(),
        ScoringFunction::Max => "max".to_owned(),
        ScoringFunction::Average => "avg".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksql_expr::{
        BoolExpr, CompareOp, RankPredicate, RankingContext, ScalarExpr, ScoringFunction,
    };

    fn query_with(filter: BoolExpr, scoring: ScoringFunction, k: usize) -> RankQuery {
        let ranking = RankingContext::new(
            vec![
                RankPredicate::attribute("p1", "R.p1"),
                RankPredicate::attribute_with_cost("p2", "S.p2", 7),
            ],
            scoring,
        );
        RankQuery::new(vec!["R".into(), "S".into()], vec![filter], ranking, k)
    }

    fn param_filter(value: Option<i64>) -> BoolExpr {
        let param = match value {
            None => ScalarExpr::param(0),
            Some(v) => ScalarExpr::param(0)
                .with_params(&[ranksql_common::Value::from(v)])
                .unwrap(),
        };
        BoolExpr::compare(ScalarExpr::col("R.a"), CompareOp::Lt, param)
    }

    #[test]
    fn key_is_independent_of_bindings_k_and_weights() {
        let base = normalized_cache_key(
            &query_with(param_filter(None), ScoringFunction::Sum, 5),
            PlanMode::RankAware,
        );
        // Binding a value, changing k: same key.
        let bound = normalized_cache_key(
            &query_with(param_filter(Some(42)), ScoringFunction::Sum, 500),
            PlanMode::RankAware,
        );
        assert_eq!(base, bound);
        // Different weights, same arity: same key.
        let w1 = normalized_cache_key(
            &query_with(
                param_filter(None),
                ScoringFunction::weighted_sum(vec![1.0, 2.0]),
                5,
            ),
            PlanMode::RankAware,
        );
        let w2 = normalized_cache_key(
            &query_with(
                param_filter(None),
                ScoringFunction::weighted_sum(vec![3.0, 0.5]),
                5,
            ),
            PlanMode::RankAware,
        );
        assert_eq!(w1, w2);
        assert_ne!(base, w1, "scoring kind must be part of the key");
    }

    #[test]
    fn key_separates_modes_and_shapes() {
        let q = query_with(param_filter(None), ScoringFunction::Sum, 5);
        let a = normalized_cache_key(&q, PlanMode::RankAware);
        assert_ne!(a, normalized_cache_key(&q, PlanMode::Traditional));
        // A different literal *shape* (non-parameterized constant) differs.
        let lit = query_with(
            BoolExpr::compare(
                ScalarExpr::col("R.a"),
                CompareOp::Lt,
                ScalarExpr::lit(42i64),
            ),
            ScoringFunction::Sum,
            5,
        );
        assert_ne!(a, normalized_cache_key(&lit, PlanMode::RankAware));
        assert!(a.contains("$0"), "{a}");
    }
}
