//! RankSQL — rank-aware relational query processing in Rust.
//!
//! This is the umbrella crate of the workspace: it re-exports the public API
//! of every component ([`core`], [`algebra`], [`executor`], [`optimizer`],
//! [`storage`], [`expr`], [`common`], [`workload`], [`server`]) so
//! applications can
//! depend on a single crate.  The crate front page below is the repository
//! README, included verbatim so its quickstart snippet is compiled and run
//! as a doctest; see `ARCHITECTURE.md` in the repository for the crate DAG
//! and execution model, and the `examples/` directory for runnable
//! end-to-end programs.
#![doc = include_str!("../README.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ranksql_algebra as algebra;
pub use ranksql_common as common;
pub use ranksql_core as core;
pub use ranksql_executor as executor;
pub use ranksql_expr as expr;
pub use ranksql_optimizer as optimizer;
pub use ranksql_server as server;
pub use ranksql_storage as storage;
pub use ranksql_verify as verify;
pub use ranksql_workload as workload;

pub use ranksql_common::{DataType, Field, RankSqlError, Result, Schema, Score, Tuple, Value};
pub use ranksql_core::{
    parse_topk_query, BoolExpr, BoundQuery, CompareOp, Cursor, CursorRows, Database, JoinAlgorithm,
    LogicalPlan, OptimizerConfig, Params, ParseError, PlanCacheLookup, PlanCacheStats, PlanMode,
    PreparedQuery, QueryBuilder, QueryResult, RankPredicate, RankQuery, RankingContext, ScalarExpr,
    ScoringFunction, Session, SessionSettings,
};
pub use ranksql_optimizer::{OptimizedPlan, RankOptimizer};
pub use ranksql_storage::{PagedOptions, PagedStore};
pub use ranksql_verify::{validate_logical, validate_physical, Diagnostic, Rule, Severity};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn umbrella_reexports_compose() {
        let db = Database::new();
        db.create_table(
            "T",
            Schema::new(vec![
                Field::new("x", DataType::Int64),
                Field::new("p", DataType::Float64),
            ]),
        )
        .unwrap();
        db.insert("T", vec![Value::from(1), Value::from(0.4)])
            .unwrap();
        db.insert("T", vec![Value::from(2), Value::from(0.8)])
            .unwrap();
        let q = parse_topk_query("SELECT * FROM T ORDER BY T.p LIMIT 1").unwrap();
        let r = db.execute_with_mode(&q, PlanMode::Canonical).unwrap();
        assert_eq!(r.rows[0].tuple.value(0), &Value::from(2));
    }
}
