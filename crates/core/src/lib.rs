//! RankSQL: ranking (top-k) queries as a first-class database construct.
//!
//! This crate is the user-facing facade of the RankSQL reproduction: it ties
//! the storage substrate, the rank-relational algebra, the incremental
//! executor and the rank-aware optimizer together behind a small API:
//!
//! ```
//! use ranksql_core::{Database, QueryBuilder};
//! use ranksql_common::{DataType, Field, Schema, Value};
//! use ranksql_expr::{RankPredicate, ScoringFunction};
//!
//! let db = Database::new();
//! db.create_table(
//!     "Restaurant",
//!     Schema::new(vec![
//!         Field::new("name", DataType::Utf8),
//!         Field::new("food", DataType::Float64),
//!         Field::new("service", DataType::Float64),
//!     ]),
//! )
//! .unwrap();
//! db.insert("Restaurant", vec![Value::from("trattoria"), Value::from(0.9), Value::from(0.7)])
//!     .unwrap();
//! db.insert("Restaurant", vec![Value::from("bistro"), Value::from(0.6), Value::from(0.95)])
//!     .unwrap();
//!
//! let query = QueryBuilder::new()
//!     .table("Restaurant")
//!     .rank_predicate(RankPredicate::attribute("food", "Restaurant.food"))
//!     .rank_predicate(RankPredicate::attribute("service", "Restaurant.service"))
//!     .scoring(ScoringFunction::Sum)
//!     .limit(1)
//!     .build()
//!     .unwrap();
//!
//! let result = db.execute(&query).unwrap();
//! assert_eq!(result.rows.len(), 1);
//! assert_eq!(result.rows[0].tuple.value(0), &Value::from("trattoria"));
//! ```
//!
//! A small SQL-ish front end ([`parse_topk_query`]) accepts the paper's
//! `SELECT ... FROM ... WHERE ... ORDER BY p1 + p2 ... LIMIT k` syntax.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod cursor;
pub mod database;
pub mod parser;
pub mod prepared;
pub mod registry;
pub mod result;
pub mod session;

pub use builder::QueryBuilder;
pub use cursor::{Cursor, CursorRows};
pub use database::{Database, PlanCacheLookup, PlanCacheStats};
pub use parser::{parse_topk_query, ParseError};
pub use prepared::{BoundQuery, Params, PreparedQuery};
pub use registry::{CursorRegistry, DEFAULT_MAX_OPEN_CURSORS};
pub use result::QueryResult;
pub use session::{Session, SessionSettings};

// Re-export the main vocabulary so downstream users need only this crate.
pub use ranksql_algebra::{JoinAlgorithm, LogicalPlan, RankQuery, ScanAccess, SetOpKind};
pub use ranksql_expr::{
    BoolExpr, CompareOp, RankPredicate, RankingContext, ScalarExpr, ScoringFunction,
};
pub use ranksql_optimizer::{OptimizedPlan, OptimizerConfig, PlanMode, RankOptimizer};
pub use ranksql_storage::{PagedOptions, PagedStore};
