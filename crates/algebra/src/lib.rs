//! The rank-relational algebra (Section 3 of the RankSQL paper).
//!
//! The algebra extends relational algebra so that *ranking* is a first-class
//! logical property, parallel to membership:
//!
//! * a **rank-relation** `R_P` is a relation whose tuples are ordered by
//!   their maximal-possible score under the evaluated ranking-predicate set
//!   `P` (Definition 1);
//! * the new **rank operator** `µ_p` evaluates one more ranking predicate and
//!   re-orders its input accordingly;
//! * the existing operators (σ, π, ∪, ∩, −, ⋈) are generalised to be
//!   rank-aware: they manipulate membership exactly as before and maintain /
//!   combine the order property as defined in Figure 3;
//! * a set of **algebraic laws** (Figure 5) licenses splitting the monolithic
//!   sort into µ operators and interleaving them with other operators.
//!
//! This crate defines the *logical* side: [`LogicalPlan`] nodes, their
//! rank-relation properties (schema, evaluated predicate set, relations), the
//! query specification [`RankQuery`], the canonical materialise-then-sort
//! form (Eq. 1), and the laws as executable rewrite rules in [`laws`] — plus
//! the [`PhysicalPlan`] IR ([`physical`]) that the optimizer lowers logical
//! plans into and that the executor consumes.  Physical *execution* lives in
//! `ranksql-executor`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod laws;
pub mod physical;
pub mod plan;
pub mod query;

pub use laws::{equivalent_plans, RewriteRule};
pub use physical::{ColumnarScan, OperatorActuals, PhysicalOp, PhysicalPlan};
pub use plan::{JoinAlgorithm, LogicalPlan, ScanAccess, SetOpKind};
pub use query::RankQuery;
