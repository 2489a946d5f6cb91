//! The pipelined, incremental execution engine of RankSQL (Section 4).
//!
//! Plans are trees of Volcano-style iterators ([`PhysicalOperator`]): the
//! consumer repeatedly calls `next_batch` on the root, which recursively
//! draws tuples from its inputs.  The rank-aware operators implement the paper's
//! incremental execution model: tuple streams flow in non-increasing order of
//! their *maximal-possible scores* (`F_P[t]`, Property 1), so a top-k query
//! stops as soon as `k` results have surfaced and execution cost is
//! proportional to `k` rather than to the full input.
//!
//! Operators provided:
//!
//! | operator | module | rank-aware? |
//! |---|---|---|
//! | sequential scan (sealed blocks + tail, zone maps) | [`column_scan`] | no (`P = ∅`) |
//! | rank-scan (`idxScan_p`), attribute index scan | [`scan`] | rank-scan: yes |
//! | filter (σ), project (π) | [`filter`] | order-preserving |
//! | rank (µ) | [`rank`] | yes |
//! | multi-predicate rank with minimal probing (MPro) | [`mpro`] | yes |
//! | nested-loop / hash / sort-merge join | [`join`] | no (blocking) |
//! | HRJN, NRJN rank-joins | [`rank_join`] | yes |
//! | sort (τ, materialise-then-sort), top-k limit (λ) | [`sort_limit`] | sort: blocking |
//! | union, intersection, difference | [`set_ops`] | intersection/difference incremental |
//! | fused top-k sort (τ+λ, bounded heap) | [`sort_limit`] | blocking, `O(k)` memory |
//! | exchange / repartition (morsel-parallel gather + partitioning) | [`exchange`] | deterministic merge |
//!
//! The executor consumes the [`ranksql_algebra::PhysicalPlan`] IR:
//! [`build::build_operator`] instantiates the named operator for every node
//! — a mechanical walk with no physical decisions left in it — threading
//! one [`ExecutionContext`] (ranking context, metrics registry, tuple
//! budget, batch size) through every operator constructor.
//! [`build::execute_physical_plan`] drives a plan to completion;
//! [`build::execute_plan`] / [`build::execute_query_plan`] accept a
//! [`ranksql_algebra::LogicalPlan`] and lower it structurally first.
//!
//! **One pull method.** [`operator::PhysicalOperator::next_batch`] is the
//! only way tuples leave an operator: it appends up to `max` of them to a
//! reusable [`operator::Batch`].  Membership-oriented operators (scans, σ/π,
//! the traditional joins, sorts, limits, ∪/−) fill the chunk in one loop —
//! amortizing dispatch, metric updates and budget accounting — while the
//! rank-aware operators (µ, MPro, HRJN/NRJN, ∩) emit up to `max` results
//! but draw their inputs one tuple at a time, which keeps the paper's
//! incremental top-k semantics exact for every `max`.  The root driver
//! ([`build::execute_physical_plan`]) pulls [`ExecutionContext::batch_size`]
//! tuples at a time, and blocking operators drain their inputs in chunks of
//! the same size.
//!
//! **Morsel-driven parallelism.** Plans whose parallel-safe subtrees were
//! wrapped in `Exchange`/`Repartition` nodes (the optimizer's
//! `parallelize` pass) fan morsels of the driving scan across a scoped
//! worker pool of [`ExecutionContext::threads`] threads and reassemble the
//! outputs deterministically — byte-identical to serial execution for any
//! thread count; see the [`exchange`] module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod build;
pub mod column_scan;
pub mod context;
pub mod exchange;
pub mod filter;
pub mod fxhash;
pub mod join;
pub mod kernel;
pub mod metrics;
pub mod mpro;
pub mod operator;
pub mod oracle;
pub mod rank;
pub mod rank_join;
pub mod scan;
pub mod set_ops;
pub mod sort_limit;

pub use build::{
    build_operator, build_over_inputs, execute_physical_plan, execute_plan, execute_query_plan,
    zone_score_caps, ExecutionResult,
};
pub use column_scan::ColumnScan;
pub use context::{ExecutionContext, TopKThreshold, TupleBudget};
pub use exchange::{ExchangeOp, RepartitionPassthrough};
pub use metrics::{MetricsRegistry, OperatorMetrics};
pub use mpro::MProOp;
pub use operator::{drain_batched, Batch, BoxedOperator, PhysicalOperator, Replay};
pub use oracle::oracle_top_k;
