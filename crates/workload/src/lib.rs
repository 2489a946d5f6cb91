//! Workload and dataset generators for the RankSQL reproduction.
//!
//! Three data sources are provided:
//!
//! * [`micro`] — the tiny hand-crafted relations of Figure 2 (R, R′, S) used
//!   throughout the paper's running examples; handy for tests and for the
//!   quick-start example.
//! * [`synthetic`] — the Section 6 experimental workload: three tables
//!   (A, B, C) of equal size with join columns `jc1`, `jc2`, Boolean
//!   attributes of selectivity 0.4 on A and B, and 2 + 2 + 1 ranking
//!   predicates whose scores follow uniform, normal and cosine
//!   distributions, with a tunable per-evaluation cost.  The paper's query Q
//!   and its four hand-built execution plans (Figure 11) are derived from
//!   this module by `ranksql-bench`.
//! * [`trip`] — the Example 1 trip-planning scenario (Hotel, Restaurant,
//!   Museum) used by the `trip_planning` example.
//!
//! The crate also hosts [`client`], the blocking wire-protocol client for
//! the `ranksql-server` front end, shared by the load-generator example,
//! the server end-to-end tests and the server throughput bench.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod db;
pub mod micro;
pub mod synthetic;
pub mod trip;

pub use client::{stats_value, ClientError, ClientResult, WireClient};
pub use db::catalog_into_database;
pub use synthetic::{SyntheticConfig, SyntheticWorkload};
pub use trip::TripWorkload;
