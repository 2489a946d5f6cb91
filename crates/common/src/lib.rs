//! Common foundational types shared by every RankSQL crate.
//!
//! This crate defines the vocabulary of the engine:
//!
//! * [`Value`] / [`DataType`] — the dynamically typed cell values stored in
//!   relations and produced by expressions.
//! * [`Schema`] / [`Field`] — (qualified) column descriptions for base tables
//!   and intermediate relations.
//! * [`Tuple`] / [`TupleId`] — rows flowing through the engine, each carrying
//!   a provenance identity used for deterministic tie-breaking (Definition 1
//!   of the paper requires a deterministic order even when scores tie).
//! * [`Score`] — a total-ordered wrapper over `f64` used for ranking scores.
//! * [`BitSet64`] — a small, copyable bitset used for relation sets and
//!   ranking-predicate sets (the two *dimensions* of the optimizer).
//! * [`Batch`] — the reusable chunk buffer of the executor's vectorized
//!   (batched) pull interface.
//! * [`WorkerPool`] — the scoped-thread pool underneath morsel-driven
//!   parallel execution.
//! * [`RankSqlError`] — the error type used across the workspace.
//! * [`wire`] — the length-prefixed client/server wire protocol: framing,
//!   payload codecs, stable error codes, and the result-stream fingerprint
//!   used for byte-identical end-to-end verification.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod bitset;
pub mod cost;
pub mod error;
pub mod pool;
pub mod schema;
pub mod score;
pub mod tuple;
pub mod value;
pub mod wire;

pub use batch::{Batch, DEFAULT_BATCH_SIZE};
pub use bitset::BitSet64;
pub use cost::Cost;
pub use error::{RankSqlError, Result};
pub use pool::{default_thread_count, morsel_ranges, WorkerPool, DEFAULT_MORSEL_SIZE, MAX_THREADS};
pub use schema::{Field, Schema};
pub use score::Score;
pub use tuple::{JoinedRow, Row, Tuple, TupleId};
pub use value::{cmp_f64_total, DataType, Value};
