//! Expressions, Boolean predicates, ranking predicates and scoring functions.
//!
//! A rank-relational query (Eq. 1 of the paper) combines two kinds of
//! predicates:
//!
//! * **Boolean predicates** (`c1, ..., cm`) — selections and join conditions
//!   that restrict tuple *membership*; modelled here by [`BoolExpr`].
//! * **Ranking predicates** (`p1, ..., pn`) — functions returning a score in
//!   `[0, 1]` that, combined by a monotonic [`ScoringFunction`] `F`, restrict
//!   the *order* of results; modelled here by [`RankPredicate`].
//!
//! The crate also defines [`ScoreState`] / [`RankedTuple`], the bookkeeping a
//! tuple carries through a ranking query plan: which predicates have been
//! evaluated and their scores, from which the *maximal-possible score*
//! `F_P[t]` (Property 1, the Ranking Principle) is computed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod boolean;
pub mod ranking;
pub mod scalar;
pub mod scoring;
pub mod state;

pub use boolean::{BoolExpr, BoundBoolExpr, CompareOp};
pub use ranking::{
    BoundRankPredicate, BoundRanking, EvalCounters, RankPredicate, RankingContext, ScoreSource,
};
pub use scalar::{BinaryOp, BoundScalarExpr, ColumnRef, ScalarExpr};
pub use scoring::ScoringFunction;
pub use state::{RankedTuple, ScoreState, MAX_RANKING_PREDICATES};
