//! The rank-aware query optimizer of RankSQL (Section 5).
//!
//! Three pieces make up the optimizer:
//!
//! * a **sampling-based cardinality estimator** ([`sampling`]) for rank-aware
//!   operators: a small per-table sample is drawn, the query is evaluated on
//!   the samples to estimate `x'` — the score of the `k'`-th answer — and a
//!   candidate subplan's output cardinality is obtained by executing it over
//!   the samples and scaling the number of outputs whose upper bound exceeds
//!   `x'` (Section 5.2);
//! * a **cost model** ([`cost`]) combining scan, predicate-evaluation, join
//!   and sort costs over the estimated cardinalities;
//! * the **two-dimensional dynamic-programming enumeration** ([`enumerate`]):
//!   subplan signatures are pairs `(SR, SP)` of the joined relations and the
//!   evaluated ranking predicates (Figure 8), optionally restricted by the
//!   left-deep and greedy rank-scheduling heuristics of Figure 10.  The
//!   ranking-blind System-R baseline ([`optimize_traditional`]) is the same
//!   search's `SP = ∅` plane with a sort on top: the materialise-then-sort
//!   comparison point.
//!
//! [`RankOptimizer`] ties the pieces together behind one entry point.  Every
//! cost-based [`PlanMode`] plans at most 12 relations; `Canonical` is not
//! searched and has no bound.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod columnar;
pub mod cost;
pub mod enumerate;
pub mod lower;
pub mod sampling;

use ranksql_algebra::{LogicalPlan, PhysicalPlan, RankQuery};
use ranksql_common::{wire::mode_code, RankSqlError, Result};
use ranksql_storage::Catalog;

pub use cache::normalized_cache_key;
pub use columnar::columnarize;
pub use cost::{Cost, CostModel};
pub use enumerate::{optimize_traditional, DpOptimizer, EnumerationStats};
pub use lower::{lower_with_estimates, physical_estimates};
pub use sampling::SamplingEstimator;

/// How a query is planned.  The discriminant is the mode's wire code (the
/// `HELLO` encoding, [`mode_code`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum PlanMode {
    /// The two-dimensional DP restricted by the heuristics of Figure 10:
    /// left-deep join trees and greedy rank-metric scheduling of µ operators
    /// (the default).
    #[default]
    RankAware = mode_code::RANK_AWARE,
    /// Full two-dimensional dynamic programming over `(SR, SP)` signatures
    /// (Figure 8), including bushy join trees.
    RankAwareExhaustive = mode_code::RANK_AWARE_EXHAUSTIVE,
    /// The ranking-blind baseline: the DP's `SP = ∅` plane (join order
    /// only, bushy), with a blocking sort and limit on top.
    Traditional = mode_code::TRADITIONAL,
    /// No optimization: the canonical plan of Eq. 1, as written.
    Canonical = mode_code::CANONICAL,
}

impl PlanMode {
    /// The mode's wire code.
    pub fn wire_code(self) -> u8 {
        self as u8
    }

    /// The mode a wire code names, if any.
    pub fn from_wire_code(code: u8) -> Option<PlanMode> {
        [
            PlanMode::RankAware,
            PlanMode::RankAwareExhaustive,
            PlanMode::Traditional,
            PlanMode::Canonical,
        ]
        .into_iter()
        .find(|m| m.wire_code() == code)
    }
}

/// The most relations a cost-based search plans: the DP keeps up to `3^h`
/// `(SR, SP)` signatures, and the estimator's table sets are 64-bit.
const MAX_RELATIONS: usize = 12;

/// Configuration of the optimizer.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Search strategy.
    pub mode: PlanMode,
    /// Sampling ratio for cardinality estimation (the paper uses 0.1 %).
    pub sample_ratio: f64,
    /// RNG seed for sampling (deterministic plans for a given seed).
    pub seed: u64,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            mode: PlanMode::RankAware,
            sample_ratio: 0.01,
            seed: 0xC0FFEE,
        }
    }
}

/// The outcome of optimization.
#[derive(Debug, Clone)]
pub struct OptimizedPlan {
    /// The chosen plan (already wrapped in the top-k limit).
    pub plan: LogicalPlan,
    /// The physical plan the executor will run, with per-node cost and
    /// cardinality estimates.
    pub physical: PhysicalPlan,
    /// Its estimated cost.
    pub cost: Cost,
    /// Estimated cardinality of the plan root before the limit.
    pub estimated_cardinality: f64,
    /// Search statistics (plans generated, signatures kept, ...).
    pub stats: EnumerationStats,
}

/// The rank-aware optimizer: builds the sampling estimator once per query and
/// runs the configured plan search.
pub struct RankOptimizer {
    config: OptimizerConfig,
}

impl RankOptimizer {
    /// Creates an optimizer with the given configuration.
    pub fn new(config: OptimizerConfig) -> Self {
        RankOptimizer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Optimizes a query against a catalog.
    ///
    /// The returned plan does not depend on a thread count: the executor
    /// decides at run time which sorts run their input per morsel.
    ///
    /// `Canonical` returns the canonical plan of Eq. 1 before any estimator
    /// is built, at cost 0 and cardinality `k`.  Every other mode first
    /// rejects a query over more than 12 relations.
    pub fn optimize(&self, query: &RankQuery, catalog: &Catalog) -> Result<OptimizedPlan> {
        if self.config.mode == PlanMode::Canonical {
            let plan = query.canonical_plan(catalog)?;
            return Ok(OptimizedPlan {
                physical: PhysicalPlan::from_logical(&plan)?,
                plan,
                cost: Cost::ZERO,
                estimated_cardinality: query.k as f64,
                stats: EnumerationStats::default(),
            });
        }
        let relations = query.tables.len();
        if relations > MAX_RELATIONS {
            return Err(RankSqlError::Optimizer(format!(
                "plan search supports at most {MAX_RELATIONS} relations, got {relations}"
            )));
        }
        let estimator =
            SamplingEstimator::build(query, catalog, self.config.sample_ratio, self.config.seed)?;
        let cost_model = CostModel::default();

        if self.config.mode == PlanMode::Traditional {
            return optimize_traditional(query, catalog, &estimator, &cost_model);
        }
        // RankAware or RankAwareExhaustive: Canonical returned above.
        let heuristic = self.config.mode == PlanMode::RankAware;
        let mut best = DpOptimizer::new(query, catalog, &estimator, cost_model.clone(), heuristic)
            .optimize()?;
        // The traditional materialise-then-sort plan wins when it is cheaper
        // (when joins are very selective, cf. Figure 12(c)).
        let trad = optimize_traditional(query, catalog, &estimator, &cost_model)?;
        if trad.cost < best.cost {
            let stats = best.stats;
            best = trad;
            best.stats = stats;
        }
        best.stats.operator_runs = estimator.operator_runs();
        best.stats.sample_rows = estimator.sample_rows();
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksql_common::{DataType, Field, Schema, Value};
    use ranksql_executor::{execute_query_plan, oracle_top_k};
    use ranksql_expr::{BoolExpr, RankPredicate, RankingContext, ScoringFunction};

    fn setup(rows: usize) -> (Catalog, RankQuery) {
        let cat = Catalog::new();
        let a = cat
            .create_table(
                "A",
                Schema::new(vec![
                    Field::new("jc", DataType::Int64),
                    Field::new("p1", DataType::Float64),
                    Field::new("b", DataType::Bool),
                ]),
            )
            .unwrap();
        let b = cat
            .create_table(
                "B",
                Schema::new(vec![
                    Field::new("jc", DataType::Int64),
                    Field::new("p2", DataType::Float64),
                ]),
            )
            .unwrap();
        for i in 0..rows {
            a.insert(vec![
                Value::from((i % 23) as i64),
                Value::from(((i * 37) % 100) as f64 / 100.0),
                Value::from(i % 5 != 0),
            ])
            .unwrap();
            b.insert(vec![
                Value::from((i % 23) as i64),
                Value::from(((i * 61) % 100) as f64 / 100.0),
            ])
            .unwrap();
        }
        let ranking = RankingContext::new(
            vec![
                RankPredicate::attribute_with_cost("p1", "A.p1", 1),
                RankPredicate::attribute_with_cost("p2", "B.p2", 1),
            ],
            ScoringFunction::Sum,
        );
        let query = RankQuery::new(
            vec!["A".into(), "B".into()],
            vec![
                BoolExpr::col_eq_col("A.jc", "B.jc"),
                BoolExpr::column_is_true("A.b"),
            ],
            ranking,
            5,
        );
        (cat, query)
    }

    fn result_scores(query: &RankQuery, cat: &Catalog, plan: &LogicalPlan) -> Vec<f64> {
        execute_query_plan(query, plan, cat)
            .unwrap()
            .tuples
            .iter()
            .map(|t| query.ranking.upper_bound(&t.state).value())
            .collect()
    }

    #[test]
    fn all_modes_produce_plans_matching_the_oracle() {
        let (cat, query) = setup(300);
        let oracle: Vec<f64> = oracle_top_k(&query, &cat)
            .unwrap()
            .iter()
            .map(|t| query.ranking.upper_bound(&t.state).value())
            .collect();
        for mode in [
            PlanMode::Traditional,
            PlanMode::RankAwareExhaustive,
            PlanMode::RankAware,
        ] {
            let opt = RankOptimizer::new(OptimizerConfig {
                mode,
                sample_ratio: 0.1,
                ..OptimizerConfig::default()
            });
            let plan = opt.optimize(&query, &cat).unwrap();
            let scores = result_scores(&query, &cat, &plan.plan);
            assert_eq!(scores, oracle, "mode {mode:?} returned wrong top-k");
        }
    }

    #[test]
    fn rank_aware_optimizer_prefers_pipelined_plans_for_expensive_predicates() {
        let (cat, mut query) = setup(400);
        // Make the ranking predicates expensive so the materialise-then-sort
        // plan (which evaluates them on every join result) is clearly worse.
        query.ranking = RankingContext::new(
            vec![
                RankPredicate::attribute_with_cost("p1", "A.p1", 200),
                RankPredicate::attribute_with_cost("p2", "B.p2", 200),
            ],
            ScoringFunction::Sum,
        );
        let opt = RankOptimizer::new(OptimizerConfig {
            mode: PlanMode::RankAware,
            sample_ratio: 0.1,
            ..OptimizerConfig::default()
        });
        let chosen = opt.optimize(&query, &cat).unwrap();
        assert!(
            chosen.plan.rank_operator_count() > 0,
            "expected a rank-aware plan, got:\n{}",
            chosen.plan.explain(Some(&query.ranking))
        );
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = OptimizerConfig::default();
        assert_eq!(cfg.mode, PlanMode::RankAware);
        assert!(cfg.sample_ratio > 0.0 && cfg.sample_ratio < 1.0);
    }

    #[test]
    fn wire_codes_round_trip_every_plan_mode() {
        let modes = [
            PlanMode::RankAware,
            PlanMode::RankAwareExhaustive,
            PlanMode::Traditional,
            PlanMode::Canonical,
        ];
        for mode in modes {
            assert_eq!(PlanMode::from_wire_code(mode.wire_code()), Some(mode));
        }
        let mut codes: Vec<u8> = modes.iter().map(|m| m.wire_code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), modes.len(), "codes must be distinct");
        assert_eq!(PlanMode::from_wire_code(2), None, "code 2 is retired");
        assert_eq!(PlanMode::from_wire_code(200), None);
    }
}
