//! A Volcano/Cascades-style rule-based optimizer (Section 5).
//!
//! The paper observes that the rank-relational algebra slots into both
//! families of real-world optimizers: the System-R style bottom-up dynamic
//! programming framework (implemented in [`crate::enumerate`]) and the
//! top-down, transformation-rule driven optimizers exemplified by Volcano and
//! Cascades.  This module implements the latter:
//!
//! * **Transformation rules** are the algebraic laws of Figure 5
//!   ([`ranksql_algebra::laws`]): splitting the blocking sort into a chain of
//!   µ operators, commuting µ with σ and with other µ, pushing µ through
//!   joins and set operations, commuting/associating binary operators, and
//!   the multiple-scan law.
//! * **Implementation rules** map logical shapes to physical algorithms:
//!   a µ directly above a base-table scan becomes a *rank-scan*
//!   (`idxScan_p`), and each join node is offered every physical join
//!   algorithm that preserves the plan's order property (HRJN/NRJN when
//!   ranking is in play below the join, hash/sort-merge/nested-loops
//!   otherwise).
//!
//! Exploration is a budgeted best-effort closure: starting from the canonical
//! materialise-then-sort plan *and* the best traditional join order, the
//! optimizer repeatedly applies all rules everywhere, de-duplicates, costs
//! each complete plan with the sampling-based estimator (Section 5.2), and
//! keeps the cheapest.  Unlike the memoised DP, the search is redundant — the
//! same subplan may be re-derived along different paths — but it needs no
//! signature bookkeeping and mirrors how a Volcano-style engine would adopt
//! the new rules with minimal integration effort, which is exactly the point
//! the paper makes about rule-based extensibility.

use std::collections::HashSet;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use ranksql_algebra::laws::{all_rules, apply_rule_everywhere};
use ranksql_algebra::{JoinAlgorithm, LogicalPlan, RankQuery, ScanAccess};
use ranksql_common::{RankSqlError, Result};
use ranksql_storage::Catalog;

use crate::cost::{Cost, CostModel};
use crate::enumerate::EnumerationStats;
use crate::sampling::SamplingEstimator;
use crate::{optimize_traditional, OptimizedPlan};

/// Tunables of the rule-based search.
#[derive(Debug, Clone)]
pub struct RuleBasedConfig {
    /// Maximum number of distinct plans to generate (exploration budget).
    pub max_plans: usize,
    /// Maximum number of plans to cost (costing executes the plan over the
    /// sample tables, so it is the expensive part of the search).
    pub max_costed: usize,
}

impl Default for RuleBasedConfig {
    fn default() -> Self {
        RuleBasedConfig {
            max_plans: 2000,
            max_costed: 400,
        }
    }
}

/// The rule-based optimizer: transformation + implementation rules applied
/// from seed plans under a budget.
pub struct RuleBasedOptimizer<'a> {
    query: &'a RankQuery,
    catalog: &'a Catalog,
    estimator: Arc<SamplingEstimator>,
    cost_model: CostModel,
    config: RuleBasedConfig,
}

impl<'a> RuleBasedOptimizer<'a> {
    /// Creates a rule-based optimizer with the default exploration budget.
    pub fn new(
        query: &'a RankQuery,
        catalog: &'a Catalog,
        estimator: Arc<SamplingEstimator>,
        cost_model: CostModel,
    ) -> Self {
        RuleBasedOptimizer {
            query,
            catalog,
            estimator,
            cost_model,
            config: RuleBasedConfig::default(),
        }
    }

    /// Overrides the exploration budget.
    pub fn with_config(mut self, config: RuleBasedConfig) -> Self {
        self.config = config;
        self
    }

    fn cost(&self, plan: &LogicalPlan) -> Result<(Cost, f64)> {
        self.cost_model
            .cost_plan(plan, &self.query.ranking, &self.estimator)
    }

    /// Runs the search and returns the cheapest complete plan found.
    pub fn optimize(&self) -> Result<OptimizedPlan> {
        let start = Instant::now();
        if self.query.tables.is_empty() {
            return Err(RankSqlError::Optimizer("query has no tables".into()));
        }

        // Seed plans: the canonical materialise-then-sort form of Eq. 1 and
        // the best ranking-blind join order (which gives the search a good
        // membership-dimension starting point for free).
        let mut seeds = vec![self.query.canonical_plan(self.catalog)?];
        if let Ok(trad) =
            optimize_traditional(self.query, self.catalog, &self.estimator, &self.cost_model)
        {
            seeds.push(trad.plan);
        }

        let mut stats = EnumerationStats::default();
        let mut seen: HashSet<String> = HashSet::new();
        let mut frontier: VecDeque<LogicalPlan> = VecDeque::new();
        for seed in seeds {
            if seen.insert(format!("{seed:?}")) {
                frontier.push_back(seed);
            }
        }

        let rules = all_rules();
        let mut best: Option<(LogicalPlan, Cost, f64)> = None;
        let mut generated = seen.len();
        let mut costed = 0usize;

        while let Some(plan) = frontier.pop_front() {
            // Cost this plan if it is complete and the costing budget allows.
            if costed < self.config.max_costed && self.is_complete(&plan) {
                if let Ok((cost, card)) = self.cost(&plan) {
                    costed += 1;
                    stats.plans_considered += 1;
                    if best.as_ref().map(|(_, c, _)| cost < *c).unwrap_or(true) {
                        best = Some((plan.clone(), cost, card));
                    }
                }
            }
            if generated >= self.config.max_plans {
                continue;
            }

            // Transformation rules (the Figure 5 laws), applied at every node.
            let mut successors: Vec<LogicalPlan> = Vec::new();
            for rule in &rules {
                successors.extend(apply_rule_everywhere(&plan, rule.as_ref(), self.query));
            }
            // Implementation rules.
            successors.extend(self.merge_rank_into_scan(&plan));
            successors.extend(self.join_algorithm_alternatives(&plan));

            for next in successors {
                if generated >= self.config.max_plans {
                    break;
                }
                if seen.insert(format!("{next:?}")) {
                    generated += 1;
                    frontier.push_back(next);
                }
            }
        }

        stats.signatures_kept = seen.len();
        stats.elapsed = start.elapsed();

        let (plan, cost, card) = best.ok_or_else(|| {
            RankSqlError::Optimizer("rule-based search found no complete plan".into())
        })?;
        let physical = crate::lower::lower_with_estimates(
            &plan,
            &self.query.ranking,
            &self.estimator,
            &self.cost_model,
        )?;
        stats.operator_runs = self.estimator.operator_runs();
        stats.sample_rows = self.estimator.sample_rows();
        Ok(OptimizedPlan {
            plan,
            physical,
            cost,
            estimated_cardinality: card,
            stats,
        })
    }

    /// A plan is complete when it evaluates every ranking predicate of the
    /// query and delivers exactly the top-k (a `Limit` is present at or above
    /// the root modulo a projection).
    fn is_complete(&self, plan: &LogicalPlan) -> bool {
        if plan.evaluated_predicates() != self.query.all_rank_predicates() {
            return false;
        }
        fn has_limit(plan: &LogicalPlan) -> bool {
            match plan {
                LogicalPlan::Limit { .. } => true,
                LogicalPlan::Project { input, .. } => has_limit(input),
                _ => false,
            }
        }
        has_limit(plan)
    }

    // -----------------------------------------------------------------------
    // Implementation rule: µ_p over a base scan  →  rank-scan (idxScan_p)
    // -----------------------------------------------------------------------

    /// Finds every `Rank { Scan(Sequential) }` (optionally with a selection in
    /// between) whose predicate is a rank-selection on that very table, and
    /// replaces the pair with a rank-scan access path — the paper's
    /// `idxScan_p`, which Section 4.2 calls rank-scan.
    fn merge_rank_into_scan(&self, plan: &LogicalPlan) -> Vec<LogicalPlan> {
        let mut out = Vec::new();
        // At the root.
        if let Some(merged) = self.try_merge_at(plan) {
            out.push(merged);
        }
        // In each child subtree.
        let children = plan.children();
        for (i, child) in children.iter().enumerate() {
            for rewritten in self.merge_rank_into_scan(child) {
                let mut new_children: Vec<LogicalPlan> =
                    children.iter().map(|c| (*c).clone()).collect();
                new_children[i] = rewritten;
                out.push(plan.with_children(new_children));
            }
        }
        out
    }

    fn try_merge_at(&self, plan: &LogicalPlan) -> Option<LogicalPlan> {
        let LogicalPlan::Rank { input, predicate } = plan else {
            return None;
        };
        // The predicate must be a rank-selection over exactly the scanned
        // table (rank-join predicates cannot be served by a single index).
        let check_scan = |scan: &LogicalPlan| -> Option<LogicalPlan> {
            let LogicalPlan::Scan {
                table,
                schema,
                access: ScanAccess::Sequential,
            } = scan
            else {
                return None;
            };
            let ti = self.query.table_index(table).ok()?;
            let tables = self.query.rank_predicate_tables(*predicate).ok()?;
            if tables.len() != 1 || !tables.contains(ti) {
                return None;
            }
            Some(LogicalPlan::Scan {
                table: table.clone(),
                schema: schema.clone(),
                access: ScanAccess::RankIndex {
                    predicate: *predicate,
                },
            })
        };
        match &**input {
            // µ_p(SeqScan(T))  →  RankScan_p(T)
            scan @ LogicalPlan::Scan { .. } => check_scan(scan),
            // µ_p(σ_c(SeqScan(T)))  →  σ_c(RankScan_p(T))   (scan-based selection)
            LogicalPlan::Select {
                input: scan,
                predicate: cond,
            } => check_scan(scan).map(|rank_scan| rank_scan.select(cond.clone())),
            _ => None,
        }
    }

    // -----------------------------------------------------------------------
    // Implementation rule: physical join algorithm alternatives
    // -----------------------------------------------------------------------

    /// For every join node, generates one alternative plan per other
    /// [`JoinAlgorithm::admissible`] algorithm: rank-aware ones whenever a
    /// ranking predicate has been evaluated below the join.
    fn join_algorithm_alternatives(&self, plan: &LogicalPlan) -> Vec<LogicalPlan> {
        let mut out = Vec::new();
        if let LogicalPlan::Join {
            left,
            right,
            condition,
            algorithm,
        } = plan
        {
            let ranked = !plan.evaluated_predicates().is_empty();
            for &alg in JoinAlgorithm::admissible(ranked, condition.as_ref()) {
                if alg != *algorithm {
                    out.push(LogicalPlan::Join {
                        left: left.clone(),
                        right: right.clone(),
                        condition: condition.clone(),
                        algorithm: alg,
                    });
                }
            }
        }
        let children = plan.children();
        for (i, child) in children.iter().enumerate() {
            for rewritten in self.join_algorithm_alternatives(child) {
                let mut new_children: Vec<LogicalPlan> =
                    children.iter().map(|c| (*c).clone()).collect();
                new_children[i] = rewritten;
                out.push(plan.with_children(new_children));
            }
        }
        out
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
                Value::from((i % 17) as i64),
                Value::from(((i * 37) % 100) as f64 / 100.0),
                Value::from(i % 5 != 0),
            ])
            .unwrap();
            b.insert(vec![
                Value::from((i % 17) as i64),
                Value::from(((i * 61) % 100) as f64 / 100.0),
            ])
            .unwrap();
        }
        let ranking = RankingContext::new(
            vec![
                RankPredicate::attribute_with_cost("p1", "A.p1", 50),
                RankPredicate::attribute_with_cost("p2", "B.p2", 50),
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

    fn optimize(query: &RankQuery, cat: &Catalog) -> OptimizedPlan {
        let est = Arc::new(SamplingEstimator::build(query, cat, 0.1, 7).unwrap());
        RuleBasedOptimizer::new(query, cat, est, CostModel::default())
            .optimize()
            .unwrap()
    }

    #[test]
    fn rule_based_plan_matches_the_oracle() {
        let (cat, query) = setup(300);
        let opt = optimize(&query, &cat);
        let result = execute_query_plan(&query, &opt.plan, &cat).unwrap();
        let oracle = oracle_top_k(&query, &cat).unwrap();
        let s = |ts: &[ranksql_expr::RankedTuple]| -> Vec<f64> {
            ts.iter()
                .map(|t| query.ranking.upper_bound(&t.state).value())
                .collect()
        };
        assert_eq!(s(&result.tuples), s(&oracle));
    }

    #[test]
    fn rule_based_search_discovers_pipelined_plans() {
        let (cat, query) = setup(400);
        let opt = optimize(&query, &cat);
        // With expensive predicates the cheapest discovered plan must be a
        // rank-aware one (no blocking sort, at least one µ / rank-scan /
        // rank-join).
        assert!(
            !opt.plan.has_blocking_sort() && opt.plan.rank_operator_count() > 0,
            "expected a pipelined rank-aware plan, got:\n{}",
            opt.plan.explain(Some(&query.ranking))
        );
        assert!(opt.cost.is_finite());
        assert!(opt.stats.plans_considered > 1);
    }

    #[test]
    fn merge_rank_into_scan_produces_rank_scan_access() {
        let (cat, query) = setup(50);
        let est = Arc::new(SamplingEstimator::build(&query, &cat, 0.5, 7).unwrap());
        let rb = RuleBasedOptimizer::new(&query, &cat, est, CostModel::default());
        let table = cat.table("A").unwrap();
        let plan = LogicalPlan::scan(&table).rank(0);
        let merged = rb.merge_rank_into_scan(&plan);
        assert!(merged.iter().any(|p| matches!(
            p,
            LogicalPlan::Scan {
                access: ScanAccess::RankIndex { predicate: 0 },
                ..
            }
        )));
        // Through a selection as well (scan-based selection).
        let plan = LogicalPlan::scan(&table)
            .select(BoolExpr::column_is_true("A.b"))
            .rank(0);
        let merged = rb.merge_rank_into_scan(&plan);
        assert!(merged.iter().any(
            |p| matches!(p, LogicalPlan::Select { .. }) && p.evaluated_predicates().contains(0)
        ));
        // Not for a predicate that lives on another table.
        let plan = LogicalPlan::scan(&table).rank(1);
        assert!(rb.merge_rank_into_scan(&plan).is_empty());
    }

    #[test]
    fn join_alternatives_respect_the_order_property() {
        let (cat, query) = setup(50);
        let est = Arc::new(SamplingEstimator::build(&query, &cat, 0.5, 7).unwrap());
        let rb = RuleBasedOptimizer::new(&query, &cat, est, CostModel::default());
        let a = cat.table("A").unwrap();
        let b = cat.table("B").unwrap();
        let cond = Some(BoolExpr::col_eq_col("A.jc", "B.jc"));
        // Unranked join: traditional algorithms offered.
        let plain = LogicalPlan::scan(&a).join(
            LogicalPlan::scan(&b),
            cond.clone(),
            JoinAlgorithm::NestedLoop,
        );
        let alts = rb.join_algorithm_alternatives(&plain);
        assert!(alts.iter().any(|p| matches!(
            p,
            LogicalPlan::Join {
                algorithm: JoinAlgorithm::Hash,
                ..
            }
        )));
        assert!(!alts.iter().any(|p| matches!(
            p,
            LogicalPlan::Join {
                algorithm: JoinAlgorithm::HashRankJoin,
                ..
            }
        )));
        // Ranked join: only rank-aware algorithms offered.
        let ranked = LogicalPlan::rank_scan(&a, 0).join(
            LogicalPlan::scan(&b),
            cond,
            JoinAlgorithm::HashRankJoin,
        );
        let alts = rb.join_algorithm_alternatives(&ranked);
        assert!(alts.iter().all(|p| match p {
            LogicalPlan::Join { algorithm, .. } => algorithm.is_rank_aware(),
            _ => true,
        }));
    }

    #[test]
    fn tight_budget_still_returns_a_plan() {
        let (cat, query) = setup(100);
        let est = Arc::new(SamplingEstimator::build(&query, &cat, 0.2, 7).unwrap());
        let opt = RuleBasedOptimizer::new(&query, &cat, est, CostModel::default())
            .with_config(RuleBasedConfig {
                max_plans: 3,
                max_costed: 3,
            })
            .optimize()
            .unwrap();
        // With almost no budget the best plan is one of the seeds, which is
        // still correct.
        let result = execute_query_plan(&query, &opt.plan, &cat).unwrap();
        assert_eq!(result.tuples.len(), 5);
    }

    #[test]
    fn empty_query_is_rejected() {
        let cat = Catalog::new();
        let query = RankQuery::new(vec![], vec![], RankingContext::unranked(), 1);
        let dummy_query = {
            // Build an estimator over a trivial catalog/table so construction
            // succeeds; optimize() must still reject the empty query.
            let c = Catalog::new();
            c.create_table("T", Schema::new(vec![Field::new("x", DataType::Int64)]))
                .unwrap();
            let q = RankQuery::new(vec!["T".into()], vec![], RankingContext::unranked(), 1);
            SamplingEstimator::build(&q, &c, 0.5, 1).unwrap()
        };
        let rb = RuleBasedOptimizer::new(&query, &cat, Arc::new(dummy_query), CostModel::default());
        assert!(rb.optimize().is_err());
    }
}
