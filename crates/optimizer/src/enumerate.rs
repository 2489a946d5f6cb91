//! Two-dimensional plan enumeration (Figure 8) with the optional heuristics
//! of Figure 10.
//!
//! The enumeration treats ranking as a second dimension alongside joining:
//! a subplan's *signature* is the pair `(SR, SP)` of the relations it joins
//! and the ranking predicates it has evaluated.  Subplans with the same
//! signature produce the same rank-relation, so only the cheapest plan per
//! signature is kept (plus, as in System R, plans with useful physical
//! properties — here the unranked `SP = ∅` signatures keep their attribute
//! orders implicitly because scans are re-derivable).
//!
//! Plans for a signature are built three ways, mirroring the pseudo-code:
//!
//! * `joinPlan(best(SR1, SP1), best(SR2, SP2))` for every split of `SR` and
//!   `SP` (with `SP1`/`SP2` evaluable on their respective sides);
//! * `rankPlan(best(SR, SP − {p}), µ_p)` — appending one rank operator;
//! * `scanPlan(SR, SP)` for single relations with at most one predicate
//!   (sequential scan or rank-scan, with selections pushed down).
//!
//! The ranking-blind System-R baseline is this search's `SP = ∅` plane:
//! [`optimize_traditional`] enumerates join orders only and glues a
//! blocking sort and the top-k limit on top, the only plan shape a
//! traditional optimizer can produce for a ranking query (Section 2.2).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ranksql_algebra::{JoinAlgorithm, LogicalPlan, RankQuery};
use ranksql_common::{BitSet64, RankSqlError, Result};
use ranksql_expr::BoolExpr;
use ranksql_storage::Catalog;

use crate::cost::{Cost, CostModel};
use crate::sampling::SamplingEstimator;
use crate::OptimizedPlan;

/// Statistics about one enumeration run.
#[derive(Debug, Clone, Default)]
pub struct EnumerationStats {
    /// Number of candidate plans generated and costed.
    pub plans_considered: usize,
    /// Number of signatures for which a best plan was kept.
    pub signatures_kept: usize,
    /// Time spent enumerating (excluding estimator construction).
    pub elapsed: Duration,
    /// Operators the sampling estimator had run over the samples by the
    /// end of the search ([`SamplingEstimator::operator_runs`]).
    pub operator_runs: usize,
    /// Rows those operator runs emitted ([`SamplingEstimator::sample_rows`]).
    pub sample_rows: usize,
}

/// The best plan found for one `(SR, SP)` signature.
#[derive(Debug, Clone)]
struct Candidate {
    plan: LogicalPlan,
    cost: Cost,
    card: f64,
}

/// The two-dimensional dynamic-programming optimizer.
pub struct DpOptimizer<'a> {
    query: &'a RankQuery,
    catalog: &'a Catalog,
    estimator: &'a SamplingEstimator,
    cost_model: CostModel,
    /// Apply the Figure 10 heuristics (left-deep joins + greedy rank metric).
    heuristic: bool,
    /// The ranking predicates the search may evaluate: all of them, or none
    /// for the `SP = ∅` plane ([`optimize_traditional`]).
    ranking: BitSet64,
}

/// Optimizes a query with the traditional (membership-only) strategy: the
/// `SP = ∅` plane of the two-dimensional search, with bushy join trees and
/// selections pushed to the scans, then `Sort` over the full scoring
/// function and `Limit k` at the root.
pub fn optimize_traditional(
    query: &RankQuery,
    catalog: &Catalog,
    estimator: &SamplingEstimator,
    cost_model: &CostModel,
) -> Result<OptimizedPlan> {
    let plane = DpOptimizer {
        ranking: BitSet64::EMPTY,
        ..DpOptimizer::new(query, catalog, estimator, cost_model.clone(), false)
    };
    let (joined, stats) = plane.search()?;
    let plan = if query.num_rank_predicates() > 0 {
        joined.sort(query.all_rank_predicates())
    } else {
        joined
    };
    plane.complete(plan, stats)
}

impl<'a> DpOptimizer<'a> {
    /// Creates an enumerator.
    pub fn new(
        query: &'a RankQuery,
        catalog: &'a Catalog,
        estimator: &'a SamplingEstimator,
        cost_model: CostModel,
        heuristic: bool,
    ) -> Self {
        DpOptimizer {
            query,
            catalog,
            estimator,
            cost_model,
            heuristic,
            ranking: query.all_rank_predicates(),
        }
    }

    fn cost(&self, plan: &LogicalPlan) -> Result<(Cost, f64)> {
        self.cost_model
            .cost_plan(plan, &self.query.ranking, self.estimator)
    }

    /// Runs the enumeration and returns the best complete plan (wrapped in
    /// the top-k limit and optional projection).
    pub fn optimize(&self) -> Result<OptimizedPlan> {
        let (plan, stats) = self.search()?;
        self.complete(plan, stats)
    }

    /// The best plan for the complete signature: every relation joined and
    /// every predicate of `self.ranking` evaluated.
    fn search(&self) -> Result<(LogicalPlan, EnumerationStats)> {
        let start = Instant::now();
        let h = self.query.tables.len();
        if h == 0 {
            return Err(RankSqlError::Optimizer("query has no tables".into()));
        }
        let mut stats = EnumerationStats::default();
        let mut memo: HashMap<(u64, u64), Candidate> = HashMap::new();
        let all_tables = BitSet64::all(h);

        // The 1st dimension: number of joined relations.
        for size in 1..=h {
            let table_sets: Vec<BitSet64> =
                all_tables.subsets().filter(|s| s.len() == size).collect();
            for sr in table_sets {
                let evaluable = self.query.rank_predicates_on(sr)?.intersect(self.ranking);
                // The 2nd dimension: number of evaluated ranking predicates.
                let mut pred_sets: Vec<BitSet64> = evaluable.subsets().collect();
                pred_sets.sort_by_key(|s| s.len());
                for sp in pred_sets {
                    let mut best: Option<Candidate> = None;
                    let consider = |plan: LogicalPlan,
                                    stats: &mut EnumerationStats,
                                    best: &mut Option<Candidate>|
                     -> Result<()> {
                        let (cost, card) = self.cost(&plan)?;
                        stats.plans_considered += 1;
                        if best.as_ref().map(|b| cost < b.cost).unwrap_or(true) {
                            *best = Some(Candidate { plan, cost, card });
                        }
                        Ok(())
                    };

                    // scanPlan: single relation, at most one predicate.
                    if size == 1 && sp.len() <= 1 {
                        for plan in self.scan_plans(sr, sp)? {
                            consider(plan, &mut stats, &mut best)?;
                        }
                    }

                    // rankPlan: append µ_p on (SR, SP − {p}).
                    for p in sp.iter() {
                        let child_sig = (sr.bits(), sp.difference(BitSet64::singleton(p)).bits());
                        let Some(child) = memo.get(&child_sig) else {
                            continue;
                        };
                        if self.heuristic && self.better_rank_exists(child, p, sp, evaluable)? {
                            continue;
                        }
                        let plan = child.plan.clone().rank(p);
                        consider(plan, &mut stats, &mut best)?;
                    }

                    // joinPlan: every split of SR and SP across the two sides.
                    if size >= 2 {
                        for sr1 in sr.subsets() {
                            if sr1.is_empty() || sr1 == sr {
                                continue;
                            }
                            let sr2 = sr.difference(sr1);
                            // Left-deep heuristic: the right side is a single
                            // relation.
                            if self.heuristic && sr2.len() > 1 {
                                continue;
                            }
                            let left_eval = self.query.rank_predicates_on(sr1)?;
                            let right_eval = self.query.rank_predicates_on(sr2)?;
                            for sp1 in sp.intersect(left_eval).subsets() {
                                let sp2 = sp.difference(sp1);
                                if !sp2.is_subset_of(right_eval) {
                                    continue;
                                }
                                let (Some(left), Some(right)) = (
                                    memo.get(&(sr1.bits(), sp1.bits())),
                                    memo.get(&(sr2.bits(), sp2.bits())),
                                ) else {
                                    continue;
                                };
                                for plan in self.join_plans(left, right, sr1, sr2, sp)? {
                                    consider(plan, &mut stats, &mut best)?;
                                }
                            }
                        }
                    }

                    if let Some(b) = best {
                        memo.insert((sr.bits(), sp.bits()), b);
                    }
                }
            }
        }
        stats.signatures_kept = memo.len();
        stats.elapsed = start.elapsed();

        let best = memo.remove(&(all_tables.bits(), self.ranking.bits()));
        let best = best.ok_or_else(|| {
            RankSqlError::Optimizer(
                "enumeration produced no plan for the complete signature".into(),
            )
        })?;
        Ok((best.plan, stats))
    }

    /// Wraps a complete plan in the top-k limit and optional projection,
    /// then costs and lowers it.
    fn complete(&self, plan: LogicalPlan, mut stats: EnumerationStats) -> Result<OptimizedPlan> {
        let mut plan = plan.limit(self.query.k);
        if let Some(cols) = &self.query.projection {
            plan = plan.project(cols.clone());
        }
        let (cost, card) = self.cost(&plan)?;
        let physical = crate::lower::lower_with_estimates(
            &plan,
            &self.query.ranking,
            self.estimator,
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

    /// The greedy rank-metric heuristic (Figure 10): do not append `µ_pu` on
    /// `child` if another applicable predicate `pv` has a strictly higher
    /// rank metric `(1 − card(plan')/card(plan)) / cost(p)`.
    fn better_rank_exists(
        &self,
        child: &Candidate,
        pu: usize,
        sp: BitSet64,
        evaluable: BitSet64,
    ) -> Result<bool> {
        let metric = |p: usize| -> Result<f64> {
            let plan_with_p = child.plan.clone().rank(p);
            let card_after = self.estimator.estimate_cardinality(&plan_with_p)?;
            let card_before = child.card.max(f64::EPSILON);
            let selectivity_gain = 1.0 - (card_after / card_before).min(1.0);
            let cost = self.query.ranking.predicate(p).cost.max(1) as f64;
            Ok(selectivity_gain / cost)
        };
        let rank_pu = metric(pu)?;
        for pv in evaluable.difference(sp).iter() {
            if metric(pv)? > rank_pu {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Access-path plans for a single relation: sequential scan (SP = ∅) or
    /// rank-scan (SP = {p}), with that table's selection predicates applied.
    fn scan_plans(&self, sr: BitSet64, sp: BitSet64) -> Result<Vec<LogicalPlan>> {
        let single = |set: BitSet64, what: &str| {
            set.iter()
                .next()
                .ok_or_else(|| RankSqlError::Optimizer(format!("scan plan for no {what}")))
        };
        let ti = single(sr, "relation")?;
        let table = self.catalog.table(&self.query.tables[ti])?;
        let mut base = Vec::new();
        if sp.is_empty() {
            base.push(LogicalPlan::scan(&table));
        } else {
            let p = single(sp, "predicate")?;
            // A rank-scan only applies to rank-selection predicates over this
            // very table.
            if self.query.rank_predicate_tables(p)? == sr {
                base.push(LogicalPlan::rank_scan(&table, p));
            }
        }
        let selections = self.query.bool_predicates_on(sr)?;
        let filter = BoolExpr::conjoin(selections);
        Ok(base
            .into_iter()
            .map(|plan| match &filter {
                Some(f) => plan.select(f.clone()),
                None => plan,
            })
            .collect())
    }

    /// Join plans combining the best plans of two signatures.
    fn join_plans(
        &self,
        left: &Candidate,
        right: &Candidate,
        sr1: BitSet64,
        sr2: BitSet64,
        sp: BitSet64,
    ) -> Result<Vec<LogicalPlan>> {
        let join_preds = self.query.join_predicates_between(sr1, sr2)?;
        let condition = BoolExpr::conjoin(join_preds);
        // Avoid Cartesian products when some connected split exists for this
        // relation set (classical System-R heuristic).
        if condition.is_none() {
            let sr = sr1.union(sr2);
            let connected_split_exists =
                sr.subsets().filter(|s| !s.is_empty() && *s != sr).any(|s| {
                    self.query
                        .join_predicates_between(s, sr.difference(s))
                        .map(|p| !p.is_empty())
                        .unwrap_or(false)
                });
            if connected_split_exists {
                return Ok(Vec::new());
            }
        }
        let algorithms = JoinAlgorithm::admissible(!sp.is_empty(), condition.as_ref());
        Ok(algorithms
            .iter()
            .map(|&alg| {
                left.plan
                    .clone()
                    .join(right.plan.clone(), condition.clone(), alg)
            })
            .collect())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ranksql_common::{DataType, Field, Schema, Value};
    use ranksql_executor::{execute_query_plan, oracle_top_k};
    use ranksql_expr::{RankPredicate, RankingContext, ScoringFunction};

    /// The Example 5 setting: tables R and S joined on `a`, ranked by
    /// p1 (on R), p3 and p4 (on S).
    pub(crate) fn figure9_setup(rows: usize) -> (Catalog, RankQuery) {
        let cat = Catalog::new();
        let r = cat
            .create_table(
                "R",
                Schema::new(vec![
                    Field::new("a", DataType::Int64),
                    Field::new("p1", DataType::Float64),
                ]),
            )
            .unwrap();
        let s = cat
            .create_table(
                "S",
                Schema::new(vec![
                    Field::new("a", DataType::Int64),
                    Field::new("p3", DataType::Float64),
                    Field::new("p4", DataType::Float64),
                ]),
            )
            .unwrap();
        for i in 0..rows {
            r.insert(vec![
                Value::from((i % 20) as i64),
                Value::from(((i * 13) % 100) as f64 / 100.0),
            ])
            .unwrap();
            s.insert(vec![
                Value::from((i % 20) as i64),
                Value::from(((i * 29) % 100) as f64 / 100.0),
                Value::from(((i * 43) % 100) as f64 / 100.0),
            ])
            .unwrap();
        }
        let ranking = RankingContext::new(
            vec![
                RankPredicate::attribute("p1", "R.p1"),
                RankPredicate::attribute("p3", "S.p3"),
                RankPredicate::attribute("p4", "S.p4"),
            ],
            ScoringFunction::Sum,
        );
        let query = RankQuery::new(
            vec!["R".into(), "S".into()],
            vec![BoolExpr::col_eq_col("R.a", "S.a")],
            ranking,
            5,
        );
        (cat, query)
    }

    fn optimize(query: &RankQuery, cat: &Catalog, heuristic: bool) -> OptimizedPlan {
        let est = SamplingEstimator::build(query, cat, 0.1, 42).unwrap();
        DpOptimizer::new(query, cat, &est, CostModel::default(), heuristic)
            .optimize()
            .unwrap()
    }

    #[test]
    fn figure9_enumeration_produces_a_complete_correct_plan() {
        let (cat, query) = figure9_setup(300);
        let opt = optimize(&query, &cat, false);
        // The final signature covers both relations and all three predicates.
        assert_eq!(opt.plan.relations().len(), 2);
        assert_eq!(opt.plan.evaluated_predicates(), BitSet64::all(3));
        assert!(!opt.plan.has_blocking_sort());
        assert!(opt.cost.is_finite());
        // And it computes the right answer.
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
    fn heuristic_explores_fewer_plans_than_exhaustive() {
        let (cat, query) = figure9_setup(200);
        let full = optimize(&query, &cat, false);
        let heur = optimize(&query, &cat, true);
        assert!(
            heur.stats.plans_considered <= full.stats.plans_considered,
            "heuristic considered {} plans, exhaustive {}",
            heur.stats.plans_considered,
            full.stats.plans_considered
        );
        // Both remain correct.
        let result = execute_query_plan(&query, &heur.plan, &cat).unwrap();
        let oracle = oracle_top_k(&query, &cat).unwrap();
        assert_eq!(result.tuples.len(), oracle.len());
    }

    #[test]
    fn signature_count_is_bounded_by_the_two_dimensions() {
        let (cat, query) = figure9_setup(100);
        let opt = optimize(&query, &cat, false);
        // Signatures: (R,-), (R,p1), (S,-), (S,p3), (S,p4), (S,p3p4),
        // (RS, each of the 8 subsets of {p1,p3,p4}) = 6 + 8 = 14.
        assert!(opt.stats.signatures_kept <= 14);
        assert!(opt.stats.signatures_kept >= 10);
    }

    #[test]
    fn single_table_query_is_optimised() {
        let cat = Catalog::new();
        let t = cat
            .create_table(
                "T",
                Schema::new(vec![
                    Field::new("x", DataType::Int64),
                    Field::new("p1", DataType::Float64),
                    Field::new("p2", DataType::Float64),
                ]),
            )
            .unwrap();
        for i in 0..100 {
            t.insert(vec![
                Value::from(i as i64),
                Value::from(((i * 7) % 100) as f64 / 100.0),
                Value::from(((i * 11) % 100) as f64 / 100.0),
            ])
            .unwrap();
        }
        let ranking = RankingContext::new(
            vec![
                RankPredicate::attribute("p1", "T.p1"),
                RankPredicate::attribute("p2", "T.p2"),
            ],
            ScoringFunction::Sum,
        );
        let query = RankQuery::new(vec!["T".into()], vec![], ranking, 3);
        let opt = optimize(&query, &cat, false);
        let result = execute_query_plan(&query, &opt.plan, &cat).unwrap();
        let oracle = oracle_top_k(&query, &cat).unwrap();
        assert_eq!(result.tuples.len(), 3);
        assert_eq!(result.tuples[0].tuple.id(), oracle[0].tuple.id());
    }

    fn chain_setup() -> (Catalog, RankQuery) {
        let cat = Catalog::new();
        for (name, pcol) in [("A", "p1"), ("B", "p2"), ("C", "p3")] {
            let t = cat
                .create_table(
                    name,
                    Schema::new(vec![
                        Field::new("jc", DataType::Int64),
                        Field::new(pcol, DataType::Float64),
                    ]),
                )
                .unwrap();
            for i in 0..200 {
                t.insert(vec![
                    Value::from((i % 10) as i64),
                    Value::from(((i * 17) % 100) as f64 / 100.0),
                ])
                .unwrap();
            }
        }
        let ranking = RankingContext::new(
            vec![
                RankPredicate::attribute("p1", "A.p1"),
                RankPredicate::attribute("p2", "B.p2"),
                RankPredicate::attribute("p3", "C.p3"),
            ],
            ScoringFunction::Sum,
        );
        let query = RankQuery::new(
            vec!["A".into(), "B".into(), "C".into()],
            vec![
                BoolExpr::col_eq_col("A.jc", "B.jc"),
                BoolExpr::col_eq_col("B.jc", "C.jc"),
            ],
            ranking,
            5,
        );
        (cat, query)
    }

    #[test]
    fn traditional_plan_is_materialise_then_sort() {
        let (cat, query) = chain_setup();
        let est = SamplingEstimator::build(&query, &cat, 0.1, 1).unwrap();
        let opt = optimize_traditional(&query, &cat, &est, &CostModel::default()).unwrap();
        assert!(opt.plan.has_blocking_sort());
        assert_eq!(opt.plan.rank_operator_count(), 0);
        assert_eq!(opt.plan.relations().len(), 3);
        assert!(opt.cost.is_finite());
        assert!(opt.stats.plans_considered > 3);
    }

    #[test]
    fn traditional_plan_returns_correct_results() {
        let (cat, query) = chain_setup();
        let est = SamplingEstimator::build(&query, &cat, 0.2, 1).unwrap();
        let opt = optimize_traditional(&query, &cat, &est, &CostModel::default()).unwrap();
        let result = execute_query_plan(&query, &opt.plan, &cat).unwrap();
        let oracle = oracle_top_k(&query, &cat).unwrap();
        let s = |ts: &[ranksql_expr::RankedTuple]| -> Vec<f64> {
            ts.iter()
                .map(|t| query.ranking.upper_bound(&t.state).value())
                .collect()
        };
        assert_eq!(s(&result.tuples), s(&oracle));
    }
}
