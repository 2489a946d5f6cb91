//! The ranking-blind System-R baseline: join-order enumeration only, with a
//! blocking sort and top-k limit glued on top — the only plan shape a
//! traditional optimizer can produce for a ranking query (Section 2.2).

use std::collections::HashMap;

use ranksql_algebra::{JoinAlgorithm, LogicalPlan, RankQuery};
use ranksql_common::{BitSet64, RankSqlError, Result};
use ranksql_storage::Catalog;

use crate::cost::{Cost, CostModel};
use crate::enumerate::EnumerationStats;
use crate::sampling::SamplingEstimator;
use crate::OptimizedPlan;

/// Optimizes a query with the traditional (membership-only) strategy:
/// Selinger-style join order enumeration over table subsets, selections
/// pushed to the scans, then `Sort` over the full scoring function and
/// `Limit k` at the root.
pub fn optimize_traditional(
    query: &RankQuery,
    catalog: &Catalog,
    estimator: &SamplingEstimator,
    cost_model: &CostModel,
) -> Result<OptimizedPlan> {
    let h = query.tables.len();
    if h == 0 {
        return Err(RankSqlError::Optimizer("query has no tables".into()));
    }
    let mut stats = EnumerationStats::default();
    let mut memo: HashMap<u64, (LogicalPlan, Cost)> = HashMap::new();

    // Base case: single-table access paths with selections pushed down.
    for (ti, name) in query.tables.iter().enumerate() {
        let table = catalog.table(name)?;
        let sr = BitSet64::singleton(ti);
        let mut plan = LogicalPlan::scan(&table);
        if let Some(filter) = ranksql_expr::BoolExpr::conjoin(query.bool_predicates_on(sr)?) {
            plan = plan.select(filter);
        }
        let (cost, _) = cost_model.cost_plan(&plan, &query.ranking, estimator)?;
        stats.plans_considered += 1;
        memo.insert(sr.bits(), (plan, cost));
    }

    // Join enumeration over subset sizes.
    let all = BitSet64::all(h);
    for size in 2..=h {
        for sr in all.subsets().filter(|s| s.len() == size) {
            let mut best: Option<(LogicalPlan, Cost)> = None;
            for sr1 in sr.subsets() {
                if sr1.is_empty() || sr1 == sr {
                    continue;
                }
                let sr2 = sr.difference(sr1);
                let (Some((left, _)), Some((right, _))) =
                    (memo.get(&sr1.bits()), memo.get(&sr2.bits()))
                else {
                    continue;
                };
                let join_preds = query.join_predicates_between(sr1, sr2)?;
                let condition = ranksql_expr::BoolExpr::conjoin(join_preds);
                // Avoid Cartesian products unless the subset is disconnected.
                if condition.is_none() && size > 1 {
                    let connected_split_exists =
                        sr.subsets().filter(|s| !s.is_empty() && *s != sr).any(|s| {
                            query
                                .join_predicates_between(s, sr.difference(s))
                                .map(|p| !p.is_empty())
                                .unwrap_or(false)
                        });
                    if connected_split_exists {
                        continue;
                    }
                }
                let algorithms: &[JoinAlgorithm] = if condition.is_some() {
                    &[
                        JoinAlgorithm::Hash,
                        JoinAlgorithm::SortMerge,
                        JoinAlgorithm::NestedLoop,
                    ]
                } else {
                    &[JoinAlgorithm::NestedLoop]
                };
                for &alg in algorithms {
                    // Hash / sort-merge need an equi-key; the executor rejects
                    // them otherwise, so skip rather than fail.
                    if matches!(alg, JoinAlgorithm::Hash | JoinAlgorithm::SortMerge) {
                        let has_equi = condition
                            .as_ref()
                            .map(|c| {
                                c.split_conjuncts().iter().any(|cj| {
                                    matches!(
                                        cj,
                                        ranksql_expr::BoolExpr::Compare {
                                            op: ranksql_expr::CompareOp::Eq,
                                            left: ranksql_expr::ScalarExpr::Column(_),
                                            right: ranksql_expr::ScalarExpr::Column(_),
                                        }
                                    )
                                })
                            })
                            .unwrap_or(false);
                        if !has_equi {
                            continue;
                        }
                    }
                    let plan = left.clone().join(right.clone(), condition.clone(), alg);
                    let Ok((cost, _)) = cost_model.cost_plan(&plan, &query.ranking, estimator)
                    else {
                        continue;
                    };
                    stats.plans_considered += 1;
                    if best.as_ref().map(|(_, c)| cost < *c).unwrap_or(true) {
                        best = Some((plan, cost));
                    }
                }
            }
            if let Some(b) = best {
                memo.insert(sr.bits(), b);
            }
        }
    }
    stats.signatures_kept = memo.len();

    let (join_plan, _) = memo
        .remove(&all.bits())
        .ok_or_else(|| RankSqlError::Optimizer("no traditional plan found".into()))?;

    let mut plan = join_plan;
    if query.num_rank_predicates() > 0 {
        plan = plan.sort(query.all_rank_predicates());
    }
    plan = plan.limit(query.k);
    if let Some(cols) = &query.projection {
        plan = plan.project(cols.clone());
    }
    let (cost, card) = cost_model.cost_plan(&plan, &query.ranking, estimator)?;
    let physical =
        crate::lower::lower_with_estimates(&plan, &query.ranking, estimator, cost_model)?;
    stats.operator_runs = estimator.operator_runs();
    Ok(OptimizedPlan {
        plan,
        physical,
        cost,
        estimated_cardinality: card,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksql_common::{DataType, Field, Schema, Value};
    use ranksql_expr::{BoolExpr, RankPredicate, RankingContext, ScoringFunction};

    fn setup() -> (Catalog, RankQuery) {
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
        let (cat, query) = setup();
        let est = SamplingEstimator::build(&query, &cat, 0.1, 1).unwrap();
        let model = CostModel::default();
        let opt = optimize_traditional(&query, &cat, &est, &model).unwrap();
        assert!(opt.plan.has_blocking_sort());
        assert_eq!(opt.plan.rank_operator_count(), 0);
        assert_eq!(opt.plan.relations().len(), 3);
        assert!(opt.cost.is_finite());
        assert!(opt.stats.plans_considered > 3);
    }

    #[test]
    fn traditional_plan_returns_correct_results() {
        let (cat, query) = setup();
        let est = SamplingEstimator::build(&query, &cat, 0.2, 1).unwrap();
        let model = CostModel::default();
        let opt = optimize_traditional(&query, &cat, &est, &model).unwrap();
        let result = ranksql_executor::execute_query_plan(&query, &opt.plan, &cat).unwrap();
        let oracle = ranksql_executor::oracle_top_k(&query, &cat).unwrap();
        let s = |ts: &[ranksql_expr::RankedTuple]| -> Vec<f64> {
            ts.iter()
                .map(|t| query.ranking.upper_bound(&t.state).value())
                .collect()
        };
        assert_eq!(s(&result.tuples), s(&oracle));
    }
}
