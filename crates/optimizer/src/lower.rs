//! Lowering `LogicalPlan → PhysicalPlan` with real per-node cost estimates.
//!
//! The structural mapping is [`PhysicalPlan::from_logical_with`], the one
//! lowering walk; this module hands it the cost model's estimated
//! cumulative cost and the estimator's output cardinality for every node,
//! so `explain` can print the tree the executor will run together with the
//! numbers that made the optimizer choose it.

use ranksql_algebra::{LogicalPlan, PhysicalPlan};
use ranksql_common::Result;
use ranksql_expr::RankingContext;

use crate::cost::CostModel;
use crate::sampling::SamplingEstimator;

/// Lowers a logical plan and annotates every node with `(cost, rows)`
/// estimates.
///
/// Fused nodes (e.g. `SortLimit` for `Limit(Sort(x))`) carry the estimates
/// of the logical node group they implement.
pub fn lower_with_estimates(
    plan: &LogicalPlan,
    ctx: &RankingContext,
    estimator: &SamplingEstimator,
    cost_model: &CostModel,
) -> Result<PhysicalPlan> {
    PhysicalPlan::from_logical_with(plan, &|node| cost_model.cost_plan(node, ctx, estimator))
}

/// Per-operator `(label, estimated_rows)` in post-order — pairs one-to-one
/// with the executor's metric registration order for the same plan.
pub fn physical_estimates(plan: &PhysicalPlan, ctx: Option<&RankingContext>) -> Vec<(String, f64)> {
    plan.post_order()
        .into_iter()
        .map(|n| (n.node_label(ctx), n.estimated_rows))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksql_algebra::RankQuery;
    use ranksql_common::{DataType, Field, Schema, Value};
    use ranksql_expr::{BoolExpr, RankPredicate, ScoringFunction};
    use ranksql_storage::Catalog;

    fn setup() -> (Catalog, RankQuery) {
        let cat = Catalog::new();
        let a = cat
            .create_table(
                "A",
                Schema::new(vec![
                    Field::new("jc", DataType::Int64),
                    Field::new("p1", DataType::Float64),
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
        for i in 0..100 {
            a.insert(vec![
                Value::from((i % 11) as i64),
                Value::from(((i * 37) % 100) as f64 / 100.0),
            ])
            .unwrap();
            b.insert(vec![
                Value::from((i % 11) as i64),
                Value::from(((i * 61) % 100) as f64 / 100.0),
            ])
            .unwrap();
        }
        let ranking = RankingContext::new(
            vec![
                RankPredicate::attribute_with_cost("p1", "A.p1", 1),
                RankPredicate::attribute_with_cost("p2", "B.p2", 30),
            ],
            ScoringFunction::Sum,
        );
        let query = RankQuery::new(
            vec!["A".into(), "B".into()],
            vec![BoolExpr::col_eq_col("A.jc", "B.jc")],
            ranking,
            5,
        );
        (cat, query)
    }

    #[test]
    fn lowering_annotates_every_node_with_estimates() {
        let (cat, query) = setup();
        let estimator = SamplingEstimator::build(&query, &cat, 0.2, 7).unwrap();
        let model = CostModel::default();
        let plan = query.canonical_plan(&cat).unwrap();
        let physical = lower_with_estimates(&plan, &query.ranking, &estimator, &model).unwrap();
        // Canonical = scan ⨯ scan → select → sort+limit (fused).
        let nodes = physical.post_order();
        assert!(nodes
            .iter()
            .any(|n| n.node_label(None).starts_with("SortLimit[")));
        // Costs are cumulative: the root's cost dominates every node's.
        let root_cost = physical.estimated_cost;
        assert!(root_cost.is_finite() && root_cost.value() > 0.0);
        for n in &nodes {
            assert!(n.estimated_cost <= root_cost, "{}", n.node_label(None));
            assert!(n.estimated_rows.is_finite() && n.estimated_rows >= 0.0);
        }
        let series = physical_estimates(&physical, Some(&query.ranking));
        assert_eq!(series.len(), physical.node_count());
    }
}
