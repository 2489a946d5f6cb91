//! Lowering `LogicalPlan → PhysicalPlan` with real per-node cost estimates.
//!
//! The structural mapping (which operator implements which logical node) is
//! shared with [`PhysicalPlan::from_logical`]; this module re-runs it while
//! annotating every physical node with the cost model's estimated cumulative
//! cost and the estimator's output cardinality, so `explain` can print the
//! tree the executor will run together with the numbers that made the
//! optimizer choose it.

use ranksql_algebra::{LogicalPlan, PhysicalOp, PhysicalPlan};
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
    // The structural mapping below must mirror `from_logical` (including
    // the Limit(Sort) fusion); the tests cross-check the two against each
    // other.
    if let LogicalPlan::Limit { input, k } = plan {
        if let LogicalPlan::Sort {
            input: sort_input,
            predicates,
        } = input.as_ref()
        {
            let child = lower_with_estimates(sort_input, ctx, estimator, cost_model)?;
            let (cost, _) = cost_model.cost_plan(plan, ctx, estimator)?;
            let rows = estimator.estimate_cardinality(plan)?;
            return Ok(PhysicalPlan {
                op: PhysicalOp::SortLimit {
                    input: Box::new(child),
                    predicates: *predicates,
                    k: *k,
                },
                estimated_cost: cost,
                estimated_rows: rows,
            });
        }
    }
    let children: Result<Vec<PhysicalPlan>> = plan
        .children()
        .into_iter()
        .map(|c| lower_with_estimates(c, ctx, estimator, cost_model))
        .collect();
    // Map this single node over the recursively lowered children (not
    // `from_logical`, which would re-lower and clone the whole subtree per
    // level).
    let op = PhysicalOp::from_logical_node(plan, children?);
    let (cost, rows) = cost_model.cost_plan(plan, ctx, estimator)?;
    Ok(PhysicalPlan {
        op,
        estimated_cost: cost,
        estimated_rows: rows,
    })
}

/// Fuses every chain of two or more consecutive µ operators into one
/// [`PhysicalOp::MproProbe`] scheduled cheapest-predicate-first — the MPro
/// minimal-probing strategy, which evaluates predicates lazily and never
/// probes a tuple whose emission or elimination is already decided.
///
/// The fused node keeps the chain's estimates (MPro's probe count is
/// bounded above by the chain's, so they are a safe upper bound).
pub fn fuse_mu_chains(plan: PhysicalPlan, ctx: &RankingContext) -> PhysicalPlan {
    let PhysicalPlan {
        op,
        estimated_cost,
        estimated_rows,
    } = plan;
    // Collect a maximal µ chain rooted at this node.
    if let PhysicalOp::RankMaterialize { input, predicate } = op {
        let mut predicates = vec![predicate];
        let mut cursor = *input;
        while let PhysicalOp::RankMaterialize { input, predicate } = cursor.op {
            predicates.push(predicate);
            cursor = *input;
        }
        let inner = fuse_mu_chains(cursor, ctx);
        if predicates.len() >= 2 {
            let mut schedule = predicates;
            schedule.sort_by_key(|&p| {
                if p < ctx.num_predicates() {
                    ctx.predicate(p).cost
                } else {
                    u64::MAX
                }
            });
            return PhysicalPlan {
                op: PhysicalOp::MproProbe {
                    input: Box::new(inner),
                    schedule,
                },
                estimated_cost,
                estimated_rows,
            };
        }
        return PhysicalPlan {
            op: PhysicalOp::RankMaterialize {
                input: Box::new(inner),
                predicate: predicates[0],
            },
            estimated_cost,
            estimated_rows,
        };
    }
    // Not a µ: rebuild this node over recursively fused children.
    let op = match op {
        PhysicalOp::Filter { input, predicate } => PhysicalOp::Filter {
            input: Box::new(fuse_mu_chains(*input, ctx)),
            predicate,
        },
        PhysicalOp::Project { input, columns } => PhysicalOp::Project {
            input: Box::new(fuse_mu_chains(*input, ctx)),
            columns,
        },
        PhysicalOp::MproProbe { input, schedule } => PhysicalOp::MproProbe {
            input: Box::new(fuse_mu_chains(*input, ctx)),
            schedule,
        },
        PhysicalOp::NestedLoopsJoin {
            left,
            right,
            condition,
        } => PhysicalOp::NestedLoopsJoin {
            left: Box::new(fuse_mu_chains(*left, ctx)),
            right: Box::new(fuse_mu_chains(*right, ctx)),
            condition,
        },
        PhysicalOp::HashJoin {
            left,
            right,
            condition,
        } => PhysicalOp::HashJoin {
            left: Box::new(fuse_mu_chains(*left, ctx)),
            right: Box::new(fuse_mu_chains(*right, ctx)),
            condition,
        },
        PhysicalOp::SortMergeJoin {
            left,
            right,
            condition,
        } => PhysicalOp::SortMergeJoin {
            left: Box::new(fuse_mu_chains(*left, ctx)),
            right: Box::new(fuse_mu_chains(*right, ctx)),
            condition,
        },
        PhysicalOp::HashRankJoin {
            left,
            right,
            condition,
        } => PhysicalOp::HashRankJoin {
            left: Box::new(fuse_mu_chains(*left, ctx)),
            right: Box::new(fuse_mu_chains(*right, ctx)),
            condition,
        },
        PhysicalOp::NestedLoopsRankJoin {
            left,
            right,
            condition,
        } => PhysicalOp::NestedLoopsRankJoin {
            left: Box::new(fuse_mu_chains(*left, ctx)),
            right: Box::new(fuse_mu_chains(*right, ctx)),
            condition,
        },
        PhysicalOp::SetOp { kind, left, right } => PhysicalOp::SetOp {
            kind,
            left: Box::new(fuse_mu_chains(*left, ctx)),
            right: Box::new(fuse_mu_chains(*right, ctx)),
        },
        PhysicalOp::Sort { input, predicates } => PhysicalOp::Sort {
            input: Box::new(fuse_mu_chains(*input, ctx)),
            predicates,
        },
        PhysicalOp::SortLimit {
            input,
            predicates,
            k,
        } => PhysicalOp::SortLimit {
            input: Box::new(fuse_mu_chains(*input, ctx)),
            predicates,
            k,
        },
        PhysicalOp::Limit { input, k } => PhysicalOp::Limit {
            input: Box::new(fuse_mu_chains(*input, ctx)),
            k,
        },
        PhysicalOp::Exchange { input, merge } => PhysicalOp::Exchange {
            input: Box::new(fuse_mu_chains(*input, ctx)),
            merge,
        },
        PhysicalOp::Repartition { input } => PhysicalOp::Repartition {
            input: Box::new(fuse_mu_chains(*input, ctx)),
        },
        leaf @ (PhysicalOp::SeqScan { .. }
        | PhysicalOp::RankScan { .. }
        | PhysicalOp::AttributeIndexScan { .. }
        | PhysicalOp::RankMaterialize { .. }) => leaf,
    };
    PhysicalPlan {
        op,
        estimated_cost,
        estimated_rows,
    }
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

    #[test]
    fn lowering_structure_matches_from_logical() {
        let (cat, query) = setup();
        let estimator = SamplingEstimator::build(&query, &cat, 0.2, 7).unwrap();
        let model = CostModel::default();
        let a = cat.table("A").unwrap();
        let b = cat.table("B").unwrap();
        for plan in [
            query.canonical_plan(&cat).unwrap(),
            ranksql_algebra::LogicalPlan::rank_scan(&a, 0)
                .join(
                    ranksql_algebra::LogicalPlan::scan(&b).rank(1),
                    Some(BoolExpr::col_eq_col("A.jc", "B.jc")),
                    ranksql_algebra::JoinAlgorithm::HashRankJoin,
                )
                .limit(4),
            ranksql_algebra::LogicalPlan::index_scan(&a, "A.jc")
                .select(BoolExpr::col_eq_col("A.jc", "A.jc"))
                .project(vec!["A.p1".to_owned()])
                .limit(2),
        ] {
            let annotated =
                lower_with_estimates(&plan, &query.ranking, &estimator, &model).unwrap();
            let structural = PhysicalPlan::from_logical(&plan).unwrap();
            let labels = |p: &PhysicalPlan| -> Vec<String> {
                p.post_order()
                    .iter()
                    .map(|n| n.node_label(Some(&query.ranking)))
                    .collect()
            };
            assert_eq!(labels(&annotated), labels(&structural), "{plan}");
        }
    }

    #[test]
    fn mu_chains_fuse_into_mpro_with_cost_ascending_schedule() {
        let (cat, query) = setup();
        let a = cat.table("A").unwrap();
        // µ_p1(µ_p2(SeqScan(A))) — p2 is 30× more expensive than p1.
        let logical = ranksql_algebra::LogicalPlan::scan(&a)
            .rank(1)
            .rank(0)
            .limit(3);
        let physical = PhysicalPlan::from_logical(&logical).unwrap();
        let fused = fuse_mu_chains(physical, &query.ranking);
        let labels: Vec<String> = fused
            .post_order()
            .iter()
            .map(|n| n.node_label(Some(&query.ranking)))
            .collect();
        assert!(
            labels.iter().any(|l| l == "MPro[p1→p2]"),
            "expected a cheapest-first MPro schedule, got {labels:?}"
        );
        // A single µ is left alone.
        let single =
            PhysicalPlan::from_logical(&ranksql_algebra::LogicalPlan::scan(&a).rank(0).limit(3))
                .unwrap();
        let same = fuse_mu_chains(single.clone(), &query.ranking);
        assert_eq!(single, same);
    }
}
