//! The columnarization pass: fitting planned sequential scans to the
//! block layout they read.
//!
//! Every plan the planner produces goes through this pass, which rewrites a
//! lowered [`PhysicalPlan`] in three result-preserving steps:
//!
//! 1. every `SeqScan` is annotated as a **columnar scan** — re-costed for
//!    the table's [`ColumnTable`] blocks, which the executor's one
//!    sequential scan reads block by block, filling batches straight from
//!    the column vectors (an unannotated scan, as the structural lowering
//!    of a hand-built plan leaves it, reads the same way);
//! 2. a `Filter` sitting directly on a columnar scan whose predicate is a
//!    conjunction of simple column-vs-constant comparisons is **fused into
//!    the scan** (`σ` pushed down): the comparisons run column-at-a-time
//!    against the typed vectors, zone maps skip whole blocks, and tuples
//!    are materialised only for rows that pass — late materialisation on
//!    the σ spine;
//! 3. columnar scans feeding a `SortLimit` through a σ/π chain are marked
//!    **zone-prune**: at run time the top-k's bounded heap publishes its
//!    worst kept `(score, id)` and the scan skips blocks whose zone-map
//!    score bound and first row id cannot beat it.
//!
//! Cost annotations stay coherent: annotated scans are re-costed with the
//! cost model's [`columnar_tuple`](crate::CostModel::columnar_tuple)
//! constant (the model's view of the dense-vector access path), fused
//! filters keep a discounted share of their interpreted-evaluation cost,
//! and every ancestor's cumulative cost is reduced by exactly what its
//! subtree saved.
//!
//! [`ColumnTable`]: ranksql_storage::ColumnTable

use ranksql_algebra::{ColumnarScan, PhysicalOp, PhysicalPlan};
use ranksql_common::Cost;
use ranksql_expr::{BoolExpr, ScalarExpr};

use crate::cost::CostModel;

/// Share of a fused filter's interpreted-evaluation cost the pushed-down
/// columnar comparison is modelled to keep (typed vector compare vs
/// expression-tree walk per tuple).
const PUSHED_FILTER_COST_SHARE: f64 = 0.25;

/// Rewrites a lowered `plan` (see the module docs).  Results are unchanged
/// — only access paths, costs and explain labels.
pub fn columnarize(plan: PhysicalPlan, model: &CostModel) -> PhysicalPlan {
    mark_zone_prune(rewrite(plan, model))
}

/// Whether a σ predicate can be fused into a columnar scan: a conjunction
/// of comparisons between one column and one execution-time constant (a
/// literal or a parameter slot).  Anything else stays a `Filter` operator.
fn pushable(pred: &BoolExpr) -> bool {
    fn is_const(e: &ScalarExpr) -> bool {
        matches!(e, ScalarExpr::Literal(_) | ScalarExpr::Param { .. })
    }
    fn is_col(e: &ScalarExpr) -> bool {
        matches!(e, ScalarExpr::Column(_))
    }
    pred.split_conjuncts().iter().all(|c| match c {
        BoolExpr::Compare { left, right, .. } => {
            (is_col(left) && is_const(right)) || (is_const(left) && is_col(right))
        }
        _ => false,
    })
}

/// Bottom-up rewrite annotating scans and fusing pushable filters, keeping
/// cumulative cost annotations coherent (ancestors are reduced by exactly
/// what their subtree saved).
fn rewrite(mut plan: PhysicalPlan, model: &CostModel) -> PhysicalPlan {
    if let PhysicalOp::SeqScan {
        columnar: columnar @ None,
        ..
    } = &mut plan.op
    {
        // Re-cost the dense-vector access path.
        let ratio = if model.seq_tuple > 0.0 {
            model.columnar_tuple / model.seq_tuple
        } else {
            1.0
        };
        *columnar = Some(ColumnarScan::default());
        plan.estimated_cost = Cost(plan.estimated_cost.value() * ratio);
        return plan;
    }
    // A filter's own evaluation cost, read before its input is re-costed.
    let filter_own = match &plan.op {
        PhysicalOp::Filter { input, .. } => {
            (plan.estimated_cost.value() - input.estimated_cost.value()).max(0.0)
        }
        _ => 0.0,
    };
    let plan = plan.rebuild_coherent(|op| op.map_children(|c| rewrite(c, model)));
    if let PhysicalOp::Filter { input, predicate } = &plan.op {
        if let PhysicalOp::SeqScan {
            table,
            schema,
            columnar:
                Some(ColumnarScan {
                    pushed_filter: None,
                    zone_prune,
                }),
        } = &input.op
        {
            if pushable(predicate) {
                // Fuse σ into the scan: the fused node replaces both,
                // carrying the filter's output cardinality and the scan's
                // rewritten cost plus a discounted share of the filter's
                // own evaluation cost.
                return PhysicalPlan {
                    op: PhysicalOp::SeqScan {
                        table: table.clone(),
                        schema: schema.clone(),
                        columnar: Some(ColumnarScan {
                            pushed_filter: Some(predicate.clone()),
                            zone_prune: *zone_prune,
                        }),
                    },
                    estimated_cost: Cost(
                        input.estimated_cost.value() + filter_own * PUSHED_FILTER_COST_SHARE,
                    ),
                    estimated_rows: plan.estimated_rows,
                };
            }
        }
    }
    plan
}

/// Top-down marking: columnar scans feeding a `SortLimit` through a σ/π
/// chain get `zone_prune = true` (the executor wires the threshold cell).
fn mark_zone_prune(plan: PhysicalPlan) -> PhysicalPlan {
    let PhysicalPlan {
        op,
        estimated_cost,
        estimated_rows,
    } = plan;
    let op = match op {
        PhysicalOp::SortLimit {
            input,
            predicates,
            k,
        } => PhysicalOp::SortLimit {
            input: Box::new(mark_chain(*input)),
            predicates,
            k,
        },
        other => other.map_children(mark_zone_prune),
    };
    PhysicalPlan {
        op,
        estimated_cost,
        estimated_rows,
    }
}

/// Marks the scan at the bottom of a σ/π chain; leaves anything else to the
/// normal top-down walk.
fn mark_chain(plan: PhysicalPlan) -> PhysicalPlan {
    let PhysicalPlan {
        op,
        estimated_cost,
        estimated_rows,
    } = plan;
    let op = match op {
        PhysicalOp::SeqScan {
            table,
            schema,
            columnar: Some(c),
        } => PhysicalOp::SeqScan {
            table,
            schema,
            columnar: Some(ColumnarScan {
                zone_prune: true,
                ..c
            }),
        },
        PhysicalOp::Filter { input, predicate } => PhysicalOp::Filter {
            input: Box::new(mark_chain(*input)),
            predicate,
        },
        PhysicalOp::Project { input, columns } => PhysicalOp::Project {
            input: Box::new(mark_chain(*input)),
            columns,
        },
        other => other.map_children(mark_zone_prune),
    };
    PhysicalPlan {
        op,
        estimated_cost,
        estimated_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksql_algebra::LogicalPlan;
    use ranksql_common::{BitSet64, DataType, Field, Schema, Value};
    use ranksql_expr::CompareOp;
    use ranksql_storage::TableBuilder;

    fn table() -> ranksql_storage::Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("p", DataType::Float64),
        ])
        .qualify_all("R");
        TableBuilder::new("R", schema)
            .row(vec![Value::from(1), Value::from(0.5)])
            .build(0)
            .unwrap()
    }

    #[test]
    fn filter_over_scan_fuses_and_marks_zone_prune_under_sort_limit() {
        let r = table();
        let logical = LogicalPlan::scan(&r)
            .select(BoolExpr::compare(
                ScalarExpr::col("R.p"),
                CompareOp::GtEq,
                ScalarExpr::lit(0.25),
            ))
            .sort(BitSet64::singleton(0))
            .limit(3);
        let physical = PhysicalPlan::from_logical(&logical).unwrap();
        let rewritten = columnarize(physical, &CostModel::default());
        let text = rewritten.explain(None);
        assert!(text.contains("ColumnScan(R)"), "{text}");
        assert!(text.contains("[σ R.p >= 0.25]"), "{text}");
        assert!(text.contains("[zone-prune]"), "{text}");
        assert!(!text.contains("Select["), "filter was fused: {text}");
        assert_eq!(rewritten.node_count(), 2, "SortLimit over fused scan");
    }

    #[test]
    fn complex_filters_stay_as_operators() {
        let r = table();
        // Arithmetic on the column: not a zone-map-friendly comparison.
        let logical = LogicalPlan::scan(&r).select(BoolExpr::compare(
            ScalarExpr::col("R.p").add(ScalarExpr::col("R.a")),
            CompareOp::GtEq,
            ScalarExpr::lit(0.25),
        ));
        let physical = PhysicalPlan::from_logical(&logical).unwrap();
        let rewritten = columnarize(physical, &CostModel::default());
        let text = rewritten.explain(None);
        assert!(text.contains("Select["), "{text}");
        assert!(text.contains("ColumnScan(R)"), "{text}");
    }

    #[test]
    fn costs_stay_coherent_after_fusion() {
        let r = table();
        let logical = LogicalPlan::scan(&r)
            .select(BoolExpr::compare(
                ScalarExpr::col("R.p"),
                CompareOp::Lt,
                ScalarExpr::lit(0.5),
            ))
            .limit(2);
        let mut physical = PhysicalPlan::from_logical(&logical).unwrap();
        // Hand-annotate a cost chain: scan 100, filter 110, limit 110.
        fn set_costs(p: &mut PhysicalPlan) {
            match &mut p.op {
                PhysicalOp::SeqScan { .. } => p.estimated_cost = Cost(100.0),
                PhysicalOp::Filter { input, .. } | PhysicalOp::Limit { input, .. } => {
                    set_costs(input);
                    p.estimated_cost = Cost(110.0);
                }
                _ => {}
            }
        }
        set_costs(&mut physical);
        let rewritten = columnarize(physical, &CostModel::default());
        // Scan re-costed to 40, fused filter adds 10 * 0.25 = 2.5; the
        // limit's cumulative cost drops by the 67.5 the subtree saved.
        let scan = rewritten.children()[0];
        assert!((scan.estimated_cost.value() - 42.5).abs() < 1e-9);
        assert!((rewritten.estimated_cost.value() - 42.5).abs() < 1e-9);
    }
}
