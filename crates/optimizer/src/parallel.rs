//! The parallelization pass: lowering serial physical plans onto the
//! morsel-driven parallel execution engine.
//!
//! Given a lowered [`PhysicalPlan`] and a worker-thread budget, this pass
//! rewrites **parallel-safe subtrees** to run under an
//! [`Exchange`](PhysicalOp::Exchange):
//!
//! * a *spine* of `SeqScan` → σ/π → hash-join probes is morsel-partitioned
//!   by wrapping the driving scan in a
//!   [`Repartition`](PhysicalOp::Repartition) marker;
//! * a blocking `Sort` over a spine becomes a per-partition sort whose runs
//!   an ordered exchange k-way merges (classic parallel sort-merge);
//! * a fused `SortLimit` over a spine becomes a per-partition top-k whose
//!   merged stream the exchange re-limits to the global `k`;
//! * a hash join's *build* side that is itself a spine is wrapped in a
//!   nested concat-exchange, so the build scan is partitioned too.
//!
//! Exchanges are inserted only where the subtree is fully drained anyway
//! (under τ / τ+λ) — rank-aware operators (µ, HRJN/NRJN, rank-scans)
//! are never placed inside an exchange and keep their incremental
//! single-threaded top-k semantics above it.  The rewrite never changes
//! results: exchange output is deterministic and byte-identical to serial
//! execution for any thread count (`tests/parallel_equivalence.rs` checks
//! exactly this).

use ranksql_algebra::{ExchangeMerge, JoinAlgorithm, PhysicalOp, PhysicalPlan};
use ranksql_common::Cost;

/// Abstract cost units charged per tuple moved through an exchange merge
/// (slot write + heap step); the bulk of the subtree's work is divided by
/// the thread count.
const EXCHANGE_TUPLE_COST: f64 = 0.01;

/// Rewrites `plan` to run its parallel-safe subtrees across `threads`
/// workers.  With `threads <= 1` — or on a plan that already contains an
/// exchange — the plan is returned unchanged, so the pass is idempotent and
/// serial configurations pay nothing.
pub fn parallelize(plan: PhysicalPlan, threads: usize) -> PhysicalPlan {
    if threads <= 1 || plan.contains_exchange() {
        return plan;
    }
    rewrite(plan, threads)
}

/// The part of a spine's cumulative cost that runs exactly once, serially,
/// no matter how many workers probe it: the build sides of its hash and
/// nested-loops joins (a nested build-side exchange already carries its own
/// parallel-adjusted cost and is included as-is).
fn pinned_serial_cost(plan: &PhysicalPlan) -> f64 {
    match &plan.op {
        PhysicalOp::Filter { input, .. }
        | PhysicalOp::Project { input, .. }
        | PhysicalOp::Sort { input, .. }
        | PhysicalOp::SortLimit { input, .. } => pinned_serial_cost(input),
        PhysicalOp::Join {
            left,
            right,
            algorithm: JoinAlgorithm::Hash | JoinAlgorithm::NestedLoop,
            ..
        } => pinned_serial_cost(left) + right.estimated_cost.value(),
        _ => 0.0,
    }
}

/// Annotates an exchange over `input`: the per-morsel work is split across
/// the workers, the once-only build work stays serial, and every merged
/// tuple pays a small reassembly surcharge.
fn exchange_over(input: PhysicalPlan, merge: ExchangeMerge, threads: usize) -> PhysicalPlan {
    let rows = input.estimated_rows;
    let serial = pinned_serial_cost(&input);
    let scaled = (input.estimated_cost.value() - serial).max(0.0) / threads as f64;
    let cost = Cost(serial + scaled + rows * EXCHANGE_TUPLE_COST);
    PhysicalPlan {
        estimated_cost: cost,
        estimated_rows: rows,
        op: PhysicalOp::Exchange {
            input: Box::new(input),
            merge,
        },
    }
}

fn rewrite(plan: PhysicalPlan, threads: usize) -> PhysicalPlan {
    // A blocking sort (or top-k) over a spine sorts per partition, and an
    // ordered exchange k-way merges the runs (re-limiting to the global k).
    let partitioned = match &plan.op {
        PhysicalOp::Sort { input, .. } => spine_of(input, threads).map(|s| (s, None)),
        PhysicalOp::SortLimit { input, k, .. } => spine_of(input, threads).map(|s| (s, Some(*k))),
        _ => None,
    };
    // Every node is rebuilt through the cost-coherent walk: whatever the
    // children saved is subtracted from its cumulative cost, so explain's
    // root cost reflects exchanges inserted anywhere in the tree.
    if let Some((spine, limit)) = partitioned {
        let mut spine = Some(spine);
        let partial = plan.rebuild_coherent(|op| op.map_children(|c| spine.take().unwrap_or(c)));
        return exchange_over(partial, ExchangeMerge::Ordered { limit }, threads);
    }
    // Every other node keeps its shape; recurse into the children.  The pass
    // runs only on plans without an exchange, and returns the exchanges it
    // inserts without descending into them.
    plan.rebuild_coherent(|op| op.map_children(|c| rewrite(c, threads)))
}

/// Rewrites a subtree into a morsel-partitionable spine — the driving
/// `SeqScan` wrapped in a `Repartition` marker — or `None` when the subtree
/// contains anything the exchange executor cannot run per-morsel.
///
/// A zone-pruned scan is no spine: serially it skips every block the
/// shared top-k threshold rules out, while per-morsel top-ks each read
/// their morsel until their own threshold forms, so partitioning it makes
/// the query's work grow with the table instead of with `k`.
fn spine_of(plan: &PhysicalPlan, threads: usize) -> Option<PhysicalPlan> {
    let annotated = |op| PhysicalPlan {
        op,
        estimated_cost: plan.estimated_cost,
        estimated_rows: plan.estimated_rows,
    };
    match &plan.op {
        PhysicalOp::SeqScan {
            columnar: Some(c), ..
        } if c.zone_prune => None,
        PhysicalOp::SeqScan { .. } => Some(annotated(PhysicalOp::Repartition {
            input: Box::new(plan.clone()),
        })),
        PhysicalOp::Filter { input, predicate } => spine_of(input, threads).map(|s| {
            annotated(PhysicalOp::Filter {
                input: Box::new(s),
                predicate: predicate.clone(),
            })
        }),
        PhysicalOp::Project { input, columns } => spine_of(input, threads).map(|s| {
            annotated(PhysicalOp::Project {
                input: Box::new(s),
                columns: columns.clone(),
            })
        }),
        PhysicalOp::Join {
            left,
            right,
            condition,
            algorithm: algorithm @ (JoinAlgorithm::Hash | JoinAlgorithm::NestedLoop),
        } => {
            if right.is_rank_aware() || right.contains_exchange() {
                return None;
            }
            let probe = spine_of(left, threads)?;
            // The build side runs once; if it is itself a spine, a nested
            // concat-exchange partitions the build scan too.
            let build = match spine_of(right, threads) {
                Some(build_spine) => exchange_over(build_spine, ExchangeMerge::Concat, threads),
                None => right.as_ref().clone(),
            };
            Some(annotated(PhysicalOp::Join {
                left: Box::new(probe),
                right: Box::new(build),
                condition: condition.clone(),
                algorithm: *algorithm,
            }))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksql_algebra::{JoinAlgorithm, LogicalPlan};
    use ranksql_common::{BitSet64, DataType, Field, Schema, Value};
    use ranksql_storage::{Table, TableBuilder};

    fn table(name: &str, id: u32) -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("p", DataType::Float64),
        ])
        .qualify_all(name);
        TableBuilder::new(name, schema)
            .row(vec![Value::from(1), Value::from(0.5)])
            .build(id)
            .unwrap()
    }

    #[test]
    fn sort_limit_over_a_join_spine_is_parallelized() {
        let r = table("R", 0);
        let s = table("S", 1);
        let logical = LogicalPlan::scan(&r)
            .join(
                LogicalPlan::scan(&s),
                Some(ranksql_expr::BoolExpr::col_eq_col("R.a", "S.a")),
                JoinAlgorithm::Hash,
            )
            .sort(BitSet64::all(2))
            .limit(5);
        let physical = PhysicalPlan::from_logical(&logical).unwrap();
        let par = parallelize(physical.clone(), 4);
        let text = par.explain(None);
        assert!(text.contains("Exchange(merge; k=5)"), "{text}");
        assert!(text.contains("Repartition(morsels)"), "{text}");
        // The build side is partitioned through a nested concat exchange.
        assert!(text.contains("Exchange(concat)"), "{text}");
        // Idempotent: a second pass changes nothing.
        assert_eq!(parallelize(par.clone(), 4), par);
        // Serial thread budgets leave the plan untouched.
        assert_eq!(parallelize(physical.clone(), 1), physical);
    }

    #[test]
    fn rank_aware_subtrees_stay_serial() {
        let r = table("R", 0);
        let logical = LogicalPlan::rank_scan(&r, 0).limit(3);
        let physical = PhysicalPlan::from_logical(&logical).unwrap();
        let par = parallelize(physical.clone(), 8);
        assert_eq!(par, physical, "rank-scan pipelines must not be exchanged");
    }

    #[test]
    fn plain_sort_gets_an_ordered_merge_exchange_with_cost() {
        let r = table("R", 0);
        let logical = LogicalPlan::scan(&r).sort(BitSet64::singleton(0));
        let mut physical = PhysicalPlan::from_logical(&logical).unwrap();
        physical.estimated_cost = Cost(100.0);
        physical.estimated_rows = 50.0;
        let par = parallelize(physical, 4);
        assert!(matches!(
            par.op,
            PhysicalOp::Exchange {
                merge: ExchangeMerge::Ordered { limit: None },
                ..
            }
        ));
        // 100/4 + 50 * 0.01 = 25.5
        assert!((par.estimated_cost.value() - 25.5).abs() < 1e-9);
        assert_eq!(par.estimated_rows, 50.0);
    }
}
