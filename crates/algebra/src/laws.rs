//! The algebraic laws of the rank-relational algebra (Figure 5) as
//! executable rewrite rules.
//!
//! The laws license exactly the two freedoms Section 2.2 asks for:
//!
//! * **Splitting** (Proposition 1): a monolithic sort over
//!   `F(p1, ..., pn)` is equivalent to a chain of rank operators
//!   `µ_{p1}(µ_{p2}(...))`.
//! * **Interleaving** (Propositions 4 and 5): rank operators commute with
//!   each other and with selections, and push through joins and set
//!   operations, so ranking work can be scheduled anywhere in the plan.
//!
//! Each law is a [`RewriteRule`]; [`equivalent_plans`] computes the closure
//! of a plan under every law.  The closure is the space a transformation-based
//! (Volcano/Cascades) optimizer would explore with the laws registered as
//! rules; the executor's `build` tests and the integration suite execute every
//! plan in it against the oracle.

use std::collections::HashSet;

use ranksql_common::BitSet64;

use crate::plan::{LogicalPlan, ScanAccess, SetOpKind};
use crate::query::RankQuery;

/// An algebraic rewrite rule: applied at the *root* of a (sub)plan, returns
/// zero or more equivalent alternatives.
pub trait RewriteRule: Send + Sync {
    /// Alternatives equivalent to `plan`, where `plan` is treated as the
    /// root; returns an empty vector when the rule does not apply.
    fn apply(&self, plan: &LogicalPlan, query: &RankQuery) -> Vec<LogicalPlan>;
}

// ---------------------------------------------------------------------------
// Proposition 1: splitting law for µ
// ---------------------------------------------------------------------------

/// `R_{p1..pn} ≡ µ_{p1}(µ_{p2}(...(µ_{pn}(R))...))`: replaces a blocking sort
/// with a chain of rank operators over the predicates the input has not yet
/// evaluated.
pub struct SplitSortIntoRanks;

impl RewriteRule for SplitSortIntoRanks {
    fn apply(&self, plan: &LogicalPlan, _query: &RankQuery) -> Vec<LogicalPlan> {
        let LogicalPlan::Sort { input, predicates } = plan else {
            return vec![];
        };
        let missing: Vec<usize> = predicates
            .difference(input.evaluated_predicates())
            .iter()
            .collect();
        let mut out = (**input).clone();
        // Apply the innermost predicate first so the chain reads
        // µ_{p1}(µ_{p2}(...)) top-down like the paper's notation.
        for p in missing.iter().rev() {
            out = out.rank(*p);
        }
        vec![out]
    }
}

// ---------------------------------------------------------------------------
// Proposition 2: commutativity of binary operators
// ---------------------------------------------------------------------------

/// `R Θ S ≡ S Θ R` for Θ ∈ {∩, ∪, ⋈}.
pub struct CommuteBinary;

impl RewriteRule for CommuteBinary {
    fn apply(&self, plan: &LogicalPlan, _query: &RankQuery) -> Vec<LogicalPlan> {
        match plan {
            LogicalPlan::Join {
                left,
                right,
                condition,
                algorithm,
            } => vec![LogicalPlan::Join {
                left: right.clone(),
                right: left.clone(),
                condition: condition.clone(),
                algorithm: *algorithm,
            }],
            LogicalPlan::SetOp { kind, left, right } if *kind != SetOpKind::Except => {
                vec![LogicalPlan::SetOp {
                    kind: *kind,
                    left: right.clone(),
                    right: left.clone(),
                }]
            }
            _ => vec![],
        }
    }
}

// ---------------------------------------------------------------------------
// Proposition 3: associativity of binary operators
// ---------------------------------------------------------------------------

/// `(R Θ S) Θ T ≡ R Θ (S Θ T)` for Θ ∈ {∩, ∪} and for joins when the join
/// conditions stay evaluable (we only re-associate when both joins use the
/// same algorithm and conditions reference columns that remain in scope,
/// which holds for the equi-join conjuncts the optimizer produces).
pub struct AssociateBinary;

impl RewriteRule for AssociateBinary {
    fn apply(&self, plan: &LogicalPlan, _query: &RankQuery) -> Vec<LogicalPlan> {
        match plan {
            LogicalPlan::SetOp { kind, left, right } if *kind != SetOpKind::Except => {
                // (A Θ B) Θ C  →  A Θ (B Θ C)
                if let LogicalPlan::SetOp {
                    kind: inner_kind,
                    left: a,
                    right: b,
                } = &**left
                {
                    if inner_kind == kind {
                        return vec![LogicalPlan::SetOp {
                            kind: *kind,
                            left: a.clone(),
                            right: Box::new(LogicalPlan::SetOp {
                                kind: *kind,
                                left: b.clone(),
                                right: right.clone(),
                            }),
                        }];
                    }
                }
                vec![]
            }
            _ => vec![],
        }
    }
}

// ---------------------------------------------------------------------------
// Proposition 4: commutative laws for µ
// ---------------------------------------------------------------------------

/// `µ_{p1}(µ_{p2}(R)) ≡ µ_{p2}(µ_{p1}(R))` and
/// `σ_c(µ_p(R)) ≡ µ_p(σ_c(R))`.
pub struct CommuteRank;

impl RewriteRule for CommuteRank {
    fn apply(&self, plan: &LogicalPlan, _query: &RankQuery) -> Vec<LogicalPlan> {
        let mut out = Vec::new();
        match plan {
            // µ_{p1}(µ_{p2}(X)) → µ_{p2}(µ_{p1}(X))
            LogicalPlan::Rank {
                input,
                predicate: p1,
            } => match &**input {
                LogicalPlan::Rank {
                    input: inner,
                    predicate: p2,
                } => {
                    out.push((**inner).clone().rank(*p1).rank(*p2));
                }
                // µ_p(σ_c(X)) → σ_c(µ_p(X))
                LogicalPlan::Select {
                    input: inner,
                    predicate,
                } => {
                    out.push((**inner).clone().rank(*p1).select(predicate.clone()));
                }
                _ => {}
            },
            // σ_c(µ_p(X)) → µ_p(σ_c(X))
            LogicalPlan::Select { input, predicate } => {
                if let LogicalPlan::Rank {
                    input: inner,
                    predicate: p,
                } = &**input
                {
                    out.push((**inner).clone().select(predicate.clone()).rank(*p));
                }
            }
            _ => {}
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Proposition 5: pushing µ over binary operators
// ---------------------------------------------------------------------------

/// Pushes a rank operator through joins and set operations:
///
/// * `µ_p(R ⋈ S) ≡ µ_p(R) ⋈ S` when only `R` has attributes of `p`
///   (symmetrically for `S`);
/// * `µ_p(R ∪ S) ≡ µ_p(R) ∪ µ_p(S) ≡ µ_p(R) ∪ S`, similarly for ∩;
/// * `µ_p(R − S) ≡ µ_p(R) − S`.
pub struct PushRankOverBinary;

impl RewriteRule for PushRankOverBinary {
    fn apply(&self, plan: &LogicalPlan, query: &RankQuery) -> Vec<LogicalPlan> {
        let LogicalPlan::Rank { input, predicate } = plan else {
            return vec![];
        };
        let Ok(pred_tables) = query.rank_predicate_tables(*predicate) else {
            return vec![];
        };
        let table_set = |p: &LogicalPlan| -> BitSet64 {
            let mut s = BitSet64::EMPTY;
            for rel in p.relations() {
                if let Ok(i) = query.table_index(&rel) {
                    s.insert(i);
                }
            }
            s
        };
        let mut out = Vec::new();
        match &**input {
            LogicalPlan::Join {
                left,
                right,
                condition,
                algorithm,
            } => {
                // Once the rank operator moves below the join, the join itself
                // must preserve the order property, so its implementation is
                // switched to the rank-aware counterpart.
                let algorithm = match algorithm {
                    crate::plan::JoinAlgorithm::Hash | crate::plan::JoinAlgorithm::SortMerge => {
                        crate::plan::JoinAlgorithm::HashRankJoin
                    }
                    crate::plan::JoinAlgorithm::NestedLoop => {
                        crate::plan::JoinAlgorithm::NestedLoopRankJoin
                    }
                    rank_aware => *rank_aware,
                };
                if pred_tables.is_subset_of(table_set(left)) {
                    out.push(LogicalPlan::Join {
                        left: Box::new((**left).clone().rank(*predicate)),
                        right: right.clone(),
                        condition: condition.clone(),
                        algorithm,
                    });
                }
                if pred_tables.is_subset_of(table_set(right)) {
                    out.push(LogicalPlan::Join {
                        left: left.clone(),
                        right: Box::new((**right).clone().rank(*predicate)),
                        condition: condition.clone(),
                        algorithm,
                    });
                }
            }
            LogicalPlan::SetOp { kind, left, right } => {
                match kind {
                    SetOpKind::Union | SetOpKind::Intersect => {
                        // Both-sides variant (set operands range over the same
                        // relation universe, so the predicate applies to each).
                        out.push(LogicalPlan::SetOp {
                            kind: *kind,
                            left: Box::new((**left).clone().rank(*predicate)),
                            right: Box::new((**right).clone().rank(*predicate)),
                        });
                        // One-sided variant.
                        out.push(LogicalPlan::SetOp {
                            kind: *kind,
                            left: Box::new((**left).clone().rank(*predicate)),
                            right: right.clone(),
                        });
                    }
                    SetOpKind::Except => {
                        out.push(LogicalPlan::SetOp {
                            kind: *kind,
                            left: Box::new((**left).clone().rank(*predicate)),
                            right: right.clone(),
                        });
                    }
                }
            }
            _ => {}
        }
        out
    }
}

/// The inverse of [`PushRankOverBinary`] for joins: pulls a rank operator
/// above a join (`µ_p(R) ⋈ S ≡ µ_p(R ⋈ S)`), useful when exploring the space
/// from an already-pushed-down plan.
pub struct PullRankOverJoin;

impl RewriteRule for PullRankOverJoin {
    fn apply(&self, plan: &LogicalPlan, _query: &RankQuery) -> Vec<LogicalPlan> {
        let LogicalPlan::Join {
            left,
            right,
            condition,
            algorithm,
        } = plan
        else {
            return vec![];
        };
        let mut out = Vec::new();
        if let LogicalPlan::Rank { input, predicate } = &**left {
            out.push(
                LogicalPlan::Join {
                    left: input.clone(),
                    right: right.clone(),
                    condition: condition.clone(),
                    algorithm: *algorithm,
                }
                .rank(*predicate),
            );
        }
        if let LogicalPlan::Rank { input, predicate } = &**right {
            out.push(
                LogicalPlan::Join {
                    left: left.clone(),
                    right: input.clone(),
                    condition: condition.clone(),
                    algorithm: *algorithm,
                }
                .rank(*predicate),
            );
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Proposition 6: multiple-scan of µ
// ---------------------------------------------------------------------------

/// `µ_{p1}(µ_{p2}(R_φ)) ≡ µ_{p1}(R_φ) ∩ µ_{p2}(R_φ)`: two rank operators over
/// the *same base scan* can be evaluated as two independent ranked scans
/// merged by a rank-aware intersection (the "multiple-scan" strategy).
pub struct MultipleScan;

impl RewriteRule for MultipleScan {
    fn apply(&self, plan: &LogicalPlan, _query: &RankQuery) -> Vec<LogicalPlan> {
        let LogicalPlan::Rank {
            input,
            predicate: p1,
        } = plan
        else {
            return vec![];
        };
        let LogicalPlan::Rank {
            input: inner,
            predicate: p2,
        } = &**input
        else {
            return vec![];
        };
        // Only applies when the shared input is a plain base-relation scan
        // (R_φ): both branches must re-scan the same unranked relation.
        let is_base_scan = matches!(
            &**inner,
            LogicalPlan::Scan {
                access: ScanAccess::Sequential,
                ..
            } | LogicalPlan::Scan {
                access: ScanAccess::AttributeIndex { .. },
                ..
            }
        );
        if !is_base_scan {
            return vec![];
        }
        vec![LogicalPlan::SetOp {
            kind: SetOpKind::Intersect,
            left: Box::new((**inner).clone().rank(*p1)),
            right: Box::new((**inner).clone().rank(*p2)),
        }]
    }
}

/// The default rule set: every law of Figure 5.
fn all_rules() -> Vec<Box<dyn RewriteRule>> {
    vec![
        Box::new(SplitSortIntoRanks),
        Box::new(CommuteBinary),
        Box::new(AssociateBinary),
        Box::new(CommuteRank),
        Box::new(PushRankOverBinary),
        Box::new(PullRankOverJoin),
        Box::new(MultipleScan),
    ]
}

/// Applies `rule` at every node of `plan`, returning full plans with exactly
/// one subtree rewritten.
fn apply_rule_everywhere(
    plan: &LogicalPlan,
    rule: &dyn RewriteRule,
    query: &RankQuery,
) -> Vec<LogicalPlan> {
    let mut out = Vec::new();
    // At the root.
    out.extend(rule.apply(plan, query));
    // In each child subtree.
    let children = plan.children();
    for (i, child) in children.iter().enumerate() {
        for rewritten_child in apply_rule_everywhere(child, rule, query) {
            let mut new_children: Vec<LogicalPlan> =
                children.iter().map(|c| (*c).clone()).collect();
            new_children[i] = rewritten_child;
            out.push(plan.with_children(new_children));
        }
    }
    out
}

/// Computes (a bounded portion of) the closure of `plan` under the full rule
/// set: all plans reachable by repeatedly applying laws, up to `limit` plans.
///
/// The returned vector always contains the original plan first.  Every plan
/// in the closure is algebraically equivalent to the input — the
/// property-based tests in `ranksql-executor` and the integration suite
/// execute them and compare results.
pub fn equivalent_plans(plan: &LogicalPlan, query: &RankQuery, limit: usize) -> Vec<LogicalPlan> {
    let rules = all_rules();
    let mut seen: HashSet<String> = HashSet::new();
    let mut result: Vec<LogicalPlan> = Vec::new();
    let mut queue: Vec<LogicalPlan> = vec![plan.clone()];
    seen.insert(format!("{plan:?}"));
    while let Some(current) = queue.pop() {
        result.push(current.clone());
        if result.len() >= limit {
            break;
        }
        for rule in &rules {
            for alt in apply_rule_everywhere(&current, rule.as_ref(), query) {
                let key = format!("{alt:?}");
                if seen.insert(key) {
                    queue.push(alt);
                }
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::JoinAlgorithm;
    use ranksql_common::{DataType, Field, Schema, Value};
    use ranksql_expr::{BoolExpr, RankPredicate, RankingContext, ScoringFunction};
    use ranksql_storage::{Catalog, Table};
    use std::sync::Arc;

    fn setup() -> (Catalog, RankQuery, Arc<Table>, Arc<Table>) {
        let cat = Catalog::new();
        let mk = |_name: &str| {
            Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("p", DataType::Float64),
                Field::new("q", DataType::Float64),
            ])
        };
        let r = cat.create_table("R", mk("R")).unwrap();
        let s = cat.create_table("S", mk("S")).unwrap();
        for t in [&r, &s] {
            t.insert(vec![Value::from(1), Value::from(0.5), Value::from(0.25)])
                .unwrap();
        }
        let ranking = RankingContext::new(
            vec![
                RankPredicate::attribute("p1", "R.p"),
                RankPredicate::attribute("p2", "R.q"),
                RankPredicate::attribute("p3", "S.p"),
            ],
            ScoringFunction::Sum,
        );
        let query = RankQuery::new(
            vec!["R".into(), "S".into()],
            vec![BoolExpr::col_eq_col("R.a", "S.a")],
            ranking,
            5,
        );
        (cat, query, r, s)
    }

    #[test]
    fn splitting_law_replaces_sort_with_rank_chain() {
        let (_cat, query, r, _s) = setup();
        let plan = LogicalPlan::scan(&r).sort(BitSet64::from_indices([0, 1]));
        let alts = SplitSortIntoRanks.apply(&plan, &query);
        assert_eq!(alts.len(), 1);
        let alt = &alts[0];
        assert!(!alt.has_blocking_sort());
        assert_eq!(alt.rank_operator_count(), 2);
        // Order property is preserved.
        assert_eq!(alt.evaluated_predicates(), plan.evaluated_predicates());
    }

    #[test]
    fn splitting_skips_already_evaluated_predicates() {
        let (_cat, query, r, _s) = setup();
        let plan = LogicalPlan::rank_scan(&r, 0).sort(BitSet64::from_indices([0, 1]));
        let alt = &SplitSortIntoRanks.apply(&plan, &query)[0];
        // Only p2 needs a µ; p1 comes from the rank-scan.
        assert_eq!(alt.rank_operator_count(), 2); // rank-scan + one µ
        assert_eq!(alt.evaluated_predicates(), BitSet64::from_indices([0, 1]));
    }

    #[test]
    fn commute_rank_swaps_adjacent_mu() {
        let (_cat, query, r, _s) = setup();
        let plan = LogicalPlan::scan(&r).rank(1).rank(0); // µ_{p0}(µ_{p1}(R))
        let alts = CommuteRank.apply(&plan, &query);
        assert_eq!(alts.len(), 1);
        assert_eq!(alts[0], LogicalPlan::scan(&r).rank(0).rank(1));
        assert_eq!(alts[0].evaluated_predicates(), plan.evaluated_predicates());
    }

    #[test]
    fn rank_and_select_swap_both_ways() {
        let (_cat, query, r, _s) = setup();
        let c = BoolExpr::column_is_true("R.a");
        let select_over_rank = LogicalPlan::scan(&r).rank(0).select(c.clone());
        let alts = CommuteRank.apply(&select_over_rank, &query);
        assert_eq!(alts.len(), 1);
        let rank_over_select = &alts[0];
        assert!(matches!(rank_over_select, LogicalPlan::Rank { .. }));
        // And back.
        let back = CommuteRank.apply(rank_over_select, &query);
        assert!(back.contains(&select_over_rank));
    }

    #[test]
    fn push_rank_over_join_respects_predicate_scope() {
        let (_cat, query, r, s) = setup();
        let join = LogicalPlan::scan(&r).join(
            LogicalPlan::scan(&s),
            Some(BoolExpr::col_eq_col("R.a", "S.a")),
            JoinAlgorithm::HashRankJoin,
        );
        // p0 references R only → pushed to the left side only.
        let plan = join.clone().rank(0);
        let alts = PushRankOverBinary.apply(&plan, &query);
        assert_eq!(alts.len(), 1);
        assert!(matches!(
            &alts[0],
            LogicalPlan::Join { left, .. } if matches!(&**left, LogicalPlan::Rank { .. })
        ));
        // p2 references S only → pushed to the right side only.
        let plan3 = join.rank(2);
        let alts3 = PushRankOverBinary.apply(&plan3, &query);
        assert_eq!(alts3.len(), 1);
        assert!(matches!(
            &alts3[0],
            LogicalPlan::Join { right, .. } if matches!(&**right, LogicalPlan::Rank { .. })
        ));
    }

    #[test]
    fn push_and_pull_are_inverses() {
        let (_cat, query, r, s) = setup();
        let join = LogicalPlan::scan(&r).join(
            LogicalPlan::scan(&s),
            Some(BoolExpr::col_eq_col("R.a", "S.a")),
            JoinAlgorithm::HashRankJoin,
        );
        let above = join.rank(0);
        let pushed = PushRankOverBinary.apply(&above, &query).remove(0);
        let pulled = PullRankOverJoin.apply(&pushed, &query);
        assert!(pulled.contains(&above));
    }

    #[test]
    fn push_rank_over_set_ops() {
        let (_cat, query, r, _s) = setup();
        let union = LogicalPlan::scan(&r)
            .set_op(SetOpKind::Union, LogicalPlan::scan(&r))
            .rank(0);
        let alts = PushRankOverBinary.apply(&union, &query);
        assert_eq!(alts.len(), 2); // both-sides and one-sided variants
        let except = LogicalPlan::scan(&r)
            .set_op(SetOpKind::Except, LogicalPlan::scan(&r))
            .rank(0);
        let alts = PushRankOverBinary.apply(&except, &query);
        assert_eq!(alts.len(), 1);
        for a in alts {
            assert_eq!(a.relations(), vec!["R".to_string()]);
        }
    }

    #[test]
    fn multiple_scan_law() {
        let (_cat, query, r, _s) = setup();
        let plan = LogicalPlan::scan(&r).rank(1).rank(0);
        let alts = MultipleScan.apply(&plan, &query);
        assert_eq!(alts.len(), 1);
        assert!(matches!(
            &alts[0],
            LogicalPlan::SetOp {
                kind: SetOpKind::Intersect,
                ..
            }
        ));
        // Does not apply when the shared input is itself ranked.
        let ranked_input = LogicalPlan::rank_scan(&r, 2).rank(1).rank(0);
        assert!(MultipleScan.apply(&ranked_input, &query).is_empty());
    }

    #[test]
    fn commute_binary_swaps_children() {
        let (_cat, query, r, s) = setup();
        let join = LogicalPlan::scan(&r).join(
            LogicalPlan::scan(&s),
            Some(BoolExpr::col_eq_col("R.a", "S.a")),
            JoinAlgorithm::Hash,
        );
        let alts = CommuteBinary.apply(&join, &query);
        assert_eq!(alts.len(), 1);
        assert_eq!(alts[0].relations(), join.relations());
        // Except does not commute.
        let except = LogicalPlan::scan(&r).set_op(SetOpKind::Except, LogicalPlan::scan(&s));
        assert!(CommuteBinary.apply(&except, &query).is_empty());
    }

    #[test]
    fn associate_set_ops() {
        let (_cat, query, r, _s) = setup();
        let a = LogicalPlan::scan(&r);
        let nested = a
            .clone()
            .set_op(SetOpKind::Union, a.clone())
            .set_op(SetOpKind::Union, a);
        let alts = AssociateBinary.apply(&nested, &query);
        assert_eq!(alts.len(), 1);
        assert_eq!(alts[0].relations(), nested.relations());
    }

    #[test]
    fn closure_contains_ranking_plans_for_canonical_form() {
        let (cat, query, _r, _s) = setup();
        let canonical = query.canonical_plan(&cat).unwrap();
        let plans = equivalent_plans(&canonical, &query, 200);
        assert!(
            plans.len() > 5,
            "expected a non-trivial closure, got {}",
            plans.len()
        );
        // The closure must contain at least one pipelined plan without a
        // blocking sort (the whole point of the algebra).
        assert!(plans.iter().any(|p| !p.has_blocking_sort()));
        // Every plan keeps the same membership (relations) and order (P).
        for p in &plans {
            assert_eq!(p.relations(), canonical.relations());
            assert_eq!(p.evaluated_predicates(), canonical.evaluated_predicates());
        }
    }

    #[test]
    fn apply_everywhere_reaches_nested_nodes() {
        let (_cat, query, r, s) = setup();
        // The commuting µ pair is below a join: root-level application misses
        // it, apply_rule_everywhere must find it.
        let left = LogicalPlan::scan(&r).rank(1).rank(0);
        let plan = left.join(
            LogicalPlan::scan(&s),
            Some(BoolExpr::col_eq_col("R.a", "S.a")),
            JoinAlgorithm::Hash,
        );
        assert!(CommuteRank.apply(&plan, &query).is_empty());
        let alts = apply_rule_everywhere(&plan, &CommuteRank, &query);
        assert_eq!(alts.len(), 1);
        assert_eq!(alts[0].evaluated_predicates(), plan.evaluated_predicates());
    }
}
