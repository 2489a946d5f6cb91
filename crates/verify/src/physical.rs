//! The [`PhysicalPlan`] walk: one exhaustive match over every
//! [`PhysicalOp`] variant (no wildcard arm, so adding a variant fails to
//! compile here until its invariants are stated; `cargo xtask lint`
//! additionally cross-checks the walk against `PhysicalOp::try_map_children`).

use ranksql_algebra::{ColumnarScan, PhysicalOp, PhysicalPlan};
use ranksql_common::{Schema, Value};
use ranksql_expr::{BoolExpr, RankingContext, ScalarExpr};

use crate::{check_param_bindings, node_path, Diagnostic, Rule, Severity, ValidateOptions};

/// Validates a physical plan, returning every diagnostic found (empty for
/// a clean plan).  `ctx` enables the ranking-predicate range checks; pass
/// the query's context whenever one exists.
pub fn validate_physical(
    plan: &PhysicalPlan,
    ctx: Option<&RankingContext>,
    opts: &ValidateOptions,
) -> Vec<Diagnostic> {
    let mut walker = Walker {
        ctx,
        diags: Vec::new(),
        bindings: Vec::new(),
    };
    let mut indices = Vec::new();
    walker.visit(plan, &mut indices, false);
    let root_path = node_path(&[], &plan.node_label(ctx));
    check_param_bindings(&walker.bindings, opts, &root_path, &mut walker.diags);
    walker.diags
}

struct Walker<'a> {
    ctx: Option<&'a RankingContext>,
    diags: Vec<Diagnostic>,
    /// Parameter bindings collected across the whole tree, checked once at
    /// the root for slot contiguity and (optionally) boundness.
    bindings: Vec<(usize, Option<Value>)>,
}

/// Whether a σ predicate has the shape the columnar kernels evaluate: a
/// conjunction of comparisons between one column and one execution-time
/// constant.  Deliberately re-derived from the `ColumnarScan` contract
/// rather than shared with the optimizer's `columnarize` pass — the checker
/// and the checked must not be wrong in the same way.
fn is_pushable(pred: &BoolExpr) -> bool {
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

impl Walker<'_> {
    fn push(&mut self, rule: Rule, severity: Severity, path: &str, message: String) {
        self.diags.push(Diagnostic {
            rule,
            severity,
            node_path: path.to_owned(),
            message,
        });
    }

    fn check_predicate_index(&mut self, what: &str, index: usize, path: &str) {
        if let Some(ctx) = self.ctx {
            if index >= ctx.num_predicates() {
                self.push(
                    Rule::RankPredicateRange,
                    Severity::Error,
                    path,
                    format!(
                        "{what} references ranking predicate #{index} but the context has only \
                         {} predicates",
                        ctx.num_predicates()
                    ),
                );
            }
        }
    }

    /// Columns of `pred` must resolve in `schema`; `what` names the
    /// predicate's role in the message.
    fn check_predicate_columns(
        &mut self,
        what: &str,
        pred: &BoolExpr,
        schema: &Schema,
        path: &str,
    ) {
        for col in pred.columns() {
            if col.resolve(schema).is_err() {
                self.push(
                    Rule::SchemaPredicateColumns,
                    Severity::Error,
                    path,
                    format!(
                        "{what} references column `{col}` which the input schema does not provide"
                    ),
                );
            }
        }
    }

    /// `zone_chain` is the one inherited (top-down) state: whether a
    /// zone-pruning columnar scan is legal here — true only on the σ/π
    /// chain directly under a `SortLimit`.
    fn visit(&mut self, plan: &PhysicalPlan, indices: &mut Vec<usize>, zone_chain: bool) {
        let path = node_path(indices, &plan.node_label(self.ctx));

        // cost.finite: estimates must be finite and non-negative.
        let cost = plan.estimated_cost.value();
        if !cost.is_finite() || cost < 0.0 {
            self.push(
                Rule::CostFinite,
                Severity::Error,
                &path,
                format!("estimated cost {cost} is not a finite non-negative number"),
            );
        }
        if !plan.estimated_rows.is_finite() || plan.estimated_rows < 0.0 {
            self.push(
                Rule::CostFinite,
                Severity::Error,
                &path,
                format!(
                    "estimated cardinality {} is not a finite non-negative number",
                    plan.estimated_rows
                ),
            );
        }

        // cost.monotonic: cumulative costs never shrink upward.
        for child in plan.children() {
            let child_cost = child.estimated_cost.value();
            if child_cost.is_finite() && cost.is_finite() && child_cost > cost * (1.0 + 1e-9) + 1e-6
            {
                self.push(
                    Rule::CostMonotonic,
                    Severity::Error,
                    &path,
                    format!(
                        "cumulative cost {cost:.3} is below child `{}` at {child_cost:.3} — \
                         a rewrite pass left the annotation stale",
                        child.node_label(self.ctx)
                    ),
                );
            }
        }

        // schema.coherence: attributed to the node where derivation first
        // fails (children derive fine, this node does not).
        if plan.children().iter().all(|c| c.schema().is_ok()) {
            if let Err(e) = plan.schema() {
                self.push(
                    Rule::SchemaCoherence,
                    Severity::Error,
                    &path,
                    format!("output schema is not derivable: {e}"),
                );
            }
        }

        // Per-operator rules.  This match is intentionally exhaustive with
        // no wildcard arm: a new PhysicalOp variant must state its
        // invariants here before the crate compiles.
        match &plan.op {
            PhysicalOp::SeqScan {
                schema, columnar, ..
            } => {
                if let Some(ColumnarScan {
                    pushed_filter,
                    zone_prune,
                }) = columnar
                {
                    if let Some(f) = pushed_filter {
                        if !is_pushable(f) {
                            self.push(
                                Rule::ColumnarPushedFilter,
                                Severity::Error,
                                &path,
                                format!(
                                    "pushed filter `{f}` is not a conjunction of simple \
                                     column-vs-constant comparisons"
                                ),
                            );
                        }
                        for col in f.columns() {
                            if col.resolve(schema).is_err() {
                                self.push(
                                    Rule::ColumnarPushedFilter,
                                    Severity::Error,
                                    &path,
                                    format!(
                                        "pushed filter references column `{col}` outside the \
                                         scanned schema"
                                    ),
                                );
                            }
                        }
                        self.bindings.extend(f.param_bindings());
                    }
                    if *zone_prune && !zone_chain {
                        self.push(
                            Rule::ColumnarZonePrune,
                            Severity::Error,
                            &path,
                            "zone-pruning scan does not feed a SortLimit through a σ/π chain — \
                             score pruning here could change results"
                                .to_owned(),
                        );
                    }
                }
            }
            PhysicalOp::RankScan { predicate, .. } => {
                self.check_predicate_index("rank-scan", *predicate, &path);
            }
            PhysicalOp::AttributeIndexScan { schema, column, .. } => {
                if schema.index_of_str(column).is_err() {
                    self.push(
                        Rule::SchemaPredicateColumns,
                        Severity::Error,
                        &path,
                        format!("index column `{column}` is not in the scanned schema"),
                    );
                }
            }
            PhysicalOp::Filter { input, predicate } => {
                if let Ok(s) = input.schema() {
                    self.check_predicate_columns("filter predicate", predicate, &s, &path);
                }
                self.bindings.extend(predicate.param_bindings());
            }
            PhysicalOp::Project { .. } => {
                // Unresolvable projection columns surface as schema.coherence.
            }
            PhysicalOp::RankMaterialize { predicate, .. } => {
                self.check_predicate_index("µ", *predicate, &path);
            }
            PhysicalOp::Join {
                left,
                right,
                condition,
                ..
            } => {
                if let Some(c) = condition {
                    if let (Ok(l), Ok(r)) = (left.schema(), right.schema()) {
                        let joined = l.join(&r);
                        self.check_predicate_columns("join condition", c, &joined, &path);
                    }
                    self.bindings.extend(c.param_bindings());
                }
            }
            PhysicalOp::SetOp { .. } => {
                // Union compatibility surfaces as schema.coherence.
            }
            PhysicalOp::Sort { predicates, .. } => {
                for p in predicates.iter() {
                    self.check_predicate_index("sort", p, &path);
                }
            }
            PhysicalOp::SortLimit { predicates, k, .. } => {
                for p in predicates.iter() {
                    self.check_predicate_index("top-k sort", p, &path);
                }
                if *k == 0 {
                    self.push(
                        Rule::LimitZero,
                        Severity::Warning,
                        &path,
                        "top-k sort keeps zero tuples".to_owned(),
                    );
                }
            }
            PhysicalOp::Limit { k, .. } => {
                if *k == 0 {
                    self.push(
                        Rule::LimitZero,
                        Severity::Warning,
                        &path,
                        "limit keeps zero tuples".to_owned(),
                    );
                }
            }
        }

        let child_zone_chain = match plan.op {
            PhysicalOp::SortLimit { .. } => true,
            PhysicalOp::Filter { .. } | PhysicalOp::Project { .. } => zone_chain,
            _ => false,
        };
        for (i, child) in plan.children().into_iter().enumerate() {
            indices.push(i);
            self.visit(child, indices, child_zone_chain);
            indices.pop();
        }
    }
}
