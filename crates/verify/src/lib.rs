//! The plan-invariant validator: an independent, mechanical checker over
//! the [`LogicalPlan`](ranksql_algebra::LogicalPlan) and
//! [`PhysicalPlan`](ranksql_algebra::PhysicalPlan) IR.
//!
//! The engine's correctness rests on structural invariants the type system
//! cannot express — pushed filters referencing only scanned columns, zone
//! pruning only under a top-k, cumulative cost annotations staying monotone
//! through the `columnarize` rewrite.  Until now those invariants only failed indirectly, as wrong
//! answers under the equivalence proptests.  This crate encodes each one as
//! a named [`Rule`] producing typed [`Diagnostic`]s, so a broken rewrite
//! fails *at plan time* with the rule id and the offending node's path.
//!
//! The validator is deliberately **independent of the optimizer**: it
//! depends only on `common`, `expr` and `algebra`, and re-derives what a
//! legal plan looks like from the IR documentation rather than calling into
//! the passes it checks — the checker and the checked share no code that
//! could be wrong in the same way.
//!
//! Wiring: in builds with `debug_assertions` (every `cargo test`),
//! `ranksql-core` runs [`validate_physical`] after every optimizer pass and
//! at cursor open; release builds skip those hooks.  It surfaces it as
//! `Database::verify_plan` / `Session::verify_plan`, and appends a
//! validation footer to `explain` output.  Any [`Severity::Error`]
//! diagnostic hard-fails planning.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod logical;
mod physical;

pub use logical::validate_logical;
pub use physical::validate_physical;

use std::fmt;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but legal: the plan executes correctly, the shape is
    /// still worth surfacing (e.g. a top-k of zero tuples).
    Warning,
    /// An invariant violation: executing the plan may produce wrong
    /// answers, panic, or silently drop work.  Planning hard-fails on
    /// these in builds with `debug_assertions`.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// The named invariants the validator checks.  Each rule guards one
/// documented property of the plan IR; `ARCHITECTURE.md` carries the full
/// rule table (id → invariant → layer it guards).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Every node's output schema is derivable from its children's
    /// (projection columns exist, set-operation inputs are union
    /// compatible).
    SchemaCoherence,
    /// Filter predicates and join conditions reference only columns their
    /// input schema actually provides.
    SchemaPredicateColumns,
    /// Parameter slots referenced by the plan form a contiguous `$0..$n`
    /// range (a gap is a dangling slot no binding will ever fill), and a
    /// plan about to execute carries no unbound parameter.
    ParamSlots,
    /// Cumulative per-node cost annotations are monotone parent ≥ child —
    /// the bookkeeping the `columnarize` rewrite maintains.
    CostMonotonic,
    /// Cost and cardinality estimates are finite and non-negative.
    CostFinite,
    /// A pushed filter on a columnar scan is a conjunction of simple
    /// column-vs-constant comparisons over columns the scan provides —
    /// the only shape the column-at-a-time kernels evaluate.
    ColumnarPushedFilter,
    /// A zone-pruning columnar scan reaches its `SortLimit` through an
    /// order/membership-preserving σ/π chain only;
    /// anywhere else, score pruning could change results.
    ColumnarZonePrune,
    /// Ranking-predicate indices (rank-scans, µ, sort predicate sets) stay
    /// within the query's ranking context.
    RankPredicateRange,
    /// A top-k of zero tuples is legal but almost certainly a mistake.
    LimitZero,
}

impl Rule {
    /// The stable dotted identifier used in reports, tests and docs.
    pub fn id(&self) -> &'static str {
        match self {
            Rule::SchemaCoherence => "schema.coherence",
            Rule::SchemaPredicateColumns => "schema.predicate-columns",
            Rule::ParamSlots => "params.slots",
            Rule::CostMonotonic => "cost.monotonic",
            Rule::CostFinite => "cost.finite",
            Rule::ColumnarPushedFilter => "columnar.pushed-filter",
            Rule::ColumnarZonePrune => "columnar.zone-prune",
            Rule::RankPredicateRange => "rank.predicate-range",
            Rule::LimitZero => "limit.zero",
        }
    }

    /// The layer of the system whose rewrites this rule guards.
    pub fn layer(&self) -> &'static str {
        match self {
            Rule::SchemaCoherence | Rule::SchemaPredicateColumns => "algebra",
            Rule::ParamSlots => "prepared statements",
            Rule::CostMonotonic | Rule::CostFinite => "costing",
            Rule::ColumnarPushedFilter | Rule::ColumnarZonePrune => "columnarize",
            Rule::RankPredicateRange => "ranking",
            Rule::LimitZero => "queries",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One finding of the validator: which rule fired, how bad it is, where in
/// the tree, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The invariant that was violated.
    pub rule: Rule,
    /// Whether the plan is broken or merely suspicious.
    pub severity: Severity,
    /// Dot-separated child indices from the root plus the node's label,
    /// e.g. `root.0.1 (HashJoin[R.a = S.a])`.
    pub node_path: String,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} @ {}: {}",
            self.severity, self.rule, self.node_path, self.message
        )
    }
}

/// Options controlling a validation run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ValidateOptions {
    /// Treat an unbound parameter slot as an [`Severity::Error`]: set when
    /// validating a plan about to *execute* (every `$i` must carry a
    /// value), clear when validating a cached shape whose slots are bound
    /// per execution.
    pub require_bound_params: bool,
}

impl ValidateOptions {
    /// Options for a plan about to execute: unbound parameters are errors.
    pub fn executable() -> Self {
        ValidateOptions {
            require_bound_params: true,
        }
    }
}

/// Whether any diagnostic in `diags` is an [`Severity::Error`].
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Renders diagnostics one per line (empty string for a clean run).
pub fn report(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

/// The one-or-more-line summary `explain` appends: `plan validation:
/// clean` or the full report.
pub fn footer(diags: &[Diagnostic]) -> String {
    if diags.is_empty() {
        "plan validation: clean\n".to_owned()
    } else {
        format!("plan validation:\n{}", report(diags))
    }
}

/// Appends `root` (or `root.<path>`) plus the node label.
pub(crate) fn node_path(indices: &[usize], label: &str) -> String {
    let mut out = String::from("root");
    for i in indices {
        out.push('.');
        out.push_str(&i.to_string());
    }
    out.push_str(" (");
    out.push_str(label);
    out.push(')');
    out
}

/// Shared slot-contiguity / boundness checks over collected parameter
/// bindings `(slot, value)`; `path` names the plan root.
pub(crate) fn check_param_bindings(
    bindings: &[(usize, Option<ranksql_common::Value>)],
    opts: &ValidateOptions,
    path: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let mut slots: Vec<usize> = bindings.iter().map(|(i, _)| *i).collect();
    slots.sort_unstable();
    slots.dedup();
    if let Some(&max) = slots.last() {
        for expected in 0..=max {
            if !slots.contains(&expected) {
                diags.push(Diagnostic {
                    rule: Rule::ParamSlots,
                    severity: Severity::Warning,
                    node_path: path.to_owned(),
                    message: format!(
                        "dangling parameter slot: plan references ${max} but ${expected} \
                         is never used — bindings are positional, the gap can never be filled \
                         intentionally"
                    ),
                });
                break;
            }
        }
    }
    if opts.require_bound_params {
        let mut unbound: Vec<usize> = bindings
            .iter()
            .filter(|(_, v)| v.is_none())
            .map(|(i, _)| *i)
            .collect();
        unbound.sort_unstable();
        unbound.dedup();
        for slot in unbound {
            diags.push(Diagnostic {
                rule: Rule::ParamSlots,
                severity: Severity::Error,
                node_path: path.to_owned(),
                message: format!("parameter ${slot} is unbound in a plan about to execute"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique_and_dotted() {
        let rules = [
            Rule::SchemaCoherence,
            Rule::SchemaPredicateColumns,
            Rule::ParamSlots,
            Rule::CostMonotonic,
            Rule::CostFinite,
            Rule::ColumnarPushedFilter,
            Rule::ColumnarZonePrune,
            Rule::RankPredicateRange,
            Rule::LimitZero,
        ];
        let mut ids: Vec<&str> = rules.iter().map(|r| r.id()).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate rule id");
        for r in &rules {
            assert!(r.id().contains('.'), "{}", r.id());
            assert!(!r.layer().is_empty());
        }
    }

    #[test]
    fn footer_and_report_render() {
        assert_eq!(footer(&[]), "plan validation: clean\n");
        let d = Diagnostic {
            rule: Rule::ColumnarZonePrune,
            severity: Severity::Error,
            node_path: "root (SeqScan(R))".to_owned(),
            message: "zone pruning without a top-k".to_owned(),
        };
        let text = footer(std::slice::from_ref(&d));
        assert!(
            text.contains("[error] columnar.zone-prune @ root"),
            "{text}"
        );
        assert!(has_errors(&[d]));
        assert!(!has_errors(&[]));
    }

    #[test]
    fn param_binding_checks_flag_gaps_and_unbound() {
        let mut diags = Vec::new();
        check_param_bindings(
            &[(2, Some(ranksql_common::Value::from(1)))],
            &ValidateOptions::default(),
            "root",
            &mut diags,
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::ParamSlots);
        assert_eq!(diags[0].severity, Severity::Warning);

        let mut diags = Vec::new();
        check_param_bindings(
            &[(0, None)],
            &ValidateOptions::executable(),
            "root",
            &mut diags,
        );
        assert!(has_errors(&diags));
    }
}
