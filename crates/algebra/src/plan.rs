//! Logical query plans over rank-relations.

use std::fmt;

use ranksql_common::{BitSet64, RankSqlError, Result, Schema};
use ranksql_expr::{BoolExpr, CompareOp, RankingContext, ScalarExpr};
use ranksql_storage::Table;

/// How a base table is accessed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ScanAccess {
    /// Sequential (heap) scan — output order is arbitrary, `P = ∅`.
    Sequential,
    /// Rank-scan: an index scan over the score index of ranking predicate
    /// `predicate` (by context index), emitting tuples in descending score
    /// order — `P = {predicate}`.  This is the paper's `idxScan_p`.
    RankIndex {
        /// Index of the ranking predicate in the query's [`RankingContext`].
        predicate: usize,
    },
    /// An ordered scan over an attribute index (ascending attribute order).
    /// `P = ∅` but the output carries an *interesting order* on `column`.
    AttributeIndex {
        /// Qualified column name.
        column: String,
    },
}

/// Physical join algorithm selection.
///
/// The paper's plans (Figure 11) mix rank-aware joins (HRJN, NRJN) with
/// traditional joins (sort-merge, nested loop); the enumeration keeps the
/// choice explicit on the plan node so costing and execution agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinAlgorithm {
    /// Tuple-at-a-time nested loops (traditional, blocking inner).
    NestedLoop,
    /// Sort-merge join on the equi-join columns (traditional).
    SortMerge,
    /// Hash join (traditional; builds on the right input).
    Hash,
    /// Hash rank-join (HRJN): rank-aware, incremental, symmetric-hash based.
    HashRankJoin,
    /// Nested-loop rank-join (NRJN): rank-aware, ripple-style nested loops.
    NestedLoopRankJoin,
}

impl JoinAlgorithm {
    /// Whether the algorithm is rank-aware (emits in upper-bound order).
    pub fn is_rank_aware(self) -> bool {
        matches!(
            self,
            JoinAlgorithm::HashRankJoin | JoinAlgorithm::NestedLoopRankJoin
        )
    }

    /// The join's name in explain output and operator metrics, shared by
    /// the logical and the physical label.
    pub fn name(self) -> &'static str {
        match self {
            JoinAlgorithm::NestedLoop => "NestedLoopJoin",
            JoinAlgorithm::SortMerge => "SortMergeJoin",
            JoinAlgorithm::Hash => "HashJoin",
            JoinAlgorithm::HashRankJoin => "HRJN",
            JoinAlgorithm::NestedLoopRankJoin => "NRJN",
        }
    }

    /// The algorithms a join over `condition` may use, in the order planners
    /// try them.  A join with a ranking predicate evaluated below it must be
    /// rank-aware to merge its operands' aggregate order (Figure 3);
    /// otherwise the traditional algorithms compete.  Hash-based and
    /// sort-merge joins need a `column = column` conjunct to key on.
    pub fn admissible(ranked: bool, condition: Option<&BoolExpr>) -> &'static [JoinAlgorithm] {
        let equi = condition.is_some_and(|c| {
            c.split_conjuncts().iter().any(|cj| {
                matches!(
                    cj,
                    BoolExpr::Compare {
                        op: CompareOp::Eq,
                        left: ScalarExpr::Column(_),
                        right: ScalarExpr::Column(_),
                    }
                )
            })
        });
        match (ranked, equi) {
            (true, true) => &[
                JoinAlgorithm::HashRankJoin,
                JoinAlgorithm::NestedLoopRankJoin,
            ],
            (true, false) => &[JoinAlgorithm::NestedLoopRankJoin],
            (false, true) => &[
                JoinAlgorithm::Hash,
                JoinAlgorithm::SortMerge,
                JoinAlgorithm::NestedLoop,
            ],
            (false, false) => &[JoinAlgorithm::NestedLoop],
        }
    }
}

/// Which set operation a [`LogicalPlan::SetOp`] node performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetOpKind {
    /// Union (set semantics, duplicates by tuple identity merged).
    Union,
    /// Intersection.
    Intersect,
    /// Difference (left minus right).
    Except,
}

/// A query plan node over rank-relations.
///
/// Every node produces a rank-relation characterised by two logical
/// properties: its *membership* (which tuples) and its *order*, induced by
/// the set of ranking predicates evaluated at or below the node —
/// [`LogicalPlan::evaluated_predicates`].
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Base-table access.
    Scan {
        /// Table name.
        table: String,
        /// Snapshot of the table schema (fields qualified by table name).
        schema: Schema,
        /// Access path.
        access: ScanAccess,
    },
    /// Selection σ_c: filters membership, keeps the input order.
    Select {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Boolean predicate.
        predicate: BoolExpr,
    },
    /// Projection π: keeps membership, order and predicate evaluability;
    /// narrows the schema.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Qualified column names to keep, in output order.
        columns: Vec<String>,
    },
    /// The new rank operator µ_p: evaluates ranking predicate `predicate`
    /// and re-orders by `P ∪ {p}`.
    Rank {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Index of the ranking predicate in the query's [`RankingContext`].
        predicate: usize,
    },
    /// Join (⋈_c or Cartesian product when `condition` is `None`).
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join condition (`None` = Cartesian product).
        condition: Option<BoolExpr>,
        /// Physical algorithm.
        algorithm: JoinAlgorithm,
    },
    /// Set operation (∪, ∩, −) over union-compatible inputs.
    SetOp {
        /// Which set operation.
        kind: SetOpKind,
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
    },
    /// The traditional blocking sort τ_F: evaluates every predicate in
    /// `predicates` that is still missing and sorts by the full score.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Predicates of the scoring function this sort evaluates/orders by.
        predicates: BitSet64,
    },
    /// Top-k limit λ_k.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Number of tuples to keep.
        k: usize,
    },
}

impl LogicalPlan {
    // ---------------------------------------------------------------------
    // Constructors
    // ---------------------------------------------------------------------

    /// A sequential scan of `table`.
    pub fn scan(table: &Table) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.name().to_owned(),
            schema: table.schema().clone(),
            access: ScanAccess::Sequential,
        }
    }

    /// A rank-scan of `table` in the order of ranking predicate `predicate`.
    pub fn rank_scan(table: &Table, predicate: usize) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.name().to_owned(),
            schema: table.schema().clone(),
            access: ScanAccess::RankIndex { predicate },
        }
    }

    /// An ordered attribute-index scan of `table` on `column`.
    pub fn index_scan(table: &Table, column: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.name().to_owned(),
            schema: table.schema().clone(),
            access: ScanAccess::AttributeIndex {
                column: column.to_owned(),
            },
        }
    }

    /// Wraps this plan in a selection.
    pub fn select(self, predicate: BoolExpr) -> LogicalPlan {
        LogicalPlan::Select {
            input: Box::new(self),
            predicate,
        }
    }

    /// Wraps this plan in a projection.
    pub fn project(self, columns: Vec<String>) -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(self),
            columns,
        }
    }

    /// Wraps this plan in a rank operator µ_p.
    pub fn rank(self, predicate: usize) -> LogicalPlan {
        LogicalPlan::Rank {
            input: Box::new(self),
            predicate,
        }
    }

    /// Joins this plan with another.
    pub fn join(
        self,
        right: LogicalPlan,
        condition: Option<BoolExpr>,
        algorithm: JoinAlgorithm,
    ) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            condition,
            algorithm,
        }
    }

    /// Set-operation constructor.
    pub fn set_op(self, kind: SetOpKind, right: LogicalPlan) -> LogicalPlan {
        LogicalPlan::SetOp {
            kind,
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Wraps this plan in a blocking sort over `predicates`.
    pub fn sort(self, predicates: BitSet64) -> LogicalPlan {
        LogicalPlan::Sort {
            input: Box::new(self),
            predicates,
        }
    }

    /// Wraps this plan in a top-k limit.
    pub fn limit(self, k: usize) -> LogicalPlan {
        LogicalPlan::Limit {
            input: Box::new(self),
            k,
        }
    }

    // ---------------------------------------------------------------------
    // Properties
    // ---------------------------------------------------------------------

    // ---------------------------------------------------------------------
    // Prepared-statement rebinding
    // ---------------------------------------------------------------------

    /// The parameter slots referenced by any predicate in this plan
    /// (sorted, deduplicated).
    pub fn param_slots(&self) -> Vec<usize> {
        let mut out = Vec::new();
        match self {
            LogicalPlan::Select { predicate, .. } => out.extend(predicate.param_slots()),
            LogicalPlan::Join {
                condition: Some(c), ..
            } => out.extend(c.param_slots()),
            _ => {}
        }
        for c in self.children() {
            out.extend(c.param_slots());
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Rebinds every parameter slot in the plan's selection predicates and
    /// join conditions to the value at its index in `values`.
    pub fn with_params(&self, values: &[ranksql_common::Value]) -> Result<LogicalPlan> {
        Ok(match self {
            LogicalPlan::Select { input, predicate } => LogicalPlan::Select {
                input: Box::new(input.with_params(values)?),
                predicate: predicate.with_params(values)?,
            },
            LogicalPlan::Join {
                left,
                right,
                condition,
                algorithm,
            } => LogicalPlan::Join {
                left: Box::new(left.with_params(values)?),
                right: Box::new(right.with_params(values)?),
                condition: condition
                    .as_ref()
                    .map(|c| c.with_params(values))
                    .transpose()?,
                algorithm: *algorithm,
            },
            LogicalPlan::Scan { .. } => self.clone(),
            other => {
                let children = other
                    .children()
                    .into_iter()
                    .map(|c| c.with_params(values))
                    .collect::<Result<Vec<_>>>()?;
                other.with_children(children)
            }
        })
    }

    /// Rewrites every `Limit` node keeping exactly `old_k` tuples to keep
    /// `new_k` instead — how a cached plan shape is re-bound to a different
    /// top-k without re-optimizing.  In plans produced from a
    /// [`RankQuery`](crate::RankQuery)
    /// the only limits are the query's own `k`, so the value match is exact.
    pub fn with_limit(&self, old_k: usize, new_k: usize) -> LogicalPlan {
        let rebound = match self {
            LogicalPlan::Limit { input, k } if *k == old_k => {
                return LogicalPlan::Limit {
                    input: Box::new(input.with_limit(old_k, new_k)),
                    k: new_k,
                }
            }
            other => other,
        };
        let children = rebound
            .children()
            .into_iter()
            .map(|c| c.with_limit(old_k, new_k))
            .collect();
        rebound.with_children(children)
    }

    /// The output schema of this plan.
    pub fn schema(&self) -> Result<Schema> {
        match self {
            LogicalPlan::Scan { schema, .. } => Ok(schema.clone()),
            LogicalPlan::Select { input, .. }
            | LogicalPlan::Rank { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.schema(),
            LogicalPlan::Project { input, columns } => {
                let s = input.schema()?;
                let mut indices = Vec::with_capacity(columns.len());
                for c in columns {
                    indices.push(s.index_of_str(c)?);
                }
                Ok(s.project(&indices))
            }
            LogicalPlan::Join { left, right, .. } => Ok(left.schema()?.join(&right.schema()?)),
            LogicalPlan::SetOp { left, right, .. } => {
                let l = left.schema()?;
                let r = right.schema()?;
                if l.len() != r.len() {
                    return Err(RankSqlError::Plan(format!(
                        "set operation inputs are not union compatible: {} vs {} columns",
                        l.len(),
                        r.len()
                    )));
                }
                Ok(l)
            }
        }
    }

    /// The set `P` of ranking predicates evaluated at or below this node —
    /// the *order* property of the produced rank-relation.
    pub fn evaluated_predicates(&self) -> BitSet64 {
        match self {
            LogicalPlan::Scan { access, .. } => match access {
                ScanAccess::RankIndex { predicate } => BitSet64::singleton(*predicate),
                _ => BitSet64::EMPTY,
            },
            LogicalPlan::Select { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Limit { input, .. } => input.evaluated_predicates(),
            LogicalPlan::Rank { input, predicate } => input
                .evaluated_predicates()
                .union(BitSet64::singleton(*predicate)),
            LogicalPlan::Join { left, right, .. } => left
                .evaluated_predicates()
                .union(right.evaluated_predicates()),
            LogicalPlan::SetOp { kind, left, right } => match kind {
                // Difference keeps only the outer input's order (Figure 3).
                SetOpKind::Except => left.evaluated_predicates(),
                _ => left
                    .evaluated_predicates()
                    .union(right.evaluated_predicates()),
            },
            LogicalPlan::Sort { input, predicates } => {
                input.evaluated_predicates().union(*predicates)
            }
        }
    }

    /// The base relations (table names) below this node, sorted.
    pub fn relations(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_relations(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_relations(&self, out: &mut Vec<String>) {
        match self {
            LogicalPlan::Scan { table, .. } => out.push(table.clone()),
            LogicalPlan::Select { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Rank { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.collect_relations(out),
            LogicalPlan::Join { left, right, .. } | LogicalPlan::SetOp { left, right, .. } => {
                left.collect_relations(out);
                right.collect_relations(out);
            }
        }
    }

    /// The direct children of this node.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => vec![],
            LogicalPlan::Select { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Rank { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } | LogicalPlan::SetOp { left, right, .. } => {
                vec![left, right]
            }
        }
    }

    /// Rebuilds this node with new children (same arity required).
    pub fn with_children(&self, mut children: Vec<LogicalPlan>) -> LogicalPlan {
        match self {
            LogicalPlan::Scan { .. } => self.clone(),
            LogicalPlan::Select { predicate, .. } => LogicalPlan::Select {
                input: Box::new(children.remove(0)),
                predicate: predicate.clone(),
            },
            LogicalPlan::Project { columns, .. } => LogicalPlan::Project {
                input: Box::new(children.remove(0)),
                columns: columns.clone(),
            },
            LogicalPlan::Rank { predicate, .. } => LogicalPlan::Rank {
                input: Box::new(children.remove(0)),
                predicate: *predicate,
            },
            LogicalPlan::Sort { predicates, .. } => LogicalPlan::Sort {
                input: Box::new(children.remove(0)),
                predicates: *predicates,
            },
            LogicalPlan::Limit { k, .. } => LogicalPlan::Limit {
                input: Box::new(children.remove(0)),
                k: *k,
            },
            LogicalPlan::Join {
                condition,
                algorithm,
                ..
            } => {
                let left = children.remove(0);
                let right = children.remove(0);
                LogicalPlan::Join {
                    left: Box::new(left),
                    right: Box::new(right),
                    condition: condition.clone(),
                    algorithm: *algorithm,
                }
            }
            LogicalPlan::SetOp { kind, .. } => {
                let left = children.remove(0);
                let right = children.remove(0);
                LogicalPlan::SetOp {
                    kind: *kind,
                    left: Box::new(left),
                    right: Box::new(right),
                }
            }
        }
    }

    /// Total number of nodes in the plan tree.
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    /// Number of rank-aware operators (µ, rank-scan, rank-joins).
    pub fn rank_operator_count(&self) -> usize {
        let own = match self {
            LogicalPlan::Rank { .. } => 1,
            LogicalPlan::Scan {
                access: ScanAccess::RankIndex { .. },
                ..
            } => 1,
            LogicalPlan::Join { algorithm, .. } if algorithm.is_rank_aware() => 1,
            _ => 0,
        };
        own + self
            .children()
            .iter()
            .map(|c| c.rank_operator_count())
            .sum::<usize>()
    }

    /// Whether this plan contains a blocking sort (the hallmark of the
    /// traditional materialise-then-sort scheme).
    pub fn has_blocking_sort(&self) -> bool {
        matches!(self, LogicalPlan::Sort { .. })
            || self.children().iter().any(|c| c.has_blocking_sort())
    }

    /// Returns a copy of this plan in which every join uses its rank-aware
    /// physical counterpart (hash / sort-merge → HRJN, nested loops → NRJN).
    ///
    /// In the rank-relational algebra ⋈ is order-aware by definition
    /// (Figure 3); the traditional algorithms are only valid *implementations*
    /// when a blocking sort above them re-establishes the order.  Rewrites
    /// that remove or push ranking below a join (Propositions 1 and 5)
    /// therefore switch the affected joins to rank-aware implementations so
    /// the physical plan honours the logical order property.
    pub fn with_rank_aware_joins(&self) -> LogicalPlan {
        let children: Vec<LogicalPlan> = self
            .children()
            .into_iter()
            .map(|c| c.with_rank_aware_joins())
            .collect();
        let rebuilt = self.with_children(children);
        match rebuilt {
            LogicalPlan::Join {
                left,
                right,
                condition,
                algorithm,
            } => {
                let algorithm = match algorithm {
                    JoinAlgorithm::Hash | JoinAlgorithm::SortMerge => JoinAlgorithm::HashRankJoin,
                    JoinAlgorithm::NestedLoop => JoinAlgorithm::NestedLoopRankJoin,
                    rank_aware => rank_aware,
                };
                LogicalPlan::Join {
                    left,
                    right,
                    condition,
                    algorithm,
                }
            }
            other => other,
        }
    }

    /// A one-line name of this node for explain output.
    pub fn node_label(&self, ctx: Option<&RankingContext>) -> String {
        let pname = |i: usize| -> String {
            ctx.map(|c| c.predicate(i).name.clone())
                .unwrap_or_else(|| format!("p#{i}"))
        };
        match self {
            LogicalPlan::Scan { table, access, .. } => match access {
                ScanAccess::Sequential => format!("SeqScan({table})"),
                ScanAccess::RankIndex { predicate } => {
                    format!("RankScan_{}({table})", pname(*predicate))
                }
                ScanAccess::AttributeIndex { column } => format!("IdxScan_{column}({table})"),
            },
            LogicalPlan::Select { predicate, .. } => format!("Select[{predicate}]"),
            LogicalPlan::Project { columns, .. } => format!("Project[{}]", columns.join(", ")),
            LogicalPlan::Rank { predicate, .. } => format!("Rank_{}", pname(*predicate)),
            LogicalPlan::Join {
                condition,
                algorithm,
                ..
            } => {
                let alg = algorithm.name();
                match condition {
                    Some(c) => format!("{alg}[{c}]"),
                    None => format!("{alg}[cross]"),
                }
            }
            LogicalPlan::SetOp { kind, .. } => match kind {
                SetOpKind::Union => "Union".to_owned(),
                SetOpKind::Intersect => "Intersect".to_owned(),
                SetOpKind::Except => "Except".to_owned(),
            },
            LogicalPlan::Sort { predicates, .. } => {
                let names: Vec<String> = predicates.iter().map(pname).collect();
                format!("Sort[{}]", names.join("+"))
            }
            LogicalPlan::Limit { k, .. } => format!("Limit[{k}]"),
        }
    }

    /// Multi-line indented explain output.
    pub fn explain(&self, ctx: Option<&RankingContext>) -> String {
        let mut out = String::new();
        self.explain_into(ctx, 0, &mut out);
        out
    }

    fn explain_into(&self, ctx: Option<&RankingContext>, depth: usize, out: &mut String) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "{}{}", "  ".repeat(depth), self.node_label(ctx));
        for c in self.children() {
            c.explain_into(ctx, depth + 1, out);
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.explain(None).trim_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksql_common::{DataType, Field, Value};
    use ranksql_expr::{RankPredicate, ScoringFunction};
    use ranksql_storage::TableBuilder;

    fn table(name: &str, id: u32) -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("p1", DataType::Float64),
        ])
        .qualify_all(name);
        TableBuilder::new(name, schema)
            .row(vec![Value::from(1), Value::from(0.5)])
            .build(id)
            .unwrap()
    }

    fn ctx() -> std::sync::Arc<RankingContext> {
        RankingContext::new(
            vec![
                RankPredicate::attribute("p1", "R.p1"),
                RankPredicate::attribute("p2", "S.p1"),
            ],
            ScoringFunction::Sum,
        )
    }

    #[test]
    fn scan_properties() {
        let r = table("R", 0);
        let plan = LogicalPlan::scan(&r);
        assert_eq!(plan.schema().unwrap().len(), 2);
        assert!(plan.evaluated_predicates().is_empty());
        assert_eq!(plan.relations(), vec!["R".to_string()]);

        let rs = LogicalPlan::rank_scan(&r, 0);
        assert_eq!(rs.evaluated_predicates(), BitSet64::singleton(0));
        assert_eq!(rs.rank_operator_count(), 1);
    }

    #[test]
    fn evaluated_predicates_propagate_through_operators() {
        let r = table("R", 0);
        let s = table("S", 1);
        let plan = LogicalPlan::rank_scan(&r, 0)
            .join(
                LogicalPlan::scan(&s).rank(1),
                Some(BoolExpr::col_eq_col("R.a", "S.a")),
                JoinAlgorithm::HashRankJoin,
            )
            .limit(5);
        assert_eq!(plan.evaluated_predicates(), BitSet64::from_indices([0, 1]));
        assert_eq!(plan.relations(), vec!["R".to_string(), "S".to_string()]);
        assert_eq!(plan.rank_operator_count(), 3); // rank-scan + µ + HRJN
        assert!(!plan.has_blocking_sort());
    }

    #[test]
    fn difference_keeps_left_order_only() {
        let r = table("R", 0);
        let s = table("S", 1);
        let left = LogicalPlan::rank_scan(&r, 0);
        let right = LogicalPlan::scan(&s).rank(1);
        let diff = left.clone().set_op(SetOpKind::Except, right.clone());
        assert_eq!(diff.evaluated_predicates(), BitSet64::singleton(0));
        let union = left.set_op(SetOpKind::Union, right);
        assert_eq!(union.evaluated_predicates(), BitSet64::from_indices([0, 1]));
    }

    #[test]
    fn sort_evaluates_its_predicates() {
        let r = table("R", 0);
        let plan = LogicalPlan::scan(&r)
            .sort(BitSet64::from_indices([0, 1]))
            .limit(3);
        assert_eq!(plan.evaluated_predicates(), BitSet64::from_indices([0, 1]));
        assert!(plan.has_blocking_sort());
        assert_eq!(plan.rank_operator_count(), 0);
    }

    #[test]
    fn project_schema() {
        let r = table("R", 0);
        let plan = LogicalPlan::scan(&r).project(vec!["R.p1".to_owned()]);
        let schema = plan.schema().unwrap();
        assert_eq!(schema.len(), 1);
        assert_eq!(schema.field(0).qualified_name(), "R.p1");
        let bad = LogicalPlan::scan(&r).project(vec!["R.zzz".to_owned()]);
        assert!(bad.schema().is_err());
    }

    #[test]
    fn set_op_schema_compatibility() {
        let r = table("R", 0);
        let s = table("S", 1);
        let ok = LogicalPlan::scan(&r).set_op(SetOpKind::Union, LogicalPlan::scan(&s));
        assert!(ok.schema().is_ok());
        let narrowed = LogicalPlan::scan(&s).project(vec!["S.a".to_owned()]);
        let bad = LogicalPlan::scan(&r).set_op(SetOpKind::Intersect, narrowed);
        assert!(bad.schema().is_err());
    }

    #[test]
    fn with_children_round_trip() {
        let r = table("R", 0);
        let s = table("S", 1);
        let plan = LogicalPlan::scan(&r).join(
            LogicalPlan::scan(&s),
            Some(BoolExpr::col_eq_col("R.a", "S.a")),
            JoinAlgorithm::Hash,
        );
        let kids: Vec<LogicalPlan> = plan.children().into_iter().cloned().collect();
        let rebuilt = plan.with_children(kids);
        assert_eq!(plan, rebuilt);
        assert_eq!(plan.node_count(), 3);
    }

    #[test]
    fn explain_mentions_operators_and_predicates() {
        let r = table("R", 0);
        let c = ctx();
        let plan = LogicalPlan::rank_scan(&r, 0).rank(1).limit(2);
        let text = plan.explain(Some(&c));
        assert!(text.contains("Limit[2]"));
        assert!(text.contains("Rank_p2"));
        assert!(text.contains("RankScan_p1(R)"));
        // Display without a context falls back to indices.
        let text2 = format!("{plan}");
        assert!(text2.contains("Rank_p#1"));
    }

    #[test]
    fn join_algorithm_classification() {
        assert!(JoinAlgorithm::HashRankJoin.is_rank_aware());
        assert!(JoinAlgorithm::NestedLoopRankJoin.is_rank_aware());
        assert!(!JoinAlgorithm::SortMerge.is_rank_aware());
    }
}
