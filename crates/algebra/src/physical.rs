//! The physical plan IR: the contract between the optimizer and the
//! executor.
//!
//! A [`LogicalPlan`] describes *what* rank-relation to compute; a
//! [`PhysicalPlan`] names the concrete operator that computes every node —
//! `SeqScan` vs `RankScan` vs `AttributeIndexScan`, the [`JoinAlgorithm`]
//! of every join (hash, sort-merge or nested loops, or the rank-aware HRJN
//! and NRJN), and a blocking `Sort` vs a fused top-k `SortLimit`.  Each
//! node carries the optimizer's per-node [`Cost`] and cardinality
//! estimates, so `explain` can print the physical tree the executor will
//! actually run, and — after execution — pair every node with the number
//! of tuples it really produced.
//!
//! The executor consumes *only* this IR: `build_operator` in
//! `ranksql-executor` is a mechanical `PhysicalPlan → operator` walk.  The
//! one choice left to it is how many threads run a sort's input — a
//! question of the run, not of the plan, so one plan serves every thread
//! count.  There is one lowering
//! `LogicalPlan → PhysicalPlan`, [`PhysicalPlan::from_logical_with`]: the
//! optimizer's planners hand it the cost model's per-node estimates, and
//! [`PhysicalPlan::from_logical`] runs it with zero-cost annotations for
//! hand-built and canonical plans.

use std::convert::Infallible;
use std::fmt;

use ranksql_common::{BitSet64, Cost, RankSqlError, Result, Schema};
use ranksql_expr::{BoolExpr, RankingContext};

use crate::plan::{JoinAlgorithm, LogicalPlan, ScanAccess, SetOpKind};

/// The `columnarize` annotation of a sequential scan, which the optimizer
/// puts on every scan of a plan it produces.  The executor lowers every
/// sequential scan, annotated or not, to a `ColumnScan` that reads the
/// table's [`ColumnTable`] blocks plus its unsealed tail; the annotation
/// adds a fused filter and zone pruning.
///
/// [`ColumnTable`]: ranksql_storage::ColumnTable
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ColumnarScan {
    /// A σ predicate fused into the scan (a conjunction of simple
    /// column-vs-constant comparisons): evaluated column-at-a-time against
    /// the typed column vectors, with zone maps skipping blocks whose value
    /// range cannot satisfy it.  Rows are materialised into tuples only
    /// *after* they pass — late materialisation on the σ spine.
    pub pushed_filter: Option<BoolExpr>,
    /// Whether the scan may additionally skip blocks whose maximal possible
    /// *query score* (zone-map maxima through the scoring function) cannot
    /// beat the downstream top-k's current threshold.  Set only when the
    /// scan feeds a `SortLimit` through an order/membership-preserving σ/π
    /// chain, so pruning can never change results — only `tuples_scanned`.
    pub zone_prune: bool,
}

/// A physical operator node; children are embedded [`PhysicalPlan`]s.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalOp {
    /// Sequential scan of a base table.
    SeqScan {
        /// Table name.
        table: String,
        /// Snapshot of the table schema.
        schema: Schema,
        /// The `columnarize` annotation (`None` for the structural lowering
        /// of a hand-built plan: no fused filter, no zone pruning, labelled
        /// `SeqScan(T)`).
        columnar: Option<ColumnarScan>,
    },
    /// Score-index scan emitting tuples in descending order of one ranking
    /// predicate (the paper's `idxScan_p`).
    RankScan {
        /// Table name.
        table: String,
        /// Snapshot of the table schema.
        schema: Schema,
        /// Index of the ranking predicate in the query's [`RankingContext`].
        predicate: usize,
    },
    /// Ordered scan over an attribute index (ascending attribute order).
    AttributeIndexScan {
        /// Table name.
        table: String,
        /// Snapshot of the table schema.
        schema: Schema,
        /// Qualified column the index covers.
        column: String,
    },
    /// Selection σ_c.
    Filter {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Boolean predicate.
        predicate: BoolExpr,
    },
    /// Projection π.
    Project {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Qualified column names to keep, in output order.
        columns: Vec<String>,
    },
    /// The rank operator µ_p: evaluates one ranking predicate and re-orders
    /// incrementally through a ranking queue.
    RankMaterialize {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Index of the ranking predicate evaluated.
        predicate: usize,
    },
    /// Join ⋈ of two inputs, computed by one of the [`JoinAlgorithm`]s: the
    /// blocking nested-loops, hash and sort-merge joins or the rank-aware,
    /// incremental HRJN and NRJN.
    Join {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input (the build side of a hash or nested-loops join).
        right: Box<PhysicalPlan>,
        /// Join condition (`None` = Cartesian product; every algorithm but
        /// the two nested-loops ones needs an equi-conjunct).
        condition: Option<BoolExpr>,
        /// The physical algorithm that computes the join.
        algorithm: JoinAlgorithm,
    },
    /// Rank-aware set operation (∪, ∩, −).
    SetOp {
        /// Which set operation.
        kind: SetOpKind,
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
    },
    /// Blocking materialise-and-sort τ_F.
    Sort {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Predicates the sort evaluates/orders by.
        predicates: BitSet64,
    },
    /// Fused top-k sort (τ_F + λ_k): keeps only the best `k` tuples in a
    /// bounded heap instead of materialising and sorting the whole input.
    SortLimit {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Predicates the sort evaluates/orders by.
        predicates: BitSet64,
        /// Number of tuples to keep.
        k: usize,
    },
    /// Top-k limit λ_k over an already ranked input.
    Limit {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Number of tuples to keep.
        k: usize,
    },
}

/// Runtime actuals of one executed physical operator, paired against plan
/// nodes by `explain_with_actuals`.
///
/// Produced by the executor's metrics registry in post-order (children
/// before parents) — the same order in which operators register during plan
/// lowering.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorActuals {
    /// The operator label, matching [`PhysicalPlan::node_label`].
    pub label: String,
    /// Number of tuples the operator actually produced.
    pub rows: u64,
    /// Number of non-empty batches the operator emitted (pull calls that
    /// returned at least one tuple).
    pub batches: u64,
    /// Mean number of tuples per emitted batch (0 when no batch was
    /// emitted).
    pub mean_batch_fill: f64,
    /// Peak number of entries the operator held buffered at once (ranking
    /// queues, drawn join inputs, queued join candidates; 0 for operators
    /// that buffer nothing).
    pub buffered_peak: u64,
    /// Rows a hash join or a zone-pruning scan constructed.  `rows` counts
    /// the rows it *decided* (matched and passed the residual, or passed
    /// the pushed filter); beneath a top-k sort it builds only those the
    /// heap's threshold does not already exclude.  0 for every other
    /// operator.
    pub built: u64,
}

impl OperatorActuals {
    /// Actuals carrying only a tuple count (no batch statistics).
    pub fn rows_only(label: impl Into<String>, rows: u64) -> Self {
        OperatorActuals {
            label: label.into(),
            rows,
            batches: 0,
            mean_batch_fill: 0.0,
            buffered_peak: 0,
            built: 0,
        }
    }
}

impl PhysicalOp {
    /// The operator implementing `plan`'s own node over `children`, its
    /// already-lowered inputs in [`LogicalPlan::children`] order — the
    /// structural mapping of [`PhysicalPlan::from_logical`] for one node,
    /// without the `Limit(Sort)` fusion.  A child missing from `children`
    /// becomes a [`PhysicalPlan::stand_in`]: with none at all, the node is
    /// lowered alone, for a caller that hands it its inputs itself.
    pub fn from_logical_node(plan: &LogicalPlan, children: Vec<PhysicalPlan>) -> PhysicalOp {
        let mut children = children.into_iter().map(Box::new);
        let mut child = || {
            children
                .next()
                .unwrap_or_else(|| Box::new(PhysicalPlan::stand_in()))
        };
        match plan {
            LogicalPlan::Scan {
                table,
                schema,
                access,
            } => match access {
                ScanAccess::Sequential => PhysicalOp::SeqScan {
                    table: table.clone(),
                    schema: schema.clone(),
                    columnar: None,
                },
                ScanAccess::RankIndex { predicate } => PhysicalOp::RankScan {
                    table: table.clone(),
                    schema: schema.clone(),
                    predicate: *predicate,
                },
                ScanAccess::AttributeIndex { column } => PhysicalOp::AttributeIndexScan {
                    table: table.clone(),
                    schema: schema.clone(),
                    column: column.clone(),
                },
            },
            LogicalPlan::Select { predicate, .. } => PhysicalOp::Filter {
                input: child(),
                predicate: predicate.clone(),
            },
            LogicalPlan::Project { columns, .. } => PhysicalOp::Project {
                input: child(),
                columns: columns.clone(),
            },
            LogicalPlan::Rank { predicate, .. } => PhysicalOp::RankMaterialize {
                input: child(),
                predicate: *predicate,
            },
            LogicalPlan::Join {
                condition,
                algorithm,
                ..
            } => PhysicalOp::Join {
                left: child(),
                right: child(),
                condition: condition.clone(),
                algorithm: *algorithm,
            },
            LogicalPlan::SetOp { kind, .. } => PhysicalOp::SetOp {
                kind: *kind,
                left: child(),
                right: child(),
            },
            LogicalPlan::Sort { predicates, .. } => PhysicalOp::Sort {
                input: child(),
                predicates: *predicates,
            },
            LogicalPlan::Limit { k, .. } => PhysicalOp::Limit {
                input: child(),
                k: *k,
            },
        }
    }

    /// Rebuilds this operator with `f` applied to every direct child plan
    /// (leaves are returned unchanged).
    pub fn map_children(self, mut f: impl FnMut(PhysicalPlan) -> PhysicalPlan) -> PhysicalOp {
        self.try_map_children(|c| Ok::<_, Infallible>(f(c)))
            .unwrap_or_else(|never| match never {})
    }

    /// [`map_children`](Self::map_children) for a fallible `f`, stopping at
    /// the first error in child order.  The one exhaustive child walk every
    /// rewrite pass shares, so adding a `PhysicalOp` variant only needs its
    /// children threaded here.
    pub fn try_map_children<E>(
        self,
        mut f: impl FnMut(PhysicalPlan) -> std::result::Result<PhysicalPlan, E>,
    ) -> std::result::Result<PhysicalOp, E> {
        let mut f = |child: Box<PhysicalPlan>| f(*child).map(Box::new);
        Ok(match self {
            PhysicalOp::Filter { input, predicate } => PhysicalOp::Filter {
                input: f(input)?,
                predicate,
            },
            PhysicalOp::Project { input, columns } => PhysicalOp::Project {
                input: f(input)?,
                columns,
            },
            PhysicalOp::RankMaterialize { input, predicate } => PhysicalOp::RankMaterialize {
                input: f(input)?,
                predicate,
            },
            PhysicalOp::Sort { input, predicates } => PhysicalOp::Sort {
                input: f(input)?,
                predicates,
            },
            PhysicalOp::SortLimit {
                input,
                predicates,
                k,
            } => PhysicalOp::SortLimit {
                input: f(input)?,
                predicates,
                k,
            },
            PhysicalOp::Limit { input, k } => PhysicalOp::Limit {
                input: f(input)?,
                k,
            },
            PhysicalOp::Join {
                left,
                right,
                condition,
                algorithm,
            } => PhysicalOp::Join {
                left: f(left)?,
                right: f(right)?,
                condition,
                algorithm,
            },
            PhysicalOp::SetOp { kind, left, right } => PhysicalOp::SetOp {
                kind,
                left: f(left)?,
                right: f(right)?,
            },
            leaf @ (PhysicalOp::SeqScan { .. }
            | PhysicalOp::RankScan { .. }
            | PhysicalOp::AttributeIndexScan { .. }) => leaf,
        })
    }
}

/// A physical plan node: a [`PhysicalOp`] plus the optimizer's per-node
/// estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    /// The operator and its children.
    pub op: PhysicalOp,
    /// Estimated cumulative cost of this subtree ([`Cost::ZERO`] when the
    /// plan was lowered without an estimator).
    pub estimated_cost: Cost,
    /// Estimated output cardinality of this node (0 when lowered without an
    /// estimator).
    pub estimated_rows: f64,
}

impl PhysicalPlan {
    /// Wraps an operator with zero estimates.
    pub fn unestimated(op: PhysicalOp) -> PhysicalPlan {
        PhysicalPlan {
            op,
            estimated_cost: Cost::ZERO,
            estimated_rows: 0.0,
        }
    }

    /// A leaf standing in for a child that is not lowered from the plan:
    /// a sequential scan of no table with an empty schema.
    pub fn stand_in() -> PhysicalPlan {
        PhysicalPlan::unestimated(PhysicalOp::SeqScan {
            table: String::new(),
            schema: Schema::empty(),
            columnar: None,
        })
    }

    /// Structurally lowers a logical plan, carrying zero cost estimates —
    /// [`from_logical_with`](Self::from_logical_with) for hand-built and
    /// canonical plans.
    pub fn from_logical(plan: &LogicalPlan) -> Result<PhysicalPlan> {
        PhysicalPlan::from_logical_with(plan, &|_| Ok((Cost::ZERO, 0.0)))
    }

    /// Lowers a logical plan, annotating every node with the
    /// `(cumulative cost, output rows)` that `estimate` returns for the
    /// logical node it implements.
    ///
    /// The mapping is mechanical because the logical plan already fixes the
    /// access path and join algorithm; the one *physical* rewrite applied
    /// here is fusing `Limit(Sort(x))` into the bounded-heap [`top-k
    /// sort`](PhysicalOp::SortLimit), which takes the `Limit` node's
    /// estimates.
    pub fn from_logical_with(
        plan: &LogicalPlan,
        estimate: &impl Fn(&LogicalPlan) -> Result<(Cost, f64)>,
    ) -> Result<PhysicalPlan> {
        // Fuse λ_k directly above τ_F into one bounded top-k sort.
        let fused = match plan {
            LogicalPlan::Limit { input, k } => match input.as_ref() {
                LogicalPlan::Sort { input, predicates } => Some((input, *predicates, *k)),
                _ => None,
            },
            _ => None,
        };
        let op = match fused {
            Some((input, predicates, k)) => PhysicalOp::SortLimit {
                input: Box::new(PhysicalPlan::from_logical_with(input, estimate)?),
                predicates,
                k,
            },
            None => {
                let children = plan
                    .children()
                    .into_iter()
                    .map(|c| PhysicalPlan::from_logical_with(c, estimate))
                    .collect::<Result<Vec<_>>>()?;
                PhysicalOp::from_logical_node(plan, children)
            }
        };
        let (estimated_cost, estimated_rows) = estimate(plan)?;
        Ok(PhysicalPlan {
            op,
            estimated_cost,
            estimated_rows,
        })
    }

    /// Rebuilds this node's operator with `f` — typically over rewritten
    /// children — keeping its cardinality estimate and lowering its
    /// cumulative cost (never below zero) by exactly what its children's
    /// costs dropped, so a pass that re-costs a subtree stays visible in
    /// every ancestor's cost.
    pub fn rebuild_coherent(self, f: impl FnOnce(PhysicalOp) -> PhysicalOp) -> PhysicalPlan {
        let children_cost = |p: &PhysicalPlan| -> f64 {
            p.children().iter().map(|c| c.estimated_cost.value()).sum()
        };
        let old_children_cost = children_cost(&self);
        let PhysicalPlan {
            op,
            estimated_cost,
            estimated_rows,
        } = self;
        let rebuilt = PhysicalPlan {
            op: f(op),
            estimated_cost,
            estimated_rows,
        };
        let saved = old_children_cost - children_cost(&rebuilt);
        PhysicalPlan {
            estimated_cost: Cost((estimated_cost.value() - saved).max(0.0)),
            ..rebuilt
        }
    }

    /// The output schema of this plan.
    pub fn schema(&self) -> Result<Schema> {
        match &self.op {
            PhysicalOp::SeqScan { schema, .. }
            | PhysicalOp::RankScan { schema, .. }
            | PhysicalOp::AttributeIndexScan { schema, .. } => Ok(schema.clone()),
            PhysicalOp::Filter { input, .. }
            | PhysicalOp::RankMaterialize { input, .. }
            | PhysicalOp::Sort { input, .. }
            | PhysicalOp::SortLimit { input, .. }
            | PhysicalOp::Limit { input, .. } => input.schema(),
            PhysicalOp::Project { input, columns } => {
                let s = input.schema()?;
                let mut indices = Vec::with_capacity(columns.len());
                for c in columns {
                    indices.push(s.index_of_str(c)?);
                }
                Ok(s.project(&indices))
            }
            PhysicalOp::Join { left, right, .. } => Ok(left.schema()?.join(&right.schema()?)),
            PhysicalOp::SetOp { left, right, .. } => {
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

    /// The direct children of this node.
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match &self.op {
            PhysicalOp::SeqScan { .. }
            | PhysicalOp::RankScan { .. }
            | PhysicalOp::AttributeIndexScan { .. } => vec![],
            PhysicalOp::Filter { input, .. }
            | PhysicalOp::Project { input, .. }
            | PhysicalOp::RankMaterialize { input, .. }
            | PhysicalOp::Sort { input, .. }
            | PhysicalOp::SortLimit { input, .. }
            | PhysicalOp::Limit { input, .. } => vec![input],
            PhysicalOp::Join { left, right, .. } | PhysicalOp::SetOp { left, right, .. } => {
                vec![left, right]
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

    /// The nodes of this tree in post-order (children before parents) —
    /// the same order in which the executor registers operator metrics.
    pub fn post_order(&self) -> Vec<&PhysicalPlan> {
        let mut out = Vec::with_capacity(self.node_count());
        self.post_order_into(&mut out);
        out
    }

    fn post_order_into<'a>(&'a self, out: &mut Vec<&'a PhysicalPlan>) {
        for c in self.children() {
            c.post_order_into(out);
        }
        out.push(self);
    }

    /// The parameter slots referenced by any predicate in this plan
    /// (sorted, deduplicated).
    pub fn param_slots(&self) -> Vec<usize> {
        let mut out = Vec::new();
        match &self.op {
            PhysicalOp::Filter { predicate, .. } => out.extend(predicate.param_slots()),
            PhysicalOp::SeqScan {
                columnar:
                    Some(ColumnarScan {
                        pushed_filter: Some(f),
                        ..
                    }),
                ..
            } => out.extend(f.param_slots()),
            PhysicalOp::Join {
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

    /// Rebinds every parameter slot in the plan's filter predicates and join
    /// conditions to the value at its index in `values`, preserving the
    /// per-node cost and cardinality estimates.
    ///
    /// This is the executor-side half of prepared statements: a cached
    /// physical plan (optimized once, containing `$i` parameter slots) is
    /// re-bound to fresh constants without re-running the optimizer.
    pub fn with_params(&self, values: &[ranksql_common::Value]) -> Result<PhysicalPlan> {
        self.clone().bind_params(values)
    }

    fn bind_params(self, values: &[ranksql_common::Value]) -> Result<PhysicalPlan> {
        let PhysicalPlan {
            op,
            estimated_cost,
            estimated_rows,
        } = self;
        let mut op = op.try_map_children(|c| c.bind_params(values))?;
        match &mut op {
            PhysicalOp::Filter { predicate: p, .. }
            | PhysicalOp::Join {
                condition: Some(p), ..
            }
            | PhysicalOp::SeqScan {
                columnar:
                    Some(ColumnarScan {
                        pushed_filter: Some(p),
                        ..
                    }),
                ..
            } => *p = p.with_params(values)?,
            _ => {}
        }
        Ok(PhysicalPlan {
            op,
            estimated_cost,
            estimated_rows,
        })
    }

    /// Rewrites every top-k cap of exactly `old_k` tuples — `Limit` and
    /// `SortLimit` nodes — to `new_k`, preserving estimates.  In plans
    /// produced from a [`crate::RankQuery`] every such cap derives from the
    /// query's own `k`, so the value match is exact.
    pub fn with_limit(&self, old_k: usize, new_k: usize) -> PhysicalPlan {
        self.clone().relimit(old_k, new_k)
    }

    fn relimit(self, old_k: usize, new_k: usize) -> PhysicalPlan {
        let PhysicalPlan {
            op,
            estimated_cost,
            estimated_rows,
        } = self;
        let mut op = op.map_children(|c| c.relimit(old_k, new_k));
        match &mut op {
            PhysicalOp::Limit { k, .. } | PhysicalOp::SortLimit { k, .. } if *k == old_k => {
                *k = new_k
            }
            _ => {}
        }
        PhysicalPlan {
            op,
            estimated_cost,
            estimated_rows,
        }
    }

    /// Whether this subtree contains a rank-aware operator (rank-scan, µ,
    /// HRJN, NRJN).
    pub fn is_rank_aware(&self) -> bool {
        matches!(self.op, PhysicalOp::RankScan { .. })
            || self.buffers_ranked()
            || self.children().iter().any(|c| c.is_rank_aware())
    }

    /// Whether this node is an incremental rank-aware operator (µ, HRJN,
    /// NRJN), which buffers what it has drawn until it can emit it.
    fn buffers_ranked(&self) -> bool {
        match &self.op {
            PhysicalOp::RankMaterialize { .. } => true,
            PhysicalOp::Join { algorithm, .. } => algorithm.is_rank_aware(),
            _ => false,
        }
    }

    /// A one-line name of this node for explain output and operator metrics.
    ///
    /// Labels match the corresponding logical node labels where the two
    /// plans correspond one-to-one, so logical and physical explains (and
    /// per-operator metric series) line up.
    pub fn node_label(&self, ctx: Option<&RankingContext>) -> String {
        // Out-of-range indices fall back to `p#i` instead of panicking, so
        // labels can be produced for invalid plans too (their validation
        // error then carries a printable label).
        let pname = |i: usize| -> String {
            ctx.filter(|c| i < c.num_predicates())
                .map(|c| c.predicate(i).name.clone())
                .unwrap_or_else(|| format!("p#{i}"))
        };
        let cond = |c: &Option<BoolExpr>| -> String {
            match c {
                Some(c) => format!("[{c}]"),
                None => "[cross]".to_owned(),
            }
        };
        match &self.op {
            PhysicalOp::SeqScan {
                table,
                columnar: None,
                ..
            } => format!("SeqScan({table})"),
            PhysicalOp::SeqScan {
                table,
                columnar: Some(c),
                ..
            } => {
                let mut label = format!("ColumnScan({table})");
                if let Some(f) = &c.pushed_filter {
                    let _ = std::fmt::Write::write_fmt(&mut label, format_args!("[σ {f}]"));
                }
                if c.zone_prune {
                    label.push_str("[zone-prune]");
                }
                label
            }
            PhysicalOp::RankScan {
                table, predicate, ..
            } => {
                format!("RankScan_{}({table})", pname(*predicate))
            }
            PhysicalOp::AttributeIndexScan { table, column, .. } => {
                format!("IdxScan_{column}({table})")
            }
            PhysicalOp::Filter { predicate, .. } => format!("Select[{predicate}]"),
            PhysicalOp::Project { columns, .. } => format!("Project[{}]", columns.join(", ")),
            PhysicalOp::RankMaterialize { predicate, .. } => format!("Rank_{}", pname(*predicate)),
            PhysicalOp::Join {
                condition,
                algorithm,
                ..
            } => format!("{}{}", algorithm.name(), cond(condition)),
            PhysicalOp::SetOp { kind, .. } => match kind {
                SetOpKind::Union => "Union".to_owned(),
                SetOpKind::Intersect => "Intersect".to_owned(),
                SetOpKind::Except => "Except".to_owned(),
            },
            PhysicalOp::Sort { predicates, .. } => {
                let names: Vec<String> = predicates.iter().map(pname).collect();
                format!("Sort[{}]", names.join("+"))
            }
            PhysicalOp::SortLimit { predicates, k, .. } => {
                let names: Vec<String> = predicates.iter().map(pname).collect();
                format!("SortLimit[{}; k={k}]", names.join("+"))
            }
            PhysicalOp::Limit { k, .. } => format!("Limit[{k}]"),
        }
    }

    /// Multi-line indented explain output with per-node estimates.
    pub fn explain(&self, ctx: Option<&RankingContext>) -> String {
        let mut out = String::new();
        self.explain_into(ctx, 0, &mut None, &mut out);
        out
    }

    /// Explain output annotated with the runtime actuals of each operator
    /// (tuples produced; for operators that produced any, batch count and
    /// mean batch fill; on the incremental rank-aware
    /// operators µ / HRJN / NRJN, the peak number of buffered
    /// entries; on a hash join, the join results it constructed), paired
    /// from a post-order
    /// [`OperatorActuals`] series as recorded by the executor's metrics
    /// registry.
    pub fn explain_with_actuals(
        &self,
        ctx: Option<&RankingContext>,
        actuals: &[OperatorActuals],
    ) -> String {
        let mut out = String::new();
        let mut remaining: Vec<OperatorActuals> = actuals.to_vec();
        let mut actuals = Some(&mut remaining);
        self.explain_into(ctx, 0, &mut actuals, &mut out);
        out
    }

    fn explain_into(
        &self,
        ctx: Option<&RankingContext>,
        depth: usize,
        actuals: &mut Option<&mut Vec<OperatorActuals>>,
        out: &mut String,
    ) {
        use std::fmt::Write as _;
        // Children first so the post-order actuals pairing lines up, but
        // write this node's line before theirs.
        let mut child_text = String::new();
        for c in self.children() {
            c.explain_into(ctx, depth + 1, actuals, &mut child_text);
        }
        let label = self.node_label(ctx);
        // What these operators buffer is what a rank-aware plan pays in
        // memory for stopping early, so their lines report it.
        let buffers = self.buffers_ranked();
        // Children consumed their entries first, so under post-order
        // registration the first remaining match belongs to this node.
        let actual = actuals
            .as_mut()
            .and_then(|a| {
                let pos = a.iter().position(|x| x.label == label)?;
                Some(a.remove(pos))
            })
            .map(|a| {
                let mut text = format!(", actual_rows={}", a.rows);
                if a.batches > 0 {
                    let _ = write!(
                        text,
                        ", batches={}, mean_batch_fill={:.1}",
                        a.batches, a.mean_batch_fill
                    );
                }
                if buffers {
                    let _ = write!(text, ", buffered_peak={}", a.buffered_peak);
                }
                let builds = match &self.op {
                    PhysicalOp::Join {
                        algorithm: JoinAlgorithm::Hash,
                        ..
                    } => true,
                    PhysicalOp::SeqScan {
                        columnar: Some(c), ..
                    } => c.zone_prune,
                    _ => false,
                };
                if builds {
                    let _ = write!(text, ", built={}", a.built);
                }
                text
            })
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "{}{} (cost={:.1}, est_rows={:.1}{})",
            "  ".repeat(depth),
            label,
            self.estimated_cost.value(),
            self.estimated_rows,
            actual
        );
        out.push_str(&child_text);
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.explain(None).trim_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksql_common::{DataType, Field, Value};
    use ranksql_expr::{RankPredicate, ScoringFunction};
    use ranksql_storage::{Table, TableBuilder};

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
    fn lowering_maps_access_paths_and_algorithms() {
        let r = table("R", 0);
        let s = table("S", 1);
        let logical = LogicalPlan::rank_scan(&r, 0)
            .join(
                LogicalPlan::scan(&s).rank(1),
                Some(BoolExpr::col_eq_col("R.a", "S.a")),
                JoinAlgorithm::HashRankJoin,
            )
            .limit(5);
        let physical = PhysicalPlan::from_logical(&logical).unwrap();
        assert_eq!(physical.node_count(), 5);
        assert!(physical.is_rank_aware());
        assert!(matches!(physical.op, PhysicalOp::Limit { .. }));
        let text = physical.explain(Some(&ctx()));
        assert!(text.contains("HRJN[R.a = S.a]"), "{text}");
        assert!(text.contains("RankScan_p1(R)"), "{text}");
        assert!(text.contains("Rank_p2"), "{text}");
        assert!(text.contains("cost="), "{text}");
    }

    #[test]
    fn limit_over_sort_fuses_into_sort_limit() {
        let r = table("R", 0);
        let logical = LogicalPlan::scan(&r).sort(BitSet64::singleton(0)).limit(3);
        let physical = PhysicalPlan::from_logical(&logical).unwrap();
        assert_eq!(physical.node_count(), 2);
        assert!(matches!(physical.op, PhysicalOp::SortLimit { k: 3, .. }));
        assert!(physical
            .node_label(Some(&ctx()))
            .contains("SortLimit[p1; k=3]"));
        // A limit that is not directly above a sort is not fused.
        let unfused = LogicalPlan::scan(&r)
            .sort(BitSet64::singleton(0))
            .rank(1)
            .limit(3);
        let physical = PhysicalPlan::from_logical(&unfused).unwrap();
        assert_eq!(physical.node_count(), 4);
        assert!(matches!(physical.op, PhysicalOp::Limit { .. }));
    }

    #[test]
    fn schema_flows_like_the_logical_plan() {
        let r = table("R", 0);
        let s = table("S", 1);
        let logical = LogicalPlan::scan(&r)
            .join(LogicalPlan::scan(&s), None, JoinAlgorithm::NestedLoop)
            .project(vec!["R.p1".to_owned()]);
        let physical = PhysicalPlan::from_logical(&logical).unwrap();
        assert_eq!(physical.schema().unwrap().len(), 1);
        assert_eq!(
            physical.schema().unwrap().field(0).qualified_name(),
            logical.schema().unwrap().field(0).qualified_name()
        );
    }

    #[test]
    fn explain_with_actuals_pairs_post_order_metrics() {
        let r = table("R", 0);
        let logical = LogicalPlan::scan(&r).rank(0).limit(2);
        let physical = PhysicalPlan::from_logical(&logical).unwrap();
        let actuals = vec![
            OperatorActuals {
                batches: 2,
                mean_batch_fill: 5.0,
                ..OperatorActuals::rows_only("SeqScan(R)", 10)
            },
            OperatorActuals {
                buffered_peak: 7,
                ..OperatorActuals::rows_only("Rank_p1", 5)
            },
            OperatorActuals::rows_only("Limit[2]", 2),
        ];
        let text = physical.explain_with_actuals(Some(&ctx()), &actuals);
        assert!(
            text.contains(
                "SeqScan(R) (cost=0.0, est_rows=0.0, actual_rows=10, batches=2, mean_batch_fill=5.0)"
            ),
            "{text}"
        );
        // Operators without batch statistics keep the rows-only annotation.
        assert!(
            text.contains("Limit[2] (cost=0.0, est_rows=0.0, actual_rows=2)"),
            "{text}"
        );
        // The buffering rank-aware operators also report their peak.
        assert!(
            text.contains("Rank_p1 (cost=0.0, est_rows=0.0, actual_rows=5, buffered_peak=7)"),
            "{text}"
        );
    }
}
