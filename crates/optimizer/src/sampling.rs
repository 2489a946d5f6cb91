//! Sampling-based cardinality estimation for rank-aware operators
//! (Section 5.2 of the paper).
//!
//! Cardinalities of rank-aware operators cannot be propagated bottom-up: how
//! many tuples an operator consumes and produces depends on how many results
//! are requested *of it*, which is unknown for a subplan during enumeration.
//! The paper's estimator works around this:
//!
//! 1. draw an `s%` sample of every table and evaluate all predicates on it;
//! 2. run the original query on the samples (any conventional plan) asking
//!    for `k' = ⌈k · s%⌉` results; the score `x'` of the `k'`-th answer
//!    estimates `x`, the score of the `k`-th answer over the full data;
//! 3. to estimate a subplan's output cardinality, execute it over the samples
//!    and count the outputs `u` whose upper-bound score is at least `x'`
//!    (tuples below `x'` will never need to leave the operator), then scale:
//!    * scan: `card = u / s%`;
//!    * unary operator over subplan `P'`: `card = u · card(P') / card_s(P')`;
//!    * binary operator over `P1`, `P2`:
//!      `card = u · (card(P1)/card_s(P1) + card(P2)/card_s(P2)) / 2`,
//!
//!    where `card_s` is the subplan's output cardinality observed during the
//!    sample execution and `card` its previously estimated cardinality.
//!
//! **One operator run per subplan.**  The enumerations ask about thousands
//! of plans that share their subplans, so estimates are memoised under a
//! structural key: each node is interned from its own fields and its
//! inputs' keys, and keys compare for exact equality.  The key leaves the
//! join algorithm out: all five drain both inputs into the same output
//! multiset, so `u` and the inputs' `card_s` agree.  Order matters only to
//! a λ_k, which takes its input's first `k` rows, and `u` there is
//! `min(k, rows at or above x')` whenever the input arrives in
//! non-increasing upper-bound order.  In every plan the searches build, a
//! traditional join's inputs have evaluated no ranking predicate (the
//! order property of Figure 3 puts a rank-aware join above ranked inputs),
//! so every stream a λ_k or a µ reads is in that order, whichever member of
//! a key group recorded it.  The key of a λ_k placed directly over a join
//! still keeps whether that join is rank-aware.
//!
//! To estimate a subplan only its root operator runs
//! ([`build_over_inputs`]); its inputs replay their kept sample outputs in
//! the order they were recorded.  `card_s(P')` is the input's own output
//! length, or `min(k, len)` under a λ_k, which is what the limit draws.  An
//! output is kept only once a parent asks for it as an input, so a subplan
//! runs at most twice: once when costed, once more if it was costed before
//! a parent needed its rows.  A kept row is compact — the sample-row index
//! of each base table it joins plus its score state — and replay rebuilds
//! the tuple by joining those base rows in schema order, which reproduces
//! values and identity exactly because `TupleId::combine` is associative.
//!
//! `x'` comes from [`oracle_top_k`], which checks each Boolean conjunct as
//! soon as its tables are bound instead of filtering the samples' full
//! Cartesian product.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use ranksql_algebra::{LogicalPlan, PhysicalOp, PhysicalPlan, RankQuery, ScanAccess, SetOpKind};
use ranksql_common::{BitSet64, RankSqlError, Result, Schema, Score, Tuple};
use ranksql_executor::{
    build_over_inputs, oracle_top_k, Batch, BoxedOperator, ExecutionContext, Replay,
};
use ranksql_expr::{BoolExpr, CompareOp, RankedTuple, RankingContext, ScalarExpr, ScoreState};
use ranksql_storage::{sample_fraction, Catalog};

/// Smoothing count used when a sample execution produces zero tuples, so that
/// downstream costs never divide by zero and empty-looking subplans keep a
/// small non-zero cardinality (random sampling over joins is known to
/// under-produce; see the paper's discussion of [CMN99]).
const ZERO_SMOOTHING: f64 = 0.5;

/// The sampling-based estimator, built once per query.
pub struct SamplingEstimator {
    /// Catalog holding the per-table samples under the original table names.
    sample_catalog: Catalog,
    /// The query tables' samples, which kept outputs' rows point into.
    samples: Arc<Samples>,
    /// The original (full) catalog, for base-table row counts.
    full_catalog_rows: HashMap<String, f64>,
    /// Per-table sampling ratio actually achieved (sample rows / full rows).
    ratios: HashMap<String, f64>,
    /// Estimate of the k-th result score over the full data.
    x_threshold: Score,
    /// Ranking context used for sample executions (shares the query's
    /// predicates but not its evaluation counters).
    est_ctx: Arc<RankingContext>,
    /// Interned subplans with their estimates and kept outputs.
    memo: Mutex<Memo>,
    /// The nominal sampling ratio requested.
    nominal_ratio: f64,
    /// Qualified-column-name → sketch NDV, snapshotted from each query
    /// table's statistics catalog.  Consulted when a sample execution of a
    /// join produces *no* qualifying output (random sampling over joins
    /// under-produces, [CMN99]): the analytic `|L|·|R| / max(ndv)` estimate
    /// from the sketches is sharper there than scaled zero-smoothing.
    column_ndv: HashMap<String, f64>,
    /// Every plan [`SamplingEstimator::estimate_cardinality`] was asked
    /// about, for the differential test.
    #[cfg(test)]
    asked: Mutex<Vec<LogicalPlan>>,
}

/// The query tables' samples, shared with every replay.
struct Samples {
    /// One per query table, in query order.
    tables: Vec<SampleRows>,
    /// Tuples joined from several sample rows, by their tables' positions
    /// and rows: each is joined once, however many kept outputs replay it.
    joined: Mutex<HashMap<Vec<u32>, Tuple>>,
}

/// One query table's sample.
struct SampleRows {
    table: String,
    /// The sample table's id, which its rows' identities carry.
    id: u32,
    schema: Schema,
    rows: Vec<Tuple>,
}

/// The memo: every distinct subplan asked about, by structural key.
#[derive(Default)]
struct Memo {
    ids: HashMap<NodeKey<'static>, usize>,
    subplans: Vec<Subplan>,
    operator_runs: usize,
}

/// One interned subplan.
struct Subplan {
    /// Its inputs' ids, in child order.
    inputs: Vec<usize>,
    estimate: Option<f64>,
    /// Its sample output, once a parent has asked for it as an input.
    kept: Option<Arc<Kept>>,
}

/// A subplan's memo key: the node's own fields and its inputs' ids.
/// Borrowed while probing, owned once interned.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum NodeKey<'a> {
    Scan {
        table: Cow<'a, str>,
        access: Cow<'a, ScanAccess>,
    },
    Select {
        input: usize,
        predicate: Cow<'a, BoolExpr>,
    },
    Project {
        input: usize,
        columns: Cow<'a, [String]>,
    },
    Rank {
        input: usize,
        predicate: usize,
    },
    /// No algorithm: every join drains to the same output multiset.
    Join {
        left: usize,
        right: usize,
        condition: Option<Cow<'a, BoolExpr>>,
    },
    SetOp {
        kind: SetOpKind,
        left: usize,
        right: usize,
    },
    Sort {
        input: usize,
        predicates: BitSet64,
    },
    /// A λ_k takes its input's first `k` rows, so over a join it keeps
    /// whether the join emits in rank order.
    Limit {
        input: usize,
        k: usize,
        over_rank_join: bool,
    },
}

impl NodeKey<'_> {
    fn inputs(&self) -> Vec<usize> {
        match self {
            NodeKey::Scan { .. } => Vec::new(),
            NodeKey::Select { input, .. }
            | NodeKey::Project { input, .. }
            | NodeKey::Rank { input, .. }
            | NodeKey::Sort { input, .. }
            | NodeKey::Limit { input, .. } => vec![*input],
            NodeKey::Join { left, right, .. } | NodeKey::SetOp { left, right, .. } => {
                vec![*left, *right]
            }
        }
    }

    fn into_owned(self) -> NodeKey<'static> {
        match self {
            NodeKey::Scan { table, access } => NodeKey::Scan {
                table: Cow::Owned(table.into_owned()),
                access: Cow::Owned(access.into_owned()),
            },
            NodeKey::Select { input, predicate } => NodeKey::Select {
                input,
                predicate: Cow::Owned(predicate.into_owned()),
            },
            NodeKey::Project { input, columns } => NodeKey::Project {
                input,
                columns: Cow::Owned(columns.into_owned()),
            },
            NodeKey::Join {
                left,
                right,
                condition,
            } => NodeKey::Join {
                left,
                right,
                condition: condition.map(|c| Cow::Owned(c.into_owned())),
            },
            NodeKey::Rank { input, predicate } => NodeKey::Rank { input, predicate },
            NodeKey::SetOp { kind, left, right } => NodeKey::SetOp { kind, left, right },
            NodeKey::Sort { input, predicates } => NodeKey::Sort { input, predicates },
            NodeKey::Limit {
                input,
                k,
                over_rank_join,
            } => NodeKey::Limit {
                input,
                k,
                over_rank_join,
            },
        }
    }
}

impl Memo {
    /// The id of `plan`'s subplan, interning it (and its inputs) if new.
    fn intern(&mut self, plan: &LogicalPlan) -> usize {
        let key = match plan {
            LogicalPlan::Scan { table, access, .. } => NodeKey::Scan {
                table: Cow::Borrowed(table),
                access: Cow::Borrowed(access),
            },
            LogicalPlan::Select { input, predicate } => NodeKey::Select {
                input: self.intern(input),
                predicate: Cow::Borrowed(predicate),
            },
            LogicalPlan::Project { input, columns } => NodeKey::Project {
                input: self.intern(input),
                columns: Cow::Borrowed(columns),
            },
            LogicalPlan::Rank { input, predicate } => NodeKey::Rank {
                input: self.intern(input),
                predicate: *predicate,
            },
            LogicalPlan::Join {
                left,
                right,
                condition,
                ..
            } => NodeKey::Join {
                left: self.intern(left),
                right: self.intern(right),
                condition: condition.as_ref().map(Cow::Borrowed),
            },
            LogicalPlan::SetOp { kind, left, right } => NodeKey::SetOp {
                kind: *kind,
                left: self.intern(left),
                right: self.intern(right),
            },
            LogicalPlan::Sort { input, predicates } => NodeKey::Sort {
                input: self.intern(input),
                predicates: *predicates,
            },
            LogicalPlan::Limit { input, k } => NodeKey::Limit {
                input: self.intern(input),
                k: *k,
                over_rank_join: matches!(
                    input.as_ref(),
                    LogicalPlan::Join { algorithm, .. } if algorithm.is_rank_aware()
                ),
            },
        };
        // A map is covariant in its key type, so the owned keys can be
        // probed with a borrowed one.
        let ids: &HashMap<NodeKey<'_>, usize> = &self.ids;
        if let Some(&id) = ids.get(&key) {
            return id;
        }
        let id = self.subplans.len();
        self.subplans.push(Subplan {
            inputs: key.inputs(),
            estimate: None,
            kept: None,
        });
        self.ids.insert(key.into_owned(), id);
        id
    }
}

/// A subplan's sample output, kept for the parents that take it as an
/// input: per row, the sample-row index of every base table it joins (in
/// schema order) and its score state.
struct Kept {
    /// Positions in `Samples::tables` of the base tables each row joins, in
    /// schema order.
    leaves: Vec<usize>,
    /// The columns of the joined base rows the output keeps, when a
    /// projection narrowed them.
    projection: Option<Vec<usize>>,
    schema: Schema,
    /// Whether the recording operator emitted in rank order
    /// (`PhysicalOperator::is_ranked`), which a replay reports on.
    ranked: bool,
    /// `leaves.len()` sample-row indices per row.
    rows: Vec<u32>,
    states: Vec<ScoreState>,
}

impl Kept {
    fn len(&self) -> usize {
        self.states.len()
    }

    fn push(&mut self, t: RankedTuple, samples: &Samples) -> Result<()> {
        let parts = t.tuple.id().parts();
        for &leaf in &self.leaves {
            let sample = &samples.tables[leaf];
            let row = parts
                .iter()
                .find(|(table, _)| *table == sample.id)
                .and_then(|&(_, row)| u32::try_from(row).ok())
                .ok_or_else(|| {
                    RankSqlError::Optimizer(format!(
                        "a sample output row carries no row of `{}`",
                        sample.table
                    ))
                })?;
            self.rows.push(row);
        }
        self.states.push(t.state);
        Ok(())
    }

    /// The tuple of row `i`: its base rows joined in schema order.  `key`
    /// is scratch for looking the join up in `samples.joined`.
    fn rebuild(&self, i: usize, samples: &Samples, key: &mut Vec<u32>) -> Option<RankedTuple> {
        let width = self.leaves.len();
        let rows = &self.rows[i * width..(i + 1) * width];
        let mut bases = self
            .leaves
            .iter()
            .zip(rows)
            .map(|(&leaf, &row)| &samples.tables[leaf].rows[row as usize]);
        let first = bases.next()?;
        let tuple = if width == 1 {
            first.clone()
        } else {
            key.clear();
            key.extend(self.leaves.iter().map(|&leaf| leaf as u32));
            key.extend_from_slice(rows);
            let mut joined = samples.joined.lock();
            match joined.get(key.as_slice()) {
                Some(tuple) => tuple.clone(),
                None => {
                    let tuple = bases.fold(first.clone(), |joined, base| joined.join(base));
                    joined.insert(key.clone(), tuple.clone());
                    tuple
                }
            }
        };
        let tuple = match &self.projection {
            Some(columns) => tuple.project(columns),
            None => tuple,
        };
        Some(RankedTuple::new(tuple, self.states[i].clone()))
    }

    /// An operator replaying the kept rows in recorded order.
    fn replay(self: &Arc<Self>, samples: &Arc<Samples>) -> BoxedOperator {
        let (kept, samples, mut key) = (Arc::clone(self), Arc::clone(samples), Vec::new());
        // Every kept output joins at least one base table, so no row is
        // skipped.
        let rows = (0..kept.len()).filter_map(move |i| kept.rebuild(i, &samples, &mut key));
        Box::new(Replay::new(self.schema.clone(), rows, self.ranked))
    }
}

impl SamplingEstimator {
    /// Draws samples, estimates `x'` and prepares the estimator.
    pub fn build(
        query: &RankQuery,
        catalog: &Catalog,
        sample_ratio: f64,
        seed: u64,
    ) -> Result<Self> {
        if !(sample_ratio > 0.0 && sample_ratio <= 1.0) {
            return Err(RankSqlError::Optimizer(format!(
                "sample ratio must be in (0, 1], got {sample_ratio}"
            )));
        }
        let sample_catalog = Catalog::new();
        let mut samples = Vec::with_capacity(query.tables.len());
        let mut full_catalog_rows = HashMap::new();
        let mut ratios = HashMap::new();
        let mut column_ndv = HashMap::new();
        for name in &query.tables {
            let table = catalog.table(name)?;
            for summary in &table.stats_catalog()?.columns {
                column_ndv.insert(summary.name.clone(), summary.ndv() as f64);
            }
            let sample = sample_fraction(&table, sample_ratio, seed)?;
            let full_rows = table.row_count() as f64;
            let achieved = if full_rows > 0.0 {
                sample.len() as f64 / full_rows
            } else {
                sample_ratio
            };
            // Re-create the table (same name/schema) holding only the sample.
            let schema_unqualified = ranksql_common::Schema::new(
                table
                    .schema()
                    .fields()
                    .iter()
                    .map(|f| ranksql_common::Field::new(f.name.clone(), f.data_type))
                    .collect(),
            );
            let sample_table = sample_catalog.create_table(name, schema_unqualified)?;
            for t in &sample {
                sample_table.insert(t.values().to_vec())?;
            }
            samples.push(SampleRows {
                table: name.clone(),
                id: sample_table.id(),
                schema: sample_table.schema().clone(),
                rows: sample_table.pin_epoch().tuples(0..sample.len())?,
            });
            full_catalog_rows.insert(name.clone(), full_rows);
            ratios.insert(name.clone(), achieved.max(f64::EPSILON));
        }

        // Estimate x: run the query over the samples asking for k' results.
        let k_prime = ((query.k as f64 * sample_ratio).ceil() as usize).max(1);
        let mut sample_query = query.clone();
        sample_query.k = k_prime;
        let sample_top = oracle_top_k(&sample_query, &sample_catalog)?;
        let x_threshold = match sample_top.last() {
            Some(t) => query.ranking.upper_bound(&t.state),
            // The sample produced no qualifying answer at all: every tuple
            // may matter, so the threshold is -∞ (no pruning).
            None => Score::new(f64::NEG_INFINITY),
        };

        // A private ranking context so sample executions do not pollute the
        // query's evaluation counters.
        let est_ctx = RankingContext::new(
            query.ranking.predicates().to_vec(),
            query.ranking.scoring().clone(),
        );

        Ok(SamplingEstimator {
            sample_catalog,
            samples: Arc::new(Samples {
                tables: samples,
                joined: Mutex::default(),
            }),
            full_catalog_rows,
            ratios,
            x_threshold,
            est_ctx,
            memo: Mutex::new(Memo::default()),
            nominal_ratio: sample_ratio,
            column_ndv,
            #[cfg(test)]
            asked: Mutex::new(Vec::new()),
        })
    }

    /// The estimated score of the k-th answer (`x'`).
    pub fn x_threshold(&self) -> Score {
        self.x_threshold
    }

    /// The catalog of samples (one table per query table, same names).
    pub fn sample_catalog(&self) -> &Catalog {
        &self.sample_catalog
    }

    /// How many operators the estimator has run over the samples so far —
    /// one per subplan estimated, plus one per subplan re-run because a
    /// parent needed the rows of a subplan costed earlier.
    pub fn operator_runs(&self) -> usize {
        self.memo.lock().operator_runs
    }

    /// Full row count of the base table scanned by a scan node.
    pub fn table_cardinality(&self, plan: &LogicalPlan) -> Result<f64> {
        match plan {
            LogicalPlan::Scan { table, .. } => {
                self.full_catalog_rows.get(table).copied().ok_or_else(|| {
                    RankSqlError::Optimizer(format!("no cardinality for table `{table}`"))
                })
            }
            _ => Err(RankSqlError::Optimizer(
                "table_cardinality expects a scan node".into(),
            )),
        }
    }

    fn ratio_for(&self, table: &str) -> f64 {
        self.ratios
            .get(table)
            .copied()
            .unwrap_or(self.nominal_ratio)
    }

    /// Estimates the output cardinality of `plan` over the full data.
    pub fn estimate_cardinality(&self, plan: &LogicalPlan) -> Result<f64> {
        #[cfg(test)]
        self.asked.lock().push(plan.clone());
        let mut memo = self.memo.lock();
        let id = memo.intern(plan);
        match memo.subplans[id].estimate {
            Some(estimate) => Ok(estimate),
            None => Ok(self.run(&mut memo, id, plan)?.0),
        }
    }

    /// Subplan `id`'s estimate and kept sample output, running it if its
    /// output was not kept yet.
    fn output(&self, memo: &mut Memo, id: usize, plan: &LogicalPlan) -> Result<(f64, Arc<Kept>)> {
        let subplan = &memo.subplans[id];
        if let (Some(estimate), Some(kept)) = (subplan.estimate, &subplan.kept) {
            return Ok((estimate, Arc::clone(kept)));
        }
        let (estimate, kept) = self.run(memo, id, plan)?;
        let kept = Arc::new(kept);
        memo.subplans[id].kept = Some(Arc::clone(&kept));
        Ok((estimate, kept))
    }

    /// Runs subplan `id`'s root operator over its inputs' kept outputs,
    /// records its estimate and returns it with the output.
    fn run(&self, memo: &mut Memo, id: usize, plan: &LogicalPlan) -> Result<(f64, Kept)> {
        let mut inputs = Vec::with_capacity(2);
        let mut replays = Vec::with_capacity(2);
        for (input, child) in memo.subplans[id]
            .inputs
            .clone()
            .into_iter()
            .zip(plan.children())
        {
            let (estimate, kept) = self.output(memo, input, child)?;
            let rows = match plan {
                LogicalPlan::Limit { k, .. } => kept.len().min(*k),
                _ => kept.len(),
            };
            inputs.push((estimate, rows as f64));
            replays.push(kept.replay(&self.samples));
        }
        let root = PhysicalPlan::unestimated(PhysicalOp::from_logical_node(plan, Vec::new()));
        let exec = ExecutionContext::new(Arc::clone(&self.est_ctx));
        let mut op = build_over_inputs(&root, replays, &self.sample_catalog, &exec)?;
        memo.operator_runs += 1;

        let mut leaves = Vec::new();
        self.leaves(plan, &mut leaves)?;
        let schema = op.schema().clone();
        let mut kept = Kept {
            projection: self.projection(plan, &leaves, &schema)?,
            leaves,
            schema,
            ranked: op.is_ranked(),
            rows: Vec::new(),
            states: Vec::new(),
        };
        let mut u = 0usize;
        let mut batch = Batch::with_capacity(exec.batch_size());
        loop {
            batch.clear();
            if op.next_batch(exec.batch_size(), &mut batch)? == 0 {
                break;
            }
            for t in batch.drain(..) {
                if self.est_ctx.upper_bound(&t.state) >= self.x_threshold {
                    u += 1;
                }
                kept.push(t, &self.samples)?;
            }
        }
        let estimate = self.scale(plan, u as f64, &inputs)?;
        memo.subplans[id].estimate = Some(estimate);
        Ok((estimate, kept))
    }

    /// Scales a subplan's `u` sample outputs above `x'` to the full data,
    /// given its inputs' `(estimate, card_s)`.
    fn scale(&self, plan: &LogicalPlan, u: f64, inputs: &[(f64, f64)]) -> Result<f64> {
        let estimate = match (plan, inputs) {
            (LogicalPlan::Scan { table, .. }, []) => u.max(ZERO_SMOOTHING) / self.ratio_for(table),
            // Unary operators: scale by the input subplan's estimated-to-
            // sample cardinality ratio.
            (_, &[(input_est, input_sample)]) => {
                let scale = input_est / input_sample.max(ZERO_SMOOTHING);
                let scaled = u.max(ZERO_SMOOTHING) * scale;
                // A limit caps the true cardinality at k.
                if let LogicalPlan::Limit { k, .. } = plan {
                    scaled.min(*k as f64)
                } else {
                    scaled
                }
            }
            (_, &[(left_est, left_sample), (right_est, right_sample)]) => {
                // A join whose sample execution produced no qualifying
                // output gives the scaling rule nothing to work with; the
                // sketch-NDV analytic estimate is sharper than smoothing.
                if u == 0.0 {
                    if let LogicalPlan::Join {
                        condition: Some(cond),
                        ..
                    } = plan
                    {
                        if let Some(sel) = self.equi_join_selectivity(cond, &plan.relations()) {
                            return Ok((left_est * right_est * sel).max(0.0));
                        }
                    }
                }
                let scale = (left_est / left_sample.max(ZERO_SMOOTHING)
                    + right_est / right_sample.max(ZERO_SMOOTHING))
                    / 2.0;
                u.max(ZERO_SMOOTHING) * scale
            }
            _ => {
                return Err(RankSqlError::Optimizer(format!(
                    "{} has {} estimated inputs",
                    plan.node_label(None),
                    inputs.len()
                )))
            }
        };
        Ok(estimate.max(0.0))
    }

    /// Appends the positions in `Samples::tables` of the base tables
    /// `plan`'s rows join, in schema order (a set operation's rows are its
    /// left input's).
    fn leaves(&self, plan: &LogicalPlan, out: &mut Vec<usize>) -> Result<()> {
        match plan {
            LogicalPlan::Scan { table, .. } => {
                let leaf = self
                    .samples
                    .tables
                    .iter()
                    .position(|s| s.table == *table)
                    .ok_or_else(|| {
                        RankSqlError::Optimizer(format!("no sample of table `{table}`"))
                    })?;
                out.push(leaf);
            }
            LogicalPlan::SetOp { left, .. } => self.leaves(left, out)?,
            _ => {
                for child in plan.children() {
                    self.leaves(child, out)?;
                }
            }
        }
        Ok(())
    }

    /// The columns of the `leaves`' joined rows that `schema`, `plan`'s
    /// output schema, keeps — `None` unless a projection at or below `plan`
    /// narrowed them.
    fn projection(
        &self,
        plan: &LogicalPlan,
        leaves: &[usize],
        schema: &Schema,
    ) -> Result<Option<Vec<usize>>> {
        fn projects(plan: &LogicalPlan) -> bool {
            matches!(plan, LogicalPlan::Project { .. }) || plan.children().into_iter().any(projects)
        }
        if !projects(plan) {
            return Ok(None);
        }
        let joined = leaves
            .iter()
            .map(|&leaf| self.samples.tables[leaf].schema.clone())
            .reduce(|a, b| a.join(&b))
            .unwrap_or_else(Schema::empty);
        schema
            .fields()
            .iter()
            .map(|f| joined.index_of_str(&f.qualified_name()))
            .collect::<Result<Vec<_>>>()
            .map(Some)
    }

    /// The analytic selectivity of a conjunction of column-equality
    /// predicates, `Π 1 / max(ndv_left, ndv_right)` with sketch NDVs from
    /// the statistics catalog; `None` when the condition contains anything
    /// the sketches cannot analyse.  An unqualified column resolves among
    /// the join's own `relations` only, and only if exactly one has it.
    fn equi_join_selectivity(&self, cond: &BoolExpr, relations: &[String]) -> Option<f64> {
        match cond {
            BoolExpr::And(l, r) => Some(
                self.equi_join_selectivity(l, relations)?
                    * self.equi_join_selectivity(r, relations)?,
            ),
            BoolExpr::Compare {
                op: CompareOp::Eq,
                left: ScalarExpr::Column(l),
                right: ScalarExpr::Column(r),
            } => {
                let ndv = |c: &ranksql_expr::ColumnRef| {
                    let of = |rel: &str| self.column_ndv.get(&format!("{rel}.{}", c.name));
                    match &c.relation {
                        Some(rel) => of(rel).copied(),
                        None => {
                            let mut found = relations.iter().filter_map(|rel| of(rel));
                            match (found.next(), found.next()) {
                                (Some(v), None) => Some(*v),
                                _ => None,
                            }
                        }
                    }
                };
                let d = ndv(l)?.max(ndv(r)?).max(1.0);
                Some(1.0 / d)
            }
            _ => None,
        }
    }

    /// Estimated output cardinality of every operator in `plan`, post-order
    /// (the same order in which the executor registers operator metrics).
    /// This is the estimated series of the Figure 13 experiment.
    pub fn estimate_per_operator(&self, plan: &LogicalPlan) -> Result<Vec<(String, f64)>> {
        let mut out = Vec::new();
        self.walk_estimates(plan, &mut out)?;
        Ok(out)
    }

    fn walk_estimates(&self, plan: &LogicalPlan, out: &mut Vec<(String, f64)>) -> Result<()> {
        for child in plan.children() {
            self.walk_estimates(child, out)?;
        }
        let est = self.estimate_cardinality(plan)?;
        out.push((plan.node_label(Some(&self.est_ctx)), est));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::enumerate::tests::figure9_setup;
    use crate::{optimize_traditional, DpOptimizer, RuleBasedOptimizer};
    use ranksql_algebra::JoinAlgorithm;
    use ranksql_common::{DataType, Field, Schema, Value};
    use ranksql_executor::execute_plan;
    use ranksql_expr::{BoolExpr, RankPredicate, ScoringFunction};

    /// Two joinable tables with ranking predicates and a boolean filter.
    fn setup(rows: usize) -> (Catalog, RankQuery) {
        let cat = Catalog::new();
        let a = cat
            .create_table(
                "A",
                Schema::new(vec![
                    Field::new("jc", DataType::Int64),
                    Field::new("p1", DataType::Float64),
                    Field::new("b", DataType::Bool),
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
        for i in 0..rows {
            a.insert(vec![
                Value::from((i % 50) as i64),
                Value::from(((i * 37) % 1000) as f64 / 1000.0),
                Value::from(i % 5 != 0),
            ])
            .unwrap();
            b.insert(vec![
                Value::from((i % 50) as i64),
                Value::from(((i * 61) % 1000) as f64 / 1000.0),
            ])
            .unwrap();
        }
        let ranking = RankingContext::new(
            vec![
                RankPredicate::attribute("p1", "A.p1"),
                RankPredicate::attribute("p2", "B.p2"),
            ],
            ScoringFunction::Sum,
        );
        let query = RankQuery::new(
            vec!["A".into(), "B".into()],
            vec![
                BoolExpr::col_eq_col("A.jc", "B.jc"),
                BoolExpr::column_is_true("A.b"),
            ],
            ranking,
            10,
        );
        (cat, query)
    }

    #[test]
    fn build_rejects_bad_ratio() {
        let (cat, query) = setup(100);
        assert!(SamplingEstimator::build(&query, &cat, 0.0, 1).is_err());
        assert!(SamplingEstimator::build(&query, &cat, 1.5, 1).is_err());
        assert!(SamplingEstimator::build(&query, &cat, 0.5, 1).is_ok());
    }

    #[test]
    fn threshold_is_a_plausible_score() {
        let (cat, query) = setup(2000);
        let est = SamplingEstimator::build(&query, &cat, 0.05, 7).unwrap();
        let x = est.x_threshold().value();
        assert!(
            x > 0.0 && x <= 2.0,
            "x' = {x} outside the feasible score range"
        );
    }

    #[test]
    fn seq_scan_estimate_recovers_table_size() {
        let (cat, query) = setup(1000);
        let est = SamplingEstimator::build(&query, &cat, 0.1, 7).unwrap();
        let a = cat.table("A").unwrap();
        let scan = LogicalPlan::scan(&a);
        let card = est.estimate_cardinality(&scan).unwrap();
        assert!(
            (card - 1000.0).abs() < 1.0,
            "sequential scan estimate {card} should equal the table size"
        );
        assert_eq!(est.table_cardinality(&scan).unwrap(), 1000.0);
    }

    #[test]
    fn selection_estimate_tracks_selectivity() {
        let (cat, query) = setup(2000);
        let est = SamplingEstimator::build(&query, &cat, 0.1, 3).unwrap();
        let a = cat.table("A").unwrap();
        // A.b is true for 80% of rows.
        let plan = LogicalPlan::scan(&a).select(BoolExpr::column_is_true("A.b"));
        let card = est.estimate_cardinality(&plan).unwrap();
        assert!(
            (card - 1600.0).abs() < 400.0,
            "selection estimate {card} too far from the true 1600"
        );
    }

    #[test]
    fn rank_operator_estimate_is_k_aware() {
        let (cat, query) = setup(2000);
        let est = SamplingEstimator::build(&query, &cat, 0.1, 3).unwrap();
        let a = cat.table("A").unwrap();
        // A rank-scan feeding µ: only tuples that can still reach the top-k
        // threshold are counted, so the estimate must be (much) smaller than
        // the table.
        let plan = LogicalPlan::rank_scan(&a, 0);
        let card = est.estimate_cardinality(&plan).unwrap();
        assert!(
            card < 2000.0,
            "rank-scan estimate {card} should be below the table size"
        );
        assert!(card > 0.0);
    }

    #[test]
    fn join_estimate_combines_sides() {
        let (cat, query) = setup(1500);
        let est = SamplingEstimator::build(&query, &cat, 0.2, 11).unwrap();
        let a = cat.table("A").unwrap();
        let b = cat.table("B").unwrap();
        let plan = LogicalPlan::scan(&a).join(
            LogicalPlan::scan(&b),
            Some(BoolExpr::col_eq_col("A.jc", "B.jc")),
            JoinAlgorithm::Hash,
        );
        let card = est.estimate_cardinality(&plan).unwrap();
        // True cardinality: 1500 * 1500 / 50 = 45_000.
        assert!(card > 1_000.0, "join estimate {card} unreasonably small");
        let per_op = est.estimate_per_operator(&plan).unwrap();
        assert_eq!(per_op.len(), 3);
        assert!(per_op[2].0.contains("HashJoin"));
    }

    #[test]
    fn blind_sample_join_falls_back_to_sketch_ndv_estimate() {
        // A key–key join (1000 distinct on both sides, B stored in reverse
        // key order): a 0.4 % sample (4 rows per side) almost surely holds
        // no common key, so the sample execution of the join produces no
        // qualifying output.  The estimator must then use the analytic
        // sketch-NDV form |A|·|B| / max(ndv) = 1000 instead of scaled
        // zero-smoothing (which would claim ~125 for an arbitrary join).
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
        for i in 0..1000i64 {
            a.insert(vec![Value::from(i), Value::from((i % 100) as f64 / 100.0)])
                .unwrap();
            b.insert(vec![
                Value::from(999 - i),
                Value::from(((i * 7) % 100) as f64 / 100.0),
            ])
            .unwrap();
        }
        let ranking = RankingContext::new(
            vec![
                RankPredicate::attribute("p1", "A.p1"),
                RankPredicate::attribute("p2", "B.p2"),
            ],
            ScoringFunction::Sum,
        );
        let query = RankQuery::new(
            vec!["A".into(), "B".into()],
            vec![BoolExpr::col_eq_col("A.jc", "B.jc")],
            ranking,
            10,
        );
        let est = SamplingEstimator::build(&query, &cat, 0.004, 5).unwrap();
        let plan = LogicalPlan::scan(&a).join(
            LogicalPlan::scan(&b),
            Some(BoolExpr::col_eq_col("A.jc", "B.jc")),
            JoinAlgorithm::Hash,
        );
        let card = est.estimate_cardinality(&plan).unwrap();
        // The true cardinality is 1000 (every key matches exactly once).
        assert!(
            (card - 1000.0).abs() < 1.0,
            "join estimate {card} should hit the analytic 1000"
        );
    }

    #[test]
    fn estimates_are_memoised() {
        let (cat, query) = setup(500);
        let est = SamplingEstimator::build(&query, &cat, 0.1, 3).unwrap();
        let a = cat.table("A").unwrap();
        let plan = LogicalPlan::scan(&a).select(BoolExpr::column_is_true("A.b"));
        let first = est.estimate_cardinality(&plan).unwrap();
        let runs = est.operator_runs();
        let second = est.estimate_cardinality(&plan).unwrap();
        assert_eq!(first, second);
        assert_eq!(est.operator_runs(), runs, "a memo hit runs nothing");
    }

    /// Q's shape at test size: A ⋈ B on `jc1`, B ⋈ C on `jc2`, Boolean
    /// filters on A and B and five ranking predicates of mixed cost, so
    /// `{A, C}` is a Cartesian signature.
    fn q_shaped_setup(rows: usize) -> (Catalog, RankQuery) {
        let cat = Catalog::new();
        let columns: [(&str, &[&str]); 3] = [
            ("A", &["jc1", "b", "p1", "p2"]),
            ("B", &["jc1", "jc2", "b", "p1", "p2"]),
            ("C", &["jc2", "p1"]),
        ];
        for (t, (name, cols)) in columns.into_iter().enumerate() {
            let fields = cols.iter().map(|&c| {
                let ty = match c {
                    "b" => DataType::Bool,
                    "jc1" | "jc2" => DataType::Int64,
                    _ => DataType::Float64,
                };
                Field::new(c, ty)
            });
            let table = cat
                .create_table(name, Schema::new(fields.collect()))
                .unwrap();
            for i in 0..rows {
                let row = cols.iter().enumerate().map(|(j, &c)| {
                    let h = (i * 31 + t * 17 + j * 7) * 2_654_435_761 % 1_000_003;
                    match c {
                        "b" => Value::from(h % 5 < 2),
                        "jc1" | "jc2" => Value::from((h % 13) as i64),
                        _ => Value::from((h % 1000) as f64 / 1000.0),
                    }
                });
                table.insert(row.collect()).unwrap();
            }
        }
        let ranking = RankingContext::new(
            vec![
                RankPredicate::attribute_with_cost("f1", "A.p1", 1),
                RankPredicate::attribute_with_cost("f2", "A.p2", 20),
                RankPredicate::attribute_with_cost("f3", "B.p1", 5),
                RankPredicate::attribute_with_cost("f4", "B.p2", 1),
                RankPredicate::attribute_with_cost("f5", "C.p1", 40),
            ],
            ScoringFunction::Sum,
        );
        let query = RankQuery::new(
            vec!["A".into(), "B".into(), "C".into()],
            vec![
                BoolExpr::col_eq_col("A.jc1", "B.jc1"),
                BoolExpr::col_eq_col("B.jc2", "C.jc2"),
                BoolExpr::column_is_true("A.b"),
                BoolExpr::column_is_true("B.b"),
            ],
            ranking,
            5,
        );
        (cat, query)
    }

    /// The estimator before kept outputs: every subplan executes its whole
    /// subtree over the samples, and an input's `card_s` is its root's
    /// `tuples_out` in the executor's post-order metrics.
    fn reference(
        est: &SamplingEstimator,
        plan: &LogicalPlan,
        memo: &mut HashMap<String, f64>,
    ) -> f64 {
        let key = format!("{plan:?}");
        if let Some(&v) = memo.get(&key) {
            return v;
        }
        let result = execute_plan(plan, &est.sample_catalog, &est.est_ctx).unwrap();
        let u = result
            .tuples
            .iter()
            .filter(|t| est.est_ctx.upper_bound(&t.state) >= est.x_threshold)
            .count() as f64;
        let cards = result.metrics.snapshot();
        let card_s = |i: usize| cards.get(i).map_or(0, |m| m.tuples_out()) as f64;
        let estimate = match plan {
            LogicalPlan::Scan { table, .. } => u.max(ZERO_SMOOTHING) / est.ratio_for(table),
            LogicalPlan::Join { left, right, .. } | LogicalPlan::SetOp { left, right, .. } => {
                let (l, r) = (reference(est, left, memo), reference(est, right, memo));
                let analytic = match plan {
                    LogicalPlan::Join {
                        condition: Some(c), ..
                    } if u == 0.0 => est.equi_join_selectivity(c, &plan.relations()),
                    _ => None,
                };
                match analytic {
                    Some(sel) => l * r * sel,
                    None => {
                        let (nl, nr) = (left.node_count(), right.node_count());
                        let scale = (l / card_s(nl - 1).max(ZERO_SMOOTHING)
                            + r / card_s(nl + nr - 1).max(ZERO_SMOOTHING))
                            / 2.0;
                        u.max(ZERO_SMOOTHING) * scale
                    }
                }
            }
            _ => {
                let input = plan.children()[0];
                let scale = reference(est, input, memo)
                    / card_s(input.node_count() - 1).max(ZERO_SMOOTHING);
                let scaled = u.max(ZERO_SMOOTHING) * scale;
                match plan {
                    LogicalPlan::Limit { k, .. } => scaled.min(*k as f64),
                    _ => scaled,
                }
            }
        }
        .max(0.0);
        memo.insert(key, estimate);
        estimate
    }

    /// Runs all four searches over one estimator and estimates `extra`,
    /// then checks every plan asked about against [`reference`] to the bit.
    fn assert_searches_match_the_reference(
        cat: &Catalog,
        query: &RankQuery,
        ratio: f64,
        extra: &[LogicalPlan],
    ) {
        let est = Arc::new(SamplingEstimator::build(query, cat, ratio, 11).unwrap());
        for plan in extra {
            est.estimate_per_operator(plan).unwrap();
        }
        for heuristic in [false, true] {
            DpOptimizer::new(
                query,
                cat,
                Arc::clone(&est),
                CostModel::default(),
                heuristic,
            )
            .optimize()
            .unwrap();
        }
        RuleBasedOptimizer::new(query, cat, Arc::clone(&est), CostModel::default())
            .optimize()
            .unwrap();
        optimize_traditional(query, cat, &est, &CostModel::default()).unwrap();

        let asked = std::mem::take(&mut *est.asked.lock());
        let (runs, distinct) = (est.operator_runs(), est.memo.lock().subplans.len());
        let mut memo = HashMap::new();
        for plan in &asked {
            let new = est.estimate_cardinality(plan).unwrap();
            let old = reference(&est, plan, &mut memo);
            assert_eq!(
                new.to_bits(),
                old.to_bits(),
                "{new} != {old} for\n{}",
                plan.explain(Some(&query.ranking))
            );
        }
        assert_eq!(est.operator_runs(), runs, "every plan asked was memoised");
        assert!(
            runs <= 2 * distinct,
            "{runs} operator runs for {distinct} distinct subplans"
        );
        assert!(distinct < memo.len(), "the memo key merges join algorithms");
    }

    #[test]
    fn estimates_equal_the_whole_subtree_reference_on_the_two_table_setup() {
        let (cat, query) = setup(400);
        let (a, b) = (cat.table("A").unwrap(), cat.table("B").unwrap());
        // Subplans that differ only in a predicate or a join condition.
        let select = |c| LogicalPlan::scan(&a).select(c).rank(0);
        let join =
            |c| LogicalPlan::scan(&a).join(LogicalPlan::scan(&b), c, JoinAlgorithm::NestedLoop);
        let a_b = BoolExpr::column_is_true("A.b");
        let on_jc = Some(BoolExpr::col_eq_col("A.jc", "B.jc"));
        // A projected input, replayed under a join and a µ.
        let projected = LogicalPlan::scan(&a)
            .project(vec!["A.p1".into(), "A.jc".into()])
            .join(
                LogicalPlan::rank_scan(&b, 1),
                Some(BoolExpr::col_eq_col("A.jc", "B.jc")),
                JoinAlgorithm::NestedLoopRankJoin,
            )
            .rank(0)
            .limit(3);
        let extra = [
            select(a_b.clone()),
            select(a_b.negate()),
            join(on_jc),
            join(None),
            join(Some(BoolExpr::compare(
                ScalarExpr::col("A.p1"),
                CompareOp::Lt,
                ScalarExpr::col("B.p2"),
            ))),
            projected,
        ];
        assert_searches_match_the_reference(&cat, &query, 0.1, &extra);
    }

    #[test]
    fn estimates_equal_the_whole_subtree_reference_on_figure9() {
        let (cat, query) = figure9_setup(300);
        assert_searches_match_the_reference(&cat, &query, 0.1, &[]);
    }

    #[test]
    fn estimates_equal_the_whole_subtree_reference_on_a_q_shaped_query() {
        let (cat, query) = q_shaped_setup(100);
        let query = query.with_projection(vec!["C.p1".into(), "A.p2".into()]);
        assert_searches_match_the_reference(&cat, &query, 0.1, &[]);
    }

    #[test]
    fn unqualified_join_columns_resolve_among_the_joins_own_relations() {
        // L.k and R.m are keys (1000 distinct, no common key in a 0.4 %
        // sample), Z.k has 5000 distinct values.  An unqualified `k` in an
        // L ⋈ R condition is L.k: the analytic estimate is
        // 1000 · 1000 / max(1000, 1000), whichever map order a build gets.
        let cat = Catalog::new();
        let mut tables = Vec::new();
        for (name, col, n, key) in [
            ("L", "k", 1000, (|i| i) as fn(i64) -> i64),
            ("R", "m", 1000, |i| 999 - i),
            ("Z", "k", 5000, |i| i),
        ] {
            let schema = Schema::new(vec![
                Field::new(col, DataType::Int64),
                Field::new("p", DataType::Float64),
            ]);
            let table = cat.create_table(name, schema).unwrap();
            for i in 0..n {
                table
                    .insert(vec![
                        Value::from(key(i)),
                        Value::from((i % 100) as f64 / 100.0),
                    ])
                    .unwrap();
            }
            tables.push(table);
        }
        let ranking = RankingContext::new(
            vec![RankPredicate::attribute("pl", "L.p")],
            ScoringFunction::Sum,
        );
        let query = RankQuery::new(
            vec!["L".into(), "R".into(), "Z".into()],
            vec![BoolExpr::col_eq_col("L.k", "R.m")],
            ranking,
            10,
        );
        let plan = LogicalPlan::scan(&tables[0]).join(
            LogicalPlan::scan(&tables[1]),
            Some(BoolExpr::col_eq_col("k", "R.m")),
            JoinAlgorithm::Hash,
        );
        for _ in 0..20 {
            let est = SamplingEstimator::build(&query, &cat, 0.004, 5).unwrap();
            assert_eq!(est.estimate_cardinality(&plan).unwrap(), 1000.0);
        }
        // Ambiguous among the join's relations: no analytic estimate.
        let est = SamplingEstimator::build(&query, &cat, 0.004, 5).unwrap();
        let both = ["L".to_owned(), "Z".to_owned()];
        assert_eq!(
            est.equi_join_selectivity(&BoolExpr::col_eq_col("k", "R.m"), &both),
            None
        );
    }
}
