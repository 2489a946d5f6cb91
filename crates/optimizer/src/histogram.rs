//! Histogram-based cardinality estimation for rank-aware operators.
//!
//! The paper's estimator (Section 5.2, [`crate::sampling::SamplingEstimator`])
//! executes every candidate subplan over per-table samples.  This module
//! provides the natural *analytic* alternative for the ablation study: build
//! one score histogram per ranking predicate up front, then answer every
//! cardinality question by histogram arithmetic — no subplan is ever
//! executed during enumeration.
//!
//! The estimate follows the same intuition as the paper's: an operator in a
//! ranking plan only has to output tuples whose *maximal-possible score*
//! `F_P[t]` can still reach `x`, the score of the `k`-th answer.  Here
//!
//! * the **membership cardinality** of a subplan is estimated classically
//!   (row counts × Boolean selectivities from [`TableStatistics`]),
//! * `x` is estimated from the *distribution of complete scores*: the
//!   convolution of all per-predicate score histograms, scaled to the
//!   estimated number of qualifying join results,
//! * the fraction of tuples a rank-aware operator must emit is
//!   `P(F_P ≥ x)`, computed from the convolution of the histograms of the
//!   evaluated predicates with point masses at the maximal value for the
//!   predicates not yet evaluated.
//!
//! The closed-form fraction is exact only for summation (and weighted
//! summation) scoring functions; for other monotonic scoring functions the
//! estimator conservatively assumes no rank-induced reduction.  The ablation
//! bench `ablation_estimators` compares the accuracy and estimation overhead
//! of this estimator against the paper's sampling-based one.

use std::collections::{HashMap, HashSet};

use ranksql_algebra::{LogicalPlan, RankQuery, ScanAccess, SetOpKind};
use ranksql_common::{BitSet64, RankSqlError, Result, Score, Value};
use ranksql_expr::{BoolExpr, ColumnRef, CompareOp, RankingContext, ScalarExpr, ScoringFunction};
use ranksql_storage::{
    sample_fraction, Catalog, ColumnStatistics, Table, TableStatistics, HISTOGRAM_BUCKETS,
};

/// Default number of buckets used for score histograms and convolutions.
pub const SCORE_HISTOGRAM_BUCKETS: usize = 64;

/// Fallback selectivity for Boolean predicates the estimator cannot analyse
/// (the traditional System-R default).
const DEFAULT_SELECTIVITY: f64 = 1.0 / 3.0;

/// A discretised probability distribution of scores over `[lo, hi]`.
///
/// Masses sum to 1 (an empty histogram behaves like a uniform distribution).
/// Supports the two operations the estimator needs: convolution (the
/// distribution of a sum of independent scores) and upper-tail probability.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreHistogram {
    lo: f64,
    hi: f64,
    mass: Vec<f64>,
}

impl ScoreHistogram {
    /// Builds a histogram over `[0, 1]` from observed predicate scores.
    ///
    /// With no observations the distribution falls back to uniform, which
    /// keeps the estimator defined for empty tables and empty samples.
    pub fn from_scores(scores: &[f64], buckets: usize) -> Self {
        assert!(buckets > 0, "a histogram needs at least one bucket");
        if scores.is_empty() {
            return ScoreHistogram::uniform(buckets);
        }
        let mut mass = vec![0.0; buckets];
        for &s in scores {
            let clamped = s.clamp(0.0, 1.0);
            let mut b = (clamped * buckets as f64) as usize;
            if b >= buckets {
                b = buckets - 1;
            }
            mass[b] += 1.0;
        }
        let total: f64 = mass.iter().sum();
        for m in &mut mass {
            *m /= total;
        }
        ScoreHistogram {
            lo: 0.0,
            hi: 1.0,
            mass,
        }
    }

    /// The uniform distribution over `[0, 1]`.
    pub fn uniform(buckets: usize) -> Self {
        assert!(buckets > 0, "a histogram needs at least one bucket");
        ScoreHistogram {
            lo: 0.0,
            hi: 1.0,
            mass: vec![1.0 / buckets as f64; buckets],
        }
    }

    /// A point mass at `value` (the distribution of an unevaluated predicate's
    /// maximal-possible contribution).
    pub fn point(value: f64) -> Self {
        ScoreHistogram {
            lo: value,
            hi: value,
            mass: vec![1.0],
        }
    }

    /// Lower bound of the support.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the support.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Total probability mass (1 up to floating-point error).
    pub fn total_mass(&self) -> f64 {
        self.mass.iter().sum()
    }

    fn is_point(&self) -> bool {
        self.hi <= self.lo
    }

    fn midpoint(&self, i: usize) -> f64 {
        if self.is_point() {
            self.lo
        } else {
            let width = (self.hi - self.lo) / self.mass.len() as f64;
            self.lo + (i as f64 + 0.5) * width
        }
    }

    /// The expected value of the distribution.
    pub fn mean(&self) -> f64 {
        self.mass
            .iter()
            .enumerate()
            .map(|(i, m)| m * self.midpoint(i))
            .sum()
    }

    /// Scales the support by a non-negative factor (used for weighted sums).
    pub fn scale_values(&self, w: f64) -> Self {
        assert!(
            w >= 0.0,
            "scores can only be scaled by non-negative weights"
        );
        ScoreHistogram {
            lo: self.lo * w,
            hi: self.hi * w,
            mass: self.mass.clone(),
        }
    }

    /// The distribution of the sum of two independent scores.
    pub fn convolve(&self, other: &ScoreHistogram, buckets: usize) -> Self {
        assert!(buckets > 0, "a histogram needs at least one bucket");
        let lo = self.lo + other.lo;
        let hi = self.hi + other.hi;
        if hi <= lo {
            // Both operands are point masses.
            return ScoreHistogram::point(lo);
        }
        let mut mass = vec![0.0; buckets];
        let width = (hi - lo) / buckets as f64;
        for (i, &mi) in self.mass.iter().enumerate() {
            if mi == 0.0 {
                continue;
            }
            let vi = self.midpoint(i);
            for (j, &mj) in other.mass.iter().enumerate() {
                if mj == 0.0 {
                    continue;
                }
                let v = vi + other.midpoint(j);
                let mut b = ((v - lo) / width) as usize;
                if b >= buckets {
                    b = buckets - 1;
                }
                mass[b] += mi * mj;
            }
        }
        ScoreHistogram { lo, hi, mass }
    }

    /// `P(score ≥ x)`, interpolating within the bucket containing `x`.
    pub fn prob_at_least(&self, x: f64) -> f64 {
        if self.is_point() {
            return if self.lo >= x { 1.0 } else { 0.0 };
        }
        if x <= self.lo {
            return 1.0;
        }
        if x >= self.hi {
            return 0.0;
        }
        let width = (self.hi - self.lo) / self.mass.len() as f64;
        let pos = (x - self.lo) / width;
        let bucket = (pos.floor() as usize).min(self.mass.len() - 1);
        let frac_above = 1.0 - (pos - bucket as f64);
        let above: f64 = self.mass.iter().skip(bucket + 1).sum();
        (above + self.mass[bucket] * frac_above).clamp(0.0, 1.0)
    }

    /// The smallest score `x` such that `population · P(score ≥ x) ≤ k`,
    /// i.e. an estimate of the `k`-th highest score in a population of
    /// `population` independent draws.
    pub fn kth_highest(&self, population: f64, k: f64) -> f64 {
        if population <= k {
            return f64::NEG_INFINITY;
        }
        if self.is_point() {
            return self.lo;
        }
        let width = (self.hi - self.lo) / self.mass.len() as f64;
        let mut above = 0.0;
        // Walk buckets from the top; stop when the expected count reaches k.
        for i in (0..self.mass.len()).rev() {
            let next = above + self.mass[i];
            if next * population >= k {
                // Interpolate inside bucket i.
                let needed = k / population - above;
                let frac = if self.mass[i] > 0.0 {
                    (needed / self.mass[i]).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                return self.lo + width * (i as f64 + 1.0 - frac);
            }
            above = next;
        }
        self.lo
    }
}

/// Where the estimator's [`TableStatistics`] come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsSource {
    /// The table's incrementally maintained statistics catalog: sketch-backed
    /// distinct counts (exact up to the sketch's array capacity), exact
    /// null counts, min/max and boolean fractions.  The default.
    #[default]
    Catalog,
    /// Classical sampled statistics: every figure — including the distinct
    /// count, naively scaled up from the sample — is computed over a
    /// reservoir sample.  This is the pre-catalog baseline the
    /// `estimator_error` harness and the `ablation_sketch` bench compare
    /// the sketches against; its NDV is badly biased for low-cardinality
    /// columns (a 20 % sample of a 50-distinct join column still sees all
    /// 50 values, which naive scale-up turns into 250).
    Sampled,
}

/// Computes [`TableStatistics`] from a reservoir sample, the classical
/// baseline for [`StatsSource::Sampled`]: distinct counts are counted
/// exactly *within the sample* and scaled by the inverse sampling ratio
/// (capped at the row count), everything else is taken from the sample
/// as-is.
pub fn sampled_statistics(table: &Table, ratio: f64, seed: u64) -> Result<TableStatistics> {
    let sample = sample_fraction(table, ratio, seed);
    let row_count = table.row_count();
    let achieved = if row_count > 0 {
        (sample.len() as f64 / row_count as f64).max(f64::EPSILON)
    } else {
        ratio
    };
    let schema = table.schema();
    let mut columns = Vec::with_capacity(schema.len());
    for (ci, field) in schema.fields().iter().enumerate() {
        let mut non_null = 0usize;
        let mut nulls = 0usize;
        let mut distinct: HashSet<Value> = HashSet::new();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut numeric = 0usize;
        let mut trues = 0usize;
        let mut bools = 0usize;
        for t in &sample {
            let v = t.value(ci);
            if v.is_null() {
                nulls += 1;
                continue;
            }
            non_null += 1;
            distinct.insert(v.clone());
            if let Some(x) = v.as_f64() {
                numeric += 1;
                min = min.min(x);
                max = max.max(x);
            }
            if let Value::Bool(b) = v {
                bools += 1;
                if *b {
                    trues += 1;
                }
            }
        }
        let (min, max) = if numeric > 0 {
            (Some(min), Some(max))
        } else {
            (None, None)
        };
        let mut histogram = Vec::new();
        if let (Some(lo), Some(hi)) = (min, max) {
            if hi > lo {
                histogram = vec![0usize; HISTOGRAM_BUCKETS];
                let width = (hi - lo) / HISTOGRAM_BUCKETS as f64;
                for t in &sample {
                    if let Some(x) = t.value(ci).as_f64() {
                        let mut b = ((x - lo) / width) as usize;
                        if b >= HISTOGRAM_BUCKETS {
                            b = HISTOGRAM_BUCKETS - 1;
                        }
                        histogram[b] += 1;
                    }
                }
            }
        }
        // Naive distinct-count scale-up (the classical estimator the
        // sketch catalog replaces): d_sample / ratio, capped at the row
        // count.
        let scaled_distinct = ((distinct.len() as f64 / achieved).round() as usize).min(row_count);
        columns.push(ColumnStatistics {
            name: field.qualified_name(),
            non_null_count: ((non_null as f64 / achieved).round() as usize).min(row_count),
            null_count: ((nulls as f64 / achieved).round() as usize).min(row_count),
            distinct_count: scaled_distinct,
            min,
            max,
            true_fraction: if bools > 0 {
                Some(trues as f64 / bools as f64)
            } else {
                None
            },
            histogram,
        });
    }
    Ok(TableStatistics {
        table: table.name().to_owned(),
        row_count,
        columns,
    })
}

/// The histogram-based (analytic) cardinality estimator.
pub struct HistogramEstimator {
    /// Per-table statistics (row counts, distinct counts, boolean fractions).
    stats: HashMap<String, TableStatistics>,
    /// Per-ranking-predicate score distributions.
    predicate_histograms: Vec<ScoreHistogram>,
    /// Estimated score of the k-th answer.
    x_threshold: Score,
    /// The query's scoring function and predicates (no shared counters).
    ctx: std::sync::Arc<RankingContext>,
    /// Number of histogram buckets used for convolutions.
    buckets: usize,
}

impl HistogramEstimator {
    /// Builds the estimator: computes table statistics, evaluates every
    /// ranking predicate over an `s%` sample of its base table to obtain its
    /// score histogram, and estimates the k-th answer score `x`.
    ///
    /// `sample_ratio` only controls how many tuples each predicate is
    /// evaluated on while building histograms; unlike the sampling estimator
    /// no subplan is ever executed afterwards.
    pub fn build(
        query: &RankQuery,
        catalog: &Catalog,
        sample_ratio: f64,
        seed: u64,
    ) -> Result<Self> {
        Self::build_with_buckets(query, catalog, sample_ratio, seed, SCORE_HISTOGRAM_BUCKETS)
    }

    /// [`HistogramEstimator::build`] with an explicit bucket count.
    pub fn build_with_buckets(
        query: &RankQuery,
        catalog: &Catalog,
        sample_ratio: f64,
        seed: u64,
        buckets: usize,
    ) -> Result<Self> {
        Self::build_with_stats_source(
            query,
            catalog,
            sample_ratio,
            seed,
            buckets,
            StatsSource::default(),
        )
    }

    /// [`HistogramEstimator::build`] with explicit bucket count and
    /// statistics source (catalog-backed sketches vs the classical sampled
    /// baseline — see [`StatsSource`]).
    pub fn build_with_stats_source(
        query: &RankQuery,
        catalog: &Catalog,
        sample_ratio: f64,
        seed: u64,
        buckets: usize,
        source: StatsSource,
    ) -> Result<Self> {
        if !(sample_ratio > 0.0 && sample_ratio <= 1.0) {
            return Err(RankSqlError::Optimizer(format!(
                "sample ratio must be in (0, 1], got {sample_ratio}"
            )));
        }
        if buckets == 0 {
            return Err(RankSqlError::Optimizer(
                "bucket count must be positive".into(),
            ));
        }
        let mut stats = HashMap::new();
        for name in &query.tables {
            let table = catalog.table(name)?;
            let table_stats = match source {
                StatsSource::Catalog => TableStatistics::compute(&table)?,
                StatsSource::Sampled => sampled_statistics(&table, sample_ratio, seed)?,
            };
            stats.insert(name.clone(), table_stats);
        }

        let ctx = RankingContext::new(
            query.ranking.predicates().to_vec(),
            query.ranking.scoring().clone(),
        );

        // One score histogram per ranking predicate, from a sample of the
        // predicate's base table.  Rank-join predicates (spanning several
        // relations) fall back to the uniform distribution, the conservative
        // choice when the joint distribution is unknown.
        let mut predicate_histograms = Vec::with_capacity(ctx.num_predicates());
        for pred in ctx.predicates() {
            let rels = pred.relations();
            let hist = if rels.len() == 1 {
                let table = catalog.table(&rels[0])?;
                let sample = sample_fraction(&table, sample_ratio, seed);
                let bound = pred.bind(table.schema())?;
                let mut scores = Vec::with_capacity(sample.len());
                for t in &sample {
                    scores.push(bound.evaluate(t)?.value());
                }
                ScoreHistogram::from_scores(&scores, buckets)
            } else {
                ScoreHistogram::uniform(buckets)
            };
            predicate_histograms.push(hist);
        }

        let mut est = HistogramEstimator {
            stats,
            predicate_histograms,
            x_threshold: Score::new(f64::NEG_INFINITY),
            ctx,
            buckets,
        };
        est.x_threshold = est.estimate_x(query)?;
        Ok(est)
    }

    /// The estimated score of the `k`-th answer.
    pub fn x_threshold(&self) -> Score {
        self.x_threshold
    }

    /// The score histogram of ranking predicate `i`.
    pub fn predicate_histogram(&self, i: usize) -> &ScoreHistogram {
        &self.predicate_histograms[i]
    }

    /// Estimates `x` from the distribution of *complete* scores and the
    /// estimated number of qualifying (post-filter, post-join) results.
    fn estimate_x(&self, query: &RankQuery) -> Result<Score> {
        let mut qualified: f64 = query.tables.iter().map(|t| self.table_rows(t)).product();
        for pred in &query.bool_predicates {
            qualified *= self.bool_selectivity(pred);
        }
        if query.ranking.num_predicates() == 0 {
            return Ok(Score::new(f64::NEG_INFINITY));
        }
        let all = BitSet64::all(query.ranking.num_predicates());
        match self.score_distribution(all) {
            Some(dist) => Ok(Score::new(dist.kth_highest(qualified, query.k as f64))),
            // Non-additive scoring function: no analytic form, no pruning.
            None => Ok(Score::new(f64::NEG_INFINITY)),
        }
    }

    fn table_rows(&self, table: &str) -> f64 {
        self.stats
            .get(table)
            .map(|s| s.row_count as f64)
            .unwrap_or(0.0)
    }

    fn column_stats(&self, col: &ColumnRef) -> Option<&ranksql_storage::ColumnStatistics> {
        let key = match &col.relation {
            Some(rel) => format!("{rel}.{}", col.name),
            None => col.name.clone(),
        };
        if let Some(rel) = &col.relation {
            if let Some(ts) = self.stats.get(rel) {
                if let Some(cs) = ts.column(&key) {
                    return Some(cs);
                }
            }
        }
        self.stats.values().find_map(|ts| ts.column(&key))
    }

    /// Classical selectivity estimate of a Boolean predicate.
    pub fn bool_selectivity(&self, expr: &BoolExpr) -> f64 {
        match expr {
            BoolExpr::Literal(true) => 1.0,
            BoolExpr::Literal(false) => 0.0,
            BoolExpr::Column(col) => self
                .column_stats(col)
                .and_then(|c| c.true_fraction)
                .unwrap_or(0.5),
            BoolExpr::Not(inner) => (1.0 - self.bool_selectivity(inner)).clamp(0.0, 1.0),
            BoolExpr::And(l, r) => self.bool_selectivity(l) * self.bool_selectivity(r),
            BoolExpr::Or(l, r) => {
                let sl = self.bool_selectivity(l);
                let sr = self.bool_selectivity(r);
                (sl + sr - sl * sr).clamp(0.0, 1.0)
            }
            BoolExpr::Compare { op, left, right } => self.compare_selectivity(*op, left, right),
        }
    }

    fn compare_selectivity(&self, op: CompareOp, left: &ScalarExpr, right: &ScalarExpr) -> f64 {
        // A *bound* prepared-statement parameter estimates like the literal
        // it currently carries (an unbound one falls back to the default
        // selectivity below, like any other opaque operand).
        let literal_of = |e: &ScalarExpr| match e {
            ScalarExpr::Literal(v) => Some(v.clone()),
            ScalarExpr::Param { value: Some(v), .. } => Some(v.clone()),
            _ => None,
        };
        match (left, right) {
            (ScalarExpr::Column(l), ScalarExpr::Column(r)) => {
                let dl = self.column_stats(l).map(|c| c.distinct_count).unwrap_or(0);
                let dr = self.column_stats(r).map(|c| c.distinct_count).unwrap_or(0);
                let d = dl.max(dr).max(1) as f64;
                match op {
                    CompareOp::Eq => 1.0 / d,
                    CompareOp::NotEq => 1.0 - 1.0 / d,
                    _ => DEFAULT_SELECTIVITY,
                }
            }
            (ScalarExpr::Column(c), other) | (other, ScalarExpr::Column(c))
                if literal_of(other).is_some() =>
            {
                let v = literal_of(other).expect("guard checked");
                let stats = match self.column_stats(c) {
                    Some(s) => s,
                    None => return DEFAULT_SELECTIVITY,
                };
                let lit = v.as_f64();
                // Orient the operator so the column is on the left.
                let oriented = if !matches!(left, ScalarExpr::Column(_)) {
                    match op {
                        CompareOp::Lt => CompareOp::Gt,
                        CompareOp::LtEq => CompareOp::GtEq,
                        CompareOp::Gt => CompareOp::Lt,
                        CompareOp::GtEq => CompareOp::LtEq,
                        other => other,
                    }
                } else {
                    op
                };
                match (oriented, lit) {
                    (CompareOp::Eq, _) => stats.eq_selectivity(),
                    (CompareOp::NotEq, _) => (1.0 - stats.eq_selectivity()).clamp(0.0, 1.0),
                    (CompareOp::Lt | CompareOp::LtEq, Some(x)) => stats.le_selectivity(x),
                    (CompareOp::Gt | CompareOp::GtEq, Some(x)) => {
                        (1.0 - stats.le_selectivity(x)).clamp(0.0, 1.0)
                    }
                    _ => DEFAULT_SELECTIVITY,
                }
            }
            _ => DEFAULT_SELECTIVITY,
        }
    }

    /// The distribution of the maximal-possible score `F_P` when exactly the
    /// predicates in `evaluated` have been evaluated.
    ///
    /// Returns `None` for scoring functions without an additive analytic
    /// form, in which case the caller assumes no rank-induced reduction.
    fn score_distribution(&self, evaluated: BitSet64) -> Option<ScoreHistogram> {
        let n = self.ctx.num_predicates();
        if n == 0 {
            return None;
        }
        let max_value = self.ctx.max_predicate_value();
        let weights: Vec<f64> = match self.ctx.scoring() {
            ScoringFunction::Sum => vec![1.0; n],
            ScoringFunction::WeightedSum(w) if w.len() == n => w.clone(),
            _ => return None,
        };
        let mut acc: Option<ScoreHistogram> = None;
        for (i, weight) in weights.iter().enumerate() {
            let h = if evaluated.contains(i) {
                self.predicate_histograms[i].scale_values(*weight)
            } else {
                ScoreHistogram::point(max_value * weight)
            };
            acc = Some(match acc {
                None => h,
                Some(prev) => prev.convolve(&h, self.buckets),
            });
        }
        acc
    }

    /// `P(F_P ≥ x)` — the fraction of tuples a rank-aware operator with
    /// evaluated predicate set `P` has to emit.
    pub fn rank_fraction(&self, evaluated: BitSet64) -> f64 {
        if !self.x_threshold.value().is_finite() {
            return 1.0;
        }
        match self.score_distribution(evaluated) {
            Some(dist) => dist.prob_at_least(self.x_threshold.value()),
            None => 1.0,
        }
    }

    /// Classical membership cardinality of a subplan (rows that satisfy its
    /// Boolean predicates, ignoring any rank-induced reduction).
    pub fn membership_cardinality(&self, plan: &LogicalPlan) -> f64 {
        match plan {
            LogicalPlan::Scan { table, .. } => self.table_rows(table),
            LogicalPlan::Select { input, predicate } => {
                self.membership_cardinality(input) * self.bool_selectivity(predicate)
            }
            LogicalPlan::Project { input, .. } | LogicalPlan::Rank { input, .. } => {
                self.membership_cardinality(input)
            }
            LogicalPlan::Sort { input, .. } => self.membership_cardinality(input),
            LogicalPlan::Limit { input, k } => self.membership_cardinality(input).min(*k as f64),
            LogicalPlan::Join {
                left,
                right,
                condition,
                ..
            } => {
                let l = self.membership_cardinality(left);
                let r = self.membership_cardinality(right);
                let sel = condition
                    .as_ref()
                    .map(|c| self.bool_selectivity(c))
                    .unwrap_or(1.0);
                l * r * sel
            }
            LogicalPlan::SetOp { kind, left, right } => {
                let l = self.membership_cardinality(left);
                let r = self.membership_cardinality(right);
                match kind {
                    SetOpKind::Union => l + r,
                    SetOpKind::Intersect => l.min(r),
                    SetOpKind::Except => l,
                }
            }
        }
    }

    /// Estimated *output* cardinality of a subplan, accounting for the
    /// rank-induced reduction of rank-aware operators.
    pub fn estimate_cardinality(&self, plan: &LogicalPlan) -> Result<f64> {
        let est = match plan {
            LogicalPlan::Scan { table, access, .. } => {
                let rows = self.table_rows(table);
                match access {
                    ScanAccess::RankIndex { predicate } => {
                        rows * self.rank_fraction(BitSet64::singleton(*predicate))
                    }
                    _ => rows,
                }
            }
            LogicalPlan::Select { input, predicate } => {
                self.estimate_cardinality(input)? * self.bool_selectivity(predicate)
            }
            LogicalPlan::Project { input, .. } => self.estimate_cardinality(input)?,
            LogicalPlan::Rank { input, .. } => {
                // µ re-orders the membership of its input by P ∪ {p}; it only
                // has to emit the tuples that can still reach the threshold.
                self.membership_cardinality(input) * self.rank_fraction(plan.evaluated_predicates())
            }
            LogicalPlan::Join { algorithm, .. } => {
                let membership = self.membership_cardinality(plan);
                if algorithm.is_rank_aware() {
                    membership * self.rank_fraction(plan.evaluated_predicates())
                } else {
                    membership
                }
            }
            LogicalPlan::SetOp { .. } => {
                self.membership_cardinality(plan) * self.rank_fraction(plan.evaluated_predicates())
            }
            // The blocking sort emits its whole input (that is what makes it
            // blocking); only the limit above it cuts the stream.
            LogicalPlan::Sort { input, .. } => self.membership_cardinality(input),
            LogicalPlan::Limit { input, k } => self.estimate_cardinality(input)?.min(*k as f64),
        };
        Ok(est.max(0.0))
    }

    /// Estimated output cardinality of every operator in `plan`, post-order
    /// (the same order in which the executor registers operator metrics).
    pub fn estimate_per_operator(&self, plan: &LogicalPlan) -> Result<Vec<(String, f64)>> {
        let mut out = Vec::new();
        self.walk(plan, &mut out)?;
        Ok(out)
    }

    fn walk(&self, plan: &LogicalPlan, out: &mut Vec<(String, f64)>) -> Result<()> {
        for child in plan.children() {
            self.walk(child, out)?;
        }
        let est = self.estimate_cardinality(plan)?;
        out.push((plan.node_label(Some(&self.ctx)), est));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksql_algebra::JoinAlgorithm;
    use ranksql_common::{DataType, Field, Schema, Value};
    use ranksql_expr::{RankPredicate, ScoringFunction};

    // -----------------------------------------------------------------
    // ScoreHistogram
    // -----------------------------------------------------------------

    #[test]
    fn histogram_mass_is_conserved() {
        let h = ScoreHistogram::from_scores(&[0.1, 0.2, 0.9, 0.95, 0.5], 16);
        assert!((h.total_mass() - 1.0).abs() < 1e-9);
        let u = ScoreHistogram::uniform(8);
        assert!((u.total_mass() - 1.0).abs() < 1e-9);
        let c = h.convolve(&u, 32);
        assert!((c.total_mass() - 1.0).abs() < 1e-9);
        assert_eq!(c.lo(), 0.0);
        assert_eq!(c.hi(), 2.0);
    }

    #[test]
    fn prob_at_least_is_monotone_decreasing() {
        let h = ScoreHistogram::from_scores(&[0.1, 0.4, 0.4, 0.8, 0.9], 10);
        let mut prev = 1.0;
        for i in 0..=20 {
            let x = i as f64 / 20.0;
            let p = h.prob_at_least(x);
            assert!(p <= prev + 1e-12, "P(≥{x}) = {p} > previous {prev}");
            assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
        assert_eq!(h.prob_at_least(-0.5), 1.0);
        assert_eq!(h.prob_at_least(1.5), 0.0);
    }

    #[test]
    fn point_mass_behaviour() {
        let p = ScoreHistogram::point(1.0);
        assert_eq!(p.prob_at_least(0.5), 1.0);
        assert_eq!(p.prob_at_least(1.0), 1.0);
        assert_eq!(p.prob_at_least(1.1), 0.0);
        assert_eq!(p.mean(), 1.0);
        // Convolving two points gives a point at the sum.
        let q = p.convolve(&ScoreHistogram::point(0.25), 16);
        assert_eq!(q.prob_at_least(1.25), 1.0);
        assert_eq!(q.prob_at_least(1.26), 0.0);
    }

    #[test]
    fn convolution_of_uniforms_is_triangular() {
        let u = ScoreHistogram::uniform(64);
        let c = u.convolve(&u, 128);
        // The sum of two U[0,1] has mean 1 and P(≥1) = 0.5.
        assert!((c.mean() - 1.0).abs() < 0.02);
        assert!((c.prob_at_least(1.0) - 0.5).abs() < 0.05);
        assert!(c.prob_at_least(1.8) < 0.05);
    }

    #[test]
    fn kth_highest_quantile() {
        let u = ScoreHistogram::uniform(100);
        // Among 1000 uniform draws, the 10th highest is near 0.99.
        let x = u.kth_highest(1000.0, 10.0);
        assert!((x - 0.99).abs() < 0.02, "x = {x}");
        // Population smaller than k: no pruning possible.
        assert_eq!(u.kth_highest(5.0, 10.0), f64::NEG_INFINITY);
    }

    #[test]
    fn scaled_histogram_scales_support() {
        let h = ScoreHistogram::from_scores(&[0.5, 1.0], 4).scale_values(2.0);
        assert_eq!(h.lo(), 0.0);
        assert_eq!(h.hi(), 2.0);
    }

    // -----------------------------------------------------------------
    // HistogramEstimator
    // -----------------------------------------------------------------

    /// Two joinable tables mirroring the sampling-estimator test setup.
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
    fn build_rejects_bad_parameters() {
        let (cat, query) = setup(100);
        assert!(HistogramEstimator::build(&query, &cat, 0.0, 1).is_err());
        assert!(HistogramEstimator::build(&query, &cat, 2.0, 1).is_err());
        assert!(HistogramEstimator::build_with_buckets(&query, &cat, 0.5, 1, 0).is_err());
        assert!(HistogramEstimator::build(&query, &cat, 0.5, 1).is_ok());
    }

    #[test]
    fn threshold_is_plausible() {
        let (cat, query) = setup(2000);
        let est = HistogramEstimator::build(&query, &cat, 0.2, 7).unwrap();
        let x = est.x_threshold().value();
        assert!(
            x > 1.0 && x <= 2.0,
            "x = {x} outside the plausible range for k = 10"
        );
    }

    #[test]
    fn scan_estimate_is_table_size_and_rank_scan_is_smaller() {
        let (cat, query) = setup(1000);
        let est = HistogramEstimator::build(&query, &cat, 0.2, 7).unwrap();
        let a = cat.table("A").unwrap();
        let scan = LogicalPlan::scan(&a);
        assert!((est.estimate_cardinality(&scan).unwrap() - 1000.0).abs() < 1e-9);
        let rank_scan = LogicalPlan::rank_scan(&a, 0);
        let card = est.estimate_cardinality(&rank_scan).unwrap();
        assert!(
            card < 1000.0,
            "rank-scan estimate {card} should be below the table size"
        );
        assert!(card > 0.0);
    }

    #[test]
    fn selection_estimate_tracks_boolean_selectivity() {
        let (cat, query) = setup(2000);
        let est = HistogramEstimator::build(&query, &cat, 0.2, 3).unwrap();
        let a = cat.table("A").unwrap();
        // A.b is true for 80 % of rows; statistics are exact, so the estimate
        // should be very close to 1600.
        let plan = LogicalPlan::scan(&a).select(BoolExpr::column_is_true("A.b"));
        let card = est.estimate_cardinality(&plan).unwrap();
        assert!((card - 1600.0).abs() < 1.0, "selection estimate {card}");
    }

    #[test]
    fn join_membership_uses_distinct_counts() {
        let (cat, query) = setup(1500);
        let est = HistogramEstimator::build(&query, &cat, 0.2, 11).unwrap();
        let a = cat.table("A").unwrap();
        let b = cat.table("B").unwrap();
        let plan = LogicalPlan::scan(&a).join(
            LogicalPlan::scan(&b),
            Some(BoolExpr::col_eq_col("A.jc", "B.jc")),
            JoinAlgorithm::Hash,
        );
        // True cardinality is 1500 · 1500 / 50 = 45 000; the classical
        // estimate with exact distinct counts hits it on the nose.
        let card = est.estimate_cardinality(&plan).unwrap();
        assert!((card - 45_000.0).abs() < 1.0, "join estimate {card}");
        // A rank-aware join over ranked inputs needs far fewer outputs.
        let rank_plan = LogicalPlan::rank_scan(&a, 0).join(
            LogicalPlan::rank_scan(&b, 1),
            Some(BoolExpr::col_eq_col("A.jc", "B.jc")),
            JoinAlgorithm::HashRankJoin,
        );
        let rank_card = est.estimate_cardinality(&rank_plan).unwrap();
        assert!(
            rank_card < card,
            "rank-aware join {rank_card} should be below {card}"
        );
    }

    #[test]
    fn mu_estimate_shrinks_as_more_predicates_are_evaluated() {
        let (cat, query) = setup(2000);
        let est = HistogramEstimator::build(&query, &cat, 0.2, 3).unwrap();
        let a = cat.table("A").unwrap();
        let b = cat.table("B").unwrap();
        let join = LogicalPlan::rank_scan(&a, 0).join(
            LogicalPlan::scan(&b),
            Some(BoolExpr::col_eq_col("A.jc", "B.jc")),
            JoinAlgorithm::HashRankJoin,
        );
        let with_mu = join.clone().rank(1);
        let before = est.estimate_cardinality(&join).unwrap();
        let after = est.estimate_cardinality(&with_mu).unwrap();
        assert!(
            after <= before + 1e-9,
            "µ should not increase the estimate: {after} > {before}"
        );
    }

    #[test]
    fn limit_caps_the_estimate() {
        let (cat, query) = setup(500);
        let est = HistogramEstimator::build(&query, &cat, 0.5, 3).unwrap();
        let a = cat.table("A").unwrap();
        let plan = LogicalPlan::scan(&a).limit(7);
        assert_eq!(est.estimate_cardinality(&plan).unwrap(), 7.0);
    }

    #[test]
    fn per_operator_walk_matches_node_count() {
        let (cat, query) = setup(500);
        let est = HistogramEstimator::build(&query, &cat, 0.5, 3).unwrap();
        let a = cat.table("A").unwrap();
        let b = cat.table("B").unwrap();
        let plan = LogicalPlan::rank_scan(&a, 0)
            .join(
                LogicalPlan::scan(&b).rank(1),
                Some(BoolExpr::col_eq_col("A.jc", "B.jc")),
                JoinAlgorithm::HashRankJoin,
            )
            .limit(10);
        let per_op = est.estimate_per_operator(&plan).unwrap();
        assert_eq!(per_op.len(), plan.node_count());
        assert!(per_op.iter().all(|(_, c)| c.is_finite() && *c >= 0.0));
    }

    #[test]
    fn non_additive_scoring_disables_rank_reduction() {
        let cat = Catalog::new();
        let t = cat
            .create_table(
                "T",
                Schema::new(vec![
                    Field::new("p1", DataType::Float64),
                    Field::new("p2", DataType::Float64),
                ]),
            )
            .unwrap();
        for i in 0..200 {
            t.insert(vec![
                Value::from((i % 100) as f64 / 100.0),
                Value::from(((i * 7) % 100) as f64 / 100.0),
            ])
            .unwrap();
        }
        let ranking = RankingContext::new(
            vec![
                RankPredicate::attribute("p1", "T.p1"),
                RankPredicate::attribute("p2", "T.p2"),
            ],
            ScoringFunction::Min,
        );
        let query = RankQuery::new(vec!["T".into()], vec![], ranking, 5);
        let est = HistogramEstimator::build(&query, &cat, 0.5, 3).unwrap();
        // Conservative: no reduction is assumed, so a rank-scan estimate
        // equals the table size.
        let plan = LogicalPlan::rank_scan(&cat.table("T").unwrap(), 0);
        assert_eq!(est.estimate_cardinality(&plan).unwrap(), 200.0);
    }

    #[test]
    fn boolean_selectivity_forms() {
        let (cat, query) = setup(1000);
        let est = HistogramEstimator::build(&query, &cat, 0.2, 1).unwrap();
        // Literal truth values.
        assert_eq!(est.bool_selectivity(&BoolExpr::Literal(true)), 1.0);
        assert_eq!(est.bool_selectivity(&BoolExpr::Literal(false)), 0.0);
        // Boolean column fraction (80 % true).
        let b = est.bool_selectivity(&BoolExpr::column_is_true("A.b"));
        assert!((b - 0.8).abs() < 1e-9);
        // Negation.
        let nb = est.bool_selectivity(&BoolExpr::Not(Box::new(BoolExpr::column_is_true("A.b"))));
        assert!((nb - 0.2).abs() < 1e-9);
        // Equi-join on a 50-distinct column.
        let j = est.bool_selectivity(&BoolExpr::col_eq_col("A.jc", "B.jc"));
        assert!((j - 0.02).abs() < 1e-9);
        // Range predicate against a literal.
        let range = BoolExpr::compare(
            ScalarExpr::col("A.p1"),
            CompareOp::Lt,
            ScalarExpr::Literal(Value::from(0.5)),
        );
        let r = est.bool_selectivity(&range);
        assert!((r - 0.5).abs() < 0.1, "range selectivity {r}");
        // Conjunction and disjunction compose.
        let and = est.bool_selectivity(&BoolExpr::column_is_true("A.b").and(range.clone()));
        assert!((and - 0.4).abs() < 0.1);
        let or = est.bool_selectivity(&BoolExpr::Or(
            Box::new(BoolExpr::column_is_true("A.b")),
            Box::new(range),
        ));
        assert!(or > 0.8 && or <= 1.0);
    }
}
