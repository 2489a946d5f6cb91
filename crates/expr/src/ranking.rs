//! Ranking predicates and the per-query ranking context.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ranksql_common::{RankSqlError, Result, Row, Schema, Score};

use crate::scalar::{BoundScalarExpr, ColumnRef, ScalarExpr};
use crate::scoring::ScoringFunction;
use crate::state::ScoreState;

/// How a ranking predicate computes its score for a tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum ScoreSource {
    /// The score is stored in (or trivially derived from) a column, e.g. a
    /// pre-computed similarity column; this is the common case in the paper's
    /// synthetic workload where predicate scores are generated per tuple and
    /// the "user-defined function" simply reads them (at a configurable cost).
    Attribute(ColumnRef),
    /// The score is an arbitrary scalar expression over one or more
    /// relations' columns (e.g. `close(h.addr, r.addr)` is modelled as a
    /// normalised distance expression).  Expressions over columns of two
    /// relations yield *rank-join* predicates.
    Expression(ScalarExpr),
}

impl ScoreSource {
    /// The columns the score reads.
    pub fn columns(&self) -> Vec<ColumnRef> {
        match self {
            ScoreSource::Attribute(c) => vec![c.clone()],
            ScoreSource::Expression(e) => e.columns(),
        }
    }

    fn param_slots(&self) -> Vec<usize> {
        match self {
            ScoreSource::Attribute(_) => Vec::new(),
            ScoreSource::Expression(e) => e.param_slots(),
        }
    }

    fn with_params(&self, values: &[ranksql_common::Value]) -> Result<ScoreSource> {
        Ok(match self {
            ScoreSource::Attribute(c) => ScoreSource::Attribute(c.clone()),
            ScoreSource::Expression(e) => ScoreSource::Expression(e.with_params(values)?),
        })
    }
}

/// A ranking predicate `p_i`: produces a score in `[0, 1]` for a tuple, at a
/// configurable evaluation cost.
///
/// Mirrors the paper's ranking predicates: they may be as cheap as an
/// attribute read or as expensive as a user-defined function touching
/// external sources.  The `cost` field expresses that expense in abstract
/// *unit costs*; evaluating the predicate burns `cost` units of deterministic
/// CPU work (see [`simulate_cost_units`]) and increments the evaluation
/// counters, so both wall-clock and analytic costs can be measured.
#[derive(Debug, Clone, PartialEq)]
pub struct RankPredicate {
    /// Unique name (e.g. `"p1"` or `"cheap(h.price)"`).
    pub name: String,
    /// How the score is computed.
    pub source: ScoreSource,
    /// Evaluation cost in unit costs (0 = free).
    pub cost: u64,
}

impl RankPredicate {
    /// A predicate that reads its score from a column, with zero cost.
    pub fn attribute(name: impl Into<String>, column: &str) -> Self {
        RankPredicate {
            name: name.into(),
            source: ScoreSource::Attribute(ColumnRef::parse(column)),
            cost: 0,
        }
    }

    /// A predicate that reads its score from a column at a given cost.
    pub fn attribute_with_cost(name: impl Into<String>, column: &str, cost: u64) -> Self {
        RankPredicate {
            name: name.into(),
            source: ScoreSource::Attribute(ColumnRef::parse(column)),
            cost,
        }
    }

    /// A predicate computed by an expression (clamped to `[0,1]`).
    pub fn expression(name: impl Into<String>, expr: ScalarExpr, cost: u64) -> Self {
        RankPredicate {
            name: name.into(),
            source: ScoreSource::Expression(expr),
            cost,
        }
    }

    /// The relations referenced by this predicate (sorted, deduplicated).
    ///
    /// A predicate over one relation is a *rank-selection* predicate; over
    /// two or more it is a *rank-join* predicate (Section 2.1).
    pub fn relations(&self) -> Vec<String> {
        let mut rels: Vec<String> = self
            .source
            .columns()
            .into_iter()
            .filter_map(|c| c.relation)
            .collect();
        rels.sort();
        rels.dedup();
        rels
    }

    /// Whether this is a rank-join predicate (references ≥ 2 relations).
    pub fn is_join_predicate(&self) -> bool {
        self.relations().len() >= 2
    }

    /// The parameter slots referenced by this predicate's score expression
    /// (sorted, deduplicated; empty for attribute predicates).
    pub fn param_slots(&self) -> Vec<usize> {
        self.source.param_slots()
    }

    /// Every parameter occurrence in the score expression with its
    /// currently bound value (`None` = unbound).
    pub fn param_bindings(&self) -> Vec<(usize, Option<ranksql_common::Value>)> {
        match &self.source {
            ScoreSource::Attribute(_) => Vec::new(),
            ScoreSource::Expression(e) => e.param_bindings(),
        }
    }

    /// Rebinds every parameter slot in the predicate's score expression to
    /// the value at its index in `values`.
    pub fn with_params(&self, values: &[ranksql_common::Value]) -> Result<RankPredicate> {
        Ok(RankPredicate {
            name: self.name.clone(),
            source: self.source.with_params(values)?,
            cost: self.cost,
        })
    }

    /// Resolves the predicate's column references against `schema`, once,
    /// for repeated evaluation on tuples of that schema.  Fails if a column
    /// is missing or ambiguous, or a parameter slot is still unbound.
    pub fn bind(&self, schema: &Schema) -> Result<BoundRankPredicate> {
        Ok(BoundRankPredicate {
            cost: self.cost,
            source: match &self.source {
                ScoreSource::Attribute(c) => BoundScoreSource::Attribute(c.resolve(schema)?),
                ScoreSource::Expression(e) => BoundScoreSource::Expression(e.bind(schema)?),
            },
        })
    }
}

#[derive(Debug, Clone, PartialEq)]
enum BoundScoreSource {
    Attribute(usize),
    Expression(BoundScalarExpr),
}

/// A [`RankPredicate`] with its column references resolved to indices of
/// one schema — the form every per-tuple loop evaluates.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundRankPredicate {
    cost: u64,
    source: BoundScoreSource,
}

impl BoundRankPredicate {
    /// Evaluates the predicate against a row (a tuple, or a pair of tuples
    /// viewed as their concatenation), burning `cost` units of work.
    ///
    /// The returned score is clamped into `[0, 1]`; a NULL or non-numeric
    /// score evaluates to `0.0` (the worst possible score), so NULLs never
    /// promote a tuple.
    pub fn evaluate<R: Row + ?Sized>(&self, row: &R) -> Result<Score> {
        simulate_cost_units(self.cost);
        let score = match &self.source {
            BoundScoreSource::Attribute(i) => row
                .get(*i)
                .ok_or_else(|| {
                    RankSqlError::Expression(format!(
                        "column index {i} out of bounds for tuple of arity {}",
                        row.arity()
                    ))
                })?
                .as_f64(),
            BoundScoreSource::Expression(e) => e.eval(row)?.as_f64(),
        };
        Ok(Score::new(score.unwrap_or(0.0)).clamp_unit())
    }
}

impl fmt::Display for RankPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if self.cost > 0 {
            write!(f, "[cost={}]", self.cost)?;
        }
        Ok(())
    }
}

/// Number of multiply-add iterations burned per unit of predicate cost.
///
/// One unit is roughly a hundred nanoseconds of CPU work on a modern core —
/// small enough that `c = 1` queries stay interactive, large enough that
/// `c = 1000` predicates dominate execution time exactly as in Figure 12(b).
pub const COST_UNIT_ITERS: u64 = 64;

/// Burns `units` of deterministic CPU work to simulate an expensive
/// user-defined ranking predicate.
#[inline]
pub fn simulate_cost_units(units: u64) {
    if units == 0 {
        return;
    }
    let mut x: u64 = 0x9E3779B97F4A7C15;
    for _ in 0..units.saturating_mul(COST_UNIT_ITERS) {
        // A cheap LCG step the optimiser cannot elide thanks to black_box.
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        std::hint::black_box(x);
    }
}

/// Per-predicate evaluation counters (shared, thread-safe).
///
/// Counting predicate evaluations is how Example 4 reasons about plan cost
/// (e.g. plan (b) evaluates `3·C4 + 2·C5`); the counters let tests and the
/// benchmark harness report those analytic numbers.
#[derive(Debug, Default)]
pub struct EvalCounters {
    per_predicate: Vec<AtomicU64>,
}

impl EvalCounters {
    /// Creates counters for `n` predicates.
    pub fn new(n: usize) -> Self {
        EvalCounters {
            per_predicate: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records `n` evaluations of predicate `i`.
    pub fn add(&self, i: usize, n: u64) {
        if let Some(c) = self.per_predicate.get(i) {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The number of evaluations of predicate `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.per_predicate
            .get(i)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Total evaluations across all predicates.
    pub fn total(&self) -> u64 {
        self.per_predicate
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// All counts as a vector.
    pub fn snapshot(&self) -> Vec<u64> {
        self.per_predicate
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        for c in &self.per_predicate {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// The ranking context of a query: its ranking predicates `p1..pn`, the
/// monotonic scoring function `F`, and shared evaluation counters.
///
/// Every rank-aware operator in a plan holds an `Arc<RankingContext>` so they
/// agree on predicate indices, the meaning of score states and the scoring
/// function.
#[derive(Debug)]
pub struct RankingContext {
    predicates: Vec<RankPredicate>,
    scoring: ScoringFunction,
    counters: EvalCounters,
    max_predicate_value: f64,
    /// Optional data-derived per-predicate score maxima (e.g. columnar
    /// zone-map maxima): unevaluated predicate `i` contributes
    /// `predicate_caps[i]` to upper bounds instead of the global
    /// `max_predicate_value`.  Tighter bounds mean rank-aware operators
    /// (µ, MPro, HRJN/NRJN) emit earlier and probe less — without changing
    /// results, because any valid cap still dominates every reachable final
    /// score.
    predicate_caps: Option<Vec<f64>>,
}

impl RankingContext {
    /// Creates a ranking context.
    pub fn new(predicates: Vec<RankPredicate>, scoring: ScoringFunction) -> Arc<Self> {
        let n = predicates.len();
        Arc::new(RankingContext {
            predicates,
            scoring,
            counters: EvalCounters::new(n),
            max_predicate_value: 1.0,
            predicate_caps: None,
        })
    }

    /// A context (fresh counters) whose upper bounds substitute the given
    /// per-predicate maxima for unevaluated predicates.
    ///
    /// Callers must pass *valid* upper bounds — every reachable score of
    /// predicate `i` must be `≤ caps[i]` (zone-map maxima are, by
    /// construction).  Caps are clamped into `[0, max_predicate_value]`; a
    /// `NaN` cap falls back to the global maximum (conservative).
    pub fn with_predicate_caps(&self, caps: Vec<f64>) -> Arc<Self> {
        assert_eq!(
            caps.len(),
            self.predicates.len(),
            "one cap per ranking predicate"
        );
        let max = self.max_predicate_value;
        let caps = caps
            .into_iter()
            .map(|c| if c.is_nan() { max } else { c.clamp(0.0, max) })
            .collect();
        Arc::new(RankingContext {
            predicates: self.predicates.clone(),
            scoring: self.scoring.clone(),
            counters: EvalCounters::new(self.predicates.len()),
            max_predicate_value: max,
            predicate_caps: Some(caps),
        })
    }

    /// The data-derived per-predicate score maxima, if installed.
    pub fn predicate_caps(&self) -> Option<&[f64]> {
        self.predicate_caps.as_deref()
    }

    /// The maximal possible score of predicate `i` under the installed caps
    /// (the global maximum when no caps are installed).
    pub fn max_value_for(&self, i: usize) -> f64 {
        self.predicate_caps
            .as_ref()
            .and_then(|c| c.get(i).copied())
            .unwrap_or(self.max_predicate_value)
    }

    /// A context with no ranking predicates (a purely Boolean query).
    pub fn unranked() -> Arc<Self> {
        RankingContext::new(Vec::new(), ScoringFunction::Sum)
    }

    /// A context with the same predicates but a different scoring function
    /// (fresh evaluation counters) — how prepared statements re-bind
    /// ranking weights without re-planning.  Installed predicate caps are
    /// preserved.
    pub fn with_scoring(&self, scoring: ScoringFunction) -> Arc<Self> {
        Arc::new(RankingContext {
            predicates: self.predicates.clone(),
            scoring,
            counters: EvalCounters::new(self.predicates.len()),
            max_predicate_value: self.max_predicate_value,
            predicate_caps: self.predicate_caps.clone(),
        })
    }

    /// The parameter slots referenced by any predicate's score expression
    /// (sorted, deduplicated).
    pub fn param_slots(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .predicates
            .iter()
            .flat_map(|p| p.param_slots())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Every parameter occurrence in any predicate's score expression with
    /// its currently bound value (`None` = unbound).
    pub fn param_bindings(&self) -> Vec<(usize, Option<ranksql_common::Value>)> {
        self.predicates
            .iter()
            .flat_map(|p| p.param_bindings())
            .collect()
    }

    /// A context (fresh counters) with every parameter slot in expression
    /// predicates rebound to the value at its index in `values`.
    pub fn with_params(&self, values: &[ranksql_common::Value]) -> Result<Arc<Self>> {
        let predicates = self
            .predicates
            .iter()
            .map(|p| p.with_params(values))
            .collect::<Result<Vec<_>>>()?;
        Ok(Arc::new(RankingContext {
            counters: EvalCounters::new(predicates.len()),
            predicates,
            scoring: self.scoring.clone(),
            max_predicate_value: self.max_predicate_value,
            predicate_caps: self.predicate_caps.clone(),
        }))
    }

    /// Number of ranking predicates.
    pub fn num_predicates(&self) -> usize {
        self.predicates.len()
    }

    /// The predicates.
    pub fn predicates(&self) -> &[RankPredicate] {
        &self.predicates
    }

    /// The predicate at index `i`.
    pub fn predicate(&self, i: usize) -> &RankPredicate {
        &self.predicates[i]
    }

    /// The scoring function `F`.
    pub fn scoring(&self) -> &ScoringFunction {
        &self.scoring
    }

    /// The evaluation counters.
    pub fn counters(&self) -> &EvalCounters {
        &self.counters
    }

    /// The maximal possible value of a single predicate (1.0 by default).
    pub fn max_predicate_value(&self) -> f64 {
        self.max_predicate_value
    }

    /// The maximal-possible score `F_P[t]` for a score state (per-predicate
    /// caps applied when installed).
    pub fn upper_bound(&self, state: &ScoreState) -> Score {
        match &self.predicate_caps {
            Some(caps) => state.upper_bound_capped(&self.scoring, caps),
            None => state.upper_bound(&self.scoring, self.max_predicate_value),
        }
    }

    /// The upper bound of a tuple about which nothing has been evaluated.
    pub fn initial_upper_bound(&self) -> Score {
        match &self.predicate_caps {
            Some(caps) => self.scoring.combine(caps),
            None => self
                .scoring
                .initial_upper_bound(self.num_predicates(), self.max_predicate_value),
        }
    }

    /// The total order ranked streams are compared in: descending
    /// maximal-possible score (caps applied), ties broken by ascending tuple
    /// identity.  The context-aware form of
    /// [`RankedTuple::cmp_desc`](crate::state::RankedTuple::cmp_desc) —
    /// operators must use this one so capped and uncapped executions order
    /// buffered tuples consistently.
    pub fn cmp_desc(
        &self,
        a: &crate::state::RankedTuple,
        b: &crate::state::RankedTuple,
    ) -> std::cmp::Ordering {
        self.upper_bound(&b.state)
            .cmp(&self.upper_bound(&a.state))
            .then_with(|| a.tuple.id().cmp(b.tuple.id()))
    }

    /// Resolves the predicates `which` against `schema` — what an operator
    /// does once, at construction, for the predicates it is responsible
    /// for, so its per-tuple loop never looks a column up by name.  Fails if
    /// an index is out of range, a column is missing or ambiguous, or a
    /// parameter slot is still unbound.
    pub fn bind(
        self: &Arc<Self>,
        schema: &Schema,
        which: impl IntoIterator<Item = usize>,
    ) -> Result<BoundRanking> {
        let predicates: Vec<_> = which
            .into_iter()
            .map(|i| {
                let p = self.predicates.get(i).ok_or_else(|| {
                    RankSqlError::Plan(format!(
                        "predicate index {i} out of range ({} predicates)",
                        self.predicates.len()
                    ))
                })?;
                Ok((i, p.bind(schema)?))
            })
            .collect::<Result<_>>()?;
        Ok(BoundRanking {
            ctx: Arc::clone(self),
            pending: vec![0; predicates.len()],
            predicates,
        })
    }
}

/// The predicates one operator evaluates, bound to its schema: each goes
/// through pre-resolved column indices, and every evaluation is tallied
/// here and added to the context's shared [`EvalCounters`] by
/// [`BoundRanking::flush`] — once per `next_batch` call of the owning
/// operator, so parallel workers never contend on the shared counters per
/// evaluation, and the counters are exact whenever no operator is running.
#[derive(Debug)]
pub struct BoundRanking {
    ctx: Arc<RankingContext>,
    /// `(index in the context, bound predicate)`; a handful at most, so a
    /// lookup is a short scan.
    predicates: Vec<(usize, BoundRankPredicate)>,
    /// Evaluations since the last flush, parallel to `predicates`.
    pending: Vec<u64>,
}

impl BoundRanking {
    /// Whether no predicate is bound.
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }

    /// Evaluates predicate `i` on a row (tallying the evaluation) and
    /// returns the resulting score.
    pub fn evaluate_predicate<R: Row + ?Sized>(&mut self, i: usize, row: &R) -> Result<Score> {
        let at = self
            .predicates
            .iter()
            .position(|(bound, _)| *bound == i)
            .ok_or_else(|| RankSqlError::Plan(format!("predicate index {i} was not bound")))?;
        self.pending[at] += 1;
        self.predicates[at].1.evaluate(row)
    }

    /// Evaluates predicate `i` and folds the result into `state`.
    pub fn evaluate_into<R: Row + ?Sized>(
        &mut self,
        i: usize,
        row: &R,
        state: &mut ScoreState,
    ) -> Result<Score> {
        let s = self.evaluate_predicate(i, row)?;
        state.set(i, s.value());
        Ok(s)
    }

    /// Evaluates every bound predicate `state` has not evaluated yet, in
    /// binding order, folding each result into `state` — what a sort does to
    /// complete a tuple's score.
    pub fn evaluate_missing<R: Row + ?Sized>(
        &mut self,
        row: &R,
        state: &mut ScoreState,
    ) -> Result<()> {
        for ((i, p), n) in self.predicates.iter().zip(&mut self.pending) {
            if !state.is_evaluated(*i) {
                *n += 1;
                state.set(*i, p.evaluate(row)?.value());
            }
        }
        Ok(())
    }

    /// Adds the evaluations tallied since the last flush to the context's
    /// shared counters.
    pub fn flush(&mut self) {
        for ((i, _), n) in self.predicates.iter().zip(&mut self.pending) {
            if *n > 0 {
                self.ctx.counters.add(*i, std::mem::take(n));
            }
        }
    }
}

impl Clone for BoundRanking {
    /// A copy with nothing pending: each copy flushes what it evaluated.
    fn clone(&self) -> Self {
        BoundRanking {
            ctx: Arc::clone(&self.ctx),
            predicates: self.predicates.clone(),
            pending: vec![0; self.pending.len()],
        }
    }
}

impl Drop for BoundRanking {
    /// An operator abandoned mid-call (an error below it) still accounts
    /// for what it evaluated.
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksql_common::{DataType, Field, Tuple, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::qualified("R", "a", DataType::Int64),
            Field::qualified("R", "p1", DataType::Float64),
            Field::qualified("S", "p2", DataType::Float64),
        ])
    }

    fn tuple(p1: f64, p2: f64) -> Tuple {
        Tuple::synthetic(1, vec![Value::from(3), Value::from(p1), Value::from(p2)])
    }

    #[test]
    fn attribute_predicate_reads_and_clamps() {
        let p = RankPredicate::attribute("p1", "R.p1")
            .bind(&schema())
            .unwrap();
        assert_eq!(p.evaluate(&tuple(0.7, 0.0)).unwrap(), Score::new(0.7));
        assert_eq!(p.evaluate(&tuple(1.7, 0.0)).unwrap(), Score::ONE);
        assert_eq!(p.evaluate(&tuple(-0.3, 0.0)).unwrap(), Score::ZERO);
    }

    #[test]
    fn expression_predicate() {
        // Score = 1 - |R.p1 - S.p2| as a tiny "closeness" predicate.
        let expr = ScalarExpr::lit(1.0).sub(ScalarExpr::col("R.p1").sub(ScalarExpr::col("S.p2")));
        let p = RankPredicate::expression("close", expr, 0);
        let bound = p.bind(&schema()).unwrap();
        let score = bound.evaluate(&tuple(0.6, 0.4)).unwrap();
        assert!((score.value() - 0.8).abs() < 1e-12);
        assert_eq!(p.relations(), vec!["R".to_string(), "S".to_string()]);
        assert!(p.is_join_predicate());
    }

    #[test]
    fn null_score_is_zero() {
        let p = RankPredicate::attribute("p1", "R.p1")
            .bind(&schema())
            .unwrap();
        let t = Tuple::synthetic(0, vec![Value::from(1), Value::Null, Value::from(0.5)]);
        assert_eq!(p.evaluate(&t).unwrap(), Score::ZERO);
    }

    #[test]
    fn context_indexing_and_counters() {
        let ctx = RankingContext::new(
            vec![
                RankPredicate::attribute("p1", "R.p1"),
                RankPredicate::attribute("p2", "S.p2"),
            ],
            ScoringFunction::Sum,
        );
        assert_eq!(ctx.num_predicates(), 2);
        let mut bound = ctx.bind(&schema(), 0..2).unwrap();
        let t = tuple(0.25, 0.5);
        let mut state = ScoreState::new(ctx.num_predicates());
        assert_eq!(ctx.upper_bound(&state), Score::new(2.0));
        bound.evaluate_into(0, &t, &mut state).unwrap();
        assert_eq!(ctx.upper_bound(&state), Score::new(1.25));
        bound.evaluate_into(1, &t, &mut state).unwrap();
        assert_eq!(ctx.upper_bound(&state), Score::new(0.75));
        assert_eq!(ctx.counters().total(), 0, "tallied locally until flushed");
        bound.flush();
        assert_eq!(ctx.counters().count(0), 1);
        assert_eq!(ctx.counters().count(1), 1);
        assert_eq!(ctx.counters().total(), 2);
        ctx.counters().reset();
        assert_eq!(ctx.counters().total(), 0);
    }

    #[test]
    fn cost_simulation_is_callable() {
        // Not a timing test; just exercise the code path.
        simulate_cost_units(0);
        simulate_cost_units(2);
        let p = RankPredicate::attribute_with_cost("p1", "R.p1", 1);
        assert_eq!(p.cost, 1);
        let bound = p.bind(&schema()).unwrap();
        assert_eq!(bound.evaluate(&tuple(0.5, 0.5)).unwrap(), Score::new(0.5));
    }

    #[test]
    fn out_of_range_predicate_errors() {
        let ctx = RankingContext::unranked();
        assert!(ctx.bind(&schema(), [0]).is_err());
    }

    #[test]
    fn binding_covers_only_the_predicates_asked_for() {
        // µ over one join side binds its own predicate; the other side's,
        // which this schema cannot serve, is none of its business.
        let ctx = RankingContext::new(
            vec![
                RankPredicate::attribute("p1", "R.p1"),
                RankPredicate::attribute("p2", "S.p2"),
                RankPredicate::expression(
                    "e",
                    ScalarExpr::col("R.p1").add(ScalarExpr::param(0)),
                    0,
                ),
            ],
            ScoringFunction::Sum,
        );
        let r_only = Schema::new(vec![Field::qualified("R", "p1", DataType::Float64)]);
        let mut bound = ctx.bind(&r_only, [0]).unwrap();
        let t = Tuple::synthetic(0, vec![Value::from(0.5)]);
        assert_eq!(bound.evaluate_predicate(0, &t).unwrap(), Score::new(0.5));
        assert!(bound.evaluate_predicate(1, &t).is_err());
        drop(bound);
        assert_eq!(ctx.counters().snapshot(), vec![1, 0, 0]);
        let missing = ctx.bind(&r_only, [0, 1]).unwrap_err();
        assert!(missing.to_string().contains("S.p2"), "{missing}");
        let unbound = ctx.bind(&r_only, [2]).unwrap_err();
        assert!(unbound.to_string().contains("unbound"), "{unbound}");
    }

    #[test]
    fn display() {
        assert_eq!(RankPredicate::attribute("p1", "R.p1").to_string(), "p1");
        assert_eq!(
            RankPredicate::attribute_with_cost("p1", "R.p1", 5).to_string(),
            "p1[cost=5]"
        );
    }
}
