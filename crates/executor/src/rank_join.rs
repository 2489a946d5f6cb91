//! Rank-aware join operators: HRJN (hash rank-join) and NRJN (nested-loop
//! rank-join), after Ilyas et al. (VLDB'03), adapted to the rank-relational
//! execution model.
//!
//! Both operators consume two *ranked* inputs (streams in non-increasing
//! upper-bound order), produce join results incrementally in non-increasing
//! upper-bound order of the combined score state, and stop drawing input as
//! soon as the requested results are guaranteed — which is what makes
//! ranking plans' cost proportional to `k`.
//!
//! NRJN is HRJN on the empty key, as a nested-loops join is the hash join
//! on it: each side's drawn rows are ids of one `KeyIndex`, the index hash
//! joins group their build sides by, so on the empty key a draw meets every
//! row the other side drew.  A NULL key joins nothing.

use std::cmp::Ordering;
use std::sync::Arc;

use ranksql_common::{JoinedRow, Result, Schema, Score, TupleId};
use ranksql_expr::{BoolExpr, BoundBoolExpr, RankedTuple, RankingContext};

use crate::build_table::{key_hash, KeyIndex};
use crate::context::ExecutionContext;
use crate::join::{extract_join_keys, JoinKeys};
use crate::metrics::OperatorMetrics;
use crate::operator::{draw_one, Batch, BoxedOperator, PhysicalOperator};

/// Which side to pull from next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Left,
    Right,
}

/// The two terms of the corner bound, each an upper bound on the join
/// results one side's *future* tuples can still form: `left` is a future
/// left tuple joined with the best right tuple seen, `right` the mirror.
/// The threshold is the larger; drawing from a side can only lower its own
/// term.
#[derive(Debug, Clone, Copy)]
struct Terms {
    left: Score,
    right: Score,
}

impl Terms {
    fn threshold(self) -> Score {
        self.left.max(self.right)
    }
}

/// State kept per input side.
struct SideState {
    input: BoxedOperator,
    /// All tuples drawn so far, in draw order — the buffer the input appends
    /// each draw to.  On a ranked input the first is the side's best tuple
    /// and the last bounds everything it may still produce — the two states
    /// the threshold is computed from.
    seen: Batch,
    /// `seen`'s indices by the hash of their join key.
    index: KeyIndex,
    /// Key column indices within this side's schema.
    key_cols: Vec<usize>,
    exhausted: bool,
    ranked: bool,
}

impl SideState {
    fn new(input: BoxedOperator, key_cols: Vec<usize>) -> Self {
        let ranked = input.is_ranked();
        SideState {
            input,
            seen: Batch::new(),
            index: KeyIndex::default(),
            key_cols,
            exhausted: false,
            ranked,
        }
    }

    /// Indices into `seen` of the tuples whose join key equals `t`'s on
    /// `cols`, hashed as `hash`: compared in place.
    fn matches<'a>(
        &'a self,
        hash: u64,
        t: &'a RankedTuple,
        cols: &'a [usize],
    ) -> impl Iterator<Item = usize> + 'a {
        let same = move |&at: &u32| {
            let seen = &self.seen[at as usize].tuple;
            let mut pairs = cols.iter().zip(&self.key_cols);
            pairs.all(|(&c, &own)| t.tuple.value(c) == seen.value(own))
        };
        self.index.chain(hash).filter(same).map(|at| at as usize)
    }
}

/// A join result that passed the condition but has not been built: its two
/// constituents by index into the sides' `seen` vectors, and the upper
/// bound of their merged score state.  The joined tuple (one allocation for
/// two base constituents, two past that) and the merged state are built only
/// if the candidate is popped for emission — most never are under a small
/// `k`.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    score: Score,
    left: usize,
    right: usize,
}

/// The candidate queue: a binary max-heap in *score descending, joined
/// identity ascending* order — what `operator::HeapEntry` gives materialised
/// tuples, so a rank-join breaks ties like every other ranking queue.  The
/// tie-break reads the constituents' identities out of the sides' `seen`
/// vectors (a candidate is 24 bytes and carries none), which is why this is
/// not a `BinaryHeap`: its `Ord` could not reach them.
#[derive(Default)]
struct CandidateQueue {
    heap: Vec<Candidate>,
}

impl CandidateQueue {
    /// Whether `a` pops before `b`.
    fn before(a: &Candidate, b: &Candidate, left: &[RankedTuple], right: &[RankedTuple]) -> bool {
        a.score.cmp(&b.score).then_with(|| {
            TupleId::cmp_combined(
                left[b.left].tuple.id(),
                right[b.right].tuple.id(),
                left[a.left].tuple.id(),
                right[a.right].tuple.id(),
            )
        }) == Ordering::Greater
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn push(&mut self, c: Candidate, left: &[RankedTuple], right: &[RankedTuple]) {
        let heap = &mut self.heap;
        let mut at = heap.len();
        heap.push(c);
        while at > 0 {
            let parent = (at - 1) / 2;
            if !Self::before(&heap[at], &heap[parent], left, right) {
                break;
            }
            heap.swap(at, parent);
            at = parent;
        }
    }

    /// Pops the head if there is one and `ready` accepts it.
    fn pop_if(
        &mut self,
        ready: impl FnOnce(&Candidate) -> bool,
        left: &[RankedTuple],
        right: &[RankedTuple],
    ) -> Option<Candidate> {
        let heap = &mut self.heap;
        if !heap.first().is_some_and(ready) {
            return None;
        }
        let top = heap.swap_remove(0);
        let mut at = 0;
        loop {
            let mut child = 2 * at + 1;
            if child >= heap.len() {
                break;
            }
            if child + 1 < heap.len() && Self::before(&heap[child + 1], &heap[child], left, right) {
                child += 1;
            }
            if !Self::before(&heap[child], &heap[at], left, right) {
                break;
            }
            heap.swap(at, child);
            at = child;
        }
        Some(top)
    }
}

/// A rank-aware join: HRJN on its equi-join keys, NRJN (arbitrary join
/// conditions, including rank-join predicates with no equi-key) on the
/// empty key.  Each drawn tuple is matched against the other side's tuples
/// with its key, found by hash.
///
/// A match is queued as an index-pair candidate and **materialised on
/// emit**; the queue pops in *score descending, joined identity ascending*
/// order.
pub struct RankJoin {
    left: SideState,
    right: SideState,
    /// What a candidate pair must still pass, bound against the joined
    /// schema and evaluated on the pair in place through [`JoinedRow`]: the
    /// whole condition for NRJN, the non-equi conjuncts for HRJN (whose key
    /// match already decided the equalities; NULL keys never match).
    condition: Option<BoundBoolExpr>,
    schema: Schema,
    ctx: Arc<RankingContext>,
    metrics: Arc<OperatorMetrics>,
    output: CandidateQueue,
    /// The cached [`RankJoin::terms`]; `None` after a side advanced or
    /// exhausted, the only events that move them.
    terms: Option<Terms>,
    /// The side to draw from when the terms cannot choose: the one not
    /// drawn from last.
    turn: Side,
    /// Joined tuples built so far (must equal the tuples emitted).
    #[cfg(test)]
    built: Arc<std::sync::atomic::AtomicU64>,
}

impl RankJoin {
    /// Creates an HRJN operator.  The condition must contain at least one
    /// equi-join conjunct; remaining conjuncts are applied as a residual.
    pub fn hrjn(
        left: BoxedOperator,
        right: BoxedOperator,
        condition: Option<&BoolExpr>,
        exec: &ExecutionContext,
        label: impl Into<String>,
    ) -> Result<Self> {
        let keys = extract_join_keys(condition, left.schema(), right.schema());
        if keys.keys.is_empty() {
            return Err(ranksql_common::RankSqlError::Execution(
                "HRJN requires at least one equi-join condition (use NRJN otherwise)".into(),
            ));
        }
        Self::build(left, right, keys, exec, label)
    }

    /// Creates an NRJN operator (arbitrary or absent condition): the
    /// rank-join on the empty key.
    pub fn nrjn(
        left: BoxedOperator,
        right: BoxedOperator,
        condition: Option<&BoolExpr>,
        exec: &ExecutionContext,
        label: impl Into<String>,
    ) -> Result<Self> {
        Self::build(left, right, JoinKeys::empty(condition), exec, label)
    }

    fn build(
        left: BoxedOperator,
        right: BoxedOperator,
        keys: JoinKeys,
        exec: &ExecutionContext,
        label: impl Into<String>,
    ) -> Result<Self> {
        let schema = left.schema().join(right.schema());
        let condition = keys.residual.map(|c| c.bind(&schema)).transpose()?;
        let (left_keys, right_keys) = keys.keys.into_iter().unzip();
        Ok(RankJoin {
            left: SideState::new(left, left_keys),
            right: SideState::new(right, right_keys),
            condition,
            schema,
            output: CandidateQueue::default(),
            terms: None,
            ctx: exec.ranking_arc(),
            metrics: exec.register(label),
            turn: Side::Left,
            #[cfg(test)]
            built: Default::default(),
        })
    }

    /// The corner bound's two terms, whose larger is the threshold `T`: an
    /// upper bound on the combined score of any join result not yet in the
    /// output queue.  Following HRJN, the terms are "a future left tuple
    /// joined with the best right tuple seen" and "a future right tuple
    /// joined with the best left tuple seen".
    fn terms(&self) -> Terms {
        Terms {
            left: self.term(&self.left, &self.right),
            right: self.term(&self.right, &self.left),
        }
    }

    /// Combines a hypothetical future tuple of `future` (bounded by that
    /// side's last-drawn state) with the best seen tuple of `other`.
    /// Merging the actual states keeps this exact for additive scoring
    /// functions and conservative for the rest (unevaluated predicates are
    /// filled with the maximal value either way).
    fn term(&self, future: &SideState, other: &SideState) -> Score {
        if future.exhausted {
            return Score::new(f64::NEG_INFINITY);
        }
        if !future.ranked {
            return self.ctx.initial_upper_bound();
        }
        match (future.seen.last(), other.seen.first()) {
            // Nothing seen on the other side yet: no join result can be
            // formed with it, but future results are still possible once it
            // produces tuples; stay conservative.
            (_, None) => self.ctx.initial_upper_bound(),
            // Future side not yet sampled: bound by the other top alone (its
            // own predicates unevaluated = filled max).
            (None, Some(top)) => self.ctx.upper_bound(&top.state),
            (Some(last), Some(top)) => self.ctx.upper_bound(&last.state.merge(&top.state)),
        }
    }

    /// Draws one tuple from `side` and queues a candidate for every tuple
    /// seen on the other side that it joins with.  Returns whether the side
    /// had a tuple to give.
    fn advance(&mut self, side: Side) -> Result<bool> {
        self.terms = None;
        let this = match side {
            Side::Left => &mut self.left,
            Side::Right => &mut self.right,
        };
        let index = this.seen.len();
        if !draw_one(this.input.as_mut(), &mut this.seen)? {
            this.exhausted = true;
            return Ok(false);
        }

        // Register the new tuple on its own side.  `=` is never true of a
        // NULL, so a NULL key is never probed with, and no key equals it.
        let t = &this.seen[index];
        let hash = key_hash(this.key_cols.iter().map(|&c| t.tuple.value(c)));
        let joinable = !this.key_cols.iter().any(|&c| t.tuple.value(c).is_null());
        this.index.insert(hash);

        // Queue its matches with the other side.
        let (left, right) = (&self.left.seen, &self.right.seen);
        let (condition, ctx, output) = (&self.condition, &self.ctx, &mut self.output);
        let mut consider = |partner: usize| -> Result<()> {
            let (li, ri) = match side {
                Side::Left => (index, partner),
                Side::Right => (partner, index),
            };
            let (l, r) = (&left[li], &right[ri]);
            if let Some(c) = condition {
                let pair = JoinedRow {
                    left: l.tuple.values(),
                    right: r.tuple.values(),
                };
                if !c.eval(&pair)? {
                    return Ok(());
                }
            }
            let candidate = Candidate {
                score: ctx.upper_bound(&l.state.merge(&r.state)),
                left: li,
                right: ri,
            };
            output.push(candidate, left, right);
            Ok(())
        };
        let (this, other) = match side {
            Side::Left => (&self.left, &self.right),
            Side::Right => (&self.right, &self.left),
        };
        if joinable {
            let t = &this.seen[index];
            other
                .matches(hash, t, &this.key_cols)
                .try_for_each(&mut consider)?;
        }
        Ok(true)
    }

    /// Builds the joined tuple of a popped candidate.
    fn materialise(&self, c: Candidate) -> RankedTuple {
        #[cfg(test)]
        self.built
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.left.seen[c.left].join(&self.right.seen[c.right])
    }

    /// The side to draw from while at least one still has input: the one
    /// whose term is larger — only a draw there can lower the threshold (the
    /// adaptive pulling of HRJN*).  A side that ran dry leaves the other;
    /// until each side has drawn once, and on a tie, the sides alternate.
    fn pick_side(&self, terms: Terms) -> Side {
        match (self.left.exhausted, self.right.exhausted) {
            (false, true) => Side::Left,
            (true, false) => Side::Right,
            _ if self.left.seen.is_empty() || self.right.seen.is_empty() => self.turn,
            _ => match terms.left.cmp(&terms.right) {
                Ordering::Greater => Side::Left,
                Ordering::Less => Side::Right,
                Ordering::Equal => self.turn,
            },
        }
    }
}

impl PhysicalOperator for RankJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> Result<usize> {
        let (mut drawn, mut produced, mut peak) = (0u64, 0usize, 0usize);
        while produced < max {
            let both_done = self.left.exhausted && self.right.exhausted;
            let terms = match self.terms {
                Some(t) => t,
                None => *self.terms.insert(self.terms()),
            };
            // Emit the best candidate once no unseen join result can beat it
            // (a draw is the only thing that moves the threshold, so a run of
            // qualifying heads goes out against the cached one).
            let threshold = terms.threshold();
            let ready = |best: &Candidate| both_done || best.score >= threshold;
            if let Some(c) = self.output.pop_if(ready, &self.left.seen, &self.right.seen) {
                out.push(self.materialise(c));
                produced += 1;
                continue;
            }
            if both_done {
                break;
            }
            let side = self.pick_side(terms);
            if self.advance(side)? {
                drawn += 1;
                peak = peak.max(self.left.seen.len() + self.right.seen.len() + self.output.len());
            }
            self.turn = match side {
                Side::Left => Side::Right,
                Side::Right => Side::Left,
            };
        }
        self.metrics
            .record_call(drawn, produced as u64, peak as u64);
        Ok(produced)
    }

    fn can_extend_limit(&self) -> bool {
        self.left.input.can_extend_limit() && self.right.input.can_extend_limit()
    }

    fn extend_limit(&mut self, extra: usize) -> bool {
        // HRJN/NRJN keep every drawn tuple in their side states and every
        // unemitted match in the candidate queue — nothing is discarded, so
        // extending a top-k just resumes the incremental join where it
        // stopped.
        self.left.input.extend_limit(extra) & self.right.input.extend_limit(extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExecutionContext;
    use crate::operator::{check_rank_order, drain_batched, take};
    use crate::scan::RankScan;
    use ranksql_common::{DataType, Field, Value};
    use ranksql_expr::{RankPredicate, ScoringFunction};
    use ranksql_storage::{ScoreIndex, Table, TableBuilder};
    use std::sync::atomic::Ordering::Relaxed;

    /// Relation R of Figure 2(a): columns a, b and predicates p1, p2.
    fn table_r() -> Arc<Table> {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
            Field::new("p1", DataType::Float64),
            Field::new("p2", DataType::Float64),
        ])
        .qualify_all("R");
        let rows = [(1, 2, 0.9, 0.65), (2, 3, 0.8, 0.5), (3, 4, 0.7, 0.7)];
        Arc::new(
            TableBuilder::new("R", schema)
                .rows(rows.iter().map(|&(a, b, p1, p2)| {
                    vec![
                        Value::from(a),
                        Value::from(b),
                        Value::from(p1),
                        Value::from(p2),
                    ]
                }))
                .build(0)
                .unwrap(),
        )
    }

    /// Relation S of Figure 2(c): columns a, c and predicates p3, p4, p5.
    fn table_s() -> Arc<Table> {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("c", DataType::Int64),
            Field::new("p3", DataType::Float64),
            Field::new("p4", DataType::Float64),
            Field::new("p5", DataType::Float64),
        ])
        .qualify_all("S");
        let rows = [
            (4, 3, 0.7, 0.8, 0.9),
            (1, 1, 0.9, 0.85, 0.8),
            (1, 2, 0.5, 0.45, 0.75),
            (4, 2, 0.4, 0.7, 0.95),
            (5, 1, 0.3, 0.9, 0.6),
            (2, 3, 0.25, 0.45, 0.9),
        ];
        Arc::new(
            TableBuilder::new("S", schema)
                .rows(rows.iter().map(|&(a, c, p3, p4, p5)| {
                    vec![
                        Value::from(a),
                        Value::from(c),
                        Value::from(p3),
                        Value::from(p4),
                        Value::from(p5),
                    ]
                }))
                .build(1)
                .unwrap(),
        )
    }

    /// The context of Figure 4(f): F3 = sum(p1, p2, p3, p4, p5).
    fn ctx_f3() -> Arc<RankingContext> {
        RankingContext::new(
            vec![
                RankPredicate::attribute("p1", "R.p1"),
                RankPredicate::attribute("p2", "R.p2"),
                RankPredicate::attribute("p3", "S.p3"),
                RankPredicate::attribute("p4", "S.p4"),
                RankPredicate::attribute("p5", "S.p5"),
            ],
            ScoringFunction::Sum,
        )
    }

    fn rank_scan(
        t: &Arc<Table>,
        pred: usize,
        exec: &ExecutionContext,
        name: &str,
    ) -> BoxedOperator {
        let idx = Arc::new(
            ScoreIndex::build(exec.ranking().predicate(pred), t.schema(), &t.scan()).unwrap(),
        );
        Box::new(RankScan::new(Arc::clone(t), idx, pred, exec, name).unwrap())
    }

    #[test]
    fn figure4f_join_membership_and_order() {
        // R_{p1} ⋈_{R.a=S.a} S_{p3} (Figure 4(f)): results are r1s2 (4.8)
        // and r1s3 (4.4), plus r2s6 (R.a=2 = S.a=2) which Figure 4(f) omits
        // because it only lists the top of the stream... actually R.a=2
        // matches s6 (a=2): F3 bound = 0.8+1+0.25+1+1 = 4.05.  Check the
        // full membership and ordering here.
        let r = table_r();
        let s = table_s();
        let ctx = ctx_f3();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let cond = BoolExpr::col_eq_col("R.a", "S.a");
        let left = rank_scan(&r, 0, &exec, "rankscan_p1(R)");
        let right = rank_scan(&s, 2, &exec, "rankscan_p3(S)");
        let mut join = RankJoin::hrjn(left, right, Some(&cond), &exec, "HRJN").unwrap();
        let all = drain_batched(&mut join, 4).unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(check_rank_order(&all, &ctx), None);
        // Top result: r1 ⋈ s2 with bound 0.9 + 1 + 0.9 + 1 + 1 = 4.8.
        assert_eq!(ctx.upper_bound(&all[0].state), Score::new(4.8));
        assert_eq!(all[0].tuple.value(0), &Value::from(1)); // R.a
        assert_eq!(all[0].tuple.value(5), &Value::from(1)); // S.c = 1 → s2
                                                            // Second: r1 ⋈ s3 with bound 4.4.
        assert_eq!(ctx.upper_bound(&all[1].state), Score::new(4.4));
        // Third: r2 ⋈ s6 with bound 4.05.
        assert_eq!(ctx.upper_bound(&all[2].state), Score::new(4.05));
    }

    #[test]
    fn hrjn_and_nrjn_agree() {
        let r = table_r();
        let s = table_s();
        let cond = BoolExpr::col_eq_col("R.a", "S.a");
        let ctx1 = ctx_f3();
        let exec1 = ExecutionContext::new(Arc::clone(&ctx1));
        let mut hrjn = RankJoin::hrjn(
            rank_scan(&r, 0, &exec1, "l"),
            rank_scan(&s, 2, &exec1, "r"),
            Some(&cond),
            &exec1,
            "HRJN",
        )
        .unwrap();
        let ctx2 = ctx_f3();
        let exec2 = ExecutionContext::new(Arc::clone(&ctx2));
        let mut nrjn = RankJoin::nrjn(
            rank_scan(&r, 0, &exec2, "l"),
            rank_scan(&s, 2, &exec2, "r"),
            Some(&cond),
            &exec2,
            "NRJN",
        )
        .unwrap();
        let a = drain_batched(&mut hrjn, 4).unwrap();
        let b = drain_batched(&mut nrjn, 4).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.tuple.id(), y.tuple.id());
            assert_eq!(ctx1.upper_bound(&x.state), ctx2.upper_bound(&y.state));
        }
    }

    #[test]
    fn hrjn_requires_equi_condition_nrjn_does_not() {
        let r = table_r();
        let s = table_s();
        let ctx = ctx_f3();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let theta = BoolExpr::compare(
            ranksql_expr::ScalarExpr::col("R.a"),
            ranksql_expr::CompareOp::Lt,
            ranksql_expr::ScalarExpr::col("S.a"),
        );
        assert!(RankJoin::hrjn(
            rank_scan(&r, 0, &exec, "l"),
            rank_scan(&s, 2, &exec, "r"),
            Some(&theta),
            &exec,
            "HRJN",
        )
        .is_err());
        let mut nrjn = RankJoin::nrjn(
            rank_scan(&r, 0, &exec, "l"),
            rank_scan(&s, 2, &exec, "r"),
            Some(&theta),
            &exec,
            "NRJN",
        )
        .unwrap();
        let out = drain_batched(&mut nrjn, 4).unwrap();
        // R.a < S.a pairs: r1(a=1) with s1,s4 (a=4), s5 (a=5), s6 (a=2);
        // r2(a=2) with a=4,4,5; r3(a=3) with a=4,4,5 → 4 + 3 + 3 = 10.
        assert_eq!(out.len(), 10);
        assert_eq!(check_rank_order(&out, &ctx), None);
    }

    #[test]
    fn top_k_join_stops_early() {
        let r = table_r();
        let s = table_s();
        let ctx = ctx_f3();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let cond = BoolExpr::col_eq_col("R.a", "S.a");
        let mut join = RankJoin::hrjn(
            rank_scan(&r, 0, &exec, "left_scan"),
            rank_scan(&s, 2, &exec, "right_scan"),
            Some(&cond),
            &exec,
            "HRJN",
        )
        .unwrap();
        let top = take(&mut join, 1).unwrap();
        assert_eq!(top.len(), 1);
        assert_eq!(ctx.upper_bound(&top[0].state), Score::new(4.8));
        // The join must not have consumed everything from both sides: with
        // 3 + 6 input tuples, early termination should need fewer pulls.
        let pulled: u64 = exec
            .metrics()
            .snapshot()
            .iter()
            .filter(|m| m.name().contains("scan"))
            .map(|m| m.tuples_out())
            .sum();
        // Exactly the two heads: r1 ⋈ s2 already meets the threshold (4.8).
        assert_eq!(pulled, 2, "HRJN draws for a top-1 query");
    }

    #[test]
    fn draws_go_to_the_side_whose_term_binds() {
        // L's scores fall fast and R's stay flat, so after L2 the right term
        // (a future R tuple with L's best, 1.0) stays above the left one (a
        // future L tuple with R's best, 0.99): only R draws can lower the
        // threshold.  Draws by side: L1 R1 L2 (a tie at 1.99 alternates)
        // R2 R3 R4, which joins L1 at 1.96 = the right term: emit.  For
        // three, R5 (⋈ L2, 1.45) and R6, then R runs dry, and L3 (⋈ R6,
        // 1.19) and L4 lower the left term below 1.45 and 1.19 in turn.
        // Round-robin pulls 4 + 4 and 6 + 6.
        let l = keyed_table(
            "L",
            0,
            &(1..=6)
                .zip([1.0, 0.5, 0.25, 0.1, 0.05, 0.0])
                .map(|(k, p)| (Some(k), 0, p))
                .collect::<Vec<_>>(),
        );
        let r = keyed_table(
            "R",
            1,
            &[9, 8, 7, 1, 2, 3]
                .into_iter()
                .zip([0.99, 0.98, 0.97, 0.96, 0.95, 0.94])
                .map(|(k, p)| (Some(k), 0, p))
                .collect::<Vec<_>>(),
        );
        let cond = BoolExpr::col_eq_col("L.k", "R.k");
        for hash in [true, false] {
            for (k, draws, scores) in [
                (1, (2, 4), vec![1.0 + 0.96]),
                (3, (4, 6), vec![1.0 + 0.96, 0.5 + 0.95, 0.25 + 0.94]),
            ] {
                let ctx = ctx_lr();
                let exec = ExecutionContext::new(Arc::clone(&ctx));
                let (left, right) = (
                    rank_scan(&l, 0, &exec, "scan_l"),
                    rank_scan(&r, 1, &exec, "scan_r"),
                );
                let mut join = if hash {
                    RankJoin::hrjn(left, right, Some(&cond), &exec, "HRJN").unwrap()
                } else {
                    RankJoin::nrjn(left, right, Some(&cond), &exec, "NRJN").unwrap()
                };
                let top: Vec<f64> = take(&mut join, k)
                    .unwrap()
                    .iter()
                    .map(|t| ctx.upper_bound(&t.state).value())
                    .collect();
                assert_eq!(top, scores, "hash = {hash}, k = {k}");
                let metrics = exec.metrics().snapshot();
                let drawn = |n: &str| metrics.iter().find(|m| m.name() == n).unwrap().tuples_out();
                assert_eq!(
                    (drawn("scan_l"), drawn("scan_r")),
                    draws,
                    "hash = {hash}, k = {k}"
                );
            }
        }
    }

    /// A table `name(k, x, p)`: a nullable join key, a payload and a score.
    fn keyed_table(name: &str, id: u32, rows: &[(Option<i64>, i64, f64)]) -> Arc<Table> {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("x", DataType::Int64),
            Field::new("p", DataType::Float64),
        ])
        .qualify_all(name);
        let rows = rows.iter().map(|&(k, x, p)| {
            vec![
                k.map_or(Value::Null, Value::from),
                Value::from(x),
                Value::from(p),
            ]
        });
        Arc::new(
            TableBuilder::new(name, schema)
                .rows(rows)
                .build(id)
                .unwrap(),
        )
    }

    /// `sum(L.p, R.p)`: a join of two rank-scans is completely scored.
    fn ctx_lr() -> Arc<RankingContext> {
        RankingContext::new(
            vec![
                RankPredicate::attribute("pl", "L.p"),
                RankPredicate::attribute("pr", "R.p"),
            ],
            ScoringFunction::Sum,
        )
    }

    /// The `(L row, R row)` pair behind a joined tuple of `L ⋈ R`.
    fn row_pair(t: &RankedTuple, l: &Table, r: &Table) -> (u64, u64) {
        let row_of = |table: &Table| {
            let parts = t.tuple.id().parts();
            parts.iter().find(|p| p.0 == table.id()).unwrap().1
        };
        (row_of(l), row_of(r))
    }

    #[test]
    fn tied_candidates_pop_in_joined_identity_order() {
        // The unmatched 1.0 heads keep the threshold above every match, so
        // all four tied matches wait in the queue until both inputs end and
        // then pop purely by the tie-break.  R has the smaller table id, so
        // the joined identity orders by R's row first: not the order of the
        // (left, right) index pairs the queue stores.
        let l = keyed_table(
            "L",
            5,
            &[(Some(99), 0, 1.0), (Some(1), 0, 0.5), (Some(1), 0, 0.5)],
        );
        let r = keyed_table(
            "R",
            2,
            &[(Some(98), 0, 1.0), (Some(1), 0, 0.5), (Some(1), 0, 0.5)],
        );
        let cond = BoolExpr::col_eq_col("L.k", "R.k");
        for hash in [true, false] {
            let ctx = ctx_lr();
            let exec = ExecutionContext::new(Arc::clone(&ctx));
            let (left, right) = (rank_scan(&l, 0, &exec, "l"), rank_scan(&r, 1, &exec, "r"));
            let mut join = if hash {
                RankJoin::hrjn(left, right, Some(&cond), &exec, "HRJN").unwrap()
            } else {
                RankJoin::nrjn(left, right, Some(&cond), &exec, "NRJN").unwrap()
            };
            let all = drain_batched(&mut join, 4).unwrap();
            assert!(all
                .iter()
                .all(|t| ctx.upper_bound(&t.state) == Score::new(1.0)));
            let pairs: Vec<_> = all.iter().map(|t| row_pair(t, &l, &r)).collect();
            assert_eq!(pairs, vec![(1, 1), (2, 1), (1, 2), (2, 2)], "hash = {hash}");
            assert!(all.windows(2).all(|w| w[0].tuple.id() < w[1].tuple.id()));
        }
    }

    #[test]
    fn one_draw_with_many_tied_matches_pops_them_by_identity() {
        // R's fourth row matches all four L rows at once; the hash chain
        // hands them over newest first, the queue must still pop oldest
        // (smallest identity) first.
        let l = keyed_table("L", 0, &[(Some(1), 0, 0.5); 4]);
        let r = keyed_table(
            "R",
            1,
            &[
                (Some(2), 0, 0.5),
                (Some(2), 0, 0.5),
                (Some(2), 0, 0.5),
                (Some(1), 0, 0.5),
            ],
        );
        let ctx = ctx_lr();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let cond = BoolExpr::col_eq_col("L.k", "R.k");
        let mut join = RankJoin::hrjn(
            rank_scan(&l, 0, &exec, "l"),
            rank_scan(&r, 1, &exec, "r"),
            Some(&cond),
            &exec,
            "HRJN",
        )
        .unwrap();
        let pairs: Vec<_> = drain_batched(&mut join, 4)
            .unwrap()
            .iter()
            .map(|t| row_pair(t, &l, &r))
            .collect();
        assert_eq!(pairs, vec![(0, 3), (1, 3), (2, 3), (3, 3)]);
    }

    #[test]
    fn null_join_keys_never_match() {
        // `NULL = NULL` is unknown: the two NULL-keyed rows hash alike but
        // must not join, in HRJN exactly as in NRJN.
        let l = keyed_table("L", 0, &[(None, 0, 0.9), (Some(1), 0, 0.8)]);
        let r = keyed_table("R", 1, &[(None, 0, 0.9), (Some(1), 0, 0.7), (None, 0, 0.6)]);
        let cond = BoolExpr::col_eq_col("L.k", "R.k");
        for hash in [true, false] {
            let exec = ExecutionContext::new(ctx_lr());
            let (left, right) = (rank_scan(&l, 0, &exec, "l"), rank_scan(&r, 1, &exec, "r"));
            let mut join = if hash {
                RankJoin::hrjn(left, right, Some(&cond), &exec, "HRJN").unwrap()
            } else {
                RankJoin::nrjn(left, right, Some(&cond), &exec, "NRJN").unwrap()
            };
            let all = drain_batched(&mut join, 4).unwrap();
            let pairs: Vec<_> = all.iter().map(|t| row_pair(t, &l, &r)).collect();
            assert_eq!(pairs, vec![(1, 1)], "hash = {hash}");
        }
    }

    #[test]
    fn hrjn_still_applies_the_non_equi_residual() {
        // `L.k = R.k` finds the hash matches, `L.x < R.x` must still filter
        // them: per key, only pairs with a smaller left payload survive.
        let l = keyed_table(
            "L",
            0,
            &[(Some(1), 5, 0.9), (Some(1), 1, 0.8), (Some(2), 3, 0.7)],
        );
        let r = keyed_table(
            "R",
            1,
            &[(Some(1), 4, 0.9), (Some(2), 3, 0.6), (Some(1), 9, 0.5)],
        );
        let cond = BoolExpr::col_eq_col("L.k", "R.k").and(BoolExpr::compare(
            ranksql_expr::ScalarExpr::col("L.x"),
            ranksql_expr::CompareOp::Lt,
            ranksql_expr::ScalarExpr::col("R.x"),
        ));
        let run = |hash: bool| {
            let exec = ExecutionContext::new(ctx_lr());
            let (left, right) = (rank_scan(&l, 0, &exec, "l"), rank_scan(&r, 1, &exec, "r"));
            let mut join = if hash {
                RankJoin::hrjn(left, right, Some(&cond), &exec, "HRJN").unwrap()
            } else {
                RankJoin::nrjn(left, right, Some(&cond), &exec, "NRJN").unwrap()
            };
            let all = drain_batched(&mut join, 4).unwrap();
            all.iter().map(|t| row_pair(t, &l, &r)).collect::<Vec<_>>()
        };
        // (l0,r2): 5 < 9; (l1,r0): 1 < 4; (l1,r2): 1 < 9.  (l0,r0) has
        // 5 < 4 false, (l2,r1) has 3 < 3 false.  Scores 1.4, 1.7, 1.3.
        assert_eq!(run(true), vec![(1, 0), (0, 2), (1, 2)]);
        assert_eq!(run(true), run(false));
    }

    /// `n` rows of `name(k, x, p)` from a fixed linear congruential stream:
    /// keys from a domain of `keys`, scores in steps of 0.01.
    fn generated_table(name: &str, id: u32, n: u64, keys: u64, mut seed: u64) -> Arc<Table> {
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        let rows: Vec<_> = (0..n)
            .map(|_| {
                (
                    Some((next() % keys) as i64),
                    (next() % keys) as i64,
                    (next() % 101) as f64 / 100.0,
                )
            })
            .collect();
        keyed_table(name, id, &rows)
    }

    #[test]
    fn paperq_shape_builds_exactly_the_joined_tuples_it_emits() {
        // The shape of the paper's Q under a rank-aware plan:
        // HRJN[A.k = B.k](µ(HRJN[B.x = C.x](rankscan B, rankscan C)), µ(rankscan A)).
        // The inner join queues far more matches than µ ever asks it for,
        // the outer one more than the top 10: neither may build the rest.
        let a = generated_table("A", 0, 400, 20, 1);
        let b = generated_table("B", 1, 400, 20, 2);
        let c = generated_table("C", 2, 400, 20, 3);
        let ctx = RankingContext::new(
            vec![
                RankPredicate::attribute("a_p", "A.p"),
                RankPredicate::attribute("a_x", "A.x"),
                RankPredicate::attribute("b_p", "B.p"),
                RankPredicate::attribute("b_k", "B.k"),
                RankPredicate::attribute("c_p", "C.p"),
            ],
            ScoringFunction::Sum,
        );
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let inner = RankJoin::hrjn(
            rank_scan(&b, 2, &exec, "scan_b"),
            rank_scan(&c, 4, &exec, "scan_c"),
            Some(&BoolExpr::col_eq_col("B.x", "C.x")),
            &exec,
            "inner",
        )
        .unwrap();
        let inner_built = Arc::clone(&inner.built);
        let mu_b = crate::rank::RankOp::new(Box::new(inner), 3, &exec, "mu_b").unwrap();
        let mu_a =
            crate::rank::RankOp::new(rank_scan(&a, 0, &exec, "scan_a"), 1, &exec, "mu_a").unwrap();
        let mut outer = RankJoin::hrjn(
            Box::new(mu_b),
            Box::new(mu_a),
            Some(&BoolExpr::col_eq_col("A.k", "B.k")),
            &exec,
            "outer",
        )
        .unwrap();
        let top = take(&mut outer, 10).unwrap();
        assert_eq!(top.len(), 10);
        assert_eq!(check_rank_order(&top, &ctx), None);

        let metrics = exec.metrics().snapshot();
        let by_name = |n: &str| metrics.iter().find(|m| m.name() == n).unwrap();
        let (inner_m, outer_m) = (by_name("inner"), by_name("outer"));
        assert_eq!(outer.built.load(Relaxed), 10);
        assert_eq!(outer_m.tuples_out(), 10);
        assert_eq!(inner_built.load(Relaxed), inner_m.tuples_out());
        assert!(inner_m.tuples_out() > 10, "{}", inner_m.tuples_out());
        // What was drawn and queued but never built is what laziness saved;
        // the peak counts it (drawn tuples of both sides + queued matches).
        assert!(
            inner_m.buffered_peak() > inner_m.tuples_in() + inner_built.load(Relaxed),
            "peak {} vs {} drawn, {} built",
            inner_m.buffered_peak(),
            inner_m.tuples_in(),
            inner_built.load(Relaxed)
        );
        assert!(outer_m.buffered_peak() > outer_m.tuples_in());
    }

    #[test]
    fn resuming_after_take_draws_no_input_twice() {
        let l = generated_table("L", 0, 60, 5, 7);
        let r = generated_table("R", 1, 60, 5, 8);
        let cond = BoolExpr::col_eq_col("L.k", "R.k");
        let run = |first: usize| {
            let exec = ExecutionContext::new(ctx_lr());
            let mut join = RankJoin::hrjn(
                rank_scan(&l, 0, &exec, "scan_l"),
                rank_scan(&r, 1, &exec, "scan_r"),
                Some(&cond),
                &exec,
                "HRJN",
            )
            .unwrap();
            let draws = |exec: &ExecutionContext| -> u64 {
                let metrics = exec.metrics().snapshot();
                metrics
                    .iter()
                    .filter(|m| m.name().starts_with("scan"))
                    .map(|m| m.tuples_out())
                    .sum()
            };
            let mut out = take(&mut join, first).unwrap();
            let draws_at_pause = draws(&exec);
            // The top-k extension of `Cursor::fetch_more`: nothing queued
            // was discarded, so the join just carries on.
            assert!(join.can_extend_limit() && join.extend_limit(1_000));
            out.extend(drain_batched(&mut join, 4).unwrap());
            let ids: Vec<_> = out.iter().map(|t| t.tuple.id().clone()).collect();
            (ids, draws_at_pause, draws(&exec))
        };
        let (fresh, _, fresh_draws) = run(0);
        assert!(fresh.len() > 100, "{}", fresh.len());
        assert_eq!(fresh_draws, 120);
        for first in [1, 10, 100] {
            let (resumed, at_pause, total) = run(first);
            assert_eq!(resumed, fresh, "first = {first}");
            assert!(at_pause < total, "first = {first}: {at_pause} of {total}");
            assert_eq!(total, fresh_draws, "first = {first}");
        }
    }

    #[test]
    fn cross_rank_join_via_nrjn() {
        let r = table_r();
        let s = table_s();
        let ctx = ctx_f3();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let mut join = RankJoin::nrjn(
            rank_scan(&r, 0, &exec, "l"),
            rank_scan(&s, 2, &exec, "r"),
            None,
            &exec,
            "NRJN",
        )
        .unwrap();
        let all = drain_batched(&mut join, 4).unwrap();
        assert_eq!(all.len(), 18);
        assert_eq!(check_rank_order(&all, &ctx), None);
    }

    #[test]
    fn empty_side_produces_empty_join() {
        let r = table_r();
        let ctx = ctx_f3();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let empty_schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("p3", DataType::Float64),
        ])
        .qualify_all("S");
        let empty = Arc::new(TableBuilder::new("S", empty_schema).build(9).unwrap());
        let idx =
            Arc::new(ScoreIndex::build(ctx.predicate(2), empty.schema(), &empty.scan()).unwrap());
        let right = Box::new(RankScan::new(Arc::clone(&empty), idx, 2, &exec, "r").unwrap());
        let cond = BoolExpr::col_eq_col("R.a", "S.a");
        let mut join = RankJoin::hrjn(
            rank_scan(&r, 0, &exec, "l"),
            right,
            Some(&cond),
            &exec,
            "HRJN",
        )
        .unwrap();
        assert!(drain_batched(&mut join, 4).unwrap().is_empty());
    }

    #[test]
    fn a_failed_draw_leaves_no_tuple_behind() {
        // After L1, R1, L2 the queue holds L2⋈R1 (1.9) under a threshold of
        // 2.0.  The budget of 3 fails the draw of R2 (0.9) after the scan
        // appended it to `seen`; were it to stay there, it would lower the
        // threshold to 1.9 and the next pull would emit instead of failing.
        let table = |name: &str, id: u32, rows: [(i64, f64); 3]| {
            let schema = Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("p", DataType::Float64),
            ])
            .qualify_all(name);
            let rows = rows.map(|(k, p)| vec![Value::from(k), Value::from(p)]);
            Arc::new(
                TableBuilder::new(name, schema)
                    .rows(rows)
                    .build(id)
                    .unwrap(),
            )
        };
        let l = table("L", 0, [(1, 1.0), (2, 0.9), (3, 0.1)]);
        let r = table("R", 1, [(2, 1.0), (1, 0.9), (3, 0.1)]);
        let ctx = RankingContext::new(
            vec![
                RankPredicate::attribute("pl", "L.p"),
                RankPredicate::attribute("pr", "R.p"),
            ],
            ScoringFunction::Sum,
        );
        let exec = ExecutionContext::with_budget(ctx, 3);
        let cond = BoolExpr::col_eq_col("L.k", "R.k");
        let mut join = RankJoin::hrjn(
            rank_scan(&l, 0, &exec, "l"),
            rank_scan(&r, 1, &exec, "r"),
            Some(&cond),
            &exec,
            "HRJN",
        )
        .unwrap();
        for _ in 0..2 {
            let err = take(&mut join, 1).unwrap_err();
            assert!(err.to_string().contains("tuple budget exceeded"), "{err}");
        }
    }
}
