//! Traditional (ranking-blind) join operators: the keyed join, over a
//! hash-grouped build side, and the sort-merge join.
//!
//! These operators implement the membership semantics of ⋈ and *merge* the
//! score states of their inputs (so predicates evaluated below the join stay
//! evaluated above it), but they make no promise about output order — they
//! are the joins a conventional engine would use in the materialise-then-sort
//! plans the paper compares against (Plan 1 and Plan 4 of Figure 11).
//!
//! A nested-loops join is the [`HashJoin`] on the empty key: every build
//! row is in one group, so each probe row walks them all, in partition
//! order, then input order, and the whole condition is the residual.  `=`
//! is never true of a NULL, so in every join a row whose key holds a NULL
//! joins nothing.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use ranksql_common::{JoinedRow, RankSqlError, Result, Schema, Tuple, Value};
use ranksql_expr::{BoolExpr, BoundBoolExpr, CompareOp, RankedTuple, ScalarExpr, ScoreState};

use crate::build_table::{JoinTable, Link, Partition, Run};
use crate::context::{ExecutionContext, TopKScoring};
use crate::exchange::drain_pipelines;
use crate::metrics::OperatorMetrics;
use crate::operator::{drain_batched, Batch, BoxedOperator, PhysicalOperator};

/// Equi-join keys extracted from a join condition, plus whatever part of the
/// condition is not a simple column equality (the *residual*, evaluated on
/// the joined tuple).
#[derive(Debug, Clone)]
pub struct JoinKeys {
    /// Pairs of (left column index, right column index).
    pub keys: Vec<(usize, usize)>,
    /// Remaining condition to evaluate on the concatenated tuple.
    pub residual: Option<BoolExpr>,
}

impl JoinKeys {
    /// The empty key, a nested-loops join's: no pairs, and all of
    /// `condition` residual.
    pub(crate) fn empty(condition: Option<&BoolExpr>) -> Self {
        let residual = condition.cloned();
        JoinKeys {
            keys: vec![],
            residual,
        }
    }
}

/// Splits a join condition into equi-join column pairs and a residual.
///
/// A conjunct of the form `L.col = R.col` (either orientation) where one side
/// resolves against the left schema and the other against the right schema
/// becomes a key pair; every other conjunct goes to the residual.
pub fn extract_join_keys(condition: Option<&BoolExpr>, left: &Schema, right: &Schema) -> JoinKeys {
    let Some(condition) = condition else {
        return JoinKeys::empty(None);
    };
    let mut keys = Vec::new();
    let mut residual = Vec::new();
    for conjunct in condition.split_conjuncts() {
        if let BoolExpr::Compare {
            op: CompareOp::Eq,
            left: ScalarExpr::Column(a),
            right: ScalarExpr::Column(b),
        } = &conjunct
        {
            match (a.resolve(left), b.resolve(right)) {
                (Ok(li), Ok(ri)) => {
                    keys.push((li, ri));
                    continue;
                }
                _ => {
                    if let (Ok(li), Ok(ri)) = (b.resolve(left), a.resolve(right)) {
                        keys.push((li, ri));
                        continue;
                    }
                }
            }
        }
        residual.push(conjunct);
    }
    JoinKeys {
        keys,
        residual: BoolExpr::conjoin(residual),
    }
}

/// What a join's build side drains: its input's pipelines — one per morsel
/// of a build spine, one otherwise — or, `factored`, the keyed side's then
/// the other side's.  Its metrics count the same either way.
pub(crate) struct BuildInput {
    pub(crate) pipelines: Vec<BoxedOperator>,
    pub(crate) factored: Option<Box<Factored>>,
}

/// A hash join's build side that is itself an equi hash join, with the
/// outer key on one of its inputs, lowered as those two inputs (see
/// [`crate::build_table`]): the keyed one is grouped on the outer key,
/// the other on the inner join's; the inner join is never built, and only
/// its metrics remain.
pub(crate) struct Factored {
    /// Where the other side's pipelines start.
    pub(crate) other: usize,
    /// Whether the other side is the inner join's right input.
    pub(crate) right: bool,
    /// The outer key's columns in a keyed row, and the inner join's in a
    /// keyed row and in an other row.
    pub(crate) outer_cols: Vec<usize>,
    pub(crate) keyed_cols: Vec<usize>,
    pub(crate) other_cols: Vec<usize>,
    /// The inner join's residual, bound to its output `schema`.
    pub(crate) residual: Option<BoundBoolExpr>,
    pub(crate) schema: Schema,
    pub(crate) metrics: Arc<OperatorMetrics>,
}

impl Factored {
    /// Keyed row `row`'s link into the drained other side `other`, `None`
    /// when it makes no pair; `pair` is scratch.
    fn link<'o>(
        &self,
        other: &'o JoinTable,
        row: &[Value],
        pair: &mut Vec<Value>,
    ) -> Result<Option<Link<'o>>> {
        let Some(k) = other.key(self.keyed_cols.iter().map(|&c| &row[c])) else {
            return Ok(None);
        };
        let mut pairs = results_from(other, other.runs(k), (0, 0)) as u32;
        if let Some(c) = &self.residual {
            pairs = 0;
            for (part, other) in rows_from(other, other.runs(k), (0, 0)) {
                // The inner join's row: its left input's values first.
                pair.clear();
                part.load(other, pair);
                let at = if self.right { 0 } else { pair.len() };
                pair.splice(at..at, row.iter().cloned());
                pairs += u32::from(c.eval(&pair[..])?);
            }
        }
        let top = other.key_top(k);
        Ok((pairs > 0).then_some(Link { key: k, pairs, top }))
    }
}

impl BuildInput {
    /// Drains the build side into a [`JoinTable`] across `threads` workers:
    /// with `key_cols` (a hash join's) grouped, and with `top_k` scored, as
    /// [`drain_partition`] drains one pipeline.  A factored build side
    /// drains its other side first, so each keyed row links to its pairs.
    pub(crate) fn drain(
        &mut self,
        threads: usize,
        batch_size: usize,
        key_cols: &[usize],
        top_k: Option<&TopKScoring>,
    ) -> Result<JoinTable> {
        let drain = |pipelines: &mut [BoxedOperator], key_cols: &[usize], top_k, link| {
            drain_pipelines(pipelines, threads, |input| {
                drain_partition(input, batch_size, key_cols, top_k, link)
            })
        };
        let Some(f) = self.factored.take() else {
            let parts = drain(&mut self.pipelines, key_cols, top_k, None)?;
            return Ok(JoinTable::new(self.pipelines[0].schema().clone(), parts));
        };
        let (keyed, other) = self.pipelines.split_at_mut(f.other);
        let scoring = top_k.map(TopKScoring::for_other);
        let parts = drain(other, &f.other_cols, scoring.as_ref(), None)?;
        let other = JoinTable::new(other[0].schema().clone(), parts);
        let parts = drain(keyed, &f.outer_cols, top_k, Some((&f, &other)))?;
        let mut table = JoinTable::new(f.schema.clone(), parts);
        let rows = table.parts.iter().chain(&other.parts).map(|p| p.drawn);
        f.metrics.add_in(rows.sum::<usize>() as u64);
        f.metrics.add_out(table.uncounted.load(Ordering::Relaxed));
        table.other = Some(Box::new((other, *f)));
        Ok(table)
    }
}

/// Drains one pipeline of a join's build side, batch by batch, into one
/// partition of its [`JoinTable`].  With `key_cols` (a hash join's) each
/// row also joins its key's group and, with `top_k`, its build-side
/// predicates are evaluated here, once, and its upper bound kept for the
/// best-first walk.  With `link`, a factored build side's keyed rows link
/// into its drained other side, and a row with no pair there is dropped.
pub(crate) fn drain_partition(
    input: &mut BoxedOperator,
    batch_size: usize,
    key_cols: &[usize],
    top_k: Option<&TopKScoring>,
    link: Option<(&Factored, &JoinTable)>,
) -> Result<Partition> {
    let mut part = Partition::draining(key_cols, top_k);
    let (mut buf, mut scratch) = (Batch::with_capacity(batch_size), Vec::new());
    while input.next_batch(batch_size, &mut buf)? > 0 {
        for t in buf.iter_mut() {
            let (values, id) = (t.tuple.values(), t.tuple.id().parts().iter().copied());
            let link = match link {
                Some((f, other)) => match f.link(other, values, &mut scratch)? {
                    None => continue,
                    linked => linked,
                },
                None => None,
            };
            part.drain_row(values, id, &mut t.state, link)?;
        }
        buf.clear();
    }
    Ok(part.finish())
}

/// A join's build (inner) side: its input until the join's first pull
/// drains it, what the drain built afterwards.  An exchange's morsel
/// pipelines get the built form from the start — the spine's first
/// lowering drains the build side once and every morsel shares it.
pub(crate) enum BuildSide {
    /// Not drained yet.
    Input(BuildInput),
    /// Drained, read-only.
    Built(Arc<JoinTable>),
}

impl BuildSide {
    pub(crate) fn schema(&self) -> &Schema {
        match self {
            BuildSide::Input(input) => {
                (input.factored.as_ref()).map_or(input.pipelines[0].schema(), |f| &f.schema)
            }
            BuildSide::Built(built) => &built.schema,
        }
    }

    /// The drained build side, draining the input serially (see
    /// [`BuildInput::drain`]) on the first call; results no join has
    /// counted yet are counted into `metrics`.
    fn drained(
        &mut self,
        metrics: &OperatorMetrics,
        batch_size: usize,
        key_cols: &[usize],
        top_k: Option<&TopKScoring>,
    ) -> Result<Arc<JoinTable>> {
        let built = match self {
            BuildSide::Built(built) => Arc::clone(built),
            BuildSide::Input(input) => {
                let built = Arc::new(input.drain(1, batch_size, key_cols, top_k)?);
                *self = BuildSide::Built(Arc::clone(&built));
                built
            }
        };
        metrics.add_in(built.uncounted.swap(0, Ordering::Relaxed));
        Ok(built)
    }

    fn can_extend_limit(&self) -> bool {
        match self {
            BuildSide::Input(input) => input.pipelines.iter().all(|p| p.can_extend_limit()),
            BuildSide::Built(_) => true,
        }
    }

    /// A built side is complete — nothing was discarded, so no cap exists.
    fn extend_limit(&mut self, extra: usize) -> bool {
        match self {
            BuildSide::Input(input) => {
                (input.pipelines.iter_mut()).fold(true, |ok, p| p.extend_limit(extra) & ok)
            }
            BuildSide::Built(_) => true,
        }
    }
}

/// Compares `a`'s key columns `a_keys` with `b`'s `b_keys`, in place.
fn cmp_keys(
    a: &RankedTuple,
    a_keys: &[usize],
    b: &RankedTuple,
    b_keys: &[usize],
) -> std::cmp::Ordering {
    a_keys
        .iter()
        .zip(b_keys)
        .map(|(&i, &j)| a.tuple.value(i).cmp(b.tuple.value(j)))
        .find(|o| o.is_ne())
        .unwrap_or(std::cmp::Ordering::Equal)
}

/// The keyed join: groups the right input's rows by their join key and
/// probes the groups with left tuples.  With no key pairs it is the
/// nested-loops join: one group, the whole condition as the residual.
///
/// `tuples_out` counts the join results *decided* — matched on the keys and
/// passed the residuals.  Beneath a `SortLimit` (see
/// `HashJoin::with_scoring`) fewer are constructed and emitted —
/// `tuples_built` counts those — and the join scores each side once: a
/// predicate over the build side per build row as it is hashed, one over
/// the probe side per probe row that finds a group; only a predicate over
/// both is evaluated per result, on the results the walk reaches.  A probe
/// walks its key's build rows by descending upper bound — on a factored
/// build side, each keyed row's linked rows too — and stops where a bound
/// is strictly below the sort's threshold: the row's own, with the probe
/// side's predicates at their caps, or the upper state of the rows left,
/// completed with the probe row's own scores.  No result past it can beat
/// the heap; the results it skips still count as decided.
pub struct HashJoin {
    left: BoxedOperator,
    right: BuildSide,
    left_key_cols: Vec<usize>,
    right_key_cols: Vec<usize>,
    residual: Option<BoundBoolExpr>,
    schema: Schema,
    /// Where the walk of the probe tuple at the front of `left_buf`
    /// resumes after a call that filled its batch mid-walk: `(run, offset
    /// into its group)` of the key's runs and, on a factored build side, of
    /// the current keyed row's linked runs.
    at: [(usize, usize); 2],
    metrics: Arc<OperatorMetrics>,
    batch_size: usize,
    /// Probe-side tuples pulled in batches; the front one is being matched.
    left_buf: VecDeque<RankedTuple>,
    left_scratch: Batch,
    left_done: bool,
    /// The build row being tested, materialised.
    right_row: Vec<Value>,
    top_k: Option<TopKScoring>,
}

impl HashJoin {
    /// Creates a keyed join on `keys`: its key pairs and residual (see
    /// [`extract_join_keys`]).  A built `right` must have been grouped on
    /// the same key pairs' right columns.
    pub(crate) fn new(
        left: BoxedOperator,
        right: BuildSide,
        keys: JoinKeys,
        exec: &ExecutionContext,
        label: impl Into<String>,
    ) -> Result<Self> {
        let metrics = exec.register(label);
        let schema = left.schema().join(right.schema());
        let residual = keys.residual.map(|c| c.bind(&schema)).transpose()?;
        Ok(HashJoin {
            left,
            right,
            left_key_cols: keys.keys.iter().map(|&(l, _)| l).collect(),
            right_key_cols: keys.keys.iter().map(|&(_, r)| r).collect(),
            residual,
            schema,
            at: [(0, 0); 2],
            metrics,
            batch_size: exec.batch_size(),
            left_buf: VecDeque::new(),
            left_scratch: Batch::new(),
            left_done: false,
            right_row: Vec::new(),
            top_k: None,
        })
    }

    /// Makes this join score its results for the `SortLimit` directly above
    /// it: `scoring` is [`TopKScoring::for_join`] over what that sort pushed
    /// for it ([`ExecutionContext::pop_prune_threshold`], taken before this
    /// join's inputs were lowered) — the sort's predicates and the cell
    /// where its bounded heap publishes its worst kept entry.  A build side
    /// drained before the join was made must have been scored by the same
    /// value.  Emitted tuples carry their evaluated state, so the sort
    /// evaluates nothing again.  `None` (no such sort) leaves the join as it
    /// is.
    pub(crate) fn with_scoring(mut self, scoring: Option<TopKScoring>) -> Self {
        self.top_k = scoring;
        self
    }

    /// Decides join results until `max` are decided (and one is built),
    /// handing each that passes the residuals to `emit`, which says
    /// whether it built the result; returns how many it built — 0 once
    /// exhausted.  A call ends after deciding `max` results, so the
    /// threshold it prunes against is never more than one batch stale.
    fn walk(
        &mut self,
        max: usize,
        mut emit: impl FnMut(&mut Option<TopKScoring>, Pair<'_>) -> Result<bool>,
    ) -> Result<usize> {
        let (batch_size, key_cols) = (self.batch_size, &self.right_key_cols);
        let top_k = self.top_k.as_ref();
        let build = self
            .right
            .drained(&self.metrics, batch_size, key_cols, top_k)?;
        let (mut decided, mut built) = (0usize, 0usize);
        while decided < max || built == 0 {
            let Some(left) = self.left_buf.front_mut() else {
                if self.refill_left(max)? {
                    continue;
                }
                break;
            };
            // No group holds a NULL key, so a NULL probe key finds none.
            let key = self.left_key_cols.iter().map(|&c| left.tuple.value(c));
            let Some(k) = build.key(key) else {
                self.left_buf.pop_front();
                continue;
            };
            if let Some(top_k) = &mut self.top_k {
                top_k.score_probe_row(left)?;
            }
            let (runs, at) = (build.runs(k), &mut self.at);
            let mut probe = Probe {
                build: &build,
                left: &*left,
                residual: self.residual.as_ref(),
                right: &mut self.right_row,
            };
            'runs: while let Some(run) = runs.get(at[0].0) {
                let part = &build.parts[run.part as usize];
                let Some(&row) = part.group(run.group).get(at[0].1) else {
                    at[0] = (at[0].0 + 1, 0);
                    continue;
                };
                if decided >= max && built > 0 {
                    break;
                }
                let (row, state) = (row as usize, &probe.left.state);
                if at[1] == (0, 0) {
                    if let Some(end) = pruned(self.top_k.as_ref(), &build, k, at[0], state) {
                        decided += probe.skipped(&build, &runs[..end], at[0], None)?;
                        at[0] = (end, 0);
                        continue;
                    }
                }
                let Some((other, _)) = build.other.as_deref() else {
                    at[0].1 += 1;
                    let mut pair = probe.pair(part, row, None);
                    if pair.passes()? {
                        decided += 1;
                        built += usize::from(emit(&mut self.top_k, pair)?);
                    }
                    continue;
                };
                // A factored build side: the keyed row's linked rows,
                // walked as the key's rows are.
                let (link, state) = (part.links[row], part.merged_state(state, row));
                let linked = other.runs(link);
                while let Some(run) = linked.get(at[1].0) {
                    let linked_part = &other.parts[run.part as usize];
                    let Some(&linked_row) = linked_part.group(run.group).get(at[1].1) else {
                        at[1] = (at[1].0 + 1, 0);
                        continue;
                    };
                    if decided >= max && built > 0 {
                        break 'runs;
                    }
                    if let Some(end) = pruned(self.top_k.as_ref(), other, link, at[1], &state) {
                        let keyed = Some((part, row));
                        decided += probe.skipped(other, &linked[..end], at[1], keyed)?;
                        at[1] = (end, 0);
                        continue;
                    }
                    at[1].1 += 1;
                    let linked_row = Some((linked_part, linked_row as usize));
                    let mut pair = probe.pair(part, row, linked_row);
                    if pair.passes()? {
                        decided += 1;
                        built += usize::from(emit(&mut self.top_k, pair)?);
                    }
                }
                (at[0].1, at[1]) = (at[0].1 + 1, (0, 0));
            }
            if at[0].0 == runs.len() {
                self.left_buf.pop_front();
                self.at = [(0, 0); 2];
            }
        }
        if let Some(top_k) = &mut self.top_k {
            top_k.flush();
        }
        self.metrics.add_out(decided as u64);
        if built > 0 {
            self.metrics.add_built(built as u64);
            self.metrics.add_batch();
        }
        Ok(built)
    }

    /// Refills the (empty) probe buffer with a batch of up to `refill`
    /// tuples — one on the empty key, where each meets every build row, so
    /// a nested-loops join under a limit draws no probe row it never
    /// reaches; `false` once the probe side is exhausted.
    fn refill_left(&mut self, refill: usize) -> Result<bool> {
        if !self.left_done {
            self.left_scratch.clear();
            let refill = if self.left_key_cols.is_empty() {
                1
            } else {
                refill
            };
            let n = self
                .left
                .next_batch(refill.max(1), &mut self.left_scratch)?;
            if n == 0 {
                self.left_done = true;
            } else {
                self.metrics.add_in(n as u64);
                self.left_buf.extend(self.left_scratch.drain(..));
            }
        }
        Ok(!self.left_buf.is_empty())
    }
}

impl PhysicalOperator for HashJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> Result<usize> {
        self.walk(max, |top_k, mut p| {
            let Some(state) = p.kept(top_k.as_mut())? else {
                return Ok(false);
            };
            out.push(RankedTuple::new(p.tuple(), state));
            Ok(true)
        })
    }

    fn is_ranked(&self) -> bool {
        false
    }

    fn can_extend_limit(&self) -> bool {
        self.left.can_extend_limit() && self.right.can_extend_limit()
    }

    fn extend_limit(&mut self, extra: usize) -> bool {
        // The build side is (or will be) fully hashed — no discard.
        self.left.extend_limit(extra) & self.right.extend_limit(extra)
    }
}

/// Where the walk of key `k`'s runs in `table` resumes when `top_k` prunes
/// the rows from `(run, offset)` on for a probe with score state `probe`:
/// past the run, or — at a run's head — past every later run too.  `None`
/// when nothing is pruned.  A row is pruned by its own bound (runs go best
/// head first, rows best first); at the key's first row, all are pruned by
/// the key's upper state completed with `probe`'s own scores.
fn pruned(
    top_k: Option<&TopKScoring>,
    table: &JoinTable,
    k: u32,
    (r, pos): (usize, usize),
    probe: &ScoreState,
) -> Option<usize> {
    let (top_k, runs) = (top_k?, table.runs(k));
    let part = &table.parts[runs[r].part as usize];
    let bound = part.bounds[part.group(runs[r].group)[pos] as usize];
    let top = (r, pos) == (0, 0) && {
        let bound = top_k.bound_under(probe, part.top_set, table.key_top(k));
        bound.is_some_and(|b| top_k.prunes(b))
    };
    if top || (pos == 0 && top_k.prunes(bound)) {
        return Some(runs.len());
    }
    top_k.prunes(bound).then_some(r + 1)
}

/// `table`'s rows from `runs[r]`'s `pos`-th to the end of `runs`.
fn rows_from<'t: 'r, 'r>(
    table: &'t JoinTable,
    runs: &'r [Run],
    (r, pos): (usize, usize),
) -> impl Iterator<Item = (&'t Partition, usize)> + 'r {
    runs[r..].iter().enumerate().flat_map(move |(i, run)| {
        let part = &table.parts[run.part as usize];
        let rows = &part.group(run.group)[if i == 0 { pos } else { 0 }..];
        rows.iter().map(move |&row| (part, row as usize))
    })
}

/// The results `table`'s rows from `runs[r]`'s `pos`-th on make.
fn results_from(table: &JoinTable, runs: &[Run], (r, pos): (usize, usize)) -> usize {
    let run = runs[r];
    let part = &table.parts[run.part as usize];
    let later = if r + 1 < runs.len() { run.after } else { 0 };
    part.results(&part.group(run.group)[pos..]) + later as usize
}

/// One probe row's walk of a hash join's build side.
struct Probe<'a> {
    build: &'a JoinTable,
    left: &'a RankedTuple,
    /// The join's residual.
    residual: Option<&'a BoundBoolExpr>,
    right: &'a mut Vec<Value>,
}

impl<'a> Probe<'a> {
    /// The result with build row `row` of `part` and, on a factored build
    /// side, `linked`, a row linked to it.
    fn pair(
        &mut self,
        part: &'a Partition,
        row: usize,
        linked: Option<(&'a Partition, usize)>,
    ) -> Pair<'_> {
        Pair {
            left: self.left,
            build: (part, row),
            linked,
            factored: self.build.other.as_deref().map(|(_, f)| f),
            residual: self.residual,
            right: self.right,
            loaded: false,
        }
    }

    /// The results decided among the rows a walk skips: `table`'s from
    /// `at` to the end of `runs` — `keyed`'s linked rows, or the key's rows
    /// with, on a factored build side, theirs.
    fn skipped(
        &mut self,
        table: &'a JoinTable,
        runs: &[Run],
        at: (usize, usize),
        keyed: Option<(&'a Partition, usize)>,
    ) -> Result<usize> {
        let other = self.build.other.as_deref();
        // A keyed row's pairs count what passes the inner join's residual.
        let inner = other.and_then(|(_, f)| f.residual.as_ref());
        let inner = inner.filter(|_| keyed.is_some());
        if self.residual.is_none() && inner.is_none() {
            return Ok(results_from(table, runs, at));
        }
        let mut passed = 0;
        for (part, row) in rows_from(table, runs, at) {
            passed += match (keyed, other) {
                (None, Some((other, _))) => self.skipped(
                    other,
                    other.runs(part.links[row]),
                    (0, 0),
                    Some((part, row)),
                )?,
                (Some((k, r)), _) => usize::from(self.pair(k, r, Some((part, row))).passes()?),
                (None, None) => usize::from(self.pair(part, row, None).passes()?),
            };
        }
        Ok(passed)
    }
}

/// A result a hash join's walk reached: its probe row `left`, build row
/// `build` and, on a factored build side, that row's linked row; the build
/// side's values are loaded into `right` on first use.
struct Pair<'a> {
    left: &'a RankedTuple,
    build: (&'a Partition, usize),
    linked: Option<(&'a Partition, usize)>,
    factored: Option<&'a Factored>,
    residual: Option<&'a BoundBoolExpr>,
    right: &'a mut Vec<Value>,
    loaded: bool,
}

impl Pair<'_> {
    /// The build side's values, in place: a factored build side's inner
    /// join row.
    fn build_values(&mut self) -> &[Value] {
        if !self.loaded {
            let (first, second) = match self.linked {
                Some(linked) if !self.factored.is_some_and(|f| f.right) => {
                    (linked, Some(self.build))
                }
                linked => (self.build, linked),
            };
            self.right.clear();
            for (part, row) in std::iter::once(first).chain(second) {
                part.load(row, self.right);
            }
            self.loaded = true;
        }
        self.right
    }

    /// The result's values, in place.
    fn values(&mut self) -> JoinedRow<'_> {
        let left = self.left.tuple.values();
        JoinedRow {
            left,
            right: self.build_values(),
        }
    }

    /// Whether the result passes the inner join's residual (a factored
    /// build side's) and the join's own.
    fn passes(&mut self) -> Result<bool> {
        let inner = self.factored.and_then(|f| f.residual.as_ref());
        if let Some(c) = inner.filter(|_| self.linked.is_some()) {
            if !c.eval(self.build_values())? {
                return Ok(false);
            }
        }
        match self.residual {
            Some(c) => c.eval(&self.values()),
            None => Ok(true),
        }
    }

    /// The result's score state: its rows' merged and, with `top_k`,
    /// completed — `None` when the top-k's heap would drop the result.
    fn kept(&mut self, top_k: Option<&mut TopKScoring>) -> Result<Option<ScoreState>> {
        let (part, row) = self.build;
        let mut state = part.merged_state(&self.left.state, row);
        if let Some((part, row)) = self.linked {
            state = part.merged_state(&state, row);
        }
        if let Some(top_k) = top_k {
            // The sort's own predicates read several inputs, if any does.
            let pair = match top_k.reads_rows() {
                true => self.values(),
                false => JoinedRow::default(),
            };
            if !top_k.keeps(&pair, &mut state, None)? {
                return Ok(None);
            }
        }
        Ok(Some(state))
    }

    /// The result, built (see [`Tuple::join`]).
    fn tuple(&mut self) -> Tuple {
        let (part, row) = self.build;
        let Some((linked, linked_row)) = self.linked else {
            return part.join_tuple(&self.left.tuple, row);
        };
        let mut ids = [part.id(row), linked.id(linked_row)].concat();
        ids.sort_unstable();
        let id = self.left.tuple.id().combine_parts(&ids);
        let values = self.values();
        Tuple::new(id, values.left.iter().chain(values.right).cloned())
    }
}

/// Sort-merge join: materialises and sorts both inputs on the join keys, then
/// merges equal-key groups.  Requires at least one equi-join key.
pub struct SortMergeJoin {
    output: std::vec::IntoIter<RankedTuple>,
    schema: Schema,
    metrics: Arc<OperatorMetrics>,
    /// The inputs until the first pull drains them.
    left: Option<BoxedOperator>,
    right: Option<BoxedOperator>,
    keys: Vec<(usize, usize)>,
    residual: Option<BoundBoolExpr>,
    batch_size: usize,
}

impl SortMergeJoin {
    /// Creates a sort-merge join from an explicit condition.
    pub fn new(
        left: BoxedOperator,
        right: BoxedOperator,
        condition: Option<&BoolExpr>,
        exec: &ExecutionContext,
        label: impl Into<String>,
    ) -> Result<Self> {
        let metrics = exec.register(label);
        let keys = extract_join_keys(condition, left.schema(), right.schema());
        if keys.keys.is_empty() {
            return Err(RankSqlError::Execution(
                "sort-merge join requires at least one equi-join condition".into(),
            ));
        }
        let schema = left.schema().join(right.schema());
        let residual = keys.residual.map(|c| c.bind(&schema)).transpose()?;
        Ok(SortMergeJoin {
            output: Vec::new().into_iter(),
            schema,
            metrics,
            left: Some(left),
            right: Some(right),
            keys: keys.keys,
            residual,
            batch_size: exec.batch_size(),
        })
    }

    fn prepare(&mut self) -> Result<()> {
        let (Some(mut left), Some(mut right)) = (self.left.take(), self.right.take()) else {
            return Ok(());
        };
        let left_keys: Vec<usize> = self.keys.iter().map(|&(l, _)| l).collect();
        let right_keys: Vec<usize> = self.keys.iter().map(|&(_, r)| r).collect();
        let mut l_rows = drain_batched(left.as_mut(), self.batch_size)?;
        let mut r_rows = drain_batched(right.as_mut(), self.batch_size)?;
        self.metrics.add_in((l_rows.len() + r_rows.len()) as u64);
        // A row whose key holds a NULL joins nothing.
        let keyed =
            |t: &RankedTuple, keys: &[usize]| keys.iter().all(|&c| !t.tuple.value(c).is_null());
        l_rows.retain(|t| keyed(t, &left_keys));
        r_rows.retain(|t| keyed(t, &right_keys));
        // Stable: rows with equal keys keep their input order.
        l_rows.sort_by(|a, b| cmp_keys(a, &left_keys, b, &left_keys));
        r_rows.sort_by(|a, b| cmp_keys(a, &right_keys, b, &right_keys));
        // Where the run of rows sharing `rows[at]`'s key ends.
        let run_end = |rows: &[RankedTuple], at: usize, keys: &[usize]| {
            at + rows[at..].partition_point(|x| cmp_keys(x, keys, &rows[at], keys).is_eq())
        };

        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < l_rows.len() && j < r_rows.len() {
            match cmp_keys(&l_rows[i], &left_keys, &r_rows[j], &right_keys) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let i_end = run_end(&l_rows, i, &left_keys);
                    let j_end = run_end(&r_rows, j, &right_keys);
                    for l in &l_rows[i..i_end] {
                        for r in &r_rows[j..j_end] {
                            if let Some(c) = &self.residual {
                                let pair = JoinedRow {
                                    left: l.tuple.values(),
                                    right: r.tuple.values(),
                                };
                                if !c.eval(&pair)? {
                                    continue;
                                }
                            }
                            out.push(l.join(r));
                        }
                    }
                    i = i_end;
                    j = j_end;
                }
            }
        }
        self.output = out.into_iter();
        Ok(())
    }
}

impl PhysicalOperator for SortMergeJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> Result<usize> {
        self.prepare()?;
        let before = out.len();
        out.extend(self.output.by_ref().take(max));
        let n = out.len() - before;
        if n > 0 {
            self.metrics.add_out(n as u64);
            self.metrics.add_batch();
        }
        Ok(n)
    }

    fn is_ranked(&self) -> bool {
        false
    }

    fn can_extend_limit(&self) -> bool {
        self.left.as_ref().is_none_or(|l| l.can_extend_limit())
            && self.right.as_ref().is_none_or(|r| r.can_extend_limit())
    }

    fn extend_limit(&mut self, extra: usize) -> bool {
        // Both sides are fully materialised into the sorted output buffer —
        // nothing was discarded, so no cap exists at this node.
        self.left.as_mut().is_none_or(|l| l.extend_limit(extra))
            & self.right.as_mut().is_none_or(|r| r.extend_limit(extra))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column_scan::tests::scan_table;
    use crate::context::TopKThreshold;
    use crate::operator::drain_batched;
    use ranksql_algebra::{JoinAlgorithm, LogicalPlan, PhysicalPlan};
    use ranksql_common::{BitSet64, DataType, Field};
    use ranksql_expr::RankingContext;
    use ranksql_storage::{Catalog, Table, TableBuilder};

    fn table_r() -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("x", DataType::Int64),
        ])
        .qualify_all("R");
        TableBuilder::new("R", schema)
            .rows([
                vec![Value::from(1), Value::from(10)],
                vec![Value::from(2), Value::from(20)],
                vec![Value::from(3), Value::from(30)],
                vec![Value::from(1), Value::from(40)],
            ])
            .build(0)
            .unwrap()
    }

    fn table_s() -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("y", DataType::Int64),
        ])
        .qualify_all("S");
        TableBuilder::new("S", schema)
            .rows([
                vec![Value::from(1), Value::from(100)],
                vec![Value::from(3), Value::from(300)],
                vec![Value::from(3), Value::from(301)],
                vec![Value::from(9), Value::from(900)],
            ])
            .build(1)
            .unwrap()
    }

    fn exec() -> ExecutionContext {
        ExecutionContext::new(RankingContext::unranked())
    }

    fn scan(t: &Table, exec: &ExecutionContext) -> BoxedOperator {
        Box::new(scan_table(t, exec, "scan"))
    }

    /// `t` as a join's undrained build side.
    fn side(t: &Table, exec: &ExecutionContext) -> BuildSide {
        BuildSide::Input(BuildInput {
            pipelines: vec![scan(t, exec)],
            factored: None,
        })
    }

    /// The keys and residual of `R ⋈ S` on `cond`.
    fn keys(cond: &BoolExpr) -> JoinKeys {
        extract_join_keys(Some(cond), table_r().schema(), table_s().schema())
    }

    fn join_result_pairs(out: &[RankedTuple]) -> Vec<(i64, i64)> {
        let mut pairs: Vec<(i64, i64)> = out
            .iter()
            .map(|t| {
                (
                    t.tuple.value(0).as_i64().unwrap(),
                    t.tuple.value(3).as_i64().unwrap(),
                )
            })
            .collect();
        pairs.sort();
        pairs
    }

    /// Expected R ⋈ S on a: (1,100) x2 [R rows 1 and 4], (3,300), (3,301).
    fn expected_pairs() -> Vec<(i64, i64)> {
        vec![(1, 100), (1, 100), (3, 300), (3, 301)]
    }

    #[test]
    fn extract_keys_and_residual() {
        let r = table_r();
        let s = table_s();
        let cond = BoolExpr::col_eq_col("R.a", "S.a").and(BoolExpr::compare(
            ScalarExpr::col("R.x").add(ScalarExpr::col("S.y")),
            CompareOp::Lt,
            ScalarExpr::lit(1000),
        ));
        let keys = extract_join_keys(Some(&cond), r.schema(), s.schema());
        assert_eq!(keys.keys, vec![(0, 0)]);
        assert!(keys.residual.is_some());
        // Reversed orientation also works.
        let cond2 = BoolExpr::col_eq_col("S.a", "R.a");
        let keys2 = extract_join_keys(Some(&cond2), r.schema(), s.schema());
        assert_eq!(keys2.keys, vec![(0, 0)]);
        assert!(keys2.residual.is_none());
        // Cross join: no condition.
        let keys3 = extract_join_keys(None, r.schema(), s.schema());
        assert!(keys3.keys.is_empty() && keys3.residual.is_none());
    }

    #[test]
    fn nested_loop_join_matches_expected() {
        let r = table_r();
        let s = table_s();
        let exec = exec();
        let cond = BoolExpr::col_eq_col("R.a", "S.a");
        let mut j = HashJoin::new(
            scan(&r, &exec),
            side(&s, &exec),
            JoinKeys::empty(Some(&cond)),
            &exec,
            "nlj",
        )
        .unwrap();
        let out = drain_batched(&mut j, 4).unwrap();
        assert_eq!(join_result_pairs(&out), expected_pairs());
        assert_eq!(out[0].tuple.arity(), 4);
    }

    #[test]
    fn cross_join_produces_product() {
        let r = table_r();
        let s = table_s();
        let exec = exec();
        let mut j = HashJoin::new(
            scan(&r, &exec),
            side(&s, &exec),
            JoinKeys::empty(None),
            &exec,
            "nlj",
        )
        .unwrap();
        assert_eq!(drain_batched(&mut j, 4).unwrap().len(), 16);
    }

    #[test]
    fn hash_join_matches_expected() {
        let r = table_r();
        let s = table_s();
        let exec = exec();
        let cond = BoolExpr::col_eq_col("R.a", "S.a");
        let mut j =
            HashJoin::new(scan(&r, &exec), side(&s, &exec), keys(&cond), &exec, "hj").unwrap();
        let out = drain_batched(&mut j, 4).unwrap();
        assert_eq!(join_result_pairs(&out), expected_pairs());
    }

    #[test]
    fn hash_join_requires_equi_key() {
        let r = table_r();
        let s = table_s();
        let exec = exec();
        let cond = BoolExpr::compare(
            ScalarExpr::col("R.x"),
            CompareOp::Lt,
            ScalarExpr::col("S.y"),
        );
        let plan =
            LogicalPlan::scan(&r).join(LogicalPlan::scan(&s), Some(cond), JoinAlgorithm::Hash);
        let plan = PhysicalPlan::from_logical(&plan).unwrap();
        let inputs = vec![scan(&r, &exec), scan(&s, &exec)];
        let Err(err) = crate::build::build_over_inputs(&plan, inputs, &Catalog::new(), &exec)
        else {
            panic!("a hash join without an equi-join conjunct lowered");
        };
        assert!(err.to_string().contains("equi-join"), "{err}");
    }

    #[test]
    fn sort_merge_join_matches_expected() {
        let r = table_r();
        let s = table_s();
        let exec = exec();
        let cond = BoolExpr::col_eq_col("R.a", "S.a");
        let mut j = SortMergeJoin::new(scan(&r, &exec), scan(&s, &exec), Some(&cond), &exec, "smj")
            .unwrap();
        let out = drain_batched(&mut j, 4).unwrap();
        assert_eq!(join_result_pairs(&out), expected_pairs());
    }

    #[test]
    fn residual_condition_filters_join_results() {
        let r = table_r();
        let s = table_s();
        let exec = exec();
        // R.a = S.a AND R.x + S.y < 200  → keeps only (1,100)x2 pairs
        // (10+100, 40+100); (3,300/301) pairs exceed 200.
        let cond = BoolExpr::col_eq_col("R.a", "S.a").and(BoolExpr::compare(
            ScalarExpr::col("R.x").add(ScalarExpr::col("S.y")),
            CompareOp::Lt,
            ScalarExpr::lit(200),
        ));
        for mk in ["hash", "smj", "nlj"] {
            let op: BoxedOperator = match mk {
                "hash" => Box::new(
                    HashJoin::new(scan(&r, &exec), side(&s, &exec), keys(&cond), &exec, "j")
                        .unwrap(),
                ),
                "smj" => Box::new(
                    SortMergeJoin::new(scan(&r, &exec), scan(&s, &exec), Some(&cond), &exec, "j")
                        .unwrap(),
                ),
                _ => Box::new(
                    HashJoin::new(
                        scan(&r, &exec),
                        side(&s, &exec),
                        JoinKeys::empty(Some(&cond)),
                        &exec,
                        "j",
                    )
                    .unwrap(),
                ),
            };
            let mut op = op;
            let out = drain_batched(op.as_mut(), 4).unwrap();
            assert_eq!(
                join_result_pairs(&out),
                vec![(1, 100), (1, 100)],
                "algorithm {mk}"
            );
        }
    }

    /// Under a `SortLimit`, the best-first walk returns the unpruned join's
    /// top-k and decides as many pairs, for every scoring function, with
    /// tied, NULL (probe side) and NaN (build side) scores, with and without
    /// a residual, at every batch size — and reaches few pairs: the
    /// rank-join predicate is evaluated on at most 10 % of those decided.
    /// The caps (p ≤ 0.5, so p·q ≤ 0.5) let a bound under `Max` fall below 1.
    #[test]
    fn ordered_walk_returns_the_unpruned_top_k() {
        use crate::sort_limit::SortLimitOp;
        use ranksql_expr::{RankPredicate, ScoringFunction};
        let schema = |rel: &str, score: &str| {
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("a", DataType::Int64),
                Field::new(score, DataType::Float64),
            ])
            .qualify_all(rel)
        };
        let r = TableBuilder::new("R", schema("R", "p"))
            .rows((0..400i64).map(|i| {
                let p = match i % 40 {
                    3 => Value::Null,
                    _ => Value::from((i % 6) as f64 / 10.0),
                };
                vec![Value::from(i), Value::from(i % 2), p]
            }))
            .build(0)
            .unwrap();
        let s = TableBuilder::new("S", schema("S", "q"))
            .rows((0..400i64).map(|i| {
                let q = match i % 100 {
                    7 => f64::NAN,
                    _ => ((i * 37 % 101) as f64 / 100.0).powi(32),
                };
                vec![Value::from(i), Value::from(i % 2), Value::from(q)]
            }))
            .build(1)
            .unwrap();
        let predicates = vec![
            RankPredicate::attribute("fr", "R.p"),
            RankPredicate::attribute("fs", "S.q"),
            RankPredicate::expression("frs", ScalarExpr::col("R.p").mul(ScalarExpr::col("S.q")), 0),
        ];
        let keys = BoolExpr::col_eq_col("R.a", "S.a");
        let residual = BoolExpr::compare(
            ScalarExpr::col("R.id"),
            CompareOp::Lt,
            ScalarExpr::col("S.id"),
        );
        for scoring in [
            ScoringFunction::Sum,
            ScoringFunction::weighted_sum(vec![1.0, 2.0, 0.5]),
            ScoringFunction::Product,
            ScoringFunction::Min,
            ScoringFunction::Max,
            ScoringFunction::Average,
        ] {
            for cond in [keys.clone(), keys.clone().and(residual.clone())] {
                let run = |batch: usize, pruned: bool| {
                    let ctx = RankingContext::new(predicates.clone(), scoring.clone())
                        .with_predicate_caps(vec![0.5, 1.0, 0.5]);
                    let exec = ExecutionContext::new(ctx).with_batch_size(batch);
                    let (all, cell) = (BitSet64::all(3), Arc::new(TopKThreshold::new()));
                    let (probe, build) = (scan(&r, &exec), side(&s, &exec));
                    let scoring = pruned.then(|| {
                        let pushed = (all, Arc::clone(&cell));
                        TopKScoring::for_join(
                            probe.schema(),
                            &[build.schema().clone()],
                            0,
                            pushed,
                            &exec,
                        )
                        .unwrap()
                    });
                    let keys = extract_join_keys(Some(&cond), probe.schema(), build.schema());
                    let join = HashJoin::new(probe, build, keys, &exec, "hj")
                        .unwrap()
                        .with_scoring(scoring);
                    let mut top = SortLimitOp::new(Box::new(join), all, 5, &exec, "top").unwrap();
                    if pruned {
                        top = top.with_threshold(cell);
                    }
                    let got: Vec<_> = drain_batched(&mut top, batch)
                        .unwrap()
                        .iter()
                        .map(|t| (t.tuple.id().clone(), exec.ranking().upper_bound(&t.state)))
                        .collect();
                    let metrics = exec.metrics().snapshot();
                    let join = metrics.iter().find(|m| m.name() == "hj").unwrap();
                    (got, join.tuples_out(), exec.ranking().counters().count(2))
                };
                let (want, decided, _) = run(1024, false);
                for batch in [1, 16, 1024] {
                    let (got, got_decided, pair_evals) = run(batch, true);
                    let at = format!("{scoring} {cond:?} batch={batch}");
                    assert_eq!(got, want, "{at}");
                    assert_eq!(got_decided, decided, "{at}");
                    assert!(
                        pair_evals * 10 <= decided,
                        "{at}: {pair_evals} of {decided}"
                    );
                }
            }
        }
    }

    #[test]
    fn joins_report_unranked() {
        let r = table_r();
        let s = table_s();
        let exec = exec();
        let cond = BoolExpr::col_eq_col("R.a", "S.a");
        let j = HashJoin::new(scan(&r, &exec), side(&s, &exec), keys(&cond), &exec, "hj").unwrap();
        assert!(!j.is_ranked());
    }
}
