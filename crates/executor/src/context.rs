//! The per-execution context threaded through every physical operator:
//! [`ExecutionContext`] bundles what an operator needs from its execution —
//! the query's ranking context, the shared metrics registry, the tuple
//! budget — behind one cheaply clonable handle.

use std::any::Any;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use ranksql_common::{
    default_thread_count, BitSet64, RankSqlError, Result, Row, Schema, Score, TupleId,
    DEFAULT_BATCH_SIZE, DEFAULT_MORSEL_SIZE, MAX_THREADS,
};
use ranksql_expr::{BoundRanking, RankedTuple, RankingContext, ScoreState};
use ranksql_storage::{EpochSet, Table, TableEpoch};

use crate::metrics::{MetricsRegistry, OperatorMetrics};

/// The worst entry a full top-k heap keeps, under the heap's total order:
/// higher score first, equal scores by ascending tuple id (Definition 1's
/// deterministic tie-breaker, `TopKEntry::cmp`).
///
/// `id` is the entry's base-table id `(table, row)`, or `None` when the
/// entry is not one base row (a join result): ties then never prune.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorstKept {
    /// The worst kept entry's score.
    pub score: Score,
    /// The worst kept entry's base-table id, if it has exactly one.
    pub id: Option<(u32, u64)>,
}

impl WorstKept {
    /// Whether every entry scoring at most `bound` whose id is at least
    /// `first` sorts after the worst kept entry — and so loses: `bound` is
    /// below the worst score, or equal to it with `first` past the worst
    /// id.  A row asks with its own score and id; a block of rows
    /// `(table, r)`, `r ≥ first.1`, with its zone bound.
    pub fn prunes(&self, bound: Score, first: (u32, u64)) -> bool {
        match bound.cmp(&self.score) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Equal => self.id.is_some_and(|worst| first > worst),
            std::cmp::Ordering::Greater => false,
        }
    }

    /// Whether `self` sorts strictly before `other` — a tighter bound.  An
    /// id of `None` sorts after every id.
    fn sorts_before(&self, other: &WorstKept) -> bool {
        let id = |w: &WorstKept| w.id.map_or((1, 0, 0), |(t, r)| (0, t, r));
        match self.score.cmp(&other.score) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Equal => id(self) < id(other),
            std::cmp::Ordering::Less => false,
        }
    }
}

/// The id word of a [`TopKThreshold`] whose worst kept entry has no single
/// base id (table ids are `u32`, so no real id has this table word).
const NO_ID: u64 = u64::MAX;

/// A monotonically rising bound on the k-th best entry a top-k consumer
/// will keep — the feedback channel from a bounded heap to whatever feeds
/// it.  Its value is the heap's worst kept entry ([`WorstKept`]): an entry
/// that sorts after the worst kept entry is pruned.
///
/// A `SortLimit` raises the cell to its bounded heap's worst kept
/// `(score, id)` once the heap holds `k` tuples.  One rule reads it: a
/// materialising producer under a top-k scores before it builds.  The
/// producer evaluates the sort's predicates on a row it has not yet built
/// (`TopKScoring`) and builds the row only if it does not sort after the
/// worst kept entry; the emitted tuple carries its evaluated state.  Two
/// producers follow it — a hash join directly beneath the `SortLimit`, and
/// the zone-pruning columnar scan on its π spine (scoring the row's column
/// values).  The scan also skips any block (and the epoch's tail) whose
/// score bound is below the worst score, or equal to it with a first row id
/// past the worst id.  The join scores each side once (build rows as it
/// hashes them, probe rows that find a group), evaluates rank-join
/// predicates per pair it reaches, and walks each group best bound first,
/// stopping at the first build row whose bound is *strictly* below the
/// worst score ([`TopKThreshold::prunes`]): its walk breaks bound ties in
/// input order, not id order, and its pairs carry no single base id.  A
/// tuple that sorts after the worst kept entry is discarded by the heap
/// immediately, so dropping it upstream cannot change results.
///
/// Every `SortLimit` lowering gets a cell of its own.  In an exchange with
/// a limit, morsels run in waves and the k-th best entry drained so far
/// *seeds* the cells of the morsels left: k drained entries sort before
/// it, so nothing after it can reach the merged top-k.  A cell
/// has one owner at a time — the lowering or seeding thread, then the one
/// worker draining its pipeline, which the pool's thread start orders after
/// it — so its words are plain relaxed atomics, there only so the cell is
/// `Sync`.
#[derive(Debug)]
pub struct TopKThreshold {
    /// Bit pattern of the worst kept score (`f64::NEG_INFINITY` = unset).
    score: AtomicU64,
    /// The worst kept id's table, or [`NO_ID`].
    table: AtomicU64,
    /// The worst kept id's row.
    row: AtomicU64,
}

impl Default for TopKThreshold {
    fn default() -> Self {
        TopKThreshold::new()
    }
}

impl TopKThreshold {
    /// An unset threshold (nothing can be pruned against it).
    pub fn new() -> Self {
        TopKThreshold {
            score: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            table: AtomicU64::new(NO_ID),
            row: AtomicU64::new(0),
        }
    }

    /// Raises the cell to the worst kept entry `(score, id)` if that sorts
    /// before the current one.  `NaN` is ignored outright: a NaN "worst
    /// kept score" carries no ordering information, and a NaN-scoring row
    /// must never change which blocks are pruned.  (The [`Score`] total
    /// order also sorts `NaN` lowest, so this guard is belt and braces.)
    pub fn raise(&self, score: f64, id: &TupleId) {
        if score.is_nan() {
            return;
        }
        let worst = WorstKept {
            score: Score::new(score),
            id: match id.parts() {
                [one] => Some(*one),
                _ => None,
            },
        };
        if self.get().is_some_and(|cur| !worst.sorts_before(&cur)) {
            return;
        }
        let (table, row) = worst.id.map_or((NO_ID, 0), |(t, r)| (u64::from(t), r));
        self.score
            .store(worst.score.value().to_bits(), Ordering::Relaxed);
        self.table.store(table, Ordering::Relaxed);
        self.row.store(row, Ordering::Relaxed);
    }

    /// The current worst kept entry, `None` while unset.
    pub fn get(&self) -> Option<WorstKept> {
        let score = Score::new(f64::from_bits(self.score.load(Ordering::Relaxed)));
        let table = u32::try_from(self.table.load(Ordering::Relaxed));
        let id = table.ok().map(|t| (t, self.row.load(Ordering::Relaxed)));
        (score.value() > f64::NEG_INFINITY).then_some(WorstKept { score, id })
    }

    /// Whether a row or block of rows `(table, r)`, `r ≥ first.1`, scoring
    /// at most `bound` sorts after the worst kept entry (see
    /// [`WorstKept::prunes`]); never while unset.
    pub fn prunes_from(&self, bound: Score, first: (u32, u64)) -> bool {
        self.get().is_some_and(|worst| worst.prunes(bound, first))
    }

    /// The score-only test: whether `bound` is *strictly* below the worst
    /// kept score.  Ties are never pruned by it; the hash join's best-first
    /// stop uses it.
    pub fn prunes(&self, bound: f64) -> bool {
        let t = f64::from_bits(self.score.load(Ordering::Relaxed));
        t > f64::NEG_INFINITY && Score::new(bound) < Score::new(t)
    }
}

/// What a producer directly beneath a `SortLimit` does on the sort's
/// behalf (see [`TopKThreshold`]): it completes a row's score with the
/// sort's predicates while the row is still unbuilt, and says whether the
/// heap would keep it.  A scan evaluates each predicate once per row it
/// decides.  A hash join evaluates a predicate over one of its sides once
/// per row of that side (`probe`, `build` and, on a factored build side,
/// `other`), and only a predicate over several once per result it reaches.
/// What is saved is constructing the rows the heap would drop on arrival —
/// and, in the join, the results its best-first walk never reaches.
#[derive(Debug, Clone)]
pub(crate) struct TopKScoring {
    /// The sort's predicates evaluated per row decided (a join's: per
    /// result), bound to the producer's output schema.
    ranking: BoundRanking,
    /// A hash join's predicates over its probe side alone, bound to it.
    probe: BoundRanking,
    /// A hash join's predicates over its build side — a factored one's
    /// keyed side — alone, bound to it, and their set.
    build: BoundRanking,
    pub(crate) build_set: BitSet64,
    /// A factored build side's predicates over its other side alone.
    other: BoundRanking,
    pub(crate) other_set: BitSet64,
    ctx: Arc<RankingContext>,
    cell: Arc<TopKThreshold>,
}

impl TopKScoring {
    /// Binds what a `SortLimit` pushed ([`ExecutionContext::pop_prune_threshold`])
    /// to the producer's output `schema`.
    pub(crate) fn new(
        schema: &Schema,
        (predicates, cell): PendingThreshold,
        exec: &ExecutionContext,
    ) -> Result<Self> {
        let ctx = exec.ranking_arc();
        Ok(TopKScoring {
            ranking: ctx.bind(schema, predicates.iter())?,
            probe: ctx.bind(schema, [])?,
            build: ctx.bind(schema, [])?,
            build_set: BitSet64::EMPTY,
            other: ctx.bind(schema, [])?,
            other_set: BitSet64::EMPTY,
            ctx,
            cell,
        })
    }

    /// Binds what a `SortLimit` pushed for a hash join of `probe` with a
    /// build side whose output is `build`'s schemas laid end to end (two
    /// for a factored one, whose keyed side is `build[keyed]`), classing
    /// each predicate by where its columns resolve: on the probe side
    /// alone, the keyed side alone (or nowhere), the other side alone, or
    /// on several.
    pub(crate) fn for_join(
        probe: &Schema,
        build: &[Schema],
        keyed: usize,
        (predicates, cell): PendingThreshold,
        exec: &ExecutionContext,
    ) -> Result<Self> {
        let ctx = exec.ranking_arc();
        let joined = build.iter().fold(probe.clone(), |j, s| j.join(s));
        // A column's input, as a bit: the probe side, the keyed side, the
        // other side.
        let (p, first) = (probe.len(), build[0].len());
        let input = |at: usize| match at.checked_sub(p) {
            None => 1,
            Some(b) if (b < first) == (keyed == 0) => 2,
            Some(_) => 4,
        };
        // Probe side; keyed side (or no column); other side; several.
        let mut sides = [BitSet64::EMPTY; 4];
        for i in predicates.iter() {
            let mut reads = 0;
            for c in ctx.predicate(i).source.columns() {
                reads |= input(c.resolve(&joined)?);
            }
            let side = match reads {
                1 => 0,
                0 | 2 => 1,
                4 => 2,
                _ => 3,
            };
            sides[side].insert(i);
        }
        let other = build.get(1 - keyed).unwrap_or(&build[keyed]);
        Ok(TopKScoring {
            ranking: ctx.bind(&joined, sides[3].iter())?,
            probe: ctx.bind(probe, sides[0].iter())?,
            build: ctx.bind(&build[keyed], sides[1].iter())?,
            build_set: sides[1],
            other: ctx.bind(other, sides[2].iter())?,
            other_set: sides[2],
            ctx,
            cell,
        })
    }

    /// This scoring for draining a factored build side's other side: its
    /// predicates are the build side's.
    pub(crate) fn for_other(&self) -> Self {
        TopKScoring {
            build: self.other.clone(),
            build_set: self.other_set,
            other_set: BitSet64::EMPTY,
            ..self.clone()
        }
    }

    /// Evaluates the build-side predicates a build row with values `row`
    /// and score state `state` lacks — once, as the build side is drained.
    pub(crate) fn score_build_row<R: Row + ?Sized>(
        &mut self,
        row: &R,
        state: &mut ScoreState,
    ) -> Result<()> {
        self.build.evaluate_missing(row, state)
    }

    /// The upper bound of a row with score state `state` whose predicates
    /// `set` it lacks score at most `top` — `None` when one of those is
    /// NaN, which bounds nothing.
    pub(crate) fn bound_under(
        &self,
        state: &ScoreState,
        set: BitSet64,
        top: &[f64],
    ) -> Option<Score> {
        if set.iter().any(|i| top[i].is_nan()) {
            return None;
        }
        Some(self.ctx.upper_bound(&state.merge_scores(set, top)))
    }

    /// Whether [`TopKScoring::keeps`] reads the row it is given: for a
    /// join, whether a predicate spans both sides.
    pub(crate) fn reads_rows(&self) -> bool {
        !self.ranking.is_empty()
    }

    /// Evaluates the probe-side predicates `row` lacks (none after the first
    /// call on a row).
    pub(crate) fn score_probe_row(&mut self, row: &mut RankedTuple) -> Result<()> {
        self.probe.evaluate_missing(&row.tuple, &mut row.state)
    }

    /// Whether a row whose score is at most `bound` is strictly below the
    /// worst kept score — and so is every row scoring lower.
    pub(crate) fn prunes(&self, bound: Score) -> bool {
        self.cell.prunes(bound.value())
    }

    /// Evaluates the sort's predicates `state` lacks on `row` and returns
    /// whether the completed score keeps it: a row with base id `id` is
    /// dropped when it sorts after the worst kept entry, a row without one
    /// (a join's pair) only when it scores strictly below it.
    pub(crate) fn keeps<R: Row + ?Sized>(
        &mut self,
        row: &R,
        state: &mut ScoreState,
        id: Option<(u32, u64)>,
    ) -> Result<bool> {
        self.ranking.evaluate_missing(row, state)?;
        let score = self.ctx.upper_bound(state);
        Ok(!match id {
            Some(id) => self.cell.prunes_from(score, id),
            None => self.prunes(score),
        })
    }

    /// Adds the evaluations since the last flush to the shared counters —
    /// once per `next_batch` call of the producer.
    pub(crate) fn flush(&mut self) {
        self.ranking.flush();
        self.probe.flush();
        self.build.flush();
        self.other.flush();
    }
}

/// A threshold cell on its way from the `SortLimit` that publishes to it to
/// the operator that prunes against it, with the predicates the published
/// scores have evaluated.
type PendingThreshold = (BitSet64, Arc<TopKThreshold>);

/// A shared budget of tuples an execution may materialise from its scans.
///
/// Exceeding the budget aborts the query with an execution error — a
/// guard-rail for top-k queries that accidentally degenerate into full
/// materialisation.  The default is unlimited.
#[derive(Debug)]
pub struct TupleBudget {
    limit: u64,
    used: AtomicU64,
}

impl TupleBudget {
    /// An unlimited budget.
    pub fn unlimited() -> Self {
        TupleBudget {
            limit: u64::MAX,
            used: AtomicU64::new(0),
        }
    }

    /// A budget of at most `limit` scan-produced tuples.
    pub fn limited(limit: u64) -> Self {
        TupleBudget {
            limit,
            used: AtomicU64::new(0),
        }
    }

    /// Charges `n` tuples, failing if the budget is exhausted.
    pub fn charge(&self, n: u64) -> Result<()> {
        let used = self.used.fetch_add(n, Ordering::Relaxed) + n;
        if used > self.limit {
            return Err(RankSqlError::Execution(format!(
                "tuple budget exceeded: execution touched {used} tuples (budget {})",
                self.limit
            )));
        }
        Ok(())
    }

    /// Tuples charged so far.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// The budget limit (`u64::MAX` when unlimited).
    pub fn limit(&self) -> u64 {
        self.limit
    }
}

/// What must exist once per exchange spine however many morsels lower it —
/// the spine operators' metrics handles, drained build sides, the prune
/// bitmap — in the order the spine's first lowering created them.
pub(crate) type SpineRecord = Mutex<Vec<Arc<dyn Any + Send + Sync>>>;

/// The morsel context: one lowering of an exchange spine, over one morsel
/// of its driving table.
///
/// Every morsel pipeline is `build_operator` over the spine under one of
/// these.  The first lowering records what it creates once per spine
/// ([`ExecutionContext::register`], [`ExecutionContext::spine_shared`]);
/// every later lowering is the same deterministic walk, so its i-th such
/// call replays the record's i-th entry — metrics aggregate into one
/// handle per plan node and every morsel probes the one build table.
#[derive(Debug)]
struct MorselLowering {
    range: Range<usize>,
    record: Arc<SpineRecord>,
    /// Replay cursor into `record`.
    next: AtomicUsize,
    /// The threshold cell of the morsel's top-k, which the exchange seeds.
    threshold: Arc<TopKThreshold>,
}

impl MorselLowering {
    /// The record's next entry, or — on the first lowering, whose cursor
    /// runs past the end — `make`'s result, recorded.
    fn replay_or_record<T: Send + Sync + 'static>(
        &self,
        make: impl FnOnce() -> Result<Arc<T>>,
    ) -> Result<Arc<T>> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        let recorded = self.record.lock().get(i).cloned();
        let Some(entry) = recorded else {
            let made = make()?;
            self.record
                .lock()
                .push(Arc::clone(&made) as Arc<dyn Any + Send + Sync>);
            return Ok(made);
        };
        entry.downcast().map_err(|_| {
            RankSqlError::Internal(format!(
                "a morsel lowering diverged from its spine's first lowering at entry {i}"
            ))
        })
    }
}

/// Everything a physical operator needs from its execution environment.
///
/// Cloning is cheap (a handful of `Arc`s); each query execution creates one
/// context and threads it through `build_operator` into every operator
/// constructor.
#[derive(Debug, Clone)]
pub struct ExecutionContext {
    ranking: Arc<RankingContext>,
    metrics: Arc<MetricsRegistry>,
    budget: Arc<TupleBudget>,
    batch_size: usize,
    threads: usize,
    morsel_size: usize,
    /// Set while an exchange lowers its spine over one morsel.
    morsel: Option<Arc<MorselLowering>>,
    /// Set inside an exchange — its morsel pipelines and the build sides
    /// they share — where no sort fans out again.
    in_exchange: bool,
    /// Morsel pipelines lowered by this execution's exchanges.
    morsels: Arc<AtomicU64>,
    /// Hand-off stack wiring a `SortLimit` to the operator below it that
    /// prunes on its behalf — the zone-pruning columnar scan on its σ/π
    /// spine, or the hash join directly beneath it — during plan lowering:
    /// the `SortLimit` pushes a [`TopKThreshold`] (with the predicates the
    /// consumer scores for it) before building its input, the consumer pops it.
    /// Shared across clones of one context, private to each morsel
    /// lowering; strictly nested because the consumer is reached through a
    /// linear operator chain.
    prune_cells: Arc<Mutex<Vec<PendingThreshold>>>,
    /// The MVCC snapshot of this execution: at most one pinned
    /// [`TableEpoch`] per table, taken lazily on first access and shared by
    /// every scan (and every morsel pipeline) of the plan, so all access
    /// paths of one execution read the same row-count watermark.
    epochs: Arc<EpochSet>,
    /// Zone-map prune events during this execution (block ranges skipped by
    /// filter or score pruning), aggregated across all scans and workers.
    /// Deduplicated per (scan, block): each scan spine carries a block
    /// bitmap shared by its morsel pipelines, so a block overlapping
    /// several morsels counts once — serially and in parallel, one event =
    /// one distinct block.
    blocks_pruned: Arc<AtomicU64>,
    /// Pages faulted in from disk by sequential scans over paged tables
    /// (always 0 for RAM-resident tables).  Counted at block granularity
    /// when a scan's `fetch_block` misses the buffer pool.
    pages_faulted: Arc<AtomicU64>,
    /// Pages of paged-out blocks that zone-map pruning skipped — I/O that
    /// never happened ("a pruned block is a page never read").  Deduped per
    /// (scan, block) exactly like `blocks_pruned`.
    pages_pruned: Arc<AtomicU64>,
}

impl ExecutionContext {
    /// A context for one execution of a query with the given ranking
    /// context, a fresh metrics registry, an unlimited tuple budget and the
    /// default batch size.
    pub fn new(ranking: Arc<RankingContext>) -> Self {
        ExecutionContext {
            ranking,
            metrics: MetricsRegistry::new(),
            budget: Arc::new(TupleBudget::unlimited()),
            batch_size: DEFAULT_BATCH_SIZE,
            threads: default_thread_count(),
            morsel_size: DEFAULT_MORSEL_SIZE,
            morsel: None,
            in_exchange: false,
            morsels: Arc::new(AtomicU64::new(0)),
            epochs: Arc::new(EpochSet::new()),
            prune_cells: Arc::new(Mutex::new(Vec::new())),
            blocks_pruned: Arc::new(AtomicU64::new(0)),
            pages_faulted: Arc::new(AtomicU64::new(0)),
            pages_pruned: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Replaces the execution's epoch set — used when epochs were pinned
    /// before the context existed (e.g. `Cursor::open` pins while computing
    /// zone-map score caps, then builds the context with the same set so
    /// operators read the very snapshot the caps were derived from).
    pub fn with_epochs(mut self, epochs: Arc<EpochSet>) -> Self {
        self.epochs = epochs;
        self
    }

    /// The execution's epoch set.
    pub fn epochs(&self) -> &Arc<EpochSet> {
        &self.epochs
    }

    /// The pinned epoch for `table` (pinned on first access; see
    /// [`EpochSet::pin`]).  Every scan of the execution resolves its rows
    /// through this, so concurrent inserts never shift what it reads.
    pub fn pin_epoch(&self, table: &Table) -> Arc<TableEpoch> {
        self.epochs.pin(table)
    }

    /// Like [`ExecutionContext::new`] but aborting execution after the scans
    /// have produced `limit` tuples.
    pub fn with_budget(ranking: Arc<RankingContext>, limit: u64) -> Self {
        ExecutionContext {
            budget: Arc::new(TupleBudget::limited(limit)),
            ..ExecutionContext::new(ranking)
        }
    }

    /// Overrides the batch size the root driver and the blocking operators
    /// pull with (clamped to at least 1).  `1` is tuple-at-a-time
    /// execution.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// The number of tuples moved per batched pull.  Blocking operators also
    /// use this to size the chunks they drain their inputs with.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Overrides the number of worker threads a sort's input may run on
    /// (clamped to `1..=`[`MAX_THREADS`]).  Above 1, `build_operator`
    /// lowers a sort over a spine as an exchange across that many workers;
    /// `1` lowers every plan serially.
    ///
    /// The default is [`default_thread_count`] (the `RANKSQL_THREADS`
    /// environment variable, or 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.clamp(1, MAX_THREADS);
        self
    }

    /// The number of worker threads available to exchanges.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether a sort lowered under this context runs its spine per morsel:
    /// more than one thread, and not already inside an exchange.
    pub(crate) fn fans_out(&self) -> bool {
        self.threads > 1 && !self.in_exchange
    }

    /// Morsel pipelines this execution's exchanges have lowered so far; 0
    /// when every sort ran serially.
    pub fn morsels(&self) -> u64 {
        self.morsels.load(Ordering::Relaxed)
    }

    /// Adds `n` lowered morsel pipelines to [`ExecutionContext::morsels`].
    pub(crate) fn count_morsels(&self, n: usize) {
        self.morsels.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Overrides the number of base-table rows per morsel (clamped to at
    /// least 1).  Results are morsel-size independent; this only tunes the
    /// work-stealing granularity.
    pub fn with_morsel_size(mut self, morsel_size: usize) -> Self {
        self.morsel_size = morsel_size.max(1);
        self
    }

    /// Rows per morsel handed to each parallel worker.
    pub fn morsel_size(&self) -> usize {
        self.morsel_size
    }

    /// The context of one morsel lowering of an exchange spine over the
    /// driving-table rows `range` (see [`MorselLowering`]): the first
    /// lowering over a fresh `record` fills it, every later one replays it.
    /// Each call starts a fresh replay cursor, threshold hand-off stack and
    /// top-k cell — use one per lowering.
    pub(crate) fn in_morsel(&self, range: Range<usize>, record: &Arc<SpineRecord>) -> Self {
        let mut ctx = self.clone();
        ctx.prune_cells = Arc::default();
        ctx.in_exchange = true;
        ctx.morsel = Some(Arc::new(MorselLowering {
            range,
            record: Arc::clone(record),
            next: AtomicUsize::new(0),
            threshold: Arc::default(),
        }));
        ctx
    }

    /// The driving-table rows a morsel lowering scans; `None` outside one.
    pub(crate) fn morsel_range(&self) -> Option<Range<usize>> {
        self.morsel.as_ref().map(|m| m.range.clone())
    }

    /// The threshold cell of a morsel lowering's top-k, which the exchange
    /// seeds; `None` outside a morsel lowering.
    pub(crate) fn morsel_threshold(&self) -> Option<Arc<TopKThreshold>> {
        self.morsel.as_ref().map(|m| Arc::clone(&m.threshold))
    }

    /// In a morsel lowering, the state its spine holds once at this point
    /// of the walk: made by `make` — under a context outside the morsel
    /// but still inside the exchange, so a build side lowered there reads
    /// its whole table and no sort in it fans out — on the first lowering,
    /// replayed on every later one.  `None` outside a morsel
    /// lowering, where the caller makes its own.
    pub(crate) fn spine_shared<T: Send + Sync + 'static>(
        &self,
        make: impl FnOnce(&ExecutionContext) -> Result<T>,
    ) -> Result<Option<Arc<T>>> {
        let Some(morsel) = &self.morsel else {
            return Ok(None);
        };
        morsel
            .replay_or_record(|| {
                let serial = ExecutionContext {
                    morsel: None,
                    ..self.clone()
                };
                Ok(Arc::new(make(&serial)?))
            })
            .map(Some)
    }

    /// The query's ranking context.
    pub fn ranking(&self) -> &Arc<RankingContext> {
        &self.ranking
    }

    /// A clone of the ranking context handle (for operators that store it).
    pub fn ranking_arc(&self) -> Arc<RankingContext> {
        Arc::clone(&self.ranking)
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Registers an operator's metrics under `label`.
    ///
    /// Operators register during construction, bottom-up (inputs before
    /// parents), so registration order is a post-order walk of the physical
    /// plan — the pairing invariant `explain_with_actuals` relies on.
    ///
    /// In a morsel lowering the spine's first lowering registers and every
    /// later one gets the same handle back, so parallel workers aggregate
    /// into one set of per-operator counters.
    pub fn register(&self, label: impl Into<String>) -> Arc<OperatorMetrics> {
        let label = label.into();
        if let Some(morsel) = &self.morsel {
            if let Ok(handle) = morsel.replay_or_record(|| Ok(self.metrics.register(label.clone())))
            {
                return handle;
            }
        }
        self.metrics.register(label)
    }

    /// The tuple budget shared by this execution's scans.
    pub fn budget(&self) -> &Arc<TupleBudget> {
        &self.budget
    }

    /// Pushes a top-k threshold cell for the pruning operator currently
    /// being lowered, with the `predicates` it scores rows on before
    /// building them — none when a σ in between would drop scored rows
    /// (called by a `SortLimit` before it builds its input).
    pub fn push_prune_threshold(&self, predicates: BitSet64, cell: Arc<TopKThreshold>) {
        self.prune_cells.lock().push((predicates, cell));
    }

    /// Pops the pending top-k threshold cell and its predicate set, if one
    /// was pushed by an enclosing `SortLimit` (called when the columnar
    /// scan or the hash join beneath it is lowered).
    pub fn pop_prune_threshold(&self) -> Option<(BitSet64, Arc<TopKThreshold>)> {
        self.prune_cells.lock().pop()
    }

    /// Columnar blocks skipped by zone maps so far in this execution.
    pub fn blocks_pruned(&self) -> u64 {
        self.blocks_pruned.load(Ordering::Relaxed)
    }

    /// The shared pruned-blocks counter (stored by columnar scans so the
    /// hot loop skips the context indirection).
    pub(crate) fn blocks_pruned_counter(&self) -> &Arc<AtomicU64> {
        &self.blocks_pruned
    }

    /// Buffer-pool pages faulted in from disk so far in this execution.
    pub fn pages_faulted(&self) -> u64 {
        self.pages_faulted.load(Ordering::Relaxed)
    }

    /// Pages of paged-out blocks skipped by zone-map pruning so far in this
    /// execution — reads that never reached the pool or the disk.
    pub fn pages_pruned(&self) -> u64 {
        self.pages_pruned.load(Ordering::Relaxed)
    }

    /// The shared faulted-pages counter (stored by columnar scans).
    pub(crate) fn pages_faulted_counter(&self) -> &Arc<AtomicU64> {
        &self.pages_faulted
    }

    /// The shared pruned-pages counter (stored by columnar scans).
    pub(crate) fn pages_pruned_counter(&self) -> &Arc<AtomicU64> {
        &self.pages_pruned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksql_expr::{RankPredicate, ScoringFunction};

    fn ranking() -> Arc<RankingContext> {
        RankingContext::new(
            vec![RankPredicate::attribute("p", "T.p")],
            ScoringFunction::Sum,
        )
    }

    /// A base id of table 0.
    fn id(row: u64) -> TupleId {
        TupleId::base(0, row)
    }

    fn worst(score: f64, row: Option<u64>) -> Option<WorstKept> {
        let id = row.map(|r| (0, r));
        Some(WorstKept {
            score: Score::new(score),
            id,
        })
    }

    #[test]
    fn threshold_cell_orders_pairs_like_the_heap() {
        let cell = TopKThreshold::new();
        assert_eq!(cell.get(), None);
        assert!(!cell.prunes_from(Score::new(f64::NAN), (0, 0)), "unset");
        assert!(!cell.prunes(f64::NEG_INFINITY), "unset");
        cell.raise(0.5, &id(10));
        assert!(cell.prunes(f64::NAN), "NaN bounds sort below everything");
        // An entry that sorts after (0.5, #10) is pruned; the rest are not.
        assert!(cell.prunes_from(Score::new(0.5), (0, 11)));
        assert!(cell.prunes_from(Score::new(0.4), (0, 0)));
        assert!(!cell.prunes_from(Score::new(0.5), (0, 10)));
        assert!(!cell.prunes_from(Score::new(0.5), (0, 9)));
        assert!(!cell.prunes_from(Score::new(0.6), (0, 99)));
        assert!(!cell.prunes(0.5), "the score-only test never prunes a tie");
        // Only an entry that sorts before the current one raises the cell.
        cell.raise(0.5, &id(20));
        cell.raise(0.4, &id(0));
        assert_eq!(cell.get(), worst(0.5, Some(10)));
        cell.raise(0.5, &id(5));
        assert_eq!(cell.get(), worst(0.5, Some(5)));
        // A pair's id sorts after every base id: at an equal score it does
        // not raise the cell, at a higher one it does, and prunes no tie.
        let pair = id(1).combine(&TupleId::base(1, 1));
        cell.raise(0.5, &pair);
        assert_eq!(cell.get(), worst(0.5, Some(5)));
        cell.raise(0.6, &pair);
        assert_eq!(cell.get(), worst(0.6, None));
        assert!(!cell.prunes_from(Score::new(0.6), (0, u64::MAX)));
        assert!(cell.prunes_from(Score::new(0.59), (0, 0)));
        cell.raise(0.6, &id(3));
        cell.raise(f64::NAN, &id(0));
        assert_eq!(cell.get(), worst(0.6, Some(3)));
    }

    #[test]
    fn budget_charges_and_trips() {
        let b = TupleBudget::limited(3);
        assert!(b.charge(2).is_ok());
        assert!(b.charge(1).is_ok());
        assert_eq!(b.used(), 3);
        let err = b.charge(1).unwrap_err();
        assert!(err.to_string().contains("tuple budget exceeded"), "{err}");
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let b = TupleBudget::unlimited();
        assert!(b.charge(u64::MAX / 2).is_ok());
        assert_eq!(b.limit(), u64::MAX);
    }

    #[test]
    fn later_morsel_lowerings_replay_the_first() {
        let exec = ExecutionContext::new(ranking());
        let record = Arc::default();
        let first = exec.in_morsel(0..4, &record);
        let a = first.register("a");
        let cell = first.spine_shared(|_| Ok(TopKThreshold::new())).unwrap();
        assert!(!first.fans_out(), "no sort fans out inside an exchange");
        let b = first.register("b");
        assert_eq!(exec.metrics().len(), 2);
        // A later lowering gets the same handles and state back, in order,
        // and registers nothing.
        let second = exec.in_morsel(4..8, &record);
        assert_eq!(second.morsel_range(), Some(4..8));
        assert!(Arc::ptr_eq(&second.register("a"), &a));
        let replayed = second
            .spine_shared(|_| -> Result<TopKThreshold> { panic!("made twice") })
            .unwrap();
        assert!(Arc::ptr_eq(&replayed.unwrap(), &cell.unwrap()));
        assert!(Arc::ptr_eq(&second.register("b"), &b));
        assert_eq!(exec.metrics().len(), 2, "lowerings must not re-register");
        // A lowering that diverges is an error, not a wrong replay.
        let third = exec.in_morsel(8..9, &record);
        assert!(third.spine_shared(|_| Ok(0u8)).is_err());
        // Outside a morsel lowering nothing is shared.
        assert!(exec.spine_shared(|_| Ok(0u8)).unwrap().is_none());
        assert_eq!(exec.morsel_range(), None);
    }

    #[test]
    fn threads_and_morsel_size_clamp() {
        let exec = ExecutionContext::new(ranking())
            .with_threads(0)
            .with_morsel_size(0);
        assert_eq!(exec.threads(), 1);
        assert_eq!(exec.morsel_size(), 1);
        let exec = exec.with_threads(1 << 20);
        assert_eq!(exec.threads(), ranksql_common::MAX_THREADS);
    }

    #[test]
    fn context_registers_operators_in_order() {
        let exec = ExecutionContext::new(ranking());
        exec.register("a");
        exec.register("b");
        let names: Vec<String> = exec.metrics().snapshot().iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["a".to_owned(), "b".to_owned()]);
        assert_eq!(exec.ranking().num_predicates(), 1);
        let clone = exec.clone();
        clone.register("c");
        assert_eq!(exec.metrics().len(), 3, "clones share the registry");
    }
}
