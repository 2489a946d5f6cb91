//! The per-execution context threaded through every physical operator.
//!
//! Before this existed, every operator constructor took an ad-hoc pair of
//! `Arc<RankingContext>` + `metrics.register(...)` arguments wired by hand
//! in the plan-lowering code.  [`ExecutionContext`] bundles everything an
//! operator needs from its execution environment — the query's ranking
//! context, the shared metrics registry, and the tuple budget used for
//! early-stop / runaway-query protection — behind one cheaply clonable
//! handle, so adding an execution-wide facility (e.g. a partition count for
//! parallel scans) no longer means touching every constructor signature.

use std::any::Any;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use ranksql_common::{
    default_thread_count, BitSet64, RankSqlError, Result, Row, Schema, Score, DEFAULT_BATCH_SIZE,
    DEFAULT_MORSEL_SIZE, MAX_THREADS,
};
use ranksql_expr::{BoundRanking, RankingContext, ScoreState};
use ranksql_storage::{EpochSet, Table, TableEpoch};

use crate::metrics::{MetricsRegistry, OperatorMetrics};

/// A monotonically rising lower bound on the k-th best score a top-k
/// consumer will keep — the feedback channel from a bounded heap to
/// whatever feeds it.
///
/// A `SortLimit` raises the cell to its bounded heap's current worst kept
/// score once the heap holds `k` tuples.  One rule reads it: a
/// materialising producer under a top-k scores before it builds.  The
/// producer evaluates the sort's predicates on a row it has not yet built
/// (`TopKScoring`) and builds the row only if its completed score is not
/// *strictly* below the cell; the emitted tuple carries its evaluated state.
/// Two producers follow it — a hash join directly beneath the `SortLimit`
/// (scoring the pair of constituents), and the zone-pruning columnar scan
/// on its π spine (scoring the row's column values) — and the scan also
/// skips any block whose zone-map score bound is strictly below the cell.
/// A strictly worse tuple is discarded by the heap immediately, so dropping
/// it upstream cannot change results — ties are never pruned, preserving
/// the deterministic tuple-id tie-break.  The cell rule: a `SortLimit` over
/// a hash join gets a fresh cell — in an exchange, one per morsel, so what
/// the join builds depends on its own morsel only; a `SortLimit` over a
/// zone-pruning scan takes its spine's one cell, shared by every morsel's
/// scan and top-k (any partition's k-th best score is a valid global bound,
/// since at least k tuples beat it).
#[derive(Debug)]
pub struct TopKThreshold {
    /// Bit pattern of the current threshold (`f64::NEG_INFINITY` = unset).
    bits: AtomicU64,
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
            bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Raises the threshold to `score` if it is higher than the current
    /// value.  `NaN` is ignored outright: a NaN "worst kept score" carries
    /// no ordering information, and letting it into the cell would make
    /// every subsequent `prunes` comparison meaningless — a NaN-scoring row
    /// must never change which blocks are pruned.  (The [`Score`] total
    /// order below also sorts `NaN` lowest, so this guard is belt and
    /// braces rather than load-bearing — but the property is important
    /// enough to state, and regression-test, explicitly.)
    pub fn raise(&self, score: f64) {
        if score.is_nan() {
            return;
        }
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            if Score::new(score) <= Score::new(f64::from_bits(cur)) {
                return;
            }
            match self.bits.compare_exchange_weak(
                cur,
                score.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// The current threshold (`f64::NEG_INFINITY` when unset).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Whether a block with maximal possible score `bound` can be skipped:
    /// only when the threshold is set and the bound is *strictly* below it.
    pub fn prunes(&self, bound: f64) -> bool {
        let t = self.get();
        t > f64::NEG_INFINITY && Score::new(bound) < Score::new(t)
    }
}

/// What a producer directly beneath a `SortLimit` does on the sort's
/// behalf (see [`TopKThreshold`]): it completes a row's score with the
/// sort's predicates while the row is still unbuilt, and says whether the
/// heap would keep it.  Every predicate is still evaluated once per row the
/// producer decides; what is saved is constructing the rows the heap would
/// drop on arrival.
#[derive(Debug)]
pub(crate) struct TopKScoring {
    /// The sort's predicates, bound to the producer's output schema.
    ranking: BoundRanking,
    ctx: Arc<RankingContext>,
    cell: Arc<TopKThreshold>,
}

impl TopKScoring {
    /// Binds what a `SortLimit` pushed ([`ExecutionContext::pop_prune_threshold`])
    /// to the producer's output `schema`.
    pub(crate) fn new(
        schema: &Schema,
        (predicates, cell): (BitSet64, Arc<TopKThreshold>),
        exec: &ExecutionContext,
    ) -> Result<Self> {
        let ctx = exec.ranking_arc();
        Ok(TopKScoring {
            ranking: ctx.bind(schema, predicates.iter())?,
            ctx,
            cell,
        })
    }

    /// Evaluates the sort's predicates `state` lacks on `row` and returns
    /// whether the completed score is not strictly below the threshold.
    pub(crate) fn keeps<R: Row + ?Sized>(
        &mut self,
        row: &R,
        state: &mut ScoreState,
    ) -> Result<bool> {
        self.ranking.evaluate_missing(row, state)?;
        Ok(!self.cell.prunes(self.ctx.upper_bound(state).value()))
    }

    /// Adds the evaluations since the last flush to the shared counters —
    /// once per `next_batch` call of the producer.
    pub(crate) fn flush(&mut self) {
        self.ranking.flush();
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
/// the spine operators' metrics handles, drained build sides, the
/// threshold cell, the prune bitmap — in the order the spine's first
/// lowering created them.
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
    pub fn pin_epoch(&self, table: &Table, with_columnar: bool) -> Arc<TableEpoch> {
        self.epochs.pin(table, with_columnar)
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

    /// Overrides the number of worker threads `Exchange` operators fan
    /// morsels across (clamped to `1..=`[`MAX_THREADS`]).  `1` runs parallel
    /// plans inline on the calling thread — the serial degradation path.
    ///
    /// The default is [`default_thread_count`] (the `RANKSQL_THREADS`
    /// environment variable, or 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.clamp(1, MAX_THREADS);
        self
    }

    /// The number of worker threads available to `Exchange` operators.
    pub fn threads(&self) -> usize {
        self.threads
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
    /// Each call starts a fresh replay cursor and threshold hand-off stack
    /// — use one per lowering.
    pub(crate) fn in_morsel(&self, range: Range<usize>, record: &Arc<SpineRecord>) -> Self {
        let mut ctx = self.clone();
        ctx.prune_cells = Arc::default();
        ctx.morsel = Some(Arc::new(MorselLowering {
            range,
            record: Arc::clone(record),
            next: AtomicUsize::new(0),
        }));
        ctx
    }

    /// The driving-table rows a morsel lowering scans; `None` outside one.
    pub(crate) fn morsel_range(&self) -> Option<Range<usize>> {
        self.morsel.as_ref().map(|m| m.range.clone())
    }

    /// In a morsel lowering, the state its spine holds once at this point
    /// of the walk: made by `make` — under a serial context, so a build
    /// side lowered there is an ordinary serial subtree — on the first
    /// lowering, replayed on every later one.  `None` outside a morsel
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
