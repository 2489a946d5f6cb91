//! The sequential scan: block-at-a-time reads over a pinned epoch's
//! sealed [`ColumnTable`] blocks plus its row tail, with zone-map
//! pruning and late materialisation.
//!
//! A [`ColumnScan`] emits a table's rows in storage order with `P = ∅` —
//! the paper's `seqScan` — and every base-table sequential scan of a plan
//! is one:
//!
//! * a **pushed-down filter** (a conjunction of simple column-vs-constant
//!   comparisons, fused into the scan by the optimizer's `columnarize`
//!   pass) is evaluated directly against the typed column vectors; row
//!   tuples are materialised only for rows that pass — the σ spine never
//!   assembles a tuple it immediately drops;
//! * **zone-map filter pruning** skips whole blocks whose per-block
//!   min/max cannot satisfy the pushed filter;
//! * **zone-map score pruning** skips blocks whose rows all sort after the
//!   downstream top-k's worst kept entry (see [`TopKThreshold`]): the
//!   block's maximal possible query score (block score maxima through the
//!   scoring function, other predicates at their caps) is below the worst
//!   kept score, or equal to it while the block's first row id is past the
//!   worst kept id.  The tail is one more block, bounded by the caps alone;
//! * **row scoring** — when only π sits between the scan
//!   and that top-k, the scan also evaluates the sort's predicates on each
//!   selected row — sealed or tail — and builds the row only if it does not
//!   sort after the worst kept entry (`TopKScoring`).
//!
//! An entry that sorts after the worst kept entry is pruned: the heap would
//! drop it on arrival.  Pruned blocks are never examined: their rows are
//! charged to neither the tuple budget nor the scan's `tuples_in` counter,
//! which is exactly the `tuples_scanned` reduction the zone-map regression
//! tests assert.

use std::cmp::Ordering;
use std::ops::Range;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use ranksql_common::{RankSqlError, Result, Schema, Score, Tuple, Value};
use ranksql_expr::{
    BoolExpr, BoundBoolExpr, CompareOp, RankedTuple, RankingContext, ScalarExpr, ScoreSource,
    ScoreState,
};
use ranksql_storage::{
    cmp_f64_total, ColumnKind, ColumnSlice, ColumnTable, SealedBlock, TableEpoch, ZoneEntry,
    COLUMN_BLOCK_ROWS,
};

use crate::context::{ExecutionContext, TopKScoring, TopKThreshold, TupleBudget};
use crate::kernel;
use crate::metrics::OperatorMetrics;
use crate::operator::{Batch, PhysicalOperator};

/// One compiled conjunct of a pushed-down filter: a typed comparison the
/// scan evaluates straight on a column vector (and range-checks against the
/// column's zone maps).
#[derive(Debug, Clone, Copy)]
enum TypedCompare {
    /// `Int64` column vs `Int64` constant — exact integer comparison,
    /// matching `Value`'s same-type semantics.
    I64 { col: usize, op: CompareOp, rhs: i64 },
    /// `Int64` column vs `Float64` constant — compared as `f64`, matching
    /// `Value`'s cross-type semantics (monotone `i64 → f64` conversion
    /// keeps zone checks sound).
    I64AsF64 { col: usize, op: CompareOp, rhs: f64 },
    /// `Float64` column vs numeric constant.
    F64 { col: usize, op: CompareOp, rhs: f64 },
}

/// The compiled form of a pushed-down filter.
#[derive(Debug)]
enum CompiledFilter {
    /// Every conjunct compiled to a typed column comparison.
    Typed(Vec<TypedCompare>),
    /// At least one conjunct could not be compiled (mixed column, string
    /// comparison, arithmetic): rows are materialised first and the bound
    /// predicate is evaluated on the tuple — same semantics as a `Filter`
    /// operator, minus the pruning.
    Fallback(BoundBoolExpr),
}

/// Mirrors an operator for swapped operands (`lit OP col` → `col OP' lit`).
fn flip(op: CompareOp) -> CompareOp {
    match op {
        CompareOp::Lt => CompareOp::Gt,
        CompareOp::LtEq => CompareOp::GtEq,
        CompareOp::Gt => CompareOp::Lt,
        CompareOp::GtEq => CompareOp::LtEq,
        CompareOp::Eq | CompareOp::NotEq => op,
    }
}

/// A scalar operand that is constant at execution time: a literal or a
/// bound parameter.
fn const_operand(e: &ScalarExpr) -> Option<&ranksql_common::Value> {
    match e {
        ScalarExpr::Literal(v) => Some(v),
        ScalarExpr::Param { value: Some(v), .. } => Some(v),
        _ => None,
    }
}

/// Tries to compile one conjunct to a typed comparison.
fn compile_conjunct(
    conjunct: &BoolExpr,
    schema: &Schema,
    table: &ColumnTable,
) -> Option<TypedCompare> {
    let BoolExpr::Compare { op, left, right } = conjunct else {
        return None;
    };
    let (col_ref, op, value) = match (left, right) {
        (ScalarExpr::Column(c), rhs) => (c, *op, const_operand(rhs)?),
        (lhs, ScalarExpr::Column(c)) => (c, flip(*op), const_operand(lhs)?),
        _ => return None,
    };
    let col = col_ref.resolve(schema).ok()?;
    match (table.column_kind(col), value) {
        (ColumnKind::Int64, ranksql_common::Value::Int64(v)) => {
            Some(TypedCompare::I64 { col, op, rhs: *v })
        }
        (ColumnKind::Int64, ranksql_common::Value::Float64(v)) => {
            Some(TypedCompare::I64AsF64 { col, op, rhs: *v })
        }
        (ColumnKind::Float64, v) => v
            .as_f64()
            .filter(|_| v.data_type().is_numeric())
            .map(|rhs| TypedCompare::F64 { col, op, rhs }),
        _ => None,
    }
}

impl TypedCompare {
    /// Appends the rows of `range` that pass this comparison to `sel`.
    /// The column type and operator are matched once; the inner loops are
    /// the branch-free chunked kernels of [`crate::kernel`] (semantics
    /// identical to the `Value` comparison a `Filter` operator would
    /// perform, including `cmp_f64_total` NaN / signed-zero handling).
    /// `range` never spans a sealed-block boundary (the chunked filter
    /// clamps to the admitted block's end), so it maps onto one block slice.
    /// The kernels read the *fetched* [`SealedBlock`] (not the table), so a
    /// paged-out block is faulted in exactly once per admission.
    fn filter_range_into(
        &self,
        block: &SealedBlock,
        block_start: usize,
        range: Range<usize>,
        sel: &mut Vec<u32>,
    ) -> Result<()> {
        let local = (range.start - block_start)..(range.end - block_start);
        let base = range.start as u32;
        match (*self, block.slice(self.col())) {
            (TypedCompare::I64 { op, rhs, .. }, ColumnSlice::Int64(v)) => {
                kernel::select_i64(&v[local], base, sel, op, rhs)
            }
            (TypedCompare::I64AsF64 { op, rhs, .. }, ColumnSlice::Int64(v)) => {
                kernel::select_i64_as_f64(&v[local], base, sel, op, rhs)
            }
            (TypedCompare::F64 { op, rhs, .. }, ColumnSlice::Float64(v)) => {
                kernel::select_f64(&v[local], base, sel, op, rhs)
            }
            _ => return Err(self.kind_mismatch()),
        }
        Ok(())
    }

    /// Retains in `sel` only the rows (table-absolute, all inside `block`)
    /// that also pass this comparison, compacting the selection vector in
    /// place with branch-free writes.
    fn filter_sel_in_place(
        &self,
        block: &SealedBlock,
        block_start: usize,
        sel: &mut Vec<u32>,
    ) -> Result<()> {
        let base = block_start as u32;
        match (*self, block.slice(self.col())) {
            (TypedCompare::I64 { op, rhs, .. }, ColumnSlice::Int64(v)) => {
                kernel::refine_i64(v, base, sel, op, rhs)
            }
            (TypedCompare::I64AsF64 { op, rhs, .. }, ColumnSlice::Int64(v)) => {
                kernel::refine_i64_as_f64(v, base, sel, op, rhs)
            }
            (TypedCompare::F64 { op, rhs, .. }, ColumnSlice::Float64(v)) => {
                kernel::refine_f64(v, base, sel, op, rhs)
            }
            _ => return Err(self.kind_mismatch()),
        }
        Ok(())
    }

    /// A block whose column storage differs from the table-wide kind the
    /// comparison was compiled against (the fold in `ColumnTable` makes a
    /// column typed only when every block is).
    fn kind_mismatch(&self) -> RankSqlError {
        RankSqlError::Internal(format!(
            "column {} of a sealed block does not have the type its pushed filter was compiled for",
            self.col()
        ))
    }

    /// Whether any value in `block` *may* satisfy this comparison, judged by
    /// the block's zone map.  `true` when in doubt (no zone entry).
    fn block_may_match(&self, table: &ColumnTable, block: usize) -> bool {
        match (*self, table.zone(self.col(), block)) {
            (TypedCompare::I64 { op, rhs, .. }, Some(ZoneEntry::Int64(min, max))) => {
                range_may_match(op, min.cmp(&rhs), max.cmp(&rhs))
            }
            (TypedCompare::I64AsF64 { op, rhs, .. }, Some(ZoneEntry::Int64(min, max))) => {
                range_may_match(
                    op,
                    cmp_f64_total(min as f64, rhs),
                    cmp_f64_total(max as f64, rhs),
                )
            }
            (TypedCompare::F64 { op, rhs, .. }, Some(ZoneEntry::Float64(min, max))) => {
                range_may_match(op, cmp_f64_total(min, rhs), cmp_f64_total(max, rhs))
            }
            _ => true,
        }
    }

    fn col(&self) -> usize {
        match *self {
            TypedCompare::I64 { col, .. }
            | TypedCompare::I64AsF64 { col, .. }
            | TypedCompare::F64 { col, .. } => col,
        }
    }
}

/// Whether a value range `[min, max]` (orderings of its endpoints against
/// the constant) can contain a value satisfying `op`.
fn range_may_match(op: CompareOp, min_vs: Ordering, max_vs: Ordering) -> bool {
    match op {
        CompareOp::Eq => min_vs != Ordering::Greater && max_vs != Ordering::Less,
        // The range collapses to exactly the constant only if both ends
        // equal it.
        CompareOp::NotEq => !(min_vs == Ordering::Equal && max_vs == Ordering::Equal),
        CompareOp::Lt => min_vs == Ordering::Less,
        CompareOp::LtEq => min_vs != Ordering::Greater,
        CompareOp::Gt => max_vs == Ordering::Greater,
        CompareOp::GtEq => max_vs != Ordering::Less,
    }
}

/// A scoring scan's share of the top-k rule: the sort's predicates, and a
/// scratch row the columns they read are copied into instead of a tuple.
struct RowScoring {
    top_k: TopKScoring,
    /// Schema columns the sort's predicates read.
    cols: Vec<usize>,
    row: Vec<Value>,
}

/// Decides the rows `rows` (table-absolute) of the admitted block into
/// `out`, returning how many were built: every row, or — under `scoring` —
/// those the heap would keep by completed score and id, carrying their
/// state.
fn decide_rows(
    (block_start, block): (usize, &SealedBlock),
    table_id: u32,
    rows: impl IntoIterator<Item = usize>,
    n_preds: usize,
    scoring: &mut Option<RowScoring>,
    out: &mut Batch,
) -> Result<usize> {
    let mut built = 0;
    for row in rows {
        let local = row - block_start;
        let mut state = ScoreState::new(n_preds);
        if let Some(s) = scoring {
            for &c in &s.cols {
                s.row[c] = block.value(local, c);
            }
            let id = Some((table_id, row as u64));
            if !s.top_k.keeps(s.row.as_slice(), &mut state, id)? {
                continue;
            }
        }
        out.push(RankedTuple::new(
            block.tuple(table_id, block_start, local),
            state,
        ));
        built += 1;
    }
    Ok(built)
}

/// Columnar sequential scan (see the module docs).
///
/// The output is storage-ordered with `P = ∅`; a pushed filter only
/// removes rows, never re-orders them, so results are byte-identical to a
/// `Filter` operator over the unfiltered scan.
///
/// `tuples_out` counts the rows *decided* — passed by the pushed filter;
/// a scan that scores for a top-k builds and emits fewer, and
/// `tuples_built` counts those.
pub struct ColumnScan {
    table: Arc<ColumnTable>,
    /// The pinned epoch's tail: the rows past the sealed blocks, in row
    /// layout.
    tail: Arc<Vec<Tuple>>,
    /// First tail row == the sealed blocks' row count.
    sealed_end: usize,
    schema: Schema,
    filter: Option<CompiledFilter>,
    /// The pushed filter bound for tuple-at-a-time evaluation over the tail
    /// (`Filter` semantics, which the typed kernels match exactly).
    tail_filter: Option<BoundBoolExpr>,
    /// Top-k threshold raised by the downstream `SortLimit` (score pruning).
    prune_cell: Option<Arc<TopKThreshold>>,
    /// Set when this scan also scores rows for that `SortLimit`.
    top_k: Option<RowScoring>,
    /// Per ranking predicate: the scan column its score is read from, when
    /// it is a zone-mapped attribute of this table.
    pred_cols: Vec<Option<usize>>,
    ctx: Arc<RankingContext>,
    metrics: Arc<OperatorMetrics>,
    budget: Arc<TupleBudget>,
    pruned_counter: Arc<AtomicU64>,
    /// Execution-wide count of buffer-pool pages faulted in from disk.
    faulted_pages: Arc<AtomicU64>,
    /// Execution-wide count of pages whose read zone-map pruning avoided.
    pruned_pages: Arc<AtomicU64>,
    /// One bit per block of the scanned table, set when this scan (or, on
    /// the morsel path, any sibling morsel of the same spine sharing this
    /// map) counted the block as pruned — so a block overlapping several
    /// morsels contributes exactly once to `blocks_pruned`.
    pruned_blocks: Arc<Vec<AtomicU64>>,
    /// Absolute row range this scan covers (the whole table serially, one
    /// morsel under an exchange).
    end: usize,
    /// Absolute cursor; rows before it are emitted or skipped.
    pos: usize,
    /// End of the currently admitted block (`pos == block_end` → advance).
    block_end: usize,
    /// The currently admitted block, fetched through the buffer pool when
    /// the backing table pages to disk: `(block_start_row, block)`.  All
    /// row materialisation and typed filtering inside the block reads this
    /// handle, so an admitted block is faulted in at most once.
    cur_block: Option<(usize, Arc<SealedBlock>)>,
    /// Selection vector of the current block under a fully compiled filter
    /// (reused across blocks); rows before `sel_pos` are already emitted.
    sel: Vec<u32>,
    sel_pos: usize,
}

impl ColumnScan {
    /// Creates a scan over the rows `range` of a pinned [`TableEpoch`] —
    /// the whole epoch serially, one morsel in an exchange.  The epoch's
    /// sealed blocks are scanned block-at-a-time (with pruning) and its
    /// tail row-at-a-time afterwards, so concurrent inserts are invisible.
    ///
    /// `pushed_filter` and `zone_prune` come from the plan's
    /// [`ColumnarScan`](ranksql_algebra::ColumnarScan) annotation (both off
    /// for an unannotated scan); when `zone_prune` is set the scan adopts the
    /// threshold cell pushed by the enclosing `SortLimit` (absent cell =
    /// pruning stays off, which is always safe), and scores rows on the
    /// predicates pushed with it.  `pruned_blocks` is the
    /// prune-dedup bitmap shared by every morsel of an exchange spine;
    /// `None` gives the scan its own.
    pub fn new(
        epoch: &TableEpoch,
        range: Range<usize>,
        pushed_filter: Option<&BoolExpr>,
        zone_prune: bool,
        pruned_blocks: Option<Arc<Vec<AtomicU64>>>,
        exec: &ExecutionContext,
        label: impl Into<String>,
    ) -> Result<Self> {
        let table = Arc::clone(epoch.blocks());
        let tail = Arc::clone(epoch.tail());
        let schema = table.schema().clone();
        let filter = match pushed_filter {
            None => None,
            Some(f) => {
                let compiled: Option<Vec<TypedCompare>> = f
                    .split_conjuncts()
                    .iter()
                    .map(|c| compile_conjunct(c, &schema, &table))
                    .collect();
                Some(match compiled {
                    Some(cmps) => CompiledFilter::Typed(cmps),
                    None => CompiledFilter::Fallback(f.bind(&schema)?),
                })
            }
        };
        let tail_filter = match pushed_filter {
            Some(f) if !tail.is_empty() => Some(f.bind(&schema)?),
            _ => None,
        };
        let ctx = exec.ranking_arc();
        let pred_cols = (0..ctx.num_predicates())
            .map(|i| match &ctx.predicate(i).source {
                ScoreSource::Attribute(c) => c
                    .resolve(&schema)
                    .ok()
                    .filter(|&col| table.score_zone_max(col, 0).is_some()),
                ScoreSource::Expression(_) => None,
            })
            .collect();
        let pushed = if zone_prune {
            exec.pop_prune_threshold()
        } else {
            None
        };
        let prune_cell = pushed.as_ref().map(|(_, cell)| Arc::clone(cell));
        let top_k = match pushed {
            Some((predicates, cell)) if !predicates.is_empty() => {
                let top_k = TopKScoring::new(&schema, (predicates, cell), exec)?;
                let cols = predicates
                    .iter()
                    .flat_map(|i| ctx.predicate(i).source.columns())
                    .map(|c| c.resolve(&schema))
                    .collect::<Result<_>>()?;
                let row = vec![Value::Null; schema.len()];
                Some(RowScoring { top_k, cols, row })
            }
            _ => None,
        };
        Ok(ColumnScan {
            end: range.end,
            sealed_end: table.row_count(),
            pruned_blocks: pruned_blocks
                .unwrap_or_else(|| Arc::new(Self::pruned_block_map(table.row_count()))),
            table,
            tail,
            schema,
            filter,
            tail_filter,
            prune_cell,
            top_k,
            pred_cols,
            ctx,
            metrics: exec.register(label),
            budget: Arc::clone(exec.budget()),
            pruned_counter: Arc::clone(exec.blocks_pruned_counter()),
            faulted_pages: Arc::clone(exec.pages_faulted_counter()),
            pruned_pages: Arc::clone(exec.pages_pruned_counter()),
            pos: range.start,
            block_end: 0,
            cur_block: None,
            sel: Vec::new(),
            sel_pos: 0,
        })
    }

    /// Allocates a prune-dedup bitmap: one bit per block of a table of
    /// `rows` rows.
    pub(crate) fn pruned_block_map(rows: usize) -> Vec<AtomicU64> {
        let blocks = rows.div_ceil(COLUMN_BLOCK_ROWS);
        (0..blocks.div_ceil(64))
            .map(|_| AtomicU64::new(0))
            .collect()
    }

    /// The maximal possible query score of any tuple in `block`: block
    /// score maxima for this table's zone-mapped attribute predicates, the
    /// context's per-predicate caps for everything else.  The tail
    /// (`None`) has no zone maps: every predicate is at its cap.
    fn score_bound(&self, block: Option<usize>) -> Score {
        let mut buf = [0.0f64; 64];
        let n = self.pred_cols.len();
        for (i, slot) in buf[..n].iter_mut().enumerate() {
            *slot = match (self.pred_cols[i], block) {
                (Some(col), Some(block)) => self
                    .table
                    .score_zone_max(col, block)
                    .unwrap_or_else(|| self.ctx.max_value_for(i)),
                _ => self.ctx.max_value_for(i),
            };
        }
        self.ctx.scoring().combine(&buf[..n])
    }

    /// Whether every row still to be read in `block` (`None`: the tail)
    /// sorts after the top-k's worst kept entry.  Their ids start at
    /// `(table, pos)` — a lower bound too when a morsel starts mid-block.
    fn rest_loses(&self, block: Option<usize>) -> bool {
        self.prune_cell.as_ref().is_some_and(|cell| {
            let first = (self.table.table_id(), self.pos as u64);
            cell.prunes_from(self.score_bound(block), first)
        })
    }

    /// Counts `block` as pruned, once per (table, block) across every scan
    /// sharing this scan's dedup bitmap: the first setter of the block's
    /// bit increments the global counter, later morsels overlapping the
    /// same block see the bit already set and skip it.
    fn count_pruned(&self, block: usize) {
        use std::sync::atomic::Ordering;
        let bit = 1u64 << (block % 64);
        if self.pruned_blocks[block / 64].fetch_or(bit, Ordering::Relaxed) & bit == 0 {
            self.pruned_counter.fetch_add(1, Ordering::Relaxed);
            // On a paged table a pruned block is a page never read: its
            // extent stays on disk.  Resident blocks report 0 pages.
            let pages = self.table.block_pages(block);
            if pages > 0 {
                self.pruned_pages.fetch_add(pages, Ordering::Relaxed);
            }
        }
    }

    /// Whether the current block still has rows (or selected rows) to emit.
    fn block_has_pending(&self) -> bool {
        match &self.filter {
            Some(CompiledFilter::Typed(_)) => {
                self.sel_pos < self.sel.len() || self.pos < self.block_end
            }
            _ => self.pos < self.block_end,
        }
    }

    /// Advances to the next admitted (non-pruned) block (zone checks run
    /// once per block here); returns `false` when the scan range is
    /// exhausted.
    fn advance_block(&mut self) -> Result<bool> {
        let sealed_end = self.sealed_end.min(self.end);
        while self.pos < sealed_end {
            let block = self.pos / COLUMN_BLOCK_ROWS;
            let block_rows = self.table.block_rows(block);
            let end = block_rows.end.min(self.end);
            // Zone-map filter pruning.
            if let Some(CompiledFilter::Typed(cmps)) = &self.filter {
                if cmps.iter().any(|c| !c.block_may_match(&self.table, block)) {
                    self.count_pruned(block);
                    self.pos = end;
                    continue;
                }
            }
            // Zone-map score pruning against the top-k's worst kept entry.
            if self.rest_loses(Some(block)) {
                self.count_pruned(block);
                self.pos = end;
                continue;
            }
            // The block survived pruning: fault it in (buffer-pool read on
            // a paged table, free on a resident one) exactly once per
            // admission.
            let (sealed, faulted) = self.table.fetch_block(block)?;
            if faulted {
                use std::sync::atomic::Ordering;
                self.faulted_pages
                    .fetch_add(self.table.block_pages(block), Ordering::Relaxed);
            }
            self.cur_block = Some((block * COLUMN_BLOCK_ROWS, sealed));
            self.block_end = end;
            return Ok(true);
        }
        Ok(false)
    }

    /// Minimum rows filtered per demand-driven chunk of the typed path —
    /// small enough that tight tuple budgets behave like a `Filter`
    /// operator's per-demand charging, large enough to amortize the chunk
    /// setup.
    const MIN_FILTER_CHUNK: usize = 64;

    /// The currently admitted block as `(block_start_row, block)`.
    fn admitted_block(&self) -> Result<(usize, &Arc<SealedBlock>)> {
        match &self.cur_block {
            Some((start, block)) => Ok((*start, block)),
            None => Err(RankSqlError::Internal(
                "column scan read a block before admitting one".into(),
            )),
        }
    }

    /// Filters the next chunk of the current admitted block into the
    /// selection vector (demand-driven: roughly `want` rows at a time, so
    /// the tuple budget is charged in step with what the consumer actually
    /// pulls — the granularity of a `Filter` operator over an unfiltered
    /// scan, so tight budgets trip at the same point with or without
    /// fusion).
    fn filter_next_chunk(&mut self, want: usize, cmps: &[TypedCompare]) -> Result<()> {
        let chunk_end = self
            .pos
            .saturating_add(want.max(Self::MIN_FILTER_CHUNK))
            .min(self.block_end);
        let (block_start, block) = self.admitted_block()?;
        let block = Arc::clone(block);
        self.sel.clear();
        self.sel_pos = 0;
        let mut cmps = cmps.iter();
        match cmps.next() {
            Some(first) => {
                first.filter_range_into(&block, block_start, self.pos..chunk_end, &mut self.sel)?
            }
            // A conjunction of no comparisons keeps every row.
            None => self.sel.extend(self.pos as u32..chunk_end as u32),
        }
        for c in cmps {
            if self.sel.is_empty() {
                break;
            }
            c.filter_sel_in_place(&block, block_start, &mut self.sel)?;
        }
        let examined = (chunk_end - self.pos) as u64;
        self.pos = chunk_end;
        self.charge_examined(examined)
    }

    /// Materialises the tuple at table-absolute `row` from the currently
    /// admitted (already faulted-in) block — late materialisation never
    /// touches the table, so it cannot re-fault a paged block.
    fn block_tuple(&self, row: usize) -> Result<Tuple> {
        let (block_start, block) = self.admitted_block()?;
        Ok(block.tuple(self.table.table_id(), block_start, row - block_start))
    }

    /// Records examined rows against the tuple budget and scan metrics.
    fn charge_examined(&self, n: u64) -> Result<()> {
        if n == 0 {
            return Ok(());
        }
        self.budget.charge(n)?;
        self.metrics.add_in(n);
        Ok(())
    }
}

impl PhysicalOperator for ColumnScan {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> Result<usize> {
        let n_preds = self.ctx.num_predicates();
        let table_id = self.table.table_id();
        let (mut decided, mut built) = (0usize, 0usize);
        let mut examined: u64 = 0;
        let mut tail_checked = false;
        // A call ends after deciding `max` rows, so a scoring scan reads a
        // threshold at most one batch stale — but not before it built one:
        // returning 0 means exhausted.
        while decided < max || (built == 0 && max > 0) {
            if !self.block_has_pending() && !self.advance_block()? {
                // Sealed blocks exhausted: the epoch's tail is one more
                // block, skipped whole (checked once per call) when all of
                // it loses, else streamed row-at-a-time (row layout,
                // per-row budget charge) through the same decide.
                if !tail_checked && self.pos < self.end && self.rest_loses(None) {
                    self.pos = self.end;
                }
                tail_checked = true;
                if self.pos >= self.end {
                    break;
                }
                let row = self.pos;
                self.pos += 1;
                examined += 1;
                let tuple = &self.tail[row - self.sealed_end];
                if let Some(bound) = &self.tail_filter {
                    if !bound.eval(tuple)? {
                        continue;
                    }
                }
                decided += 1;
                let mut state = ScoreState::new(n_preds);
                if let Some(s) = &mut self.top_k {
                    let id = Some((table_id, row as u64));
                    if !s.top_k.keeps(tuple, &mut state, id)? {
                        continue;
                    }
                }
                out.push(RankedTuple::new(tuple.clone(), state));
                built += 1;
                continue;
            }
            let want = max.saturating_sub(decided).max(1);
            match &self.filter {
                None => {
                    let take = want.min(self.block_end - self.pos);
                    let (start, block) = self.admitted_block()?;
                    let (block, rows) = (Arc::clone(block), self.pos..self.pos + take);
                    let top_k = &mut self.top_k;
                    built += decide_rows((start, &block), table_id, rows, n_preds, top_k, out)?;
                    decided += take;
                    self.pos += take;
                    examined += take as u64;
                }
                Some(CompiledFilter::Typed(cmps)) => {
                    if self.sel_pos >= self.sel.len() {
                        let cmps = cmps.clone();
                        self.filter_next_chunk(want, &cmps)?;
                        continue;
                    }
                    let take = want.min(self.sel.len() - self.sel_pos);
                    let (start, block) = self.admitted_block()?;
                    let block = Arc::clone(block);
                    let rows = self.sel[self.sel_pos..][..take].iter().map(|&r| r as usize);
                    let top_k = &mut self.top_k;
                    built += decide_rows((start, &block), table_id, rows, n_preds, top_k, out)?;
                    decided += take;
                    self.sel_pos += take;
                }
                Some(CompiledFilter::Fallback(bound)) => {
                    while self.pos < self.block_end && decided < max {
                        let row = self.pos;
                        self.pos += 1;
                        examined += 1;
                        let tuple = self.block_tuple(row)?;
                        if bound.eval(&tuple)? {
                            out.push(RankedTuple::unranked(tuple, n_preds));
                            decided += 1;
                            built += 1;
                        }
                    }
                }
            }
        }
        self.charge_examined(examined)?;
        if let Some(scoring) = &mut self.top_k {
            scoring.top_k.flush();
        }
        self.metrics.add_out(decided as u64);
        if built > 0 {
            self.metrics.add_built(built as u64);
            self.metrics.add_batch();
        }
        Ok(built)
    }

    fn can_extend_limit(&self) -> bool {
        true // A scan imposes no top-k cap.
    }

    fn extend_limit(&mut self, _extra: usize) -> bool {
        true // A scan imposes no top-k cap.
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::operator::drain_batched;
    use ranksql_common::{BitSet64, DataType, Field, TupleId, Value};
    use ranksql_expr::{RankPredicate, ScoringFunction};
    use ranksql_storage::{Table, TableBuilder};

    /// A plain sequential scan of all of `t` (no pushed filter, no
    /// pruning): the input the other operators' unit tests read from.
    pub(crate) fn scan_table(t: &Table, exec: &ExecutionContext, label: &str) -> ColumnScan {
        let epoch = t.pin_epoch();
        ColumnScan::new(&epoch, 0..epoch.row_count(), None, false, None, exec, label).unwrap()
    }

    fn table(rows: usize) -> ranksql_storage::Table {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("p", DataType::Float64),
        ])
        .qualify_all("T");
        TableBuilder::new("T", schema)
            .rows((0..rows).map(|i| {
                vec![
                    Value::from(i as i64),
                    Value::from(((i * 37) % 100) as f64 / 100.0),
                ]
            }))
            .build(0)
            .unwrap()
    }

    fn ctx() -> Arc<RankingContext> {
        RankingContext::new(
            vec![RankPredicate::attribute("p", "T.p")],
            ScoringFunction::Sum,
        )
    }

    /// A columnar scan over all of `t`.
    fn scan_all(
        t: &ranksql_storage::Table,
        filter: Option<&BoolExpr>,
        zone_prune: bool,
        exec: &ExecutionContext,
    ) -> ColumnScan {
        let epoch = t.pin_epoch();
        let rows = 0..epoch.row_count();
        ColumnScan::new(&epoch, rows, filter, zone_prune, None, exec, "cs").unwrap()
    }

    #[test]
    fn plain_scan_emits_the_row_heap_unranked() {
        let t = table(3000);
        let exec = ExecutionContext::new(ctx());
        let mut scan = scan_table(&t, &exec, "cs");
        let got = drain_batched(&mut scan, 512).unwrap();
        let want = t.scan();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.tuple.id(), w.id());
            assert_eq!(g.tuple.values(), w.values());
            // P = ∅: every tuple carries the same maximal upper bound.
            assert!(g.state.evaluated().is_empty());
            assert_eq!(exec.ranking().upper_bound(&g.state).value(), 1.0);
        }
        assert_eq!(exec.metrics().output_cardinalities()[0].1, 3000);
    }

    #[test]
    fn pushed_filter_matches_value_semantics_and_prunes_blocks() {
        let t = table(4 * COLUMN_BLOCK_ROWS);
        let exec = ExecutionContext::new(ctx());
        // id < 100 lives entirely in the first block: blocks 1..4 prune.
        let filter = BoolExpr::compare(
            ScalarExpr::col("T.id"),
            CompareOp::Lt,
            ScalarExpr::lit(100i64),
        );
        let mut scan = scan_all(&t, Some(&filter), false, &exec);
        let got = drain_batched(&mut scan, 1024).unwrap();
        assert_eq!(got.len(), 100);
        assert_eq!(exec.blocks_pruned(), 3, "3 of 4 blocks skipped");
        // Only the first block's rows were examined.
        assert_eq!(exec.budget().used(), 1024);
    }

    #[test]
    fn score_pruning_skips_blocks_below_the_threshold() {
        let t = table(4096);
        let exec = ExecutionContext::new(ctx());
        let cell = Arc::new(TopKThreshold::new());
        exec.push_prune_threshold(BitSet64::all(1), Arc::clone(&cell));
        let mut scan = scan_all(&t, None, true, &exec);
        // p scores are < 1.0 everywhere; an impossible threshold prunes
        // every block the scan has not yet entered.
        cell.raise(2.0, &TupleId::base(0, 0));
        let got = drain_batched(&mut scan, 1024).unwrap();
        assert!(got.is_empty());
        assert_eq!(exec.blocks_pruned(), 4);
        assert_eq!(exec.budget().used(), 0, "pruned rows are never examined");
        // An unset cell prunes nothing.
        let exec2 = ExecutionContext::new(ctx());
        let cell2 = Arc::new(TopKThreshold::new());
        exec2.push_prune_threshold(BitSet64::all(1), cell2);
        let mut scan2 = scan_all(&t, None, true, &exec2);
        assert_eq!(drain_batched(&mut scan2, 1024).unwrap().len(), 4096);
    }

    #[test]
    fn scoring_scan_builds_only_rows_the_heap_would_keep() {
        let t = table(4096);
        let exec = ExecutionContext::new(ctx());
        let cell = Arc::new(TopKThreshold::new());
        exec.push_prune_threshold(BitSet64::all(1), Arc::clone(&cell));
        let mut scan = scan_all(&t, None, true, &exec);
        // Every block holds a 0.99, so none prunes; rows are scored.  The
        // worst kept entry is a join's pair, so its id prunes no tie.
        cell.raise(0.9, &pair_id());
        let got = drain_batched(&mut scan, 1024).unwrap();
        // p ≥ 0.9 on 10 of every 100 rows: 400 full cycles' worth plus 10
        // in the last 96 rows.  Ties with the threshold are kept.
        assert_eq!(got.len(), 410);
        for g in &got {
            assert!(g.state.is_complete());
            assert!(exec.ranking().upper_bound(&g.state).value() >= 0.9);
        }
        let m = &exec.metrics().snapshot()[0];
        assert_eq!((m.tuples_out(), m.tuples_built()), (4096, 410));
        assert_eq!(exec.ranking().counters().snapshot(), vec![4096]);
    }

    /// Regression: the fused-filter path must charge the tuple budget in
    /// step with consumer demand (like a `Filter` over an unfiltered scan,
    /// which pulls scan chunks of the still-missing count) — a tight budget
    /// that the unfused plan meets must not spuriously trip here just
    /// because a whole 1024-row block was filtered eagerly.
    #[test]
    fn fused_filter_charges_budget_per_demand_not_per_block() {
        let t = table(4096);
        let exec = ExecutionContext::with_budget(ctx(), 300);
        let filter = BoolExpr::compare(
            ScalarExpr::col("T.p"),
            CompareOp::GtEq,
            ScalarExpr::lit(0.5),
        );
        let mut scan = scan_all(&t, Some(&filter), false, &exec);
        let mut out = Batch::new();
        let n = scan.next_batch(5, &mut out).unwrap();
        assert_eq!(n, 5);
        assert!(
            exec.budget().used() <= 300,
            "pulling 5 rows must not charge a whole block (charged {})",
            exec.budget().used()
        );
    }

    #[test]
    fn fallback_filter_keeps_semantics_on_generic_columns() {
        let schema = Schema::new(vec![Field::new("x", DataType::Utf8)]).qualify_all("G");
        let t = TableBuilder::new("G", schema)
            .rows([
                vec![Value::from("b")],
                vec![Value::from("a")],
                vec![Value::from("c")],
            ])
            .build(0)
            .unwrap();
        let exec = ExecutionContext::new(RankingContext::unranked());
        let filter = BoolExpr::compare(
            ScalarExpr::col("G.x"),
            CompareOp::GtEq,
            ScalarExpr::lit("b"),
        );
        let mut scan = scan_all(&t, Some(&filter), false, &exec);
        let got = drain_batched(&mut scan, 8).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].tuple.value(0), &Value::from("b"));
    }

    #[test]
    fn epoch_scan_streams_sealed_blocks_plus_frozen_tail() {
        let t = table(1200);
        for i in 1200..1500usize {
            t.insert(vec![
                Value::from(i as i64),
                Value::from(((i * 37) % 100) as f64 / 100.0),
            ])
            .unwrap();
        }
        // One block is sealed; the pinned epoch carries the 476 rows past
        // it as its tail.
        let epoch = t.pin_epoch();
        assert_eq!(epoch.row_count(), 1500);
        assert_eq!(epoch.tail().len(), 1500 - COLUMN_BLOCK_ROWS);

        let exec = ExecutionContext::new(ctx());
        let mut scan = ColumnScan::new(&epoch, 0..1500, None, false, None, &exec, "cs").unwrap();
        let got = drain_batched(&mut scan, 256).unwrap();
        assert_eq!(got.len(), 1500);
        for (i, g) in got.iter().enumerate() {
            assert_eq!(g.tuple.value(0), &Value::from(i as i64), "storage order");
        }

        // A pushed filter applies identically to sealed rows (typed
        // kernels) and tail rows (bound row-semantics evaluation).
        let filter = BoolExpr::compare(
            ScalarExpr::col("T.p"),
            CompareOp::GtEq,
            ScalarExpr::lit(0.5),
        );
        let exec2 = ExecutionContext::new(ctx());
        let mut scan2 =
            ColumnScan::new(&epoch, 0..1500, Some(&filter), false, None, &exec2, "cs").unwrap();
        let got2 = drain_batched(&mut scan2, 256).unwrap();
        let want: Vec<u64> = (0..1500u64)
            .filter(|i| ((i * 37) % 100) as f64 / 100.0 >= 0.5)
            .collect();
        assert_eq!(got2.len(), want.len());
        assert!(got2
            .iter()
            .zip(&want)
            .all(|(g, &w)| g.tuple.value(0) == &Value::from(w as i64)));
        assert_eq!(exec2.budget().used(), 1500, "tail rows are charged per row");

        // Inserts after the pin are invisible to the epoch.
        t.insert(vec![Value::from(9999i64), Value::from(0.99)])
            .unwrap();
        let exec3 = ExecutionContext::new(ctx());
        let mut scan3 = ColumnScan::new(&epoch, 0..1500, None, false, None, &exec3, "cs").unwrap();
        assert_eq!(drain_batched(&mut scan3, 512).unwrap().len(), 1500);
    }

    /// The id of a join's pair: not one base row.
    fn pair_id() -> TupleId {
        TupleId::base(0, 1).combine(&TupleId::base(1, 1))
    }

    /// Under a tied worst kept entry the scan skips every block whose first
    /// id is past the worst id, and inside the block it reads builds only
    /// the ties with a smaller id.
    #[test]
    fn scoring_scan_prunes_ties_past_the_worst_kept_id() {
        let t = table(4096);
        let exec = ExecutionContext::new(ctx());
        let cell = Arc::new(TopKThreshold::new());
        exec.push_prune_threshold(BitSet64::all(1), Arc::clone(&cell));
        let mut scan = scan_all(&t, None, true, &exec);
        // Block 0's zone max is 0.99: tied with the worst kept score, with
        // ids from (0, 0); blocks 1..4 start past the worst id (0, 500).
        cell.raise(0.99, &TupleId::base(0, 500));
        let got = drain_batched(&mut scan, 1024).unwrap();
        // p = 0.99 where i ≡ 27 (mod 100): rows 27, 127, …, 427 tie and
        // sort before (0, 500); 527, …, 927 sort after it.
        let ids: Vec<u64> = got.iter().map(|g| g.tuple.id().parts()[0].1).collect();
        assert_eq!(ids, (0..5).map(|j| 27 + 100 * j).collect::<Vec<u64>>());
        assert_eq!(exec.blocks_pruned(), 3);
        assert_eq!(exec.budget().used(), 1024, "only block 0 is examined");
    }

    /// The tail is one more block: skipped whole when its caps bound ties
    /// the worst kept score and its first id is past the worst id, and
    /// otherwise decided row by row like sealed rows.
    #[test]
    fn scoring_scan_decides_the_tail_like_a_block() {
        let t = table(COLUMN_BLOCK_ROWS + 300);
        let scan = |worst: f64, id: TupleId| {
            let exec = ExecutionContext::new(ctx());
            let cell = Arc::new(TopKThreshold::new());
            exec.push_prune_threshold(BitSet64::all(1), Arc::clone(&cell));
            let mut scan = scan_all(&t, None, true, &exec);
            cell.raise(worst, &id);
            let got = drain_batched(&mut scan, 4096).unwrap();
            let ids: Vec<u64> = got.iter().map(|g| g.tuple.id().parts()[0].1).collect();
            (ids, exec.budget().used())
        };
        // Caps bound 1.0 = the worst score, first tail id (0, 1024) > (0, 0):
        // the tail is skipped; block 0 (zone max 0.99) is pruned too.
        assert_eq!(scan(1.0, TupleId::base(0, 0)), (vec![], 0));
        // A pair's id prunes no tie: the tail is read and each row scored.
        let (ids, used) = scan(0.99, pair_id());
        assert_eq!(used, COLUMN_BLOCK_ROWS as u64 + 300);
        let want: Vec<u64> = (0..COLUMN_BLOCK_ROWS as u64 + 300)
            .filter(|i| (i * 37) % 100 == 99)
            .collect();
        assert_eq!(ids, want);
    }
}
