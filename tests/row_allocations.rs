//! Heap allocations per materialised row, counted rather than timed.
//!
//! A counting global allocator tallies the allocations the current thread
//! makes, so each assertion is exact and independent of the test harness's
//! other threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ranksql::common::TupleId;
use ranksql::{Tuple, Value};

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Fresh allocations (not reallocations) of at least `LARGE_AT` bytes.
    static LARGE: Cell<usize> = const { Cell::new(0) };
    static LARGE_AT: Cell<usize> = const { Cell::new(usize::MAX) };
}

struct Counting;

fn count_one() {
    // `try_with`: a thread being torn down may still free or allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn count_fresh(size: usize) {
    count_one();
    if LARGE_AT.try_with(Cell::get).is_ok_and(|at| size >= at) {
        let _ = LARGE.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_fresh(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_fresh(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Runs `f` and returns its result with the fresh allocations of at least
/// `bytes` bytes it made.
fn counted_large<T>(bytes: usize, f: impl FnOnce() -> T) -> (T, usize) {
    LARGE_AT.with(|at| at.set(bytes));
    let before = LARGE.with(Cell::get);
    let out = f();
    LARGE_AT.with(|at| at.set(usize::MAX));
    (out, LARGE.with(Cell::get) - before)
}

fn base(table: u32, row: u64, name: &str) -> Tuple {
    Tuple::new(
        TupleId::base(table, row),
        [Value::from(row as i64), Value::from(0.5), Value::from(name)],
    )
}

#[test]
fn joining_two_base_tuples_allocates_once() {
    let (a, b) = (base(0, 1, "a"), base(1, 2, "b"));
    let (joined, n) = counted(|| a.join(&b));
    assert_eq!(n, 1, "values and a pair identity in one allocation");
    assert_eq!(joined.arity(), 6);
    assert_eq!(joined.id().parts(), &[(0, 1), (1, 2)]);
}

#[test]
fn a_three_table_join_allocates_twice() {
    let ab = base(0, 1, "a").join(&base(1, 2, "b"));
    let c = base(2, 3, "c");
    let (joined, n) = counted(|| ab.join(&c));
    assert_eq!(n, 2, "the values, and the shared three-part identity");
    assert_eq!(joined.id().parts(), &[(0, 1), (1, 2), (2, 3)]);
    let (_, n) = counted(|| joined.clone());
    assert_eq!(n, 0, "cloning a joined tuple is two refcount bumps");
}

#[test]
fn project_allocates_once() {
    let t = base(0, 7, "seven");
    let (p, n) = counted(|| t.project(&[2, 0]));
    assert_eq!(n, 1);
    assert_eq!(p.values(), &[Value::from("seven"), Value::from(7)]);
    assert_eq!(p.id(), t.id());
}

#[test]
fn cloning_a_string_value_allocates_nothing() {
    let v = Value::from("a string long enough to need the heap");
    let (copy, n) = counted(|| v.clone());
    assert_eq!(n, 0);
    assert_eq!(copy, v);
}

/// Allocations of running a nested-loops join of two `n`-row tables whose
/// condition admits no pair.
fn empty_nested_loops_join(n: i64) -> usize {
    use ranksql::algebra::PhysicalPlan;
    use ranksql::executor::{execute_physical_plan, ExecutionContext};
    use ranksql::storage::Catalog;
    use ranksql::{
        BoolExpr, CompareOp, DataType, Field, JoinAlgorithm, LogicalPlan, RankPredicate,
        RankingContext, ScalarExpr, Schema, ScoringFunction,
    };

    let catalog = Catalog::new();
    for name in ["L", "R"] {
        let table = catalog
            .create_table(name, Schema::new(vec![Field::new("a", DataType::Int64)]))
            .unwrap();
        for a in 0..n {
            table.insert(vec![Value::from(a)]).unwrap();
        }
    }
    let (l, r) = (catalog.table("L").unwrap(), catalog.table("R").unwrap());
    let never = BoolExpr::compare(
        ScalarExpr::col("L.a"),
        CompareOp::Lt,
        ScalarExpr::col("R.a"),
    )
    .and(BoolExpr::compare(
        ScalarExpr::col("L.a"),
        CompareOp::Gt,
        ScalarExpr::col("R.a"),
    ));
    let plan = PhysicalPlan::from_logical(&LogicalPlan::scan(&l).join(
        LogicalPlan::scan(&r),
        Some(never),
        JoinAlgorithm::NestedLoop,
    ))
    .unwrap();
    let ranking = RankingContext::new(
        vec![RankPredicate::attribute("p", "L.a")],
        ScoringFunction::Sum,
    );
    let exec = ExecutionContext::new(ranking).with_threads(1);
    let (result, n) = counted(|| execute_physical_plan(&plan, &catalog, &exec).unwrap());
    assert!(result.tuples.is_empty());
    n
}

#[test]
fn a_nested_loops_join_decides_before_it_builds() {
    let (small, large) = (empty_nested_loops_join(16), empty_nested_loops_join(64));
    // The larger join tests 3 840 more pairs over 96 more scanned rows.
    // Building each tested pair costs an allocation per pair; deciding on
    // the pair in place leaves at most a few per scanned row.
    let extra_rows = 2 * (64 - 16);
    assert!(
        large.saturating_sub(small) <= 4 * extra_rows,
        "16x16 join allocated {small} times, 64x64 {large} times"
    );
}

/// Appending 256 rows to a table whose tail a reader has pinned copies the
/// tail once: one fresh allocation as large as the pinned tail for the
/// whole batch, and the pin keeps its rows.
#[test]
fn a_batch_under_a_pin_copies_the_tail_once() {
    use ranksql::storage::Table;
    use ranksql::{DataType, Field, Schema};

    let table = Table::new(
        0,
        "T",
        Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("p", DataType::Float64),
        ]),
    );
    let row = |i: i64| vec![Value::from(i), Value::from(0.5)];
    table.insert_batch((0..500).map(row)).unwrap();
    let pinned = table.pin_epoch();
    let tail_bytes = pinned.tail().len() * std::mem::size_of::<Tuple>();
    let rows: Vec<Vec<Value>> = (500..756).map(row).collect();
    let (n, copies) = counted_large(tail_bytes, || table.insert_batch(rows).unwrap());
    assert_eq!(n, 256);
    assert_eq!(copies, 1, "one tail copy for the batch");
    assert_eq!(pinned.row_count(), 500);
    assert_eq!(table.pin_epoch().tail().len(), 756);
}
