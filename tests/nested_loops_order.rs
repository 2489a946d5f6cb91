//! The nested-loops join's output order: probe-major — each left row in
//! input order, paired with the right rows it joins in input order — at
//! every batch size, for a cross join, an equi condition and a condition
//! with no equi conjunct.  A sort over the join returns the serial answer,
//! with the same per-operator `rows`, at every thread count and morsel
//! size, and under a limit the join draws only the probe rows it reaches.

use std::sync::Arc;

use ranksql::algebra::{JoinAlgorithm, LogicalPlan, PhysicalPlan};
use ranksql::common::BitSet64;
use ranksql::executor::{execute_physical_plan, ExecutionContext, ExecutionResult};
use ranksql::expr::{RankPredicate, RankingContext, ScoringFunction};
use ranksql::storage::Catalog;
use ranksql::{BoolExpr, CompareOp, DataType, Field, ScalarExpr, Schema, Value};

/// Rows `(id, a, s)` of `L` (13) and `R` (11): keys from a domain of 4
/// with repeats, scores with ties.
fn rows(name: &str) -> Vec<(i64, i64, f64)> {
    let (n, salt) = if name == "L" { (13, 3) } else { (11, 5) };
    (0..n)
        .map(|i| (i, (i * salt + 1) % 4, ((i * 7 + salt) % 5) as f64 / 4.0))
        .collect()
}

fn catalog() -> Catalog {
    let cat = Catalog::new();
    for name in ["L", "R"] {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("a", DataType::Int64),
            Field::new("s", DataType::Float64),
        ]);
        let table = cat.create_table(name, schema).unwrap();
        for (id, a, s) in rows(name) {
            let row = vec![Value::from(id), Value::from(a), Value::from(s)];
            table.insert(row).unwrap();
        }
    }
    cat
}

fn ranking() -> Arc<RankingContext> {
    RankingContext::new(
        vec![
            RankPredicate::attribute("fl", "L.s"),
            RankPredicate::attribute("fr", "R.s"),
        ],
        ScoringFunction::Sum,
    )
}

/// The conditions under test, each with the pairs of rows it accepts.
type Accepts = fn(&(i64, i64, f64), &(i64, i64, f64)) -> bool;

fn conditions() -> [(&'static str, Option<BoolExpr>, Accepts); 3] {
    let less = BoolExpr::compare(
        ScalarExpr::col("L.s"),
        CompareOp::Lt,
        ScalarExpr::col("R.s"),
    );
    [
        ("cross", None, |_, _| true),
        ("equi", Some(BoolExpr::col_eq_col("L.a", "R.a")), |l, r| {
            l.1 == r.1
        }),
        ("residual", Some(less), |l, r| l.2 < r.2),
    ]
}

fn nested_loops(cat: &Catalog, condition: &Option<BoolExpr>) -> LogicalPlan {
    let scan = |name: &str| LogicalPlan::scan(&cat.table(name).unwrap());
    scan("L").join(scan("R"), condition.clone(), JoinAlgorithm::NestedLoop)
}

fn run(cat: &Catalog, plan: &LogicalPlan, exec: ExecutionContext) -> ExecutionResult {
    let plan = PhysicalPlan::from_logical(plan).unwrap();
    execute_physical_plan(&plan, cat, &exec).unwrap()
}

/// Each output row's `(L.id, R.id)`.
fn pairs(result: &ExecutionResult) -> Vec<(i64, i64)> {
    let id = |t: &ranksql::Tuple, col: usize| t.value(col).as_i64().unwrap();
    (result.tuples.iter())
        .map(|t| (id(&t.tuple, 0), id(&t.tuple, 3)))
        .collect()
}

/// Each operator's label and `rows`, in post-order.
fn rows_per_operator(result: &ExecutionResult) -> Vec<(String, u64)> {
    let actuals = result.operator_actuals();
    actuals.into_iter().map(|a| (a.label, a.rows)).collect()
}

#[test]
fn a_nested_loops_join_emits_probe_major_in_input_order() {
    let cat = catalog();
    let (l, r) = (rows("L"), rows("R"));
    for (name, condition, accepts) in conditions() {
        let want: Vec<(i64, i64)> = (l.iter())
            .flat_map(|lr| {
                r.iter()
                    .filter(move |rr| accepts(lr, rr))
                    .map(|rr| (lr.0, rr.0))
            })
            .collect();
        assert!(!want.is_empty(), "{name}");
        let plan = nested_loops(&cat, &condition);
        let mut serial_rows = None;
        for batch in [1, 2, 3, 1024] {
            let exec = ExecutionContext::new(ranking())
                .with_threads(1)
                .with_batch_size(batch);
            let result = run(&cat, &plan, exec);
            assert_eq!(pairs(&result), want, "{name} batch={batch}");
            let rows = rows_per_operator(&result);
            assert_eq!(
                rows,
                *serial_rows.get_or_insert(rows.clone()),
                "{name} batch={batch}"
            );
        }
    }
}

#[test]
fn a_sort_over_a_nested_loops_join_is_the_serial_sort_at_every_thread_count() {
    let cat = catalog();
    for (name, condition, _) in conditions() {
        let plan = nested_loops(&cat, &condition).sort(BitSet64::all(2));
        let answer = |result: &ExecutionResult| {
            let score = |t: &ranksql::expr::RankedTuple| ranking().upper_bound(&t.state).value();
            let scores = result.tuples.iter().map(|t| score(t).to_bits());
            pairs(result).into_iter().zip(scores).collect::<Vec<_>>()
        };
        let serial = run(
            &cat,
            &plan,
            ExecutionContext::new(ranking()).with_threads(1),
        );
        assert!(!serial.tuples.is_empty(), "{name}");
        for threads in [1, 2, 4] {
            for morsel in [1, 7, 1024] {
                let exec = ExecutionContext::new(ranking())
                    .with_threads(threads)
                    .with_morsel_size(morsel);
                let result = run(&cat, &plan, exec);
                let at = format!("{name} threads={threads} morsel={morsel}");
                assert_eq!(answer(&result), answer(&serial), "{at}");
                assert_eq!(
                    rows_per_operator(&result),
                    rows_per_operator(&serial),
                    "{at}"
                );
            }
        }
    }
}

/// Under a limit, the join draws a probe row only when the build rows of
/// the ones before it ran out: `R` has 11 rows, so 5 results need one `L`
/// row and 15 need two.
#[test]
fn a_limited_nested_loops_join_draws_only_the_probe_rows_it_reaches() {
    let cat = catalog();
    for (k, drawn) in [(5, 1), (11, 1), (15, 2)] {
        let plan = nested_loops(&cat, &None).limit(k);
        for batch in [1, 1024] {
            let exec = ExecutionContext::new(ranking())
                .with_threads(1)
                .with_batch_size(batch);
            let result = run(&cat, &plan, exec);
            assert_eq!(result.tuples.len(), k);
            let rows = rows_per_operator(&result);
            let scan = rows.iter().find(|(label, _)| label == "SeqScan(L)");
            assert_eq!(scan.map(|s| s.1), Some(drawn), "k={k} batch={batch}");
        }
    }
}
