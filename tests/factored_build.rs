//! A hash join whose build side is itself an equi hash join, with the outer
//! key on one of the inner join's inputs, drains that build side
//! *factored*: the inner join's two inputs, each row linked to its pairs,
//! and no pair built.  Each test here runs such a plan and its reference —
//! the same plan with the inner join under an identity projection, which
//! the outer join drains as it drains any operator — at every thread count
//! and morsel size, and compares what the parent semantics fix: the output
//! (ids and score bits; in order wherever no top-k orders it) and the
//! `rows` each join decides.  Keys hold NULLs (a NULL key matches nothing,
//! as in the reference), scores hold ties and NaNs.

use std::sync::Arc;

use ranksql::algebra::{JoinAlgorithm, LogicalPlan, OperatorActuals, PhysicalPlan};
use ranksql::common::BitSet64;
use ranksql::executor::{execute_physical_plan, ExecutionContext};
use ranksql::expr::{RankPredicate, RankingContext, ScoringFunction};
use ranksql::storage::Catalog;
use ranksql::{BoolExpr, CompareOp, DataType, Field, ScalarExpr, Schema, Value};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const MORSEL_SIZES: [usize; 3] = [1, 7, 1024];

/// Three tables `A`, `B`, `C` of `id, k1, k2, s` (`B` also `flag`): small
/// key domains with NULLs, scores with ties and, in `C`, NaNs.
fn catalog() -> Catalog {
    let cat = Catalog::new();
    for (name, rows, salt) in [("A", 40, 3), ("B", 50, 5), ("C", 60, 7)] {
        let mut fields = vec![
            Field::new("id", DataType::Int64),
            Field::new("k1", DataType::Int64),
            Field::new("k2", DataType::Int64),
            Field::new("s", DataType::Float64),
        ];
        if name == "B" {
            fields.push(Field::new("flag", DataType::Bool));
        }
        let table = cat.create_table(name, Schema::new(fields)).unwrap();
        for i in 0..rows as i64 {
            let key = |m: i64| match (i * salt + m) % 11 {
                0 => Value::Null,
                k => Value::from(k % 6),
            };
            let s = match (name, i % 13) {
                ("C", 5) => f64::NAN,
                _ => ((i * 37 + salt) % 13) as f64 / 16.0,
            };
            let mut row = vec![Value::from(i), key(1), key(4), Value::from(s)];
            if name == "B" {
                row.push(Value::from(i % 5 != 0));
            }
            table.insert(row).unwrap();
        }
    }
    cat
}

/// One predicate per table and, `across`, one over `B` and `C` — else a
/// second over `A` — under `scoring`; caps below 1 let a bound under `Max`
/// or `Min` saturate, so ties leave build rows in input order.
fn ranking(scoring: ScoringFunction, across: bool) -> Arc<RankingContext> {
    let fourth = match across {
        true => ScalarExpr::col("B.s").mul(ScalarExpr::col("C.s")),
        false => ScalarExpr::col("A.s").mul(ScalarExpr::col("A.s")),
    };
    RankingContext::new(
        vec![
            RankPredicate::attribute("fa", "A.s"),
            RankPredicate::attribute("fb", "B.s"),
            RankPredicate::attribute("fc", "C.s"),
            RankPredicate::expression("f4", fourth, 0),
        ],
        scoring,
    )
    .with_predicate_caps(vec![0.75, 1.0, 0.75, 0.75])
}

/// What sits on the outer join.
#[derive(Debug, Clone, Copy)]
enum Top {
    SortLimit(usize),
    Sort,
    Bare,
}

/// `top(A ⋈[outer] (σB ⋈[inner] C))`; with `reference`, the inner join
/// under an identity projection, which keeps it from factoring.
fn plan(
    cat: &Catalog,
    outer: &BoolExpr,
    inner: &BoolExpr,
    top: Top,
    reference: bool,
) -> PhysicalPlan {
    let scan = |name: &str| LogicalPlan::scan(&cat.table(name).unwrap());
    let flagged = scan("B").select(BoolExpr::column_is_true("B.flag"));
    let mut build = flagged.join(scan("C"), Some(inner.clone()), JoinAlgorithm::Hash);
    if reference {
        let columns = [
            "B.id", "B.k1", "B.k2", "B.s", "B.flag", "C.id", "C.k1", "C.k2", "C.s",
        ];
        build = build.project(columns.map(String::from).to_vec());
    }
    let join = scan("A").join(build, Some(outer.clone()), JoinAlgorithm::Hash);
    let plan = match top {
        Top::SortLimit(k) => join.sort(BitSet64::all(4)).limit(k),
        Top::Sort => join.sort(BitSet64::all(4)),
        Top::Bare => join,
    };
    PhysicalPlan::from_logical(&plan).unwrap()
}

/// The output's ids and score bits, and the inner and outer joins' actuals.
type Run = (
    Vec<(ranksql::common::TupleId, u64)>,
    OperatorActuals,
    OperatorActuals,
);

fn run(
    cat: &Catalog,
    plan: &PhysicalPlan,
    ranking: &Arc<RankingContext>,
    threads: usize,
    morsel: usize,
) -> Run {
    let exec = ExecutionContext::new(Arc::clone(ranking))
        .with_threads(threads)
        .with_morsel_size(morsel);
    let result = execute_physical_plan(plan, cat, &exec).unwrap();
    let out = result.tuples.iter().map(|t| {
        let score = ranking.upper_bound(&t.state).value().to_bits();
        (t.tuple.id().clone(), score)
    });
    // Post-order: the inner join, then the outer one.
    let actuals = result.operator_actuals();
    let mut joins = actuals.iter().filter(|a| a.label.starts_with("HashJoin"));
    let (inner, outer) = (joins.next().unwrap().clone(), joins.next().unwrap().clone());
    (out.collect(), inner, outer)
}

/// Runs the plan and its reference everywhere, under each of `scorings`,
/// and checks they agree; `factors` says whether the inner join builds
/// nothing (its build side factored) or what the reference builds.
fn assert_matches_reference(outer: &BoolExpr, inner: &BoolExpr, top: Top, factors: bool) {
    let cat = catalog();
    let scorings = match top {
        Top::SortLimit(_) => [
            ScoringFunction::Sum,
            ScoringFunction::Min,
            ScoringFunction::Max,
        ]
        .into_iter()
        .flat_map(|f| [(f.clone(), true), (f, false)])
        .collect(),
        _ => vec![(ScoringFunction::Sum, true)],
    };
    let (plan_under_test, reference) = (
        plan(&cat, outer, inner, top, false),
        plan(&cat, outer, inner, top, true),
    );
    for (scoring, across) in scorings {
        let ranking = ranking(scoring.clone(), across);
        for threads in THREAD_COUNTS {
            for morsel in MORSEL_SIZES {
                let at = format!("{top:?} {scoring} {across} threads={threads} morsel={morsel}");
                let (want, want_inner, want_outer) =
                    run(&cat, &reference, &ranking, threads, morsel);
                let (got, inner, outer) = run(&cat, &plan_under_test, &ranking, threads, morsel);
                assert!(!want.is_empty(), "{at}");
                assert_eq!(got, want, "{at}");
                assert_eq!(inner.rows, want_inner.rows, "{at}: the inner join decides");
                assert_eq!(outer.rows, want_outer.rows, "{at}: the outer join decides");
                let built = if factors { 0 } else { want_inner.built };
                assert_eq!(inner.built, built, "{at}: the inner join builds");
                assert!(want_inner.built > 0, "{at}");
            }
        }
    }
}

fn eq(a: &str, b: &str) -> BoolExpr {
    BoolExpr::col_eq_col(a, b)
}

fn lt(a: &str, b: &str) -> BoolExpr {
    BoolExpr::compare(ScalarExpr::col(a), CompareOp::Lt, ScalarExpr::col(b))
}

/// The outer key on the inner join's probe (left) input, as in Q.
#[test]
fn a_key_on_the_inner_probe_side_factors() {
    for top in [Top::SortLimit(1), Top::SortLimit(7), Top::Sort, Top::Bare] {
        assert_matches_reference(&eq("A.k1", "B.k1"), &eq("B.k2", "C.k2"), top, true);
    }
}

/// The outer key on the inner join's build (right) input factors beneath a
/// top-k; unscored, a factored walk would emit C-major where the inner
/// join emits σB-major, so it drains the inner join as an operator.
#[test]
fn a_key_on_the_inner_build_side_factors_beneath_a_top_k() {
    let (outer, inner) = (eq("A.k1", "C.k1"), eq("B.k2", "C.k2"));
    assert_matches_reference(&outer, &inner, Top::SortLimit(7), true);
    for top in [Top::Sort, Top::Bare] {
        assert_matches_reference(&outer, &inner, top, false);
    }
}

/// A non-equi residual on the inner join, the outer one, or both: each
/// keyed row's pairs count only what passes, and a skipped row's results
/// are decided by evaluating them.
#[test]
fn residuals_decide_what_a_factored_walk_skips() {
    let inner = eq("B.k2", "C.k2").and(lt("B.id", "C.id"));
    let outer = eq("A.k1", "B.k1").and(lt("C.id", "A.id").or(lt("A.id", "B.id")));
    for (outer, inner) in [
        (eq("A.k1", "B.k1"), inner.clone()),
        (outer.clone(), eq("B.k2", "C.k2")),
        (outer, inner),
    ] {
        for top in [Top::SortLimit(7), Top::SortLimit(1), Top::Bare] {
            assert_matches_reference(&outer, &inner, top, true);
        }
    }
}

/// A NULL key matches nothing, factored as in the reference: no result
/// pairs a NULL key at either level.
#[test]
fn null_join_keys_never_pair_as_in_the_reference() {
    let cat = catalog();
    let (outer, inner) = (eq("A.k1", "B.k1"), eq("B.k2", "C.k2"));
    let bare = plan(&cat, &outer, &inner, Top::Bare, false);
    let exec = ExecutionContext::new(ranking(ScoringFunction::Sum, true));
    let result = execute_physical_plan(&bare, &cat, &exec).unwrap();
    // A(id, k1, k2, s) ⋈ B(id, k1, k2, s, flag) ⋈ C(id, k1, k2, s).
    let null = |t: &ranksql::Tuple, col: usize| t.value(col) == &Value::Null;
    assert!(!result.tuples.is_empty());
    assert!(!result
        .tuples
        .iter()
        .any(|t| null(&t.tuple, 1) || null(&t.tuple, 5)));
    assert!(!result
        .tuples
        .iter()
        .any(|t| null(&t.tuple, 6) || null(&t.tuple, 11)));
    assert_matches_reference(&outer, &inner, Top::SortLimit(7), true);
}

/// An outer key whose columns lie on both inner inputs cannot link one
/// input's rows to the other's: the build side drains as the reference's.
#[test]
fn a_key_spanning_both_inner_inputs_falls_back() {
    let outer = eq("A.k1", "B.k1").and(eq("A.k2", "C.k2"));
    for top in [Top::SortLimit(7), Top::Sort, Top::Bare] {
        assert_matches_reference(&outer, &eq("B.k2", "C.k2"), top, false);
    }
}
