//! The plan-invariant validator's contract, from both sides.
//!
//! **Negative paths**: a corpus of hand-mutated physical plans — each one a
//! realistic way an optimizer rewrite could go wrong (a projection of a
//! column that does not exist, a cost annotation left stale, a
//! zone-pruning scan that lost its `SortLimit` spine…) — where the
//! validator must fire the *expected* rule id at the expected severity.
//! Together the corpus exercises every one of the nine rules.
//!
//! **Positive path**: a proptest that every plan the real optimizer emits —
//! all four [`PlanMode`]s × in-memory and paged databases — validates with
//! zero `Error`-severity diagnostics, logical and physical alike.  This is the guarantee that lets `ranksql-core` hard-fail
//! planning on validator errors in debug builds.

use proptest::prelude::*;

use ranksql::algebra::{ColumnarScan, PhysicalOp, PhysicalPlan};
use ranksql::common::{BitSet64, Cost};
use ranksql::expr::RankPredicate;
use ranksql::verify::{report, ValidateOptions};
use ranksql::{
    validate_logical, validate_physical, BoolExpr, CompareOp, DataType, Database, Diagnostic,
    Field, JoinAlgorithm, PlanMode, QueryBuilder, RankQuery, Rule, ScalarExpr, Schema, Severity,
    Value,
};

// ---------------------------------------------------------------------------
// Corpus scaffolding
// ---------------------------------------------------------------------------

/// Validates with no ranking context and default options — the common case
/// for the structural mutants.
fn diags(plan: &PhysicalPlan) -> Vec<Diagnostic> {
    validate_physical(plan, None, &ValidateOptions::default())
}

/// Asserts that `diags` contains at least one diagnostic for `rule` at
/// `severity`, with the full report in the failure message.
fn assert_fires(diags: &[Diagnostic], rule: Rule, severity: Severity) {
    assert!(
        diags
            .iter()
            .any(|d| d.rule == rule && d.severity == severity),
        "expected [{severity}] {} to fire, got:\n{}",
        rule.id(),
        report(diags)
    );
}

fn t_schema() -> Schema {
    Schema::new(vec![
        Field::qualified("T", "id", DataType::Int64),
        Field::qualified("T", "p", DataType::Float64),
    ])
}

fn scan_t() -> PhysicalPlan {
    PhysicalPlan::unestimated(PhysicalOp::SeqScan {
        table: "T".to_owned(),
        schema: t_schema(),
        columnar: None,
    })
}

fn scan(table: &str, fields: &[(&str, DataType)]) -> PhysicalPlan {
    PhysicalPlan::unestimated(PhysicalOp::SeqScan {
        table: table.to_owned(),
        schema: Schema::new(
            fields
                .iter()
                .map(|(n, t)| Field::qualified(table, *n, *t))
                .collect(),
        ),
        columnar: None,
    })
}

/// A two-predicate ranking context (p1 over `R.p1`, p2 over `S.p2`) for the
/// range-check mutants; no database needed.
fn two_pred_query() -> RankQuery {
    QueryBuilder::new()
        .tables(["R", "S"])
        .filter(BoolExpr::col_eq_col("R.jc", "S.jc"))
        .rank_predicate(RankPredicate::attribute("p1", "R.p1"))
        .rank_predicate(RankPredicate::attribute("p2", "S.p2"))
        .limit(3)
        .build()
        .unwrap()
}

// ---------------------------------------------------------------------------
// Negative-path corpus: one mutant per way a rewrite can go wrong
// ---------------------------------------------------------------------------

/// π of a column the input does not provide: the node's output schema is
/// underivable.
#[test]
fn projection_of_missing_column_fires_schema_coherence() {
    let mutant = PhysicalPlan::unestimated(PhysicalOp::Project {
        input: Box::new(scan_t()),
        columns: vec!["T.no_such_column".to_owned()],
    });
    assert_fires(&diags(&mutant), Rule::SchemaCoherence, Severity::Error);
}

/// σ over a column the input schema does not provide.
#[test]
fn filter_on_unknown_column_fires_schema_predicate_columns() {
    let mutant = PhysicalPlan::unestimated(PhysicalOp::Filter {
        input: Box::new(scan_t()),
        predicate: BoolExpr::compare(
            ScalarExpr::col("T.missing"),
            CompareOp::Gt,
            ScalarExpr::lit(0.0),
        ),
    });
    assert_fires(
        &diags(&mutant),
        Rule::SchemaPredicateColumns,
        Severity::Error,
    );
}

/// A join condition naming a column from neither side.
#[test]
fn join_condition_on_foreign_column_fires_schema_predicate_columns() {
    let mutant = PhysicalPlan::unestimated(PhysicalOp::Join {
        left: Box::new(scan("R", &[("jc", DataType::Int64)])),
        right: Box::new(scan("S", &[("jc", DataType::Int64)])),
        condition: Some(BoolExpr::col_eq_col("R.jc", "Q.elsewhere")),
        algorithm: JoinAlgorithm::Hash,
    });
    assert_fires(
        &diags(&mutant),
        Rule::SchemaPredicateColumns,
        Severity::Error,
    );
}

/// A filter referencing `$3` when slots `$0..$2` are never used: bindings
/// are positional, the gap can never be filled.
#[test]
fn dangling_param_slot_warns_params_slots() {
    let mutant = PhysicalPlan::unestimated(PhysicalOp::Filter {
        input: Box::new(scan_t()),
        predicate: BoolExpr::compare(
            ScalarExpr::col("T.p"),
            CompareOp::GtEq,
            ScalarExpr::param(3),
        ),
    });
    assert_fires(&diags(&mutant), Rule::ParamSlots, Severity::Warning);
}

/// The same plan about to *execute* (cursor-open options): an unbound slot
/// is a hard error, not a cached-shape curiosity.
#[test]
fn unbound_param_at_execution_fires_params_slots_error() {
    let mutant = PhysicalPlan::unestimated(PhysicalOp::Filter {
        input: Box::new(scan_t()),
        predicate: BoolExpr::compare(
            ScalarExpr::col("T.p"),
            CompareOp::GtEq,
            ScalarExpr::param(0),
        ),
    });
    let d = validate_physical(&mutant, None, &ValidateOptions::executable());
    assert_fires(&d, Rule::ParamSlots, Severity::Error);
    // Bound, the same shape is clean.
    let bound = mutant.with_params(&[Value::from(0.5)]).unwrap();
    let d = validate_physical(&bound, None, &ValidateOptions::executable());
    assert!(d.is_empty(), "bound plan should be clean:\n{}", report(&d));
}

/// A cumulative cost annotation below its child's: some rewrite rebuilt the
/// node and forgot to re-aggregate.
#[test]
fn shrinking_cumulative_cost_fires_cost_monotonic() {
    let child = PhysicalPlan {
        op: scan_t().op,
        estimated_cost: Cost(50.0),
        estimated_rows: 10.0,
    };
    let mutant = PhysicalPlan {
        op: PhysicalOp::Limit {
            input: Box::new(child),
            k: 5,
        },
        estimated_cost: Cost(1.0),
        estimated_rows: 5.0,
    };
    assert_fires(&diags(&mutant), Rule::CostMonotonic, Severity::Error);
}

/// NaN costs and negative cardinalities poison every comparison downstream.
#[test]
fn nan_cost_and_negative_rows_fire_cost_finite() {
    let mutant = PhysicalPlan {
        op: scan_t().op,
        estimated_cost: Cost(f64::NAN),
        estimated_rows: -1.0,
    };
    let d = diags(&mutant);
    let finite: Vec<_> = d.iter().filter(|d| d.rule == Rule::CostFinite).collect();
    assert_eq!(finite.len(), 2, "cost and rows each fire:\n{}", report(&d));
    assert_fires(&d, Rule::CostFinite, Severity::Error);
}

/// A pushed filter that is not column-vs-constant: the column-at-a-time
/// kernels cannot evaluate a column-vs-column comparison.
#[test]
fn column_vs_column_pushed_filter_fires_columnar_pushed_filter() {
    let mutant = PhysicalPlan::unestimated(PhysicalOp::SeqScan {
        table: "T".to_owned(),
        schema: t_schema(),
        columnar: Some(ColumnarScan {
            pushed_filter: Some(BoolExpr::col_eq_col("T.id", "T.p")),
            zone_prune: false,
        }),
    });
    assert_fires(&diags(&mutant), Rule::ColumnarPushedFilter, Severity::Error);
}

/// A pushed filter over a column outside the scanned schema: the kernel
/// would index a column vector that does not exist.
#[test]
fn out_of_schema_pushed_filter_fires_columnar_pushed_filter() {
    let mutant = PhysicalPlan::unestimated(PhysicalOp::SeqScan {
        table: "T".to_owned(),
        schema: t_schema(),
        columnar: Some(ColumnarScan {
            pushed_filter: Some(BoolExpr::compare(
                ScalarExpr::col("T.phantom"),
                CompareOp::Eq,
                ScalarExpr::lit(1i64),
            )),
            zone_prune: false,
        }),
    });
    assert_fires(&diags(&mutant), Rule::ColumnarPushedFilter, Severity::Error);
}

/// A zone-pruning scan under a plain `Limit` (no `SortLimit` spine): there
/// is no top-k threshold to prune against, so pruning would drop rows.
#[test]
fn zone_prune_without_sortlimit_fires_columnar_zone_prune() {
    let pruning_scan = PhysicalPlan::unestimated(PhysicalOp::SeqScan {
        table: "T".to_owned(),
        schema: t_schema(),
        columnar: Some(ColumnarScan {
            pushed_filter: None,
            zone_prune: true,
        }),
    });
    let mutant = PhysicalPlan::unestimated(PhysicalOp::Limit {
        input: Box::new(pruning_scan.clone()),
        k: 5,
    });
    assert_fires(&diags(&mutant), Rule::ColumnarZonePrune, Severity::Error);

    // The legal spine — SortLimit → σ → scan — stays clean.
    let legal = PhysicalPlan::unestimated(PhysicalOp::SortLimit {
        input: Box::new(PhysicalPlan::unestimated(PhysicalOp::Filter {
            input: Box::new(pruning_scan),
            predicate: BoolExpr::compare(
                ScalarExpr::col("T.id"),
                CompareOp::Gt,
                ScalarExpr::lit(0i64),
            ),
        })),
        predicates: BitSet64::singleton(0),
        k: 5,
    });
    let d = diags(&legal);
    assert!(d.is_empty(), "legal spine flagged:\n{}", report(&d));
}

/// A µ evaluating predicate #7 of a two-predicate context.
#[test]
fn out_of_range_rank_predicate_fires_rank_predicate_range() {
    let query = two_pred_query();
    let mutant = PhysicalPlan::unestimated(PhysicalOp::RankMaterialize {
        input: Box::new(scan(
            "R",
            &[("jc", DataType::Int64), ("p1", DataType::Float64)],
        )),
        predicate: 7,
    });
    let d = validate_physical(&mutant, Some(&query.ranking), &ValidateOptions::default());
    assert_fires(&d, Rule::RankPredicateRange, Severity::Error);
}

/// k = 0 is legal but almost certainly a mistake — a warning, not an error.
#[test]
fn zero_limits_warn_limit_zero() {
    let limit = PhysicalPlan::unestimated(PhysicalOp::Limit {
        input: Box::new(scan_t()),
        k: 0,
    });
    assert_fires(&diags(&limit), Rule::LimitZero, Severity::Warning);
    let sort_limit = PhysicalPlan::unestimated(PhysicalOp::SortLimit {
        input: Box::new(scan_t()),
        predicates: BitSet64::singleton(0),
        k: 0,
    });
    let d = diags(&sort_limit);
    assert_fires(&d, Rule::LimitZero, Severity::Warning);
    assert!(
        !d.iter().any(|x| x.severity == Severity::Error),
        "k = 0 must not be an error:\n{}",
        report(&d)
    );
}

/// The acceptance bar: the corpus above exercises every rule.
#[test]
fn corpus_covers_all_nine_rules() {
    let query = two_pred_query();
    let rank_scan = |fields: &[(&str, DataType)]| scan("R", fields);
    let mutants: Vec<(PhysicalPlan, Option<&RankQuery>)> = vec![
        (
            PhysicalPlan::unestimated(PhysicalOp::Project {
                input: Box::new(scan_t()),
                columns: vec!["T.no_such_column".to_owned()],
            }),
            None,
        ),
        (
            PhysicalPlan::unestimated(PhysicalOp::Filter {
                input: Box::new(scan_t()),
                predicate: BoolExpr::compare(
                    ScalarExpr::col("T.missing"),
                    CompareOp::Gt,
                    ScalarExpr::lit(0.0),
                ),
            }),
            None,
        ),
        (
            PhysicalPlan::unestimated(PhysicalOp::Filter {
                input: Box::new(scan_t()),
                predicate: BoolExpr::compare(
                    ScalarExpr::col("T.p"),
                    CompareOp::GtEq,
                    ScalarExpr::param(3),
                ),
            }),
            None,
        ),
        (
            PhysicalPlan {
                op: PhysicalOp::Limit {
                    input: Box::new(PhysicalPlan {
                        op: scan_t().op,
                        estimated_cost: Cost(50.0),
                        estimated_rows: 10.0,
                    }),
                    k: 5,
                },
                estimated_cost: Cost(1.0),
                estimated_rows: 5.0,
            },
            None,
        ),
        (
            PhysicalPlan {
                op: scan_t().op,
                estimated_cost: Cost(f64::NAN),
                estimated_rows: -1.0,
            },
            None,
        ),
        (
            PhysicalPlan::unestimated(PhysicalOp::SeqScan {
                table: "T".to_owned(),
                schema: t_schema(),
                columnar: Some(ColumnarScan {
                    pushed_filter: Some(BoolExpr::col_eq_col("T.id", "T.p")),
                    zone_prune: false,
                }),
            }),
            None,
        ),
        (
            PhysicalPlan::unestimated(PhysicalOp::Limit {
                input: Box::new(PhysicalPlan::unestimated(PhysicalOp::SeqScan {
                    table: "T".to_owned(),
                    schema: t_schema(),
                    columnar: Some(ColumnarScan {
                        pushed_filter: None,
                        zone_prune: true,
                    }),
                })),
                k: 5,
            }),
            None,
        ),
        (
            PhysicalPlan::unestimated(PhysicalOp::RankMaterialize {
                input: Box::new(rank_scan(&[
                    ("jc", DataType::Int64),
                    ("p1", DataType::Float64),
                ])),
                predicate: 7,
            }),
            Some(&query),
        ),
        (
            PhysicalPlan::unestimated(PhysicalOp::Limit {
                input: Box::new(scan_t()),
                k: 0,
            }),
            None,
        ),
    ];
    let mut fired: Vec<&'static str> = Vec::new();
    for (mutant, q) in &mutants {
        let d = validate_physical(mutant, q.map(|q| &*q.ranking), &ValidateOptions::default());
        fired.extend(d.iter().map(|d| d.rule.id()));
    }
    fired.sort_unstable();
    fired.dedup();
    assert_eq!(fired.len(), 9, "{fired:?}");
    for id in [
        "schema.coherence",
        "schema.predicate-columns",
        "params.slots",
        "cost.monotonic",
        "cost.finite",
        "columnar.pushed-filter",
        "columnar.zone-prune",
        "rank.predicate-range",
        "limit.zero",
    ] {
        assert!(fired.contains(&id), "rule {id} never fired: {fired:?}");
    }
}

// ---------------------------------------------------------------------------
// Positive path: everything the real optimizer emits validates clean
// ---------------------------------------------------------------------------

/// A process-unique scratch directory for paged databases, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ranksql-pv-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const ALL_MODES: [PlanMode; 4] = [
    PlanMode::Canonical,
    PlanMode::Traditional,
    PlanMode::RankAware,
    PlanMode::RankAwareExhaustive,
];

/// A randomly generated two-table join workload.
#[derive(Debug, Clone)]
struct Workload {
    r_rows: Vec<(i64, f64, bool)>,
    s_rows: Vec<(i64, f64)>,
    k: usize,
}

fn workload() -> impl Strategy<Value = Workload> {
    (
        proptest::collection::vec((0..6i64, 0.0..1.0f64, any::<bool>()), 1..30),
        proptest::collection::vec((0..6i64, 0.0..1.0f64), 1..30),
        1..10usize,
    )
        .prop_map(|(r_rows, s_rows, k)| Workload { r_rows, s_rows, k })
}

fn populate(db: &Database, w: &Workload) -> RankQuery {
    db.create_table(
        "R",
        Schema::new(vec![
            Field::new("jc", DataType::Int64),
            Field::new("p1", DataType::Float64),
            Field::new("flag", DataType::Bool),
        ]),
    )
    .unwrap();
    db.create_table(
        "S",
        Schema::new(vec![
            Field::new("jc", DataType::Int64),
            Field::new("p2", DataType::Float64),
        ]),
    )
    .unwrap();
    for &(jc, p1, flag) in &w.r_rows {
        db.insert(
            "R",
            vec![Value::from(jc), Value::from(p1), Value::from(flag)],
        )
        .unwrap();
    }
    for &(jc, p2) in &w.s_rows {
        db.insert("S", vec![Value::from(jc), Value::from(p2)])
            .unwrap();
    }
    QueryBuilder::new()
        .tables(["R", "S"])
        .filter(BoolExpr::col_eq_col("R.jc", "S.jc"))
        .filter(BoolExpr::compare(
            ScalarExpr::col("R.p1"),
            CompareOp::GtEq,
            ScalarExpr::lit(0.1),
        ))
        .rank_predicate(RankPredicate::attribute("p1", "R.p1"))
        .rank_predicate(RankPredicate::attribute("p2", "S.p2"))
        .limit(w.k)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    /// Every optimizer-emitted plan — 4 modes × in-memory and paged
    /// databases — validates with zero `Error` diagnostics, logical and
    /// physical alike.
    #[test]
    fn optimizer_emitted_plans_validate_clean(w in workload()) {
        let mem_db = Database::new();
        let query = populate(&mem_db, &w);
        let dir = TempDir::new("prop");
        let paged_db = Database::open_paged(dir.path()).unwrap();
        populate(&paged_db, &w);

        for (db, opened) in [(&mem_db, "in-memory"), (&paged_db, "paged")] {
            for mode in ALL_MODES {
                let optimized = db.session().with_mode(mode).plan(&query).unwrap();
                let logical = validate_logical(
                    &optimized.plan,
                    Some(&query.ranking),
                    &ValidateOptions::default(),
                );
                prop_assert!(
                    !logical.iter().any(|d| d.severity == Severity::Error),
                    "{opened} database, mode {mode:?}: logical plan failed validation:\n{}",
                    report(&logical)
                );
                let physical = validate_physical(
                    &optimized.physical,
                    Some(&query.ranking),
                    &ValidateOptions::default(),
                );
                prop_assert!(
                    !physical.iter().any(|d| d.severity == Severity::Error),
                    "{opened} database, mode {mode:?}: physical plan failed validation:\n{}",
                    report(&physical)
                );
            }
        }
    }
}

/// The public surfaces agree: `Database::verify_plan`,
/// `Session::verify_plan` and the `explain` footer all report a clean bill
/// for a healthy query.
#[test]
fn verify_plan_apis_and_explain_footer_report_clean() {
    let db = Database::new();
    db.create_table(
        "T",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("p", DataType::Float64),
        ]),
    )
    .unwrap();
    for i in 0..64i64 {
        db.insert("T", vec![Value::from(i), Value::from(i as f64 / 64.0)])
            .unwrap();
    }
    let query = QueryBuilder::new()
        .table("T")
        .rank_predicate(RankPredicate::attribute("p", "T.p"))
        .limit(5)
        .build()
        .unwrap();
    for mode in ALL_MODES {
        let d = db.verify_plan(&query, mode).unwrap();
        assert!(
            !d.iter().any(|x| x.severity == Severity::Error),
            "mode {mode:?}:\n{}",
            report(&d)
        );
        let explain = db.session().with_mode(mode).explain(&query).unwrap();
        assert!(
            explain.contains("plan validation: clean"),
            "mode {mode:?}: footer missing from:\n{explain}"
        );
    }
    let d = db.session().verify_plan(&query).unwrap();
    assert!(d.is_empty(), "session verify_plan:\n{}", report(&d));
}
