//! End-to-end integration tests through the `Database` facade and the SQL
//! front end, over the paper's synthetic workload.

use ranksql::executor::oracle_top_k;
use ranksql::workload::{SyntheticConfig, SyntheticWorkload};
use ranksql::{parse_topk_query, Database, PlanMode, Value};

/// Copies a generated workload catalog into a `Database`.
fn into_database(workload: &SyntheticWorkload) -> Database {
    let db = Database::new();
    for name in workload.catalog.table_names() {
        let src = workload.catalog.table(&name).unwrap();
        let dst = db
            .create_table(
                &name,
                ranksql::Schema::new(
                    src.schema()
                        .fields()
                        .iter()
                        .map(|f| ranksql::Field::new(f.name.clone(), f.data_type))
                        .collect(),
                ),
            )
            .unwrap();
        for t in src.scan() {
            dst.insert(t.values().to_vec()).unwrap();
        }
    }
    db
}

#[test]
fn parsed_query_q_matches_oracle_under_all_plan_modes() {
    let workload = SyntheticWorkload::generate(SyntheticConfig {
        table_size: 150,
        join_selectivity: 0.02,
        predicate_cost: 1,
        k: 10,
        ..SyntheticConfig::default()
    })
    .unwrap();
    let db = into_database(&workload);

    // The paper's query Q, straight through the SQL front end.
    let query = parse_topk_query(
        "SELECT * FROM A, B, C \
         WHERE A.jc1 = B.jc1 AND B.jc2 = C.jc2 AND A.b AND B.b \
         ORDER BY f1(A.p1) + f2(A.p2) + f3(B.p1) + f4(B.p2) + f5(C.p1) \
         LIMIT 10",
    )
    .unwrap();

    let oracle = oracle_top_k(&query, db.catalog()).unwrap();
    let expected: Vec<f64> = oracle
        .iter()
        .map(|t| query.ranking.upper_bound(&t.state).value())
        .collect();

    for mode in [
        PlanMode::Canonical,
        PlanMode::Traditional,
        PlanMode::RankAware,
        PlanMode::RankAwareExhaustive,
    ] {
        let result = db.execute_with_mode(&query, mode).unwrap();
        assert_eq!(result.scores(), expected, "mode {mode:?}");
        assert!(result.rows.len() <= 10);
    }
}

#[test]
fn rank_aware_mode_does_less_predicate_work_with_expensive_predicates() {
    let workload = SyntheticWorkload::generate(SyntheticConfig {
        table_size: 150,
        join_selectivity: 0.02,
        predicate_cost: 20,
        k: 5,
        ..SyntheticConfig::default()
    })
    .unwrap();
    let db = into_database(&workload);
    let query = &workload.query;

    let canonical = db.execute_with_mode(query, PlanMode::Canonical).unwrap();
    let rank_aware = db.execute_with_mode(query, PlanMode::RankAware).unwrap();
    assert_eq!(canonical.scores(), rank_aware.scores());
    assert!(
        rank_aware.total_predicate_evaluations() <= canonical.total_predicate_evaluations(),
        "rank-aware: {} evaluations, canonical: {}",
        rank_aware.total_predicate_evaluations(),
        canonical.total_predicate_evaluations()
    );
}

#[test]
fn incremental_k_semantics() {
    // Increasing k only extends the result list; the prefix stays the same.
    let workload = SyntheticWorkload::generate(SyntheticConfig {
        table_size: 120,
        join_selectivity: 0.05,
        predicate_cost: 1,
        k: 3,
        ..SyntheticConfig::default()
    })
    .unwrap();
    let db = into_database(&workload);
    let mut q3 = workload.query.clone();
    q3.k = 3;
    let mut q8 = workload.query.clone();
    q8.k = 8;
    let r3 = db.execute_with_mode(&q3, PlanMode::RankAware).unwrap();
    let r8 = db.execute_with_mode(&q8, PlanMode::RankAware).unwrap();
    assert!(r8.rows.len() >= r3.rows.len());
    for (a, b) in r3.scores().iter().zip(r8.scores().iter()) {
        assert!((a - b).abs() < 1e-9);
    }
}

#[test]
fn projection_through_the_facade() {
    let db = Database::new();
    db.create_table(
        "T",
        ranksql::Schema::new(vec![
            ranksql::Field::new("id", ranksql::DataType::Int64),
            ranksql::Field::new("noise", ranksql::DataType::Utf8),
            ranksql::Field::new("p", ranksql::DataType::Float64),
        ]),
    )
    .unwrap();
    for i in 0..30i64 {
        db.insert(
            "T",
            vec![
                Value::from(i),
                Value::from(format!("row-{i}")),
                Value::from((i as f64) / 30.0),
            ],
        )
        .unwrap();
    }
    let query = parse_topk_query("SELECT T.id FROM T ORDER BY T.p LIMIT 4").unwrap();
    let result = db.execute_with_mode(&query, PlanMode::Canonical).unwrap();
    assert_eq!(result.schema.len(), 1);
    assert_eq!(result.rows.len(), 4);
    assert_eq!(result.rows[0].tuple.value(0), &Value::from(29));
}

/// `explain_analyze` of the paper's Q executed under its rank-aware plan.
fn explain_analyze_of_q() -> String {
    let workload = SyntheticWorkload::generate(SyntheticConfig {
        table_size: 150,
        join_selectivity: 0.02,
        predicate_cost: 1,
        k: 10,
        ..SyntheticConfig::default()
    })
    .unwrap();
    let db = into_database(&workload);
    let query = parse_topk_query(
        "SELECT * FROM A, B, C \
         WHERE A.jc1 = B.jc1 AND B.jc2 = C.jc2 AND A.b AND B.b \
         ORDER BY f1(A.p1) + f2(A.p2) + f3(B.p1) + f4(B.p2) + f5(C.p1) \
         LIMIT 10",
    )
    .unwrap();
    let result = db.execute_with_mode(&query, PlanMode::RankAware).unwrap();
    result.explain_analyze(Some(&query.ranking))
}

/// Every operator is pulled through the one `next_batch`, so every plan line
/// that produced rows reports its batches and their mean fill — scans and
/// selections beneath a rank-join as much as the join.
#[test]
fn explain_analyze_reports_batches_and_mean_fill() {
    let analyzed = explain_analyze_of_q();
    let plan_lines: Vec<&str> = analyzed
        .lines()
        .filter(|l| l.contains("actual_rows="))
        .collect();
    assert!(plan_lines.len() >= 8, "{analyzed}");
    for line in plan_lines {
        let (_, rows) = line.split_once("actual_rows=").unwrap();
        let produced_rows = !rows.starts_with('0');
        let reports = line.contains("batches=") && line.contains("mean_batch_fill=");
        assert_eq!(reports, produced_rows, "{line}\n{analyzed}");
    }
}

#[test]
fn explain_analyze_of_q_shows_what_every_rank_aware_operator_buffered() {
    let analyzed = explain_analyze_of_q();

    // µ, MPro and the rank-joins hold tuples back to stop early; their
    // lines say how many at the peak.  Nothing else buffers, nothing else
    // reports.
    let buffering = |line: &str| {
        let label = line.trim_start();
        ["HRJN[", "NRJN[", "Rank_", "MPro["]
            .iter()
            .any(|op| label.starts_with(op))
    };
    let peak_of = |line: &str| -> Option<u64> {
        let (_, rest) = line.split_once("buffered_peak=")?;
        rest.trim_end_matches(')').parse().ok()
    };
    let plan_lines: Vec<&str> = analyzed
        .lines()
        .filter(|l| l.contains("actual_rows="))
        .collect();
    for line in &plan_lines {
        assert_eq!(peak_of(line).is_some(), buffering(line), "{analyzed}");
    }
    let joins: Vec<&&str> = plan_lines.iter().filter(|l| l.contains("HRJN[")).collect();
    assert_eq!(
        joins.len(),
        2,
        "Q joins three tables rank-aware:\n{analyzed}"
    );
    for line in joins {
        // A rank-join holds at least every tuple it drew.
        assert!(peak_of(line).unwrap() >= 2, "{analyzed}");
    }
}
