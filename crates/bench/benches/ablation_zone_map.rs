//! Ablation: zone-map score pruning on the materialise-then-sort top-k
//! spine.
//!
//! The measured plan is `SortLimit(ColumnScan[zone-prune])` (Traditional
//! mode) over the same rows in two layouts:
//!
//! * **clustered** — scores fall with the row index, so the top-k heap
//!   fills in the first block and every later block's zone-map maximum is
//!   strictly below the threshold: the scan touches one block and prunes
//!   the rest (the zone-map best case);
//! * **shuffled** — scores are spread uniformly across blocks, so every
//!   block's maximum stays near 1.0 and pruning cannot trigger (the
//!   honest worst case: the scan materialises every row).
//!
//! Before timing, every configuration asserts that its result equals
//! `oracle_top_k` and reports `tuples_scanned`, which pruning must lower on
//! the clustered layout — the invariant `tests/storage_equivalence.rs`
//! pins.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ranksql_common::{DataType, Field, Schema, Value};
use ranksql_core::{Database, PlanMode, QueryBuilder};
use ranksql_executor::oracle_top_k;
use ranksql_expr::RankPredicate;

const ROWS: i64 = 32 * 1024; // 32 columnar blocks

/// Builds the single-table workload; `clustered` controls whether scores
/// fall with the row index or are spread across blocks.
fn build(clustered: bool) -> Database {
    let db = Database::new();
    db.create_table(
        "T",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("p", DataType::Float64),
        ]),
    )
    .unwrap();
    db.insert_batch(
        "T",
        (0..ROWS).map(|i| {
            let rank = if clustered {
                i
            } else {
                // Deterministic shuffle: stride coprime to ROWS spreads the
                // best scores across all blocks.
                (i * 31 + 7) % ROWS
            };
            vec![
                Value::from(i),
                Value::from((ROWS - rank) as f64 / ROWS as f64),
            ]
        }),
    )
    .unwrap();
    db.prebuild_columnar().unwrap();
    db
}

fn bench_zone_map(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_zone_map");
    group.sample_size(10);
    let layouts = [("clustered", build(true)), ("shuffled", build(false))];
    for k in [1usize, 10, 100] {
        let query = QueryBuilder::new()
            .table("T")
            .rank_predicate(RankPredicate::attribute("p", "T.p"))
            .limit(k)
            .build()
            .unwrap();
        let run = |db: &Database| {
            db.session()
                .with_mode(PlanMode::Traditional)
                .with_threads(1)
                .execute(&query)
                .unwrap()
        };
        let mut scanned = Vec::new();
        for (layout, db) in &layouts {
            // Correctness gate: the pruned top-k is the oracle's, in order.
            let got = run(db);
            let want = oracle_top_k(&query, db.catalog()).unwrap();
            let ids = |rows: &[ranksql_expr::RankedTuple]| -> Vec<_> {
                rows.iter().map(|t| t.tuple.id().clone()).collect()
            };
            assert_eq!(ids(&got.rows), ids(&want), "{layout}/k={k}");
            println!(
                "ablation_zone_map {layout}/k={k}: tuples_scanned={} (blocks pruned: {})",
                got.tuples_scanned, got.blocks_pruned
            );
            scanned.push(got.tuples_scanned);
            group.bench_function(format!("{layout}/k{k}"), |b| {
                b.iter(|| black_box(run(db).rows.len()))
            });
        }
        assert!(
            scanned[0] < scanned[1],
            "k={k}: pruning must lower tuples_scanned on the clustered layout"
        );
    }
    group.finish();
}

criterion_group!(benches, bench_zone_map);
criterion_main!(benches);
