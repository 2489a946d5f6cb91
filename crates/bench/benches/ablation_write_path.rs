//! Ablation: the epoch-extending write path vs the invalidate-and-rebuild
//! cliff it replaced.
//!
//! Three measurements on an 8 192-row table with warm caches (statistics
//! catalog + columnar projection + epoch machinery):
//!
//! * **warm/insert** — one appended row on the PR-7 write path: the row
//!   lands in the delta, the stats delta folds it in, and the columnar
//!   projection reseals only when a 1024-row block fills.  Amortised
//!   O(1)-ish per row.
//! * **rebuild/insert** — the historical cliff: every insert invalidates,
//!   so the next reader rebuilds the statistics catalog *and* the columnar
//!   projection from scratch.  O(n) per row; the within-run gate in
//!   `scripts/bench_compare.py` asserts warm/insert beats this by a wide
//!   margin.
//! * **cursor/open_topk_during_inserts** — reader latency while a writer
//!   keeps the delta hot: each iteration appends a row and then opens a
//!   fresh cursor for a top-10, which must pin its epoch and
//!   stream sealed blocks + frozen tail without any rebuild.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ranksql_common::{DataType, Field, Schema, Value};
use ranksql_core::{Database, PlanMode, QueryBuilder};
use ranksql_expr::RankPredicate;
use ranksql_storage::{Catalog, ColumnTable, StatsCatalog};

const BASE_ROWS: usize = 8_192;

fn row(i: i64) -> Vec<Value> {
    vec![
        Value::from(i),
        Value::from(i % 97),
        Value::from(((i * 37) % 1000) as f64 / 1000.0),
    ]
}

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("jc", DataType::Int64),
        Field::new("p", DataType::Float64),
    ])
}

fn bench_write_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_write_path");
    group.sample_size(10);

    // Warm path: statistics and columnar projection primed, every insert
    // extends them incrementally.
    group.bench_function("warm/insert", |bench| {
        let cat = Catalog::new();
        let t = cat.create_table("T", schema()).unwrap();
        for i in 0..BASE_ROWS as i64 {
            t.insert(row(i)).unwrap();
        }
        let _ = t.stats_catalog();
        let _ = t.columnar();
        let mut next = BASE_ROWS as i64;
        bench.iter(|| {
            t.insert(black_box(row(next))).unwrap();
            next += 1;
        })
    });

    // The cliff the epochs removed: insert, then rebuild the statistics
    // catalog and the columnar projection from scratch — what every
    // invalidating write used to cost the next reader.
    group.bench_function("rebuild/insert", |bench| {
        let cat = Catalog::new();
        let t = cat.create_table("T", schema()).unwrap();
        for i in 0..BASE_ROWS as i64 {
            t.insert(row(i)).unwrap();
        }
        let mut next = BASE_ROWS as i64;
        bench.iter(|| {
            t.insert(black_box(row(next))).unwrap();
            next += 1;
            let rows = t.scan();
            black_box(StatsCatalog::build(t.schema(), &rows).row_count);
            black_box(ColumnTable::from_rows(t.id(), t.name(), t.schema(), &rows).num_blocks());
        })
    });

    // Reader latency under writes: append one row, then open a fresh
    // cursor and pull the top 10.  The cursor pins its epoch
    // (sealed blocks + frozen tail) — no rebuild, however hot the delta.
    group.bench_function("cursor/open_topk_during_inserts", |bench| {
        let db = Database::new();
        db.create_table("T", schema()).unwrap();
        db.insert_batch("T", (0..BASE_ROWS as i64).map(row))
            .unwrap();
        let t = db.catalog().table("T").unwrap();
        let _ = t.stats_catalog();
        let _ = t.columnar();
        let query = QueryBuilder::new()
            .table("T")
            .rank_predicate(RankPredicate::attribute("p", "T.p"))
            .limit(10)
            .build()
            .unwrap();
        let session = db.session().with_mode(PlanMode::RankAware).with_threads(1);
        let prepared = session.prepare_query(query).unwrap();
        let mut next = BASE_ROWS as i64;
        bench.iter(|| {
            db.insert("T", row(next)).unwrap();
            next += 1;
            let mut cursor = prepared
                .bind(ranksql_core::Params::none())
                .unwrap()
                .cursor()
                .unwrap();
            black_box(cursor.take(10).unwrap().len())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_write_path);
criterion_main!(benches);
