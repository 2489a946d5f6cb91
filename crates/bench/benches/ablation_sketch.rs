//! Ablation: staged distinct-count sketch accuracy vs naive sample scale-up.
//!
//! Sweeps the true cardinality across the sketch's three stages — small
//! (≤ 16), array (≤ 1024, both exact) and HLL registers (approximate) —
//! and, before timing, reports each estimator's relative NDV error on a
//! table of `4 × NDV` rows:
//!
//! * **sketch** — the incrementally maintained catalog NDV
//!   (`Table::stats_catalog`), exact through the array stage and within a
//!   few percent in the HLL stage;
//! * **sampled** — the classical baseline at 5 %: distinct values counted
//!   in a reservoir sample and scaled by the inverse ratio, which
//!   overshoots whenever the sample repeats values.
//!
//! The timed portion measures what the maintenance actually costs: the
//! per-insert streaming fold (`insert` into a stats-warm table) against a
//! cold from-scratch `stats_catalog()` build at each cardinality.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ranksql_common::{DataType, Field, Schema, Value};
use std::collections::HashSet;
use std::sync::Arc;

use ranksql_storage::{sample_fraction, Catalog, StatsCatalog, Table};

const SAMPLE_RATIO: f64 = 0.05;
const SEED: u64 = 7;

/// Builds a one-column table with exactly `ndv` distinct keys over
/// `4 * ndv` rows (every key appears four times).
fn build(ndv: usize) -> Arc<Table> {
    let cat = Catalog::new();
    let t = cat
        .create_table("T", Schema::new(vec![Field::new("k", DataType::Int64)]))
        .unwrap();
    for i in 0..ndv * 4 {
        t.insert(vec![Value::from((i % ndv) as i64)]).unwrap();
    }
    cat.table("T").unwrap()
}

/// Naive NDV scale-up of column 0: distinct values in a `ratio` sample
/// divided by the achieved sample ratio, capped at the row count.
fn sampled_scale_up_ndv(table: &Table, ratio: f64, seed: u64) -> f64 {
    let sample = sample_fraction(table, ratio, seed).unwrap();
    let rows = table.row_count() as f64;
    let achieved = (sample.len() as f64 / rows).max(f64::EPSILON);
    let distinct: HashSet<&Value> = sample.iter().map(|t| t.value(0)).collect();
    (distinct.len() as f64 / achieved).round().min(rows)
}

fn bench_sketch(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_sketch");
    group.sample_size(10);

    // NDV sweep spanning all three stages: 12 (small), 800 (array),
    // 8_000 and 40_000 (HLL).
    for ndv in [12usize, 800, 8_000, 40_000] {
        let table = build(ndv);
        let stats = table.stats_catalog().unwrap();
        let summary = stats.column("T.k").expect("column stats");
        let sketch_ndv = summary.ndv() as f64;
        let sketch_err = (sketch_ndv - ndv as f64).abs() / ndv as f64;
        let sampled_ndv = sampled_scale_up_ndv(&table, SAMPLE_RATIO, SEED);
        let sampled_err = (sampled_ndv - ndv as f64).abs() / ndv as f64;
        println!(
            "ablation_sketch: ndv={ndv} stage={} sketch={sketch_ndv:.0} (err {:.1}%) \
             sampled-scale-up={sampled_ndv:.0} (err {:.1}%)",
            summary.sketch.stage(),
            sketch_err * 100.0,
            sampled_err * 100.0,
        );
        assert!(
            sketch_err < 0.05,
            "ndv={ndv}: sketch error {sketch_err:.3} above the 5% pin"
        );
        assert!(
            sketch_err <= sampled_err + 1e-9,
            "ndv={ndv}: sketch (err {sketch_err:.3}) should not lose to \
             naive scale-up (err {sampled_err:.3})"
        );

        // Incremental maintenance cost: one streamed row into a warm table.
        group.bench_with_input(
            BenchmarkId::new("insert_maintains_stats", ndv),
            &ndv,
            |bench, &ndv| {
                let warm = build(ndv);
                let _ = warm.stats_catalog().unwrap(); // warm: inserts fold incrementally
                let mut next = (ndv * 4) as i64;
                bench.iter(|| {
                    warm.insert(vec![Value::from(black_box(next % ndv as i64))])
                        .unwrap();
                    next += 1;
                })
            },
        );
        // The rescan it replaces: a from-scratch build over the full
        // column (`Table::stats_catalog` caches, so drive the builder
        // directly on a row snapshot).
        group.bench_with_input(
            BenchmarkId::new("cold_rebuild", ndv),
            &ndv,
            |bench, &ndv| {
                let cold = build(ndv);
                let schema = cold.schema();
                let rows = cold.scan();
                bench.iter(|| black_box(StatsCatalog::build(schema, &rows).row_count))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sketch);
criterion_main!(benches);
