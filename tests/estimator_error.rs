//! Statistics-catalog accuracy and maintenance harness.
//!
//! The first half measures the catalog's NDV against the classical
//! baseline it replaced: distinct values counted in a sample and scaled up
//! by the inverse sample ratio, which is badly biased for low- and
//! mid-cardinality columns.  The sketch-backed catalog must be exact in its
//! array stage and within a few percent in its HLL stage, and never worse
//! than the naive scale-up.
//!
//! The second half holds property tests pinning the *algebra* that makes
//! incremental maintenance sound: merging per-block sketch partials is
//! indistinguishable from a from-scratch build, and a table catalog
//! maintained incrementally across inserts equals a cold rebuild.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;
use ranksql::storage::{sample_fraction, Catalog, DistinctSketch, StatsCatalog, Table};
use ranksql::{DataType, Field, Schema, Value};

const ROWS: usize = 2000;
/// `jc = i % DISTINCT` — 40 distinct join values, 50 rows each, exactly.
const DISTINCT: usize = 40;
const SAMPLE_RATIO: f64 = 0.2;
const SEED: u64 = 7;

/// Two-table catalog with a low-cardinality join column: the regime where
/// naive sampled NDV scale-up is most wrong (a 20 % sample still sees all
/// 40 values, which scale-up turns into 200).
fn setup(rows: usize) -> Catalog {
    let cat = Catalog::new();
    for (name, score) in [("A", "p1"), ("B", "p2")] {
        cat.create_table(
            name,
            Schema::new(vec![
                Field::new("jc", DataType::Int64),
                Field::new(score, DataType::Float64),
            ]),
        )
        .unwrap();
    }
    let (a, b) = (cat.table("A").unwrap(), cat.table("B").unwrap());
    for i in 0..rows {
        a.insert(vec![
            Value::from((i % DISTINCT) as i64),
            Value::from(((i * 37) % 1000) as f64 / 1000.0),
        ])
        .unwrap();
        b.insert(vec![
            Value::from((i % DISTINCT) as i64),
            Value::from(((i * 61) % 1000) as f64 / 1000.0),
        ])
        .unwrap();
    }
    cat
}

/// Naive NDV scale-up of column 0: distinct values in a `ratio` sample
/// divided by the achieved sample ratio, capped at the row count.
fn sampled_scale_up_ndv(table: &Table, ratio: f64) -> f64 {
    let sample = sample_fraction(table, ratio, SEED).unwrap();
    let rows = table.row_count() as f64;
    let achieved = (sample.len() as f64 / rows).max(f64::EPSILON);
    let distinct: HashSet<&Value> = sample.iter().map(|t| t.value(0)).collect();
    (distinct.len() as f64 / achieved).round().min(rows)
}

#[test]
fn sketch_catalog_ndv_beats_naive_sample_scale_up() {
    // 40 distinct values sit well inside the sketch's exact array stage,
    // so the catalog reads them exactly; a 20 % sample sees all 40, and the
    // naive scale-up inflates them 5x.
    let cat = setup(ROWS);
    for (table, col) in [("A", "A.jc"), ("B", "B.jc")] {
        let t = cat.table(table).unwrap();
        let ndv = t.stats_catalog().unwrap().column(col).unwrap().ndv();
        assert_eq!(ndv, DISTINCT, "catalog NDV of {col}");
        let scaled = sampled_scale_up_ndv(&t, SAMPLE_RATIO);
        assert!(
            scaled >= 100.0,
            "the naive scale-up of {col} should be visibly wrong here, got {scaled}"
        );
    }
}

#[test]
fn hll_stage_ndv_error_stays_below_naive_sample_scale_up() {
    // Mid-cardinality regime: 4 000 distinct keys over 20 000 rows pushes
    // the sketch past its exact array stage into HLL (approximate), while
    // naive sample scale-up is at its worst — a 5 % sample sees most of the
    // 4 000 values more than once, yet scale-up multiplies the ~900 it
    // sees by 20, wildly overshooting the true count.
    let cat = Catalog::new();
    let t = cat
        .create_table("U", Schema::new(vec![Field::new("k", DataType::Int64)]))
        .unwrap();
    let rows = 20_000usize;
    let n = 4_000usize;
    for i in 0..rows {
        t.insert(vec![Value::from((i % n) as i64)]).unwrap();
    }
    let stats = t.stats_catalog().unwrap();
    let sketch_ndv = stats.column("U.k").unwrap().ndv() as f64;
    let sketch_err = (sketch_ndv - n as f64).abs() / n as f64;
    assert!(
        sketch_err < 0.05,
        "HLL-stage NDV {sketch_ndv} off by {sketch_err:.3} for true {n}"
    );

    let sampled_ndv = sampled_scale_up_ndv(&t, 0.05);
    let sampled_err = (sampled_ndv - n as f64).abs() / n as f64;
    assert!(
        sketch_err <= sampled_err + 1e-9,
        "sketch NDV err {sketch_err:.3} should not exceed sampled-scale-up err {sampled_err:.3}"
    );
}

/// Cold rebuild of a table's statistics from a full scan — the reference
/// the incrementally maintained catalog must match.  Uses the same table
/// name as the warm table so the qualified column names line up.
fn cold_rebuild(schema: &Schema, rows: &[Vec<Value>]) -> Arc<StatsCatalog> {
    let cat = Catalog::new();
    let t = cat.create_table("W", schema.clone()).unwrap();
    for r in rows {
        t.insert(r.clone()).unwrap();
    }
    t.stats_catalog().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Merging per-block partial sketches is exactly equivalent to one
    /// from-scratch build over the concatenated stream — the invariant
    /// that lets `Table::insert` fold 1024-row block partials into the
    /// catalog instead of rescanning the column.
    #[test]
    fn incremental_sketch_merge_equals_from_scratch(
        hashes in proptest::collection::vec(any::<u64>(), 0..3000usize),
    ) {
        let mut whole = DistinctSketch::new();
        for h in &hashes {
            whole.insert_hash(*h);
        }
        let mut merged = DistinctSketch::new();
        for block in hashes.chunks(1024) {
            let mut partial = DistinctSketch::new();
            for h in block {
                partial.insert_hash(*h);
            }
            merged.merge(&partial);
        }
        prop_assert_eq!(merged, whole);
    }

    /// The incrementally maintained catalog equals a cold rebuild *at
    /// every 1024-row seal boundary the insert stream crosses* — the
    /// moments PR 7's write path folds the delta partial into the sealed
    /// catalog — not just at the end.
    #[test]
    fn stats_match_cold_rebuild_at_every_seal_boundary(
        n in 1usize..2300,
        prime in 0usize..2300,
        salt in 0i64..1000,
    ) {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("x", DataType::Float64),
        ]);
        let rows: Vec<Vec<Value>> = (0..n as i64)
            .map(|i| {
                vec![
                    Value::from((i * 37 + salt) % 191),
                    Value::from(((i * 61 + salt) % 997) as f64 / 997.0),
                ]
            })
            .collect();
        let prime = prime.min(n);
        let cat = Catalog::new();
        let t = cat.create_table("W", schema.clone()).unwrap();
        for r in &rows[..prime] {
            t.insert(r.clone()).unwrap();
        }
        let _ = t.stats_catalog().unwrap();
        for (i, r) in rows[prime..].iter().enumerate() {
            t.insert(r.clone()).unwrap();
            let len = prime + i + 1;
            if len % 1024 == 0 {
                prop_assert_eq!(
                    t.cached_stats().unwrap(),
                    cold_rebuild(&schema, &rows[..len]),
                    "diverged at the {len}-row seal boundary"
                );
            }
        }
        prop_assert_eq!(t.cached_stats().unwrap(), cold_rebuild(&schema, &rows));
    }

    /// A catalog maintained incrementally across interleaved builds and
    /// inserts equals a cold rebuild over the same rows, wherever the
    /// build point falls relative to the data.
    #[test]
    fn incremental_table_catalog_equals_cold_rebuild(
        keys in proptest::collection::vec(0i64..64, 1..300usize),
        split in 0usize..300,
    ) {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("x", DataType::Float64),
        ]);
        let rows: Vec<Vec<Value>> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| vec![Value::from(*k), Value::from(i as f64 / 300.0)])
            .collect();
        let split = split.min(rows.len());

        let cat = Catalog::new();
        let t = cat.create_table("W", schema.clone()).unwrap();
        for r in &rows[..split] {
            t.insert(r.clone()).unwrap();
        }
        // Force the build mid-stream; the inserts after it must keep the
        // catalog fresh incrementally.
        let _ = t.stats_catalog().unwrap();
        for r in &rows[split..] {
            t.insert(r.clone()).unwrap();
        }
        let warm = t.cached_stats().expect("catalog was built above");
        prop_assert_eq!(warm, cold_rebuild(&schema, &rows));
    }
}

#[test]
fn seal_boundary_edge_cases_match_cold_rebuild() {
    // Deterministic off-by-one sweep around the first two seal boundaries:
    // 1023 (one row short of a seal), 1024 (the seal fires, delta empties),
    // 1025 (a fresh one-row delta), and the same trio around 2048.  NDV,
    // min and max must equal a from-scratch build at every one of them.
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("x", DataType::Float64),
    ]);
    for n in [1023usize, 1024, 1025, 2047, 2048, 2049] {
        let rows: Vec<Vec<Value>> = (0..n as i64)
            .map(|i| vec![Value::from(i % 131), Value::from((i as f64).sin())])
            .collect();
        let cat = Catalog::new();
        let t = cat.create_table("W", schema.clone()).unwrap();
        // Prime the catalog on the empty table so every single insert runs
        // through the incremental delta/seal path.
        assert_eq!(t.stats_catalog().unwrap().row_count, 0);
        for r in &rows {
            t.insert(r.clone()).unwrap();
        }
        let warm = t.cached_stats().unwrap();
        assert_eq!(warm.row_count, n);
        assert_eq!(warm, cold_rebuild(&schema, &rows), "row count {n}");

        // And the headline summaries directly against the data.
        let k = warm.column("W.k").unwrap();
        assert_eq!(k.ndv(), n.min(131), "NDV at row count {n}");
        assert_eq!(k.min, Some(0.0));
        assert_eq!(k.max, Some((n.min(131) - 1) as f64), "max at row count {n}");
        let x = warm.column("W.x").unwrap();
        let sins = || (0..n).map(|i| (i as f64).sin());
        assert_eq!(x.min, Some(sins().fold(f64::INFINITY, f64::min)));
        assert_eq!(x.max, Some(sins().fold(f64::NEG_INFINITY, f64::max)));
    }
}

#[test]
fn incremental_catalog_survives_block_boundaries() {
    // Deterministic companion to the property above: the build point and
    // the follow-up inserts straddle the 1024-row block boundary, so the
    // partial-block merge path is definitely exercised.
    let schema = Schema::new(vec![Field::new("k", DataType::Int64)]);
    let rows: Vec<Vec<Value>> = (0..2100).map(|i| vec![Value::from(i % 97)]).collect();

    let cat = Catalog::new();
    let t = cat.create_table("W", schema.clone()).unwrap();
    for r in &rows[..1500] {
        t.insert(r.clone()).unwrap();
    }
    let mid = t.stats_catalog().unwrap();
    assert_eq!(mid.row_count, 1500);
    for r in &rows[1500..] {
        t.insert(r.clone()).unwrap();
    }
    let warm = t.cached_stats().unwrap();
    assert_eq!(warm.row_count, 2100);
    assert_eq!(warm.column("W.k").unwrap().ndv(), 97);
    assert_eq!(warm, cold_rebuild(&schema, &rows));
}
