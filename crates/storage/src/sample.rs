//! Reservoir sampling of tables.
//!
//! The optimizer's sampling-based cardinality estimator (Section 5.2 of the
//! paper) "randomly samples a small number of tuples from each table and
//! evaluates all the predicates over each tuple".  This module provides the
//! sampling primitive; the estimator itself lives in `ranksql-optimizer`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ranksql_common::{Result, Tuple};

use crate::table::Table;

/// Draws a uniform random sample of `sample_size` tuples from `table` using
/// reservoir sampling (Vitter's algorithm R), deterministic for a given seed.
///
/// If the table has fewer rows than `sample_size` the whole table is
/// returned.  The relative order of sampled tuples follows their position in
/// the table (reservoir slots are positional), which keeps sample execution
/// deterministic.  Algorithm R's draws depend only on row positions, so the
/// positions are drawn first and only the sampled rows are read, through
/// the pinned epoch: sampling a paged table faults only the sampled blocks,
/// and a failed fault's error is returned.
pub fn reservoir_sample(table: &Table, sample_size: usize, seed: u64) -> Result<Vec<Tuple>> {
    if sample_size == 0 {
        return Ok(Vec::new());
    }
    let epoch = table.pin_epoch();
    let n = epoch.row_count();
    if n <= sample_size {
        return epoch.tuples(0..n);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ u64::from(table.id()));
    let mut reservoir: Vec<usize> = (0..sample_size).collect();
    for i in sample_size..n {
        let j = rng.gen_range(0..=i);
        if j < sample_size {
            reservoir[j] = i;
        }
    }
    epoch.tuples(reservoir)
}

/// Draws a sample of `ratio` (e.g. `0.001` for the paper's 0.1 %) of the
/// table, with a minimum of one tuple for non-empty tables so that tiny
/// tables still produce usable samples.
pub fn sample_fraction(table: &Table, ratio: f64, seed: u64) -> Result<Vec<Tuple>> {
    let n = table.row_count();
    if n == 0 {
        return Ok(Vec::new());
    }
    let size = ((n as f64 * ratio).round() as usize).max(1);
    reservoir_sample(table, size, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use ranksql_common::{DataType, Field, Schema, Value};
    use std::collections::HashSet;

    fn table(n: i64) -> Table {
        let schema = Schema::new(vec![Field::qualified("T", "x", DataType::Int64)]);
        let mut b = TableBuilder::new("T", schema);
        for i in 0..n {
            b = b.row(vec![Value::from(i)]);
        }
        b.build(0).unwrap()
    }

    #[test]
    fn sample_has_requested_size_and_unique_tuples() {
        let t = table(1000);
        let s = reservoir_sample(&t, 50, 7).unwrap();
        assert_eq!(s.len(), 50);
        let ids: HashSet<_> = s.iter().map(|t| t.id().clone()).collect();
        assert_eq!(ids.len(), 50, "sampling without replacement");
    }

    #[test]
    fn sample_is_deterministic_for_seed() {
        let t = table(500);
        let a = reservoir_sample(&t, 20, 42).unwrap();
        let b = reservoir_sample(&t, 20, 42).unwrap();
        assert_eq!(a, b);
        let c = reservoir_sample(&t, 20, 43).unwrap();
        assert_ne!(a, c, "different seeds should (overwhelmingly) differ");
    }

    #[test]
    fn small_table_returned_whole() {
        let t = table(5);
        assert_eq!(reservoir_sample(&t, 10, 1).unwrap().len(), 5);
        assert!(reservoir_sample(&t, 0, 1).unwrap().is_empty());
    }

    #[test]
    fn fraction_sampling() {
        let t = table(2000);
        let s = sample_fraction(&t, 0.01, 3).unwrap();
        assert_eq!(s.len(), 20);
        // Tiny tables still yield at least one tuple.
        let tiny = table(3);
        assert_eq!(sample_fraction(&tiny, 0.001, 3).unwrap().len(), 1);
        let empty = table(0);
        assert!(sample_fraction(&empty, 0.5, 3).unwrap().is_empty());
    }

    /// Algorithm R as it ran over a row slice before sampling drew
    /// positions first, kept verbatim as the reference.
    fn reservoir_over_rows(tuples: &[Tuple], table_id: u32, size: usize, seed: u64) -> Vec<Tuple> {
        if tuples.len() <= size {
            return tuples.to_vec();
        }
        let mut rng = StdRng::seed_from_u64(seed ^ u64::from(table_id));
        let mut reservoir: Vec<Tuple> = tuples[..size].to_vec();
        for (i, t) in tuples.iter().enumerate().skip(size) {
            let j = rng.gen_range(0..=i);
            if j < size {
                reservoir[j] = t.clone();
            }
        }
        reservoir
    }

    #[test]
    fn sampling_by_position_draws_what_the_row_loop_drew() {
        use crate::column::COLUMN_BLOCK_ROWS;
        // Three sealed blocks plus a tail.
        let t = table(3 * COLUMN_BLOCK_ROWS as i64 + 77);
        assert_eq!(t.pin_epoch().tail().len(), 77);
        let rows = t.scan();
        for seed in [0, 1, 42, 0xDEAD_BEEF] {
            for size in [
                1,
                10,
                500,
                COLUMN_BLOCK_ROWS + 3,
                rows.len(),
                rows.len() + 1,
            ] {
                assert_eq!(
                    reservoir_sample(&t, size, seed).unwrap(),
                    reservoir_over_rows(&rows, t.id(), size, seed),
                    "seed {seed}, size {size}"
                );
            }
        }
    }

    #[test]
    fn sample_is_roughly_uniform() {
        // With 10_000 rows and a 10% sample, the mean of sampled values
        // should be near the population mean (4999.5).
        let t = table(10_000);
        let s = reservoir_sample(&t, 1000, 11).unwrap();
        let mean: f64 =
            s.iter().map(|t| t.value(0).as_f64().unwrap()).sum::<f64>() / s.len() as f64;
        assert!(
            (mean - 4999.5).abs() < 500.0,
            "sample mean {mean} too far from 4999.5"
        );
    }
}
