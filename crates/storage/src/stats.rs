//! Per-column statistics every table maintains incrementally.
//!
//! [`StatsCatalog`] holds one [`ColumnSummary`] per column: null / non-null
//! counts, numeric min/max, boolean true counts and a staged
//! [`DistinctSketch`] for the NDV.  Summaries are built per 1024-row block
//! ([`crate::column::COLUMN_BLOCK_ROWS`], the zone-map granularity) and
//! merged, and [`crate::Table::insert_batch`] folds each new row into them
//! in place instead of invalidating anything.  Two readers consume it: the
//! sampling estimator's join fallback when a sample join comes out empty,
//! and the `statistics[T]` lines of `explain_analyze`.

use ranksql_common::{Schema, Tuple, Value};

use crate::column::COLUMN_BLOCK_ROWS;
use crate::sketch::{stable_value_hash, DistinctSketch};

/// Incrementally maintained summary of one column.
///
/// Everything in here is a streaming aggregate: values can be folded in
/// ([`ColumnSummary::observe`]) and two summaries over disjoint row ranges
/// can be merged ([`ColumnSummary::merge`]), which is what lets the insert
/// path keep statistics fresh without rescanning the column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSummary {
    /// Qualified column name.
    pub name: String,
    /// Number of non-null values observed.
    pub non_null_count: usize,
    /// Number of nulls observed.
    pub null_count: usize,
    /// Minimum numeric value (if any numeric value was observed).
    pub min: Option<f64>,
    /// Maximum numeric value (if any numeric value was observed).
    pub max: Option<f64>,
    /// Number of boolean values observed.
    pub bool_count: usize,
    /// Number of boolean `true` values observed.
    pub true_count: usize,
    /// Staged distinct-count sketch over the non-null values.
    pub sketch: DistinctSketch,
}

impl ColumnSummary {
    /// An empty summary for a column.
    pub fn empty(name: impl Into<String>) -> Self {
        ColumnSummary {
            name: name.into(),
            non_null_count: 0,
            null_count: 0,
            min: None,
            max: None,
            bool_count: 0,
            true_count: 0,
            sketch: DistinctSketch::new(),
        }
    }

    /// Folds values into the summary, in order; the sketch takes their
    /// hashes in one [`DistinctSketch::insert_hashes`].
    pub fn observe<'a>(&mut self, values: impl IntoIterator<Item = &'a Value>) {
        let mut hashes = Vec::new();
        for v in values {
            if v.is_null() {
                self.null_count += 1;
                continue;
            }
            self.non_null_count += 1;
            hashes.push(stable_value_hash(v));
            if let Some(x) = v.as_f64() {
                self.min = Some(self.min.map_or(x, |m| m.min(x)));
                self.max = Some(self.max.map_or(x, |m| m.max(x)));
            }
            if let Value::Bool(b) = v {
                self.bool_count += 1;
                if *b {
                    self.true_count += 1;
                }
            }
        }
        self.sketch.insert_hashes(&hashes);
    }

    /// Merges a summary over a disjoint row range into this one.
    pub fn merge(&mut self, other: &ColumnSummary) {
        self.non_null_count += other.non_null_count;
        self.null_count += other.null_count;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.bool_count += other.bool_count;
        self.true_count += other.true_count;
        self.sketch.merge(&other.sketch);
    }

    /// Estimated (exact below the sketch's array capacity) distinct count.
    pub fn ndv(&self) -> usize {
        self.sketch.estimate()
    }
}

/// The incrementally maintained statistics catalog of a table: one
/// [`ColumnSummary`] per schema column plus the row count.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsCatalog {
    /// Number of rows the summaries cover.
    pub row_count: usize,
    /// Per-column summaries, in schema order.
    pub columns: Vec<ColumnSummary>,
}

impl StatsCatalog {
    /// An empty catalog for a schema.
    pub fn empty(schema: &Schema) -> Self {
        StatsCatalog {
            row_count: 0,
            columns: schema
                .fields()
                .iter()
                .map(|f| ColumnSummary::empty(f.qualified_name()))
                .collect(),
        }
    }

    /// Builds a catalog from a row snapshot by folding per-1024-row block
    /// partials (the zone-map granularity), exercising the same merge the
    /// incremental insert path relies on.
    pub fn build(schema: &Schema, rows: &[Tuple]) -> Self {
        let mut total = StatsCatalog::empty(schema);
        for block in rows.chunks(COLUMN_BLOCK_ROWS) {
            let mut partial = StatsCatalog::empty(schema);
            partial.observe_rows(block);
            total.merge(&partial);
        }
        total
    }

    /// Folds rows into the catalog (the insert hot path), a column at a
    /// time.
    pub fn observe_rows(&mut self, rows: &[Tuple]) {
        self.row_count += rows.len();
        for (c, column) in self.columns.iter_mut().enumerate() {
            column.observe(rows.iter().map(|t| t.value(c)));
        }
    }

    /// Merges a catalog over a disjoint row range into this one.
    pub fn merge(&mut self, other: &StatsCatalog) {
        self.row_count += other.row_count;
        for (c, o) in self.columns.iter_mut().zip(&other.columns) {
            c.merge(o);
        }
    }

    /// The summary for the column with the given (possibly unqualified)
    /// name.
    pub fn column(&self, name: &str) -> Option<&ColumnSummary> {
        self.columns
            .iter()
            .find(|c| c.name == name || c.name.ends_with(&format!(".{name}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use ranksql_common::{DataType, Field};

    /// Builds the catalog over a table's rows the way a cold rebuild does.
    fn catalog_of(b: TableBuilder) -> StatsCatalog {
        let t = b.build(0).unwrap();
        StatsCatalog::build(t.schema(), &t.scan())
    }

    fn build_catalog() -> StatsCatalog {
        let schema = Schema::new(vec![
            Field::qualified("T", "a", DataType::Int64),
            Field::qualified("T", "flag", DataType::Bool),
            Field::qualified("T", "score", DataType::Float64),
        ]);
        let mut b = TableBuilder::new("T", schema);
        for i in 0..100i64 {
            b = b.row(vec![
                Value::from(i % 10),
                Value::from(i % 5 == 0),
                Value::from(i as f64 / 100.0),
            ]);
        }
        catalog_of(b)
    }

    #[test]
    fn basic_statistics() {
        let stats = build_catalog();
        assert_eq!(stats.row_count, 100);
        let a = stats.column("T.a").unwrap();
        assert_eq!(a.ndv(), 10);
        assert_eq!((a.null_count, a.non_null_count), (0, 100));
        assert_eq!((a.min, a.max), (Some(0.0), Some(9.0)));
        assert_eq!(a.bool_count, 0);
        let flag = stats.column("flag").unwrap();
        assert_eq!((flag.true_count, flag.bool_count), (20, 100));
    }

    #[test]
    fn nulls_counted() {
        let schema = Schema::new(vec![Field::qualified("T", "x", DataType::Int64)]);
        let stats = catalog_of(
            TableBuilder::new("T", schema)
                .row(vec![Value::Null])
                .row(vec![Value::from(1)]),
        );
        let x = stats.column("x").unwrap();
        assert_eq!((x.null_count, x.non_null_count), (1, 1));
        assert_eq!(x.ndv(), 1);
        assert_eq!((x.min, x.max), (Some(1.0), Some(1.0)));
    }

    #[test]
    fn empty_table_statistics() {
        let schema = Schema::new(vec![Field::qualified("T", "x", DataType::Int64)]);
        let stats = catalog_of(TableBuilder::new("T", schema.clone()));
        assert_eq!(stats, StatsCatalog::empty(&schema));
        let x = &stats.columns[0];
        assert_eq!((stats.row_count, x.ndv()), (0, 0));
        assert_eq!((x.min, x.max, x.bool_count), (None, None, 0));
    }

    #[test]
    fn missing_column_lookup() {
        assert!(build_catalog().column("T.nope").is_none());
    }
}
