//! The Section 6 synthetic workload: tables A, B, C and query Q.
//!
//! From the paper:
//!
//! > "We use a synthetic data set of three database tables (A, B, C) having
//! > the same size and schema.  Table A and B each have one Boolean attribute
//! > with 0.4 as their selectivities.  The three tables have 2, 2, and 1
//! > ranking predicates, respectively.  The ranking predicates have the same
//! > cost. [...] Scores of different ranking predicates are within the range
//! > between 0 and 1 and are independently generated by different
//! > distributions, including uniform, normal (with mean 0.5 and variance
//! > 0.16), and cosine distributions.  Each table has two attributes jc1 and
//! > jc2 as join columns."
//!
//! and the query:
//!
//! ```sql
//! SELECT * FROM A, B, C
//! WHERE A.jc1 = B.jc1 AND B.jc2 = C.jc2 AND A.b AND B.b
//! ORDER BY f1(A.p1)+f2(A.p2)+f3(B.p1)+f4(B.p2)+f5(C.p1)
//! LIMIT k
//! ```

use std::f64::consts::PI;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};
use ranksql_algebra::RankQuery;
use ranksql_common::{DataType, Field, Result, Schema, Value};
use ranksql_expr::{BoolExpr, RankPredicate, RankingContext, ScoringFunction};
use ranksql_storage::{Catalog, HashIndex, ScoreIndex, Table};

/// Score distribution of a ranking predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreDistribution {
    /// Uniform on `[0, 1]`.
    Uniform,
    /// Normal with mean 0.5 and variance 0.16 (σ = 0.4), clamped to `[0, 1]`.
    Normal,
    /// Cosine-shaped: `(1 + cos(π·u)) / 2` for uniform `u`, which concentrates
    /// mass near 0 and 1.
    Cosine,
}

impl ScoreDistribution {
    fn sample(self, rng: &mut StdRng) -> f64 {
        match self {
            ScoreDistribution::Uniform => rng.gen::<f64>(),
            ScoreDistribution::Normal => {
                let normal = Normal::new(0.5_f64, 0.4).expect("valid normal");
                let v: f64 = normal.sample(rng);
                v.clamp(0.0, 1.0)
            }
            ScoreDistribution::Cosine => {
                let u: f64 = rng.gen();
                (1.0 + (PI * u).cos()) / 2.0
            }
        }
    }
}

/// Parameters of the synthetic workload, named exactly after the paper's
/// experiment knobs.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// `s` — number of tuples per table (paper default 100 000).
    pub table_size: usize,
    /// `j` — join selectivity; the number of distinct values of each join
    /// column is `1 / j` (paper default 0.0001 → 10 000 distinct values).
    pub join_selectivity: f64,
    /// `c` — cost of each ranking predicate, in unit costs (paper default 1).
    pub predicate_cost: u64,
    /// `k` — number of results requested (paper default 10).
    pub k: usize,
    /// Selectivity of the Boolean attributes on A and B (paper: 0.4).
    pub bool_selectivity: f64,
    /// RNG seed.
    pub seed: u64,
    /// Whether to pre-build score indexes (for rank-scans) and join-column
    /// hash indexes after loading, so index construction is not part of the
    /// measured query time.
    pub build_indexes: bool,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            table_size: 100_000,
            join_selectivity: 0.0001,
            predicate_cost: 1,
            k: 10,
            bool_selectivity: 0.4,
            seed: 20040704, // the tech report's year/month/day
            build_indexes: true,
        }
    }
}

impl SyntheticConfig {
    /// A scaled-down configuration for unit tests and CI-friendly benches.
    pub fn small(table_size: usize) -> Self {
        SyntheticConfig {
            table_size,
            join_selectivity: 10.0 / table_size.max(10) as f64,
            ..SyntheticConfig::default()
        }
    }

    /// Number of distinct join-column values implied by `join_selectivity`.
    pub fn distinct_join_values(&self) -> i64 {
        ((1.0 / self.join_selectivity).round() as i64).max(1)
    }
}

/// The generated workload: a populated catalog plus the paper's query Q.
pub struct SyntheticWorkload {
    /// Catalog holding tables A, B and C.
    pub catalog: Catalog,
    /// The ranking query Q of Section 6.
    pub query: RankQuery,
    /// The configuration it was generated from.
    pub config: SyntheticConfig,
}

impl SyntheticWorkload {
    /// Copies the generated tables into a fresh [`ranksql_core::Database`]
    /// so the workload can be driven through the Session/prepared-statement
    /// API.
    pub fn database(&self) -> Result<ranksql_core::Database> {
        crate::db::catalog_into_database(&self.catalog)
    }

    /// Generates the workload.
    pub fn generate(config: SyntheticConfig) -> Result<Self> {
        let catalog = Catalog::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let distinct = config.distinct_join_values();

        // Table A: jc1, jc2, b, p1 (uniform), p2 (normal).
        let a = create_table(&catalog, "A", true)?;
        fill_table(
            &a,
            config.table_size,
            distinct,
            Some(config.bool_selectivity),
            &[ScoreDistribution::Uniform, ScoreDistribution::Normal],
            &mut rng,
        )?;
        // Table B: jc1, jc2, b, p1 (cosine), p2 (normal).
        let b = create_table(&catalog, "B", true)?;
        fill_table(
            &b,
            config.table_size,
            distinct,
            Some(config.bool_selectivity),
            &[ScoreDistribution::Cosine, ScoreDistribution::Normal],
            &mut rng,
        )?;
        // Table C: jc1, jc2, p1 (uniform).
        let c = create_table(&catalog, "C", false)?;
        fill_table(
            &c,
            config.table_size,
            distinct,
            None,
            &[ScoreDistribution::Uniform],
            &mut rng,
        )?;

        let ranking = RankingContext::new(
            vec![
                RankPredicate::attribute_with_cost("f1", "A.p1", config.predicate_cost),
                RankPredicate::attribute_with_cost("f2", "A.p2", config.predicate_cost),
                RankPredicate::attribute_with_cost("f3", "B.p1", config.predicate_cost),
                RankPredicate::attribute_with_cost("f4", "B.p2", config.predicate_cost),
                RankPredicate::attribute_with_cost("f5", "C.p1", config.predicate_cost),
            ],
            ScoringFunction::Sum,
        );
        let query = RankQuery::new(
            vec!["A".into(), "B".into(), "C".into()],
            vec![
                BoolExpr::col_eq_col("A.jc1", "B.jc1"),
                BoolExpr::col_eq_col("B.jc2", "C.jc2"),
                BoolExpr::column_is_true("A.b"),
                BoolExpr::column_is_true("B.b"),
            ],
            ranking,
            config.k,
        );

        let workload = SyntheticWorkload {
            catalog,
            query,
            config,
        };
        if workload.config.build_indexes {
            workload.build_indexes()?;
        }
        Ok(workload)
    }

    /// Pre-builds the access paths the paper's plans assume: a score index
    /// for every (attribute-backed) ranking predicate and hash indexes on
    /// the join columns.
    pub fn build_indexes(&self) -> Result<()> {
        for i in 0..self.query.ranking.num_predicates() {
            let pred = self.query.ranking.predicate(i);
            let rels = pred.relations();
            if rels.len() != 1 {
                continue;
            }
            let table = self.catalog.table(&rels[0])?;
            if table.score_index(&pred.name).is_none() {
                let epoch = table.pin_epoch();
                let rows = epoch.tuples(0..epoch.row_count())?;
                let idx = ScoreIndex::build(pred, table.schema(), &rows)?;
                table.add_score_index(idx);
            }
        }
        for name in ["A", "B", "C"] {
            let table = self.catalog.table(name)?;
            let epoch = table.pin_epoch();
            let rows = epoch.tuples(0..epoch.row_count())?;
            for col in ["jc1", "jc2"] {
                let qualified = format!("{name}.{col}");
                if table.hash_index(&qualified).is_none() {
                    let idx = HashIndex::build(&qualified, table.schema(), &rows)?;
                    table.add_hash_index(idx);
                }
            }
        }
        Ok(())
    }
}

fn create_table(catalog: &Catalog, name: &str, with_bool: bool) -> Result<Arc<Table>> {
    let mut fields = vec![
        Field::new("jc1", DataType::Int64),
        Field::new("jc2", DataType::Int64),
    ];
    if with_bool {
        fields.push(Field::new("b", DataType::Bool));
    }
    fields.push(Field::new("p1", DataType::Float64));
    if with_bool {
        // A and B have two ranking predicates.
        fields.push(Field::new("p2", DataType::Float64));
    }
    catalog.create_table(name, Schema::new(fields))
}

fn fill_table(
    table: &Table,
    rows: usize,
    distinct: i64,
    bool_selectivity: Option<f64>,
    distributions: &[ScoreDistribution],
    rng: &mut StdRng,
) -> Result<()> {
    for _ in 0..rows {
        let mut row = vec![
            Value::from(rng.gen_range(0..distinct)),
            Value::from(rng.gen_range(0..distinct)),
        ];
        if let Some(sel) = bool_selectivity {
            row.push(Value::from(rng.gen::<f64>() < sel));
        }
        for d in distributions {
            row.push(Value::from(d.sample(rng)));
        }
        table.insert(row)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_parameters() {
        let cfg = SyntheticConfig::default();
        assert_eq!(cfg.table_size, 100_000);
        assert_eq!(cfg.join_selectivity, 0.0001);
        assert_eq!(cfg.distinct_join_values(), 10_000);
        assert_eq!(cfg.predicate_cost, 1);
        assert_eq!(cfg.k, 10);
        assert_eq!(cfg.bool_selectivity, 0.4);
    }

    #[test]
    fn generated_tables_have_requested_shape() {
        let w = SyntheticWorkload::generate(SyntheticConfig::small(500)).unwrap();
        for name in ["A", "B", "C"] {
            let t = w.catalog.table(name).unwrap();
            assert_eq!(t.row_count(), 500);
        }
        // A and B have 5 columns (jc1, jc2, b, p1, p2); C has 3.
        assert_eq!(w.catalog.table("A").unwrap().schema().len(), 5);
        assert_eq!(w.catalog.table("C").unwrap().schema().len(), 3);
        assert_eq!(w.query.num_rank_predicates(), 5);
        assert_eq!(w.query.bool_predicates.len(), 4);
    }

    #[test]
    fn boolean_selectivity_is_respected() {
        let w = SyntheticWorkload::generate(SyntheticConfig::small(2000)).unwrap();
        let a = w.catalog.table("A").unwrap();
        let idx = a.schema().index_of_str("A.b").unwrap();
        let trues = a
            .scan()
            .iter()
            .filter(|t| t.value(idx) == &Value::from(true))
            .count();
        let frac = trues as f64 / 2000.0;
        assert!(
            (frac - 0.4).abs() < 0.05,
            "boolean selectivity {frac} too far from 0.4"
        );
    }

    #[test]
    fn join_columns_have_expected_distinct_counts() {
        let mut cfg = SyntheticConfig::small(2000);
        cfg.join_selectivity = 0.01; // 100 distinct values
        let w = SyntheticWorkload::generate(cfg).unwrap();
        let a = w.catalog.table("A").unwrap();
        let idx = a.schema().index_of_str("A.jc1").unwrap();
        let distinct: std::collections::HashSet<i64> = a
            .scan()
            .iter()
            .map(|t| t.value(idx).as_i64().unwrap())
            .collect();
        assert!(distinct.len() <= 100);
        assert!(distinct.len() > 80);
    }

    #[test]
    fn scores_are_in_unit_range_for_all_distributions() {
        let mut rng = StdRng::seed_from_u64(1);
        for d in [
            ScoreDistribution::Uniform,
            ScoreDistribution::Normal,
            ScoreDistribution::Cosine,
        ] {
            for _ in 0..500 {
                let s = d.sample(&mut rng);
                assert!((0.0..=1.0).contains(&s), "{d:?} produced {s}");
            }
        }
    }

    #[test]
    fn indexes_are_prebuilt_when_requested() {
        let w = SyntheticWorkload::generate(SyntheticConfig::small(300)).unwrap();
        let a = w.catalog.table("A").unwrap();
        assert!(a.score_index("f1").is_some());
        assert!(a.score_index("f2").is_some());
        assert!(a.hash_index("A.jc1").is_some());
        let c = w.catalog.table("C").unwrap();
        assert!(c.score_index("f5").is_some());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let w1 = SyntheticWorkload::generate(SyntheticConfig::small(200)).unwrap();
        let w2 = SyntheticWorkload::generate(SyntheticConfig::small(200)).unwrap();
        let rows1 = w1.catalog.table("A").unwrap().scan();
        let rows2 = w2.catalog.table("A").unwrap().scan();
        assert_eq!(rows1.len(), rows2.len());
        for (a, b) in rows1.iter().zip(rows2.iter()) {
            assert_eq!(a.values(), b.values());
        }
    }
}
