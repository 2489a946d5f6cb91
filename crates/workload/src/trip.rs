//! The Example 1 trip-planning scenario: Hotel, Restaurant, Museum.
//!
//! Amy wants a hotel, an Italian restaurant and a museum such that the hotel
//! plus restaurant cost less than $100 and the restaurant and museum share an
//! area, ranked by `cheap(h.price) + close(h.addr, r.addr) +
//! related(m.collection, "dinosaur")`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ranksql_algebra::RankQuery;
use ranksql_common::{DataType, Field, Result, Schema, Value};
use ranksql_expr::{
    BoolExpr, CompareOp, RankPredicate, RankingContext, ScalarExpr, ScoringFunction,
};
use ranksql_storage::Catalog;

/// Size and randomness knobs for the trip dataset.
#[derive(Debug, Clone)]
pub struct TripConfig {
    /// Number of hotels.
    pub hotels: usize,
    /// Number of restaurants.
    pub restaurants: usize,
    /// Number of museums.
    pub museums: usize,
    /// Number of city areas restaurants/museums fall into.
    pub areas: i64,
    /// Number of results Amy wants.
    pub k: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TripConfig {
    fn default() -> Self {
        TripConfig {
            hotels: 200,
            restaurants: 150,
            museums: 60,
            areas: 12,
            k: 5,
            seed: 7,
        }
    }
}

/// The generated trip-planning workload.
pub struct TripWorkload {
    /// Catalog with the `Hotel`, `Restaurant` and `Museum` tables.
    pub catalog: Catalog,
    /// The Example 1 query.
    pub query: RankQuery,
}

impl TripWorkload {
    /// Copies the generated tables into a fresh [`ranksql_core::Database`]
    /// so the workload can be driven through the Session/prepared-statement
    /// API.
    pub fn database(&self) -> Result<ranksql_core::Database> {
        crate::db::catalog_into_database(&self.catalog)
    }

    /// Generates the trip-planning dataset and query.
    pub fn generate(config: TripConfig) -> Result<Self> {
        let catalog = Catalog::new();
        let mut rng = StdRng::seed_from_u64(config.seed);

        let hotel = catalog.create_table(
            "Hotel",
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("price", DataType::Float64),
                Field::new("addr", DataType::Float64), // position on a 0..100 street grid
            ]),
        )?;
        for i in 0..config.hotels {
            hotel.insert(vec![
                Value::from(i as i64),
                Value::from(rng.gen_range(30.0..200.0_f64)),
                Value::from(rng.gen_range(0.0..100.0_f64)),
            ])?;
        }

        let cuisines = ["Italian", "French", "Thai", "Mexican"];
        let restaurant = catalog.create_table(
            "Restaurant",
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("cuisine", DataType::Utf8),
                Field::new("price", DataType::Float64),
                Field::new("addr", DataType::Float64),
                Field::new("area", DataType::Int64),
            ]),
        )?;
        for i in 0..config.restaurants {
            restaurant.insert(vec![
                Value::from(i as i64),
                Value::from(cuisines[rng.gen_range(0..cuisines.len())]),
                Value::from(rng.gen_range(10.0..80.0_f64)),
                Value::from(rng.gen_range(0.0..100.0_f64)),
                Value::from(rng.gen_range(0..config.areas)),
            ])?;
        }

        let museum = catalog.create_table(
            "Museum",
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("area", DataType::Int64),
                // Pre-computed IR-style relevance of the collection to
                // "dinosaur" (what the paper's `related` UDF would return).
                Field::new("dino_relevance", DataType::Float64),
            ]),
        )?;
        for i in 0..config.museums {
            museum.insert(vec![
                Value::from(i as i64),
                Value::from(rng.gen_range(0..config.areas)),
                Value::from(rng.gen::<f64>()),
            ])?;
        }

        // Ranking predicates:
        //   p1 = cheap(h.price)            = (200 - price) / 200
        //   p2 = close(h.addr, r.addr)     = 1 - |h.addr - r.addr| / 100
        //   p3 = related(m.collection, ..) = pre-computed relevance column
        let p1 = RankPredicate::expression(
            "cheap",
            ScalarExpr::lit(200.0)
                .sub(ScalarExpr::col("Hotel.price"))
                .div(ScalarExpr::lit(200.0)),
            2,
        );
        let diff = ScalarExpr::col("Hotel.addr").sub(ScalarExpr::col("Restaurant.addr"));
        // |x| built as x*x / 100^2 — a smooth distance penalty in [0,1].
        let p2 = RankPredicate::expression(
            "close",
            ScalarExpr::lit(1.0).sub(diff.clone().mul(diff).div(ScalarExpr::lit(10_000.0))),
            5,
        );
        let p3 = RankPredicate::attribute_with_cost("related", "Museum.dino_relevance", 8);

        let ranking = RankingContext::new(vec![p1, p2, p3], ScoringFunction::Sum);
        let query = RankQuery::new(
            vec!["Hotel".into(), "Restaurant".into(), "Museum".into()],
            vec![
                // c1: Italian restaurants only.
                BoolExpr::compare(
                    ScalarExpr::col("Restaurant.cuisine"),
                    CompareOp::Eq,
                    ScalarExpr::lit("Italian"),
                ),
                // c2: hotel + restaurant under $100.
                BoolExpr::compare(
                    ScalarExpr::col("Hotel.price").add(ScalarExpr::col("Restaurant.price")),
                    CompareOp::Lt,
                    ScalarExpr::lit(100.0),
                ),
                // c3: restaurant and museum in the same area.
                BoolExpr::col_eq_col("Restaurant.area", "Museum.area"),
            ],
            ranking,
            config.k,
        );
        Ok(TripWorkload { catalog, query })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_has_three_tables_and_four_predicate_kinds() {
        let w = TripWorkload::generate(TripConfig::default()).unwrap();
        assert_eq!(w.catalog.len(), 3);
        assert_eq!(w.query.tables.len(), 3);
        // Boolean-selection (cuisine), Boolean-join (price sum, area) and
        // rank-selection (cheap, related) + rank-join (close) predicates all
        // appear, as in Example 1.
        assert_eq!(w.query.bool_predicates.len(), 3);
        assert!(w.query.bool_predicates[0].is_selection());
        assert!(!w.query.bool_predicates[1].is_selection());
        assert_eq!(w.query.num_rank_predicates(), 3);
        assert!(!w.query.ranking.predicate(0).is_join_predicate());
        assert!(w.query.ranking.predicate(1).is_join_predicate());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TripWorkload::generate(TripConfig::default()).unwrap();
        let b = TripWorkload::generate(TripConfig::default()).unwrap();
        let ra = a.catalog.table("Restaurant").unwrap().scan();
        let rb = b.catalog.table("Restaurant").unwrap().scan();
        assert_eq!(ra.len(), rb.len());
        for (x, y) in ra.iter().zip(rb.iter()) {
            assert_eq!(x.values(), y.values());
        }
    }

    #[test]
    fn small_configs_work() {
        let cfg = TripConfig {
            hotels: 10,
            restaurants: 10,
            museums: 5,
            areas: 3,
            k: 2,
            seed: 1,
        };
        let w = TripWorkload::generate(cfg).unwrap();
        assert_eq!(w.catalog.table("Museum").unwrap().row_count(), 5);
        assert_eq!(w.query.k, 2);
    }
}
