//! Loading generated workloads into a [`Database`] for the Session API.
//!
//! The generators build bare [`Catalog`]s (that is all the executor-level
//! experiments need), but examples and servers want the full
//! `Database::session().prepare(..).bind(..).cursor()` surface.  This module
//! bridges the two: it copies a generated catalog's tables into a fresh
//! [`Database`], stripping the generator's field qualifiers (the database
//! re-qualifies columns by table name on its own).

use ranksql_common::{Field, Result, Schema};
use ranksql_core::Database;
use ranksql_storage::Catalog;

/// Copies every table of a generated catalog into a fresh [`Database`],
/// *populating both layouts*: rows are inserted into the heap tables and
/// every columnar projection (with its zone maps) is pre-built, so the
/// first sequential scan pays no projection-build latency.
pub fn catalog_into_database(catalog: &Catalog) -> Result<Database> {
    let db = Database::new();
    for name in catalog.table_names() {
        let table = catalog.table(&name)?;
        let schema = Schema::new(
            table
                .schema()
                .fields()
                .iter()
                .map(|f| Field::new(f.name.clone(), f.data_type))
                .collect(),
        );
        let created = db.create_table(&name, schema)?;
        created.insert_batch(table.scan().into_iter().map(|t| t.values().to_vec()))?;
    }
    db.prebuild_columnar()?;
    Ok(db)
}

#[cfg(test)]
mod tests {

    use crate::trip::{TripConfig, TripWorkload};

    #[test]
    fn generated_catalog_round_trips_into_a_database() {
        let workload = TripWorkload::generate(TripConfig {
            hotels: 20,
            restaurants: 15,
            museums: 10,
            ..TripConfig::default()
        })
        .unwrap();
        let db = workload.database().unwrap();
        for name in workload.catalog.table_names() {
            assert_eq!(
                db.catalog().table(&name).unwrap().row_count(),
                workload.catalog.table(&name).unwrap().row_count(),
                "{name}"
            );
        }
        // The generated query runs through the Session API (the tiny
        // dataset may legitimately produce < k, even zero, matches).
        let result = db.session().execute(&workload.query).unwrap();
        assert!(result.rows.len() <= workload.query.k);
    }
}
