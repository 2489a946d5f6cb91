//! The database catalog: named tables with automatically assigned ids.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;
use ranksql_common::{RankSqlError, Result, Schema};

use crate::recovery::PagedStore;
use crate::table::Table;

/// A named collection of tables.
///
/// The catalog owns table-id assignment so that tuple identities
/// (`TupleId::base(table_id, row)`) are unique across the database.
///
/// A catalog can be backed by a [`PagedStore`] (see
/// [`PagedStore::open`], which attaches itself): every table created
/// afterwards gets data/WAL files and a durable catalog entry, and its
/// inserts follow the write-ahead-log protocol.
#[derive(Debug, Default)]
pub struct Catalog {
    inner: RwLock<CatalogInner>,
}

#[derive(Debug, Default)]
struct CatalogInner {
    tables: BTreeMap<String, Arc<Table>>,
    next_id: u32,
    store: Option<Arc<PagedStore>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Creates a new empty table with the given schema.
    ///
    /// Field qualifiers of the schema are rewritten to the table name so
    /// that columns are addressable as `table.column`.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<Arc<Table>> {
        let mut inner = self.inner.write();
        if inner.tables.contains_key(name) {
            return Err(RankSqlError::Catalog(format!(
                "table `{name}` already exists"
            )));
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let table = Arc::new(Table::new(id, name, schema.qualify_all(name)));
        if let Some(store) = inner.store.clone() {
            // Durable before visible: if the files or the catalog rewrite
            // fail, the table never appears (the id is burned, which is
            // harmless — ids only need to be unique).
            store.register_table(&table)?;
        }
        inner.tables.insert(name.to_owned(), Arc::clone(&table));
        Ok(table)
    }

    /// Registers an already built table (used by the workload generators).
    /// On a paged catalog the table's existing rows are persisted as part
    /// of the registration.
    pub fn register_table(&self, table: Table) -> Result<Arc<Table>> {
        let mut inner = self.inner.write();
        let name = table.name().to_owned();
        if inner.tables.contains_key(&name) {
            return Err(RankSqlError::Catalog(format!(
                "table `{name}` already exists"
            )));
        }
        inner.next_id = inner.next_id.max(table.id() + 1);
        let arc = Arc::new(table);
        if let Some(store) = inner.store.clone() {
            store.register_table(&arc)?;
        }
        inner.tables.insert(name, Arc::clone(&arc));
        Ok(arc)
    }

    /// Re-registers a table recovered from disk (the crash-recovery path
    /// of [`PagedStore::open`]): no store hook — its files already exist.
    pub(crate) fn adopt_recovered(&self, table: Table) -> Result<Arc<Table>> {
        let mut inner = self.inner.write();
        let name = table.name().to_owned();
        if inner.tables.contains_key(&name) {
            return Err(RankSqlError::Catalog(format!(
                "table `{name}` already exists"
            )));
        }
        inner.next_id = inner.next_id.max(table.id() + 1);
        let arc = Arc::new(table);
        inner.tables.insert(name, Arc::clone(&arc));
        Ok(arc)
    }

    /// Attaches the paged store backing this catalog (done by
    /// [`PagedStore::open`] after recovery).
    pub(crate) fn attach_paged_store(&self, store: Arc<PagedStore>) {
        self.inner.write().store = Some(store);
    }

    /// Looks up a table by name.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.inner
            .read()
            .tables
            .get(name)
            .cloned()
            .ok_or_else(|| RankSqlError::Catalog(format!("table `{name}` not found")))
    }

    /// Whether a table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.inner.read().tables.contains_key(name)
    }

    /// Removes a table; returns whether it existed.  On a paged catalog
    /// the table's files are deleted and the durable catalog rewritten, so
    /// a dropped table cannot resurrect at the next open.
    pub fn drop_table(&self, name: &str) -> bool {
        let mut inner = self.inner.write();
        match inner.tables.remove(name) {
            Some(table) => {
                if let Some(store) = inner.store.clone() {
                    let _ = store.unregister_table(table.id());
                }
                true
            }
            None => false,
        }
    }

    /// The names of all tables (sorted).
    pub fn table_names(&self) -> Vec<String> {
        self.inner.read().tables.keys().cloned().collect()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.inner.read().tables.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksql_common::{DataType, Field, Value};

    fn schema() -> Schema {
        Schema::new(vec![Field::new("x", DataType::Int64)])
    }

    #[test]
    fn create_and_lookup() {
        let cat = Catalog::new();
        let t = cat.create_table("A", schema()).unwrap();
        assert_eq!(t.id(), 0);
        assert_eq!(t.schema().field(0).qualified_name(), "A.x");
        let t2 = cat.create_table("B", schema()).unwrap();
        assert_eq!(t2.id(), 1);
        assert!(cat.contains("A"));
        assert_eq!(cat.table("A").unwrap().name(), "A");
        assert!(cat.table("Z").is_err());
        assert_eq!(cat.table_names(), vec!["A".to_string(), "B".to_string()]);
        assert_eq!(cat.len(), 2);
    }

    #[test]
    fn duplicate_rejected() {
        let cat = Catalog::new();
        cat.create_table("A", schema()).unwrap();
        assert!(cat.create_table("A", schema()).is_err());
    }

    #[test]
    fn drop_table() {
        let cat = Catalog::new();
        cat.create_table("A", schema()).unwrap();
        assert!(cat.drop_table("A"));
        assert!(!cat.drop_table("A"));
        assert!(cat.is_empty());
    }

    #[test]
    fn register_prebuilt_table_advances_ids() {
        let cat = Catalog::new();
        let t = crate::table::TableBuilder::new("W", schema().qualify_all("W"))
            .row(vec![Value::from(1)])
            .build(5)
            .unwrap();
        cat.register_table(t).unwrap();
        assert_eq!(cat.inner.read().next_id, 6);
        let next = cat.create_table("X", schema()).unwrap();
        assert_eq!(next.id(), 6);
    }

    #[test]
    fn shared_table_handles_see_inserts() {
        let cat = Catalog::new();
        let t = cat.create_table("A", schema()).unwrap();
        let t_again = cat.table("A").unwrap();
        t.insert(vec![Value::from(42)]).unwrap();
        assert_eq!(t_again.row_count(), 1);
    }
}
