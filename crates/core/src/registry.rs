//! A registry of server-held cursors.
//!
//! [`Cursor`] deliberately has no lifetime parameters (it owns its operator
//! tree and execution context), which is what makes a *server-held* cursor
//! possible at all: a connection handler can park a cursor in a
//! [`CursorRegistry`], return its id to the client, and later `FETCH` /
//! `FETCH_MORE` against it — extending the same live operator tree instead
//! of re-running the query.  Each parked cursor keeps its
//! [`ExecutionContext`](ranksql_executor::ExecutionContext) and therefore
//! its pinned MVCC epochs: concurrent writers never perturb an in-flight
//! result stream.
//!
//! The registry is a plain single-owner map, not a concurrent structure:
//! the server is thread-per-connection, and cursors are connection-local by
//! design (sharing a cursor across connections would share its snapshot and
//! its position — a protocol-level mistake, not a concurrency feature).

use std::collections::HashMap;

use ranksql_common::{RankSqlError, Result};

use crate::cursor::Cursor;

/// The default cap on simultaneously open cursors per registry (per
/// connection, in the server) — an admission-control lever: every open
/// cursor pins epochs and holds operator state, so a tenant cannot hoard
/// unbounded server memory by opening cursors and walking away.
pub const DEFAULT_MAX_OPEN_CURSORS: usize = 32;

/// An id-keyed store of open [`Cursor`]s with a capacity cap.
#[derive(Debug, Default)]
pub struct CursorRegistry {
    next_id: u64,
    cap: usize,
    open: HashMap<u64, Cursor>,
}

impl CursorRegistry {
    /// An empty registry with the default capacity cap.
    pub fn new() -> Self {
        CursorRegistry::with_capacity_limit(DEFAULT_MAX_OPEN_CURSORS)
    }

    /// An empty registry capping simultaneously open cursors at `cap`
    /// (clamped to at least 1).
    pub fn with_capacity_limit(cap: usize) -> Self {
        CursorRegistry {
            next_id: 0,
            cap: cap.max(1),
            open: HashMap::new(),
        }
    }

    /// Parks a cursor and returns its id.  Fails (and drops the cursor,
    /// releasing its epoch pins) when the registry is at capacity.
    pub fn open(&mut self, cursor: Cursor) -> Result<u64> {
        if self.open.len() >= self.cap {
            return Err(RankSqlError::Execution(format!(
                "cursor limit reached: {} cursor(s) already open (cap {}); \
                 close one before opening another",
                self.open.len(),
                self.cap
            )));
        }
        let id = self.next_id;
        self.next_id += 1;
        self.open.insert(id, cursor);
        Ok(id)
    }

    /// The open cursor with this id, for pulling.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut Cursor> {
        self.open.get_mut(&id)
    }

    /// Removes and returns the cursor (dropping the returned value releases
    /// its epoch pins); `None` if the id is unknown or already closed.
    pub fn close(&mut self, id: u64) -> Option<Cursor> {
        self.open.remove(&id)
    }

    /// Number of open cursors.
    pub fn len(&self) -> usize {
        self.open.len()
    }

    /// Whether no cursor is open.
    pub fn is_empty(&self) -> bool {
        self.open.is_empty()
    }

    /// Iterates over `(id, cursor)` pairs in ascending id order (stable
    /// output for STATS reports).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Cursor)> {
        let mut ids: Vec<u64> = self.open.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter().filter_map(|id| {
            // The id came out of the map one line up; filter_map keeps the
            // walk panic-free anyway.
            self.open.get(&id).map(|c| (id, c))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use ranksql_common::{DataType, Field, Schema, Value};

    fn db() -> Database {
        let db = Database::new();
        db.create_table(
            "T",
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("p", DataType::Float64),
            ]),
        )
        .unwrap();
        for i in 0..20i64 {
            db.insert("T", vec![Value::from(i), Value::from((i as f64) / 20.0)])
                .unwrap();
        }
        db
    }

    fn open_cursor(db: &Database) -> Cursor {
        db.session()
            .query("SELECT * FROM T ORDER BY T.p LIMIT 5")
            .unwrap()
    }

    #[test]
    fn registry_parks_pulls_and_closes() {
        let db = db();
        let mut reg = CursorRegistry::new();
        let id = reg.open(open_cursor(&db)).unwrap();
        assert_eq!(reg.len(), 1);
        let rows = reg.get_mut(id).unwrap().take(3).unwrap();
        assert_eq!(rows.len(), 3);
        // Resuming the same parked cursor continues, not restarts.
        let more = reg.get_mut(id).unwrap().take(3).unwrap();
        assert_eq!(more.len(), 2, "limit 5 caps the stream");
        let closed = reg.close(id).unwrap();
        assert_eq!(closed.rows_emitted(), 5);
        assert!(reg.close(id).is_none());
        assert!(reg.is_empty());
    }

    #[test]
    fn capacity_cap_rejects_and_close_frees_a_slot() {
        let db = db();
        let mut reg = CursorRegistry::with_capacity_limit(2);
        let a = reg.open(open_cursor(&db)).unwrap();
        let _b = reg.open(open_cursor(&db)).unwrap();
        let err = reg.open(open_cursor(&db)).unwrap_err();
        assert!(err.to_string().contains("cursor limit"), "{err}");
        reg.close(a);
        assert!(reg.open(open_cursor(&db)).is_ok());
    }

    #[test]
    fn parked_cursors_keep_their_pinned_epochs() {
        let db = db();
        let mut reg = CursorRegistry::new();
        let id = reg.open(open_cursor(&db)).unwrap();
        // Pins are lazy: the first pull touches the scan and pins T.
        let _ = reg.get_mut(id).unwrap().take(1).unwrap();
        let pins = reg.get_mut(id).unwrap().pinned_epochs();
        assert_eq!(pins.len(), 1);
        assert_eq!(pins[0].1, 20, "pinned at the 20-row watermark");
        // A writer advancing the table does not move the pin.
        db.insert("T", vec![Value::from(99), Value::from(0.99)])
            .unwrap();
        assert_eq!(reg.get_mut(id).unwrap().pinned_epochs(), pins);
        // Stable iteration order for STATS.
        let ids: Vec<u64> = reg.iter().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![id]);
    }
}
