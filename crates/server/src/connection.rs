//! The per-connection protocol handler: one state machine per accepted
//! socket, running on its own scoped thread.
//!
//! Connection state is deliberately minimal and connection-local — a
//! [`Session`] built at `HELLO` (the tenant's negotiated settings), a map
//! of prepared statements, a map of live bindings, and a
//! [`CursorRegistry`] of server-held cursors.  Nothing here is shared
//! across connections except what the engine already shares safely: the
//! catalog and the bounded-LRU plan cache (the cross-tenant accelerator)
//! inside the `Database`, and the [`ServerMetrics`] counters.
//!
//! Frames are read with the blocking [`wire::read_frame`]; a server
//! shutdown ends a blocked read by shutting the socket's read half.
//! Every well-framed request gets exactly one reply: its handler returns
//! the reply opcode and payload or a [`Refusal`], and one function writes
//! the frame.  A refusal becomes an `ERROR` frame with a stable code and
//! the connection lives on; engine errors map to their category codes.
//! An *oversized* frame is answered and then the connection is closed
//! (its length prefix was consumed, so the stream is no longer framed);
//! transport failures and clean EOF tear the connection down silently.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;

use ranksql_common::wire::{self, opcode, ErrorCode, PayloadReader, PayloadWriter, WireError};
use ranksql_common::{RankSqlError, DEFAULT_BATCH_SIZE};
use ranksql_core::{
    BoundQuery, Cursor, CursorRegistry, Database, PlanMode, PreparedQuery, Session,
};
use ranksql_expr::RankedTuple;

use crate::config::ServerConfig;
use crate::listener::LiveConnections;
use crate::metrics::{ServerMetrics, TenantCounters};

/// A request the server answers with an `ERROR` frame.
struct Refusal {
    code: ErrorCode,
    category: &'static str,
    message: String,
}

impl Refusal {
    /// A protocol-level refusal: `wire` category, counted as the tenant's
    /// protocol error.
    fn wire(code: ErrorCode, message: String) -> Refusal {
        Refusal {
            code,
            category: "wire",
            message,
        }
    }

    fn before_hello() -> Refusal {
        Refusal::wire(
            ErrorCode::AdmissionDenied,
            "HELLO must be the first request on a connection".into(),
        )
    }

    fn unknown_cursor(id: u64) -> Refusal {
        Refusal::wire(
            ErrorCode::UnknownCursor,
            format!("cursor {id} is not open on this connection"),
        )
    }
}

/// A payload that failed to decode (framing is intact — the whole frame
/// was consumed), or a frame whose length prefix was out of range.
impl From<WireError> for Refusal {
    fn from(e: WireError) -> Self {
        let code = match e {
            WireError::Oversized { .. } => ErrorCode::OversizedFrame,
            _ => ErrorCode::MalformedFrame,
        };
        Refusal::wire(code, e.to_string())
    }
}

/// An engine error keeps its category and maps to a stable code (a tuple
/// budget abort becomes [`ErrorCode::BudgetExceeded`]).
impl From<RankSqlError> for Refusal {
    fn from(e: RankSqlError) -> Self {
        Refusal {
            code: ErrorCode::for_engine_error(&e),
            category: e.category(),
            message: e.message().to_owned(),
        }
    }
}

/// A handler's answer: the reply opcode and payload, or a refusal.
type Reply = Result<(u8, PayloadWriter), Refusal>;

/// Per-connection protocol state.
struct Connection<'db, 'srv> {
    db: &'db Database,
    config: &'srv ServerConfig,
    metrics: &'srv ServerMetrics,
    writer: TcpStream,
    session: Option<Session<'db>>,
    tenant: Option<Arc<TenantCounters>>,
    tenant_name: String,
    statements: HashMap<u32, PreparedQuery<'db>>,
    bounds: HashMap<u32, BoundQuery<'db>>,
    cursors: CursorRegistry,
    /// Rows a cursor produced that did not fit in their `ROWS` frame, in
    /// order; the cursor's next `FETCH` or `FETCH_MORE` sends them first.
    held: HashMap<u64, Vec<RankedTuple>>,
    next_statement: u32,
    next_bound: u32,
}

/// Serves one accepted connection to completion (EOF, fatal error, or
/// server shutdown).
pub(crate) fn serve_connection(
    stream: TcpStream,
    db: &Database,
    config: &ServerConfig,
    metrics: &ServerMetrics,
    live: &LiveConnections,
) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut conn = Connection {
        db,
        config,
        metrics,
        writer: stream,
        session: None,
        tenant: None,
        tenant_name: String::new(),
        statements: HashMap::new(),
        bounds: HashMap::new(),
        cursors: CursorRegistry::with_capacity_limit(config.max_open_cursors),
        held: HashMap::new(),
        next_statement: 0,
        next_bound: 0,
    };
    loop {
        let (reply, framed) = match wire::read_frame(&mut reader) {
            // A shut-down server serves no further request, even one a
            // client sent after its socket's read half was closed.
            Ok(_) if live.lock().is_none() => break,
            Ok((op, payload)) => (conn.dispatch(op, &payload), true),
            // Clean EOF, a mid-frame disconnect or a transport failure.
            Err(WireError::Io(_)) => break,
            Err(e) => {
                let framed = !matches!(e, WireError::Oversized { .. });
                (Err(e.into()), framed)
            }
        };
        if !conn.reply(reply) || !framed {
            break;
        }
    }
}

impl<'db> Connection<'db, '_> {
    fn dispatch(&mut self, op: u8, payload: &[u8]) -> Reply {
        match op {
            opcode::HELLO => self.on_hello(payload),
            // Every other request verb needs the session HELLO opens.
            opcode::PREPARE..=opcode::INSERT if self.session.is_none() => {
                Err(Refusal::before_hello())
            }
            opcode::PREPARE => self.on_prepare(payload),
            opcode::BIND => self.on_bind(payload),
            opcode::OPEN => self.on_open(payload),
            opcode::FETCH => self.on_fetch(payload, false),
            opcode::FETCH_MORE => self.on_fetch(payload, true),
            opcode::CLOSE => self.on_close(payload),
            opcode::STATS => self.on_stats(payload),
            opcode::INSERT => self.on_insert(payload),
            other => Err(Refusal::wire(
                ErrorCode::UnknownOpcode,
                format!("unknown request opcode 0x{other:02x}"),
            )),
        }
    }

    // ----- request handlers ------------------------------------------------

    fn on_hello(&mut self, payload: &[u8]) -> Reply {
        let mut r = PayloadReader::new(payload);
        let version = r.u16("protocol version")?;
        let tenant = r.str("tenant name")?;
        let mode_code = r.u8("plan mode")?;
        let threads = r.u16("threads")?;
        let batch = r.u32("batch size")?;
        let budget = r.u64("tuple budget")?;
        r.finish()?;
        if version != wire::PROTOCOL_VERSION {
            return Err(Refusal::wire(
                ErrorCode::AdmissionDenied,
                format!(
                    "protocol version {version} is not supported (server speaks {})",
                    wire::PROTOCOL_VERSION
                ),
            ));
        }
        let mode = PlanMode::from_wire_code(mode_code).ok_or_else(|| {
            Refusal::wire(
                ErrorCode::AdmissionDenied,
                format!("unknown plan-mode code {mode_code}"),
            )
        })?;
        // Admission control: clamp the request into the server's caps and
        // echo what was actually granted.
        let threads = if threads == 0 {
            ranksql_common::default_thread_count().min(self.config.max_threads)
        } else {
            (threads as usize).clamp(1, self.config.max_threads)
        };
        let batch = if batch == 0 {
            DEFAULT_BATCH_SIZE.min(self.config.max_batch_size)
        } else {
            (batch as usize).clamp(1, self.config.max_batch_size)
        };
        let budget = self.config.negotiate_budget(budget);
        let mut session = self
            .db
            .session()
            .with_mode(mode)
            .with_threads(threads)
            .with_batch_size(batch);
        if let Some(b) = budget {
            session = session.with_tuple_budget(b);
        }

        let counters = self.metrics.tenant(&tenant);
        // A socket counts once per tenant: on its first HELLO, or on a
        // re-HELLO that names another tenant.
        if self.tenant.is_none() || self.tenant_name != tenant {
            counters.record_connection();
        }
        self.tenant = Some(counters);
        self.tenant_name = tenant;
        self.session = Some(session);
        // A re-HELLO renegotiates the session; statements and cursors
        // prepared under the old settings do not carry over.
        self.statements.clear();
        self.bounds.clear();
        self.cursors = CursorRegistry::with_capacity_limit(self.config.max_open_cursors);
        self.held.clear();

        let mut p = PayloadWriter::new();
        p.u16(wire::PROTOCOL_VERSION)
            .u8(mode_code)
            .u16(threads as u16)
            .u32(batch as u32)
            .u64(budget.unwrap_or(0));
        Ok((opcode::HELLO_OK, p))
    }

    fn on_prepare(&mut self, payload: &[u8]) -> Reply {
        let mut r = PayloadReader::new(payload);
        let sql = r.str("sql text")?;
        r.finish()?;
        if self.statements.len() >= self.config.max_statements {
            return Err(RankSqlError::Execution(format!(
                "statement limit reached ({} prepared); a connection holds at most {}",
                self.statements.len(),
                self.config.max_statements
            ))
            .into());
        }
        let session = self.session.as_ref().ok_or_else(Refusal::before_hello)?;
        let prepared = session.prepare(&sql)?;
        let id = self.next_statement;
        self.next_statement += 1;
        let slots = prepared.param_slots().len();
        self.statements.insert(id, prepared);
        let mut p = PayloadWriter::new();
        p.u32(id).u16(slots as u16);
        Ok((opcode::PREPARED, p))
    }

    fn on_bind(&mut self, payload: &[u8]) -> Reply {
        let mut r = PayloadReader::new(payload);
        let stmt = r.u32("statement id")?;
        let has_k = r.u8("has-k flag")?;
        let k = r.u64("k")?;
        let n = r.u16("binding count")?;
        let mut params = ranksql_core::Params::new();
        for _ in 0..n {
            let slot = r.u16("parameter slot")?;
            params = params.set(slot as usize, r.value("parameter value")?);
        }
        r.finish()?;
        if has_k != 0 {
            params = params.k(k as usize);
        }
        let prepared = self.statements.get(&stmt).ok_or_else(|| {
            Refusal::wire(
                ErrorCode::UnknownStatement,
                format!("statement {stmt} is not prepared on this connection"),
            )
        })?;
        // Bindings are transient handles (ids are monotonic); at the cap
        // the oldest is recycled rather than refused, so a long-lived
        // connection can bind indefinitely.  Open cursors are unaffected —
        // they own their execution state independently of the binding.
        if self.bounds.len() >= self.config.max_statements {
            if let Some(oldest) = self.bounds.keys().min().copied() {
                self.bounds.remove(&oldest);
            }
        }
        let bound = prepared.bind(params)?;
        let hit = bound.cache_hit();
        if let Some(t) = &self.tenant {
            t.record_query(hit);
        }
        let id = self.next_bound;
        self.next_bound += 1;
        self.bounds.insert(id, bound);
        let mut p = PayloadWriter::new();
        p.u32(id).u8(u8::from(hit));
        Ok((opcode::BOUND, p))
    }

    fn on_open(&mut self, payload: &[u8]) -> Reply {
        let mut r = PayloadReader::new(payload);
        let bound_id = r.u32("binding id")?;
        r.finish()?;
        let bound = self.bounds.get(&bound_id).ok_or_else(|| {
            Refusal::wire(
                ErrorCode::UnknownStatement,
                format!("binding {bound_id} does not exist on this connection"),
            )
        })?;
        let cursor = bound.cursor()?;
        let columns: Vec<String> = cursor
            .schema()
            .fields()
            .iter()
            .map(|f| f.qualified_name())
            .collect();
        let id = self.cursors.open(cursor).map_err(|e| Refusal {
            code: ErrorCode::CursorLimit,
            ..e.into()
        })?;
        let mut p = PayloadWriter::new();
        p.u64(id).u16(columns.len() as u16);
        for c in &columns {
            p.str(c);
        }
        Ok((opcode::OPENED, p))
    }

    fn on_fetch(&mut self, payload: &[u8], extend: bool) -> Reply {
        let mut r = PayloadReader::new(payload);
        let cursor_id = r.u64("cursor id")?;
        let k = r.u32("fetch count")? as usize;
        r.finish()?;
        let cursor = self
            .cursors
            .get_mut(cursor_id)
            .ok_or_else(|| Refusal::unknown_cursor(cursor_id))?;
        // Rows an earlier reply could not fit go first.
        let rows = self.held.entry(cursor_id).or_default();
        let scanned_before = cursor.tuples_scanned();
        let pulled = if extend {
            cursor.fetch_more(k)
        } else {
            cursor.take(k.saturating_sub(rows.len()))
        };
        // Account the work the pull did, failed or not.
        let scanned = cursor.tuples_scanned().saturating_sub(scanned_before);
        if let Some(t) = &self.tenant {
            t.add_tuples_scanned(scanned);
        }
        rows.extend(pulled?);
        let want = rows.len().min(k);
        let (p, sent) = rows_payload(
            cursor,
            &rows[..want],
            cursor.is_exhausted() && want == rows.len(),
        );
        rows.drain(..sent);
        if sent == 0 && want > 0 {
            return Err(Refusal {
                code: ErrorCode::OversizedFrame,
                category: "execution",
                message: format!(
                    "the next row of cursor {cursor_id} exceeds the {}-byte frame limit",
                    wire::MAX_FRAME_LEN
                ),
            });
        }
        if let Some(t) = &self.tenant {
            t.add_rows_streamed(sent as u64);
        }
        Ok((opcode::ROWS, p))
    }

    fn on_close(&mut self, payload: &[u8]) -> Reply {
        let mut r = PayloadReader::new(payload);
        let cursor_id = r.u64("cursor id")?;
        r.finish()?;
        let cursor = self
            .cursors
            .close(cursor_id)
            .ok_or_else(|| Refusal::unknown_cursor(cursor_id))?;
        if let Some(t) = &self.tenant {
            t.add_pages_faulted(cursor.pages_faulted());
        }
        // Report the rows the client received, not the ones still held.
        let held = self.held.remove(&cursor_id).map_or(0, |rows| rows.len());
        let mut p = PayloadWriter::new();
        p.u64(cursor.rows_emitted() - held as u64);
        Ok((opcode::CLOSED, p))
    }

    fn on_stats(&mut self, payload: &[u8]) -> Reply {
        if !payload.is_empty() {
            return Err(WireError::Malformed("STATS takes no payload".into()).into());
        }
        let mut p = PayloadWriter::new();
        p.str(&self.render_stats());
        Ok((opcode::STATS_OK, p))
    }

    fn on_insert(&mut self, payload: &[u8]) -> Reply {
        let mut r = PayloadReader::new(payload);
        let table = r.str("table name")?;
        let n = r.u32("row count")?;
        // No pre-allocation from the wire-controlled count: a hostile
        // header cannot reserve gigabytes before decoding fails.
        let mut rows = Vec::new();
        for _ in 0..n {
            let arity = r.u16("row arity")? as usize;
            let mut row = Vec::with_capacity(arity);
            for _ in 0..arity {
                row.push(r.value("cell")?);
            }
            rows.push(row);
        }
        r.finish()?;
        let n = self.db.insert_batch(&table, rows)?;
        if let Some(t) = &self.tenant {
            t.add_rows_inserted(n as u64);
        }
        let mut p = PayloadWriter::new();
        p.u64(n as u64);
        Ok((opcode::INSERTED, p))
    }

    // ----- STATS rendering -------------------------------------------------

    /// The `key=value` observability report: server gauges, the shared
    /// plan cache, this tenant's counters, the negotiated session
    /// envelope, and one line per open cursor including its pinned MVCC
    /// epochs (`table_id@ordinal`).
    fn render_stats(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "server.protocol_version={}", wire::PROTOCOL_VERSION);
        let _ = writeln!(out, "server.uptime_ms={}", self.metrics.uptime_ms());
        let _ = writeln!(
            out,
            "server.started_unix_ms={}",
            self.metrics.started_unix_ms()
        );
        let _ = writeln!(
            out,
            "server.connections_accepted={}",
            self.metrics.connections_accepted()
        );
        let cache = self.db.plan_cache_stats();
        let _ = writeln!(out, "plan_cache.hits={}", cache.hits);
        let _ = writeln!(out, "plan_cache.misses={}", cache.misses);
        let _ = writeln!(out, "plan_cache.entries={}", cache.entries);
        if let Some(t) = &self.tenant {
            let s = t.snapshot(&self.tenant_name);
            let _ = writeln!(out, "tenant={}", s.tenant);
            let _ = writeln!(out, "tenant.connections={}", s.connections);
            let _ = writeln!(out, "tenant.queries={}", s.queries);
            let _ = writeln!(out, "tenant.rows_streamed={}", s.rows_streamed);
            let _ = writeln!(out, "tenant.rows_inserted={}", s.rows_inserted);
            let _ = writeln!(out, "tenant.tuples_scanned={}", s.tuples_scanned);
            let _ = writeln!(out, "tenant.plan_cache_hits={}", s.plan_cache_hits);
            let _ = writeln!(out, "tenant.plan_cache_misses={}", s.plan_cache_misses);
            let _ = writeln!(out, "tenant.pages_faulted={}", s.pages_faulted);
            let _ = writeln!(out, "tenant.budget_rejections={}", s.budget_rejections);
            let _ = writeln!(out, "tenant.protocol_errors={}", s.protocol_errors);
        }
        if let Some(session) = &self.session {
            let st = session.settings();
            let _ = writeln!(out, "session.mode={:?}", st.mode);
            let _ = writeln!(out, "session.threads={}", st.threads);
            let _ = writeln!(out, "session.batch_size={}", st.batch_size);
            let _ = writeln!(out, "session.tuple_budget={}", st.tuple_budget.unwrap_or(0));
        }
        let _ = writeln!(out, "cursors.open={}", self.cursors.len());
        for (id, cursor) in self.cursors.iter() {
            let pins: Vec<String> = cursor
                .pinned_epochs()
                .iter()
                .map(|(table, ordinal)| format!("{table}@{ordinal}"))
                .collect();
            let _ = writeln!(out, "cursor[{id}].rows_emitted={}", cursor.rows_emitted());
            let _ = writeln!(
                out,
                "cursor[{id}].tuples_scanned={}",
                cursor.tuples_scanned()
            );
            let _ = writeln!(out, "cursor[{id}].exhausted={}", cursor.is_exhausted());
            let _ = writeln!(out, "cursor[{id}].pinned_epochs={}", pins.join(","));
        }
        out
    }

    // ----- reply plumbing --------------------------------------------------

    /// Writes the one reply frame of a request; `false` means the socket
    /// is gone.  A refusal becomes an `ERROR` frame and is counted: a
    /// `wire`-category refusal as a protocol error, a tuple-budget abort as
    /// a budget rejection (the admission-control signal the load harness
    /// asserts on).
    fn reply(&self, reply: Reply) -> bool {
        let (op, payload) = match reply {
            Ok(reply) => reply,
            Err(refusal) => {
                if let Some(t) = &self.tenant {
                    if refusal.category == "wire" {
                        t.record_protocol_error();
                    }
                    if refusal.code == ErrorCode::BudgetExceeded {
                        t.record_budget_rejection();
                    }
                }
                let mut p = PayloadWriter::new();
                p.u16(refusal.code.as_u16())
                    .str(refusal.category)
                    .str(&refusal.message);
                (opcode::ERROR, p)
            }
        };
        let mut w = &self.writer;
        wire::write_frame(&mut w, op, &payload.into_vec()).is_ok()
    }
}

/// Encodes a `ROWS` payload over the longest prefix of `rows` that fits in
/// one frame and returns it with that prefix's length.  `done` is reported
/// only when the whole slice fits and `exhausted` says nothing follows it.
fn rows_payload(cursor: &Cursor, rows: &[RankedTuple], exhausted: bool) -> (PayloadWriter, usize) {
    let mut p = PayloadWriter::new();
    p.u8(u8::from(exhausted)).u32(rows.len() as u32);
    for (i, row) in rows.iter().enumerate() {
        let (id, values) = (row.tuple.id().parts(), row.tuple.values());
        wire::encode_row(&mut p, cursor.score(row), id, values);
        // The frame's length also covers the opcode byte.
        if p.len() >= wire::MAX_FRAME_LEN as usize {
            return rows_payload(cursor, &rows[..i], false);
        }
    }
    (p, rows.len())
}
