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
//! Error discipline: *protocol* failures (malformed payload, unknown id,
//! unknown opcode) are answered with an `ERROR` frame and the connection
//! lives on; an *oversized* frame is answered and then the connection is
//! closed (its length prefix was consumed, so the stream is no longer
//! framed); transport failures and clean EOF tear the connection down
//! silently.  Engine errors are mapped to stable wire codes — a tuple
//! budget abort becomes [`ErrorCode::BudgetExceeded`] and is counted as a
//! budget rejection for the tenant.

use std::collections::HashMap;
use std::io::{BufReader, Read};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ranksql_common::wire::{self, opcode, ErrorCode, PayloadReader, PayloadWriter, WireError};
use ranksql_common::{RankSqlError, Value, DEFAULT_BATCH_SIZE};
use ranksql_core::{BoundQuery, CursorRegistry, Database, PlanMode, PreparedQuery, Session};

use crate::config::ServerConfig;
use crate::metrics::{ServerMetrics, TenantCounters};

/// What the dispatcher wants done with the connection after a frame.
enum Flow {
    /// Keep serving frames.
    Continue,
    /// Close the connection (fatal protocol state or write failure).
    Hangup,
}

/// The outcome of one polling frame read.
enum FrameRead {
    /// A complete frame.
    Frame(u8, Vec<u8>),
    /// The shutdown flag fired while waiting.
    Shutdown,
    /// The peer closed cleanly between frames.
    Eof,
    /// The frame declared a length above the limit.
    Oversized { len: u32, max: u32 },
    /// A zero-length frame (framing survives; the body was empty).
    Malformed(String),
    /// Transport failure or mid-frame disconnect.
    Failed,
}

/// Reads one frame, waking up every read-timeout tick to check `shutdown`.
///
/// The socket has a read timeout, and `read` may deliver a frame in
/// arbitrary fragments, so this loop owns reassembly: a timeout *between*
/// frames is just an idle tick, a timeout *mid-frame* keeps collecting
/// (the bytes read so far are held in the local buffers, so nothing is
/// lost to the timeout).
fn read_frame_polling(r: &mut impl Read, max_len: u32, shutdown: &AtomicBool) -> FrameRead {
    let mut header = [0u8; 4];
    match read_full(r, &mut header, true, shutdown) {
        Fill::Done => {}
        Fill::Shutdown => return FrameRead::Shutdown,
        Fill::CleanEof => return FrameRead::Eof,
        Fill::Failed => return FrameRead::Failed,
    }
    let len = u32::from_be_bytes(header);
    if len == 0 {
        return FrameRead::Malformed("zero-length frame".into());
    }
    if len > max_len {
        return FrameRead::Oversized { len, max: max_len };
    }
    let mut body = vec![0u8; len as usize];
    match read_full(r, &mut body, false, shutdown) {
        Fill::Done => {}
        Fill::Shutdown => return FrameRead::Shutdown,
        // EOF or error mid-frame: the stream died inside a message.
        Fill::CleanEof | Fill::Failed => return FrameRead::Failed,
    }
    let opcode = body[0];
    body.drain(..1);
    FrameRead::Frame(opcode, body)
}

enum Fill {
    Done,
    Shutdown,
    CleanEof,
    Failed,
}

/// Fills `buf` completely, retrying through read timeouts.  `clean_eof` is
/// only reported when the peer closes before the *first* byte (EOF between
/// frames when the caller is reading a header).
fn read_full(r: &mut impl Read, buf: &mut [u8], at_boundary: bool, shutdown: &AtomicBool) -> Fill {
    let mut filled = 0usize;
    while filled < buf.len() {
        if shutdown.load(Ordering::Acquire) {
            return Fill::Shutdown;
        }
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && at_boundary {
                    Fill::CleanEof
                } else {
                    Fill::Failed
                }
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return Fill::Failed,
        }
    }
    Fill::Done
}

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
    shutdown: &AtomicBool,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(config.poll_interval)).is_err() {
        return; // cannot poll for shutdown: refuse the connection
    }
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
        next_statement: 0,
        next_bound: 0,
    };
    loop {
        match read_frame_polling(&mut reader, config.max_frame_len, shutdown) {
            FrameRead::Frame(op, payload) => match conn.dispatch(op, &payload) {
                Flow::Continue => {}
                Flow::Hangup => break,
            },
            FrameRead::Malformed(msg) => {
                conn.record_protocol_error();
                if !conn.send_error_frame(ErrorCode::MalformedFrame, "wire", &msg) {
                    break;
                }
            }
            FrameRead::Oversized { len, max } => {
                conn.record_protocol_error();
                let msg = format!("frame of {len} bytes exceeds the {max}-byte limit");
                let _ = conn.send_error_frame(ErrorCode::OversizedFrame, "wire", &msg);
                break; // length prefix consumed: the stream is unframed now
            }
            FrameRead::Shutdown | FrameRead::Eof | FrameRead::Failed => break,
        }
    }
}

impl<'db> Connection<'db, '_> {
    fn dispatch(&mut self, op: u8, payload: &[u8]) -> Flow {
        match op {
            opcode::HELLO => self.on_hello(payload),
            opcode::PREPARE
            | opcode::BIND
            | opcode::OPEN
            | opcode::FETCH
            | opcode::FETCH_MORE
            | opcode::CLOSE
            | opcode::STATS
            | opcode::INSERT
                if self.session.is_none() =>
            {
                self.record_protocol_error();
                self.reply_or_hangup(self.send_error_frame(
                    ErrorCode::AdmissionDenied,
                    "wire",
                    "HELLO must be the first request on a connection",
                ))
            }
            opcode::PREPARE => self.on_prepare(payload),
            opcode::BIND => self.on_bind(payload),
            opcode::OPEN => self.on_open(payload),
            opcode::FETCH => self.on_fetch(payload, false),
            opcode::FETCH_MORE => self.on_fetch(payload, true),
            opcode::CLOSE => self.on_close(payload),
            opcode::STATS => self.on_stats(payload),
            opcode::INSERT => self.on_insert(payload),
            other => {
                self.record_protocol_error();
                self.reply_or_hangup(self.send_error_frame(
                    ErrorCode::UnknownOpcode,
                    "wire",
                    &format!("unknown request opcode 0x{other:02x}"),
                ))
            }
        }
    }

    // ----- request handlers ------------------------------------------------

    fn on_hello(&mut self, payload: &[u8]) -> Flow {
        let parsed = (|| -> Result<(u16, String, u8, u16, u32, u64), WireError> {
            let mut r = PayloadReader::new(payload);
            let version = r.u16("protocol version")?;
            let tenant = r.str("tenant name")?;
            let mode = r.u8("plan mode")?;
            let threads = r.u16("threads")?;
            let batch = r.u32("batch size")?;
            let budget = r.u64("tuple budget")?;
            r.finish()?;
            Ok((version, tenant, mode, threads, batch, budget))
        })();
        let (version, tenant, mode_code, threads, batch, budget) = match parsed {
            Ok(p) => p,
            Err(e) => return self.malformed(&e),
        };
        if version != wire::PROTOCOL_VERSION {
            return self.reply_or_hangup(self.send_error_frame(
                ErrorCode::AdmissionDenied,
                "wire",
                &format!(
                    "protocol version {version} is not supported (server speaks {})",
                    wire::PROTOCOL_VERSION
                ),
            ));
        }
        let Some(mode) = PlanMode::from_wire_code(mode_code) else {
            return self.reply_or_hangup(self.send_error_frame(
                ErrorCode::AdmissionDenied,
                "wire",
                &format!("unknown plan-mode code {mode_code}"),
            ));
        };
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
        counters.record_connection();
        self.tenant = Some(counters);
        self.tenant_name = tenant;
        self.session = Some(session);
        // A re-HELLO renegotiates the session; statements and cursors
        // prepared under the old settings do not carry over.
        self.statements.clear();
        self.bounds.clear();
        self.cursors = CursorRegistry::with_capacity_limit(self.config.max_open_cursors);

        let mut p = PayloadWriter::new();
        p.u16(wire::PROTOCOL_VERSION)
            .u8(mode_code)
            .u16(threads as u16)
            .u32(batch as u32)
            .u64(budget.unwrap_or(0));
        self.reply_or_hangup(self.send(opcode::HELLO_OK, &p.into_vec()))
    }

    fn on_prepare(&mut self, payload: &[u8]) -> Flow {
        let sql = {
            let mut r = PayloadReader::new(payload);
            match r.str("sql text").and_then(|s| r.finish().map(|_| s)) {
                Ok(s) => s,
                Err(e) => return self.malformed(&e),
            }
        };
        if self.statements.len() >= self.config.max_statements {
            return self.reply_or_hangup(self.send_error_frame(
                ErrorCode::Execution,
                "execution",
                &format!(
                    "statement limit reached ({} prepared); a connection holds at most {}",
                    self.statements.len(),
                    self.config.max_statements
                ),
            ));
        }
        let Some(session) = &self.session else {
            return Flow::Hangup; // unreachable: dispatch gates on session
        };
        match session.prepare(&sql) {
            Ok(prepared) => {
                let id = self.next_statement;
                self.next_statement += 1;
                let slots = prepared.param_slots().len();
                self.statements.insert(id, prepared);
                let mut p = PayloadWriter::new();
                p.u32(id).u16(slots as u16);
                self.reply_or_hangup(self.send(opcode::PREPARED, &p.into_vec()))
            }
            Err(e) => self.engine_error(&e),
        }
    }

    fn on_bind(&mut self, payload: &[u8]) -> Flow {
        type BindRequest = (u32, Option<u64>, Vec<(u16, Value)>);
        let parsed = (|| -> Result<BindRequest, WireError> {
            let mut r = PayloadReader::new(payload);
            let stmt = r.u32("statement id")?;
            let has_k = r.u8("has-k flag")?;
            let k = r.u64("k")?;
            let n = r.u16("binding count")?;
            let mut values = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let slot = r.u16("parameter slot")?;
                let value = r.value("parameter value")?;
                values.push((slot, value));
            }
            r.finish()?;
            Ok((stmt, (has_k != 0).then_some(k), values))
        })();
        let (stmt, k, values) = match parsed {
            Ok(p) => p,
            Err(e) => return self.malformed(&e),
        };
        let Some(prepared) = self.statements.get(&stmt) else {
            self.record_protocol_error();
            return self.reply_or_hangup(self.send_error_frame(
                ErrorCode::UnknownStatement,
                "wire",
                &format!("statement {stmt} is not prepared on this connection"),
            ));
        };
        // Bindings are transient handles (ids are monotonic); at the cap
        // the oldest is recycled rather than refused, so a long-lived
        // connection can bind indefinitely.  Open cursors are unaffected —
        // they own their execution state independently of the binding.
        if self.bounds.len() >= self.config.max_statements {
            if let Some(oldest) = self.bounds.keys().min().copied() {
                self.bounds.remove(&oldest);
            }
        }
        let mut params = ranksql_core::Params::new();
        for (slot, value) in values {
            params = params.set(slot as usize, value);
        }
        if let Some(k) = k {
            params = params.k(k as usize);
        }
        match prepared.bind(params) {
            Ok(bound) => {
                let hit = bound.cache_hit();
                if let Some(t) = &self.tenant {
                    t.record_query(hit);
                }
                let id = self.next_bound;
                self.next_bound += 1;
                self.bounds.insert(id, bound);
                let mut p = PayloadWriter::new();
                p.u32(id).u8(u8::from(hit));
                self.reply_or_hangup(self.send(opcode::BOUND, &p.into_vec()))
            }
            Err(e) => self.engine_error(&e),
        }
    }

    fn on_open(&mut self, payload: &[u8]) -> Flow {
        let bound_id = {
            let mut r = PayloadReader::new(payload);
            match r.u32("binding id").and_then(|v| r.finish().map(|_| v)) {
                Ok(v) => v,
                Err(e) => return self.malformed(&e),
            }
        };
        let Some(bound) = self.bounds.get(&bound_id) else {
            self.record_protocol_error();
            return self.reply_or_hangup(self.send_error_frame(
                ErrorCode::UnknownStatement,
                "wire",
                &format!("binding {bound_id} does not exist on this connection"),
            ));
        };
        let cursor = match bound.cursor() {
            Ok(c) => c,
            Err(e) => return self.engine_error(&e),
        };
        let columns: Vec<String> = cursor
            .schema()
            .fields()
            .iter()
            .map(|f| f.qualified_name())
            .collect();
        match self.cursors.open(cursor) {
            Ok(id) => {
                let mut p = PayloadWriter::new();
                p.u64(id).u16(columns.len() as u16);
                for c in &columns {
                    p.str(c);
                }
                self.reply_or_hangup(self.send(opcode::OPENED, &p.into_vec()))
            }
            Err(e) => self.reply_or_hangup(self.send_error_frame(
                ErrorCode::CursorLimit,
                e.category(),
                e.message(),
            )),
        }
    }

    fn on_fetch(&mut self, payload: &[u8], extend: bool) -> Flow {
        let parsed = {
            let mut r = PayloadReader::new(payload);
            let cursor = r.u64("cursor id");
            match cursor
                .and_then(|c| r.u32("fetch count").map(|k| (c, k)))
                .and_then(|v| r.finish().map(|_| v))
            {
                Ok(v) => v,
                Err(e) => return self.malformed(&e),
            }
        };
        let (cursor_id, k) = parsed;
        let Some(cursor) = self.cursors.get_mut(cursor_id) else {
            self.record_protocol_error();
            return self.reply_or_hangup(self.send_error_frame(
                ErrorCode::UnknownCursor,
                "wire",
                &format!("cursor {cursor_id} is not open on this connection"),
            ));
        };
        let scanned_before = cursor.tuples_scanned();
        let pulled = if extend {
            cursor.fetch_more(k as usize)
        } else {
            cursor.take(k as usize)
        };
        let rows = match pulled {
            Ok(rows) => rows,
            Err(e) => {
                // Account the work the failed pull still did.
                let scanned = cursor.tuples_scanned().saturating_sub(scanned_before);
                if let Some(t) = &self.tenant {
                    t.add_tuples_scanned(scanned);
                }
                return self.engine_error(&e);
            }
        };
        let done = cursor.is_exhausted();
        let mut p = PayloadWriter::new();
        p.u8(u8::from(done)).u32(rows.len() as u32);
        for row in &rows {
            let score = cursor.score(row);
            wire::encode_row(&mut p, score, row.tuple.id().parts(), row.tuple.values());
        }
        let scanned = cursor.tuples_scanned().saturating_sub(scanned_before);
        if let Some(t) = &self.tenant {
            t.add_tuples_scanned(scanned);
            t.add_rows_streamed(rows.len() as u64);
        }
        self.reply_or_hangup(self.send(opcode::ROWS, &p.into_vec()))
    }

    fn on_close(&mut self, payload: &[u8]) -> Flow {
        let cursor_id = {
            let mut r = PayloadReader::new(payload);
            match r.u64("cursor id").and_then(|v| r.finish().map(|_| v)) {
                Ok(v) => v,
                Err(e) => return self.malformed(&e),
            }
        };
        let Some(cursor) = self.cursors.close(cursor_id) else {
            self.record_protocol_error();
            return self.reply_or_hangup(self.send_error_frame(
                ErrorCode::UnknownCursor,
                "wire",
                &format!("cursor {cursor_id} is not open on this connection"),
            ));
        };
        if let Some(t) = &self.tenant {
            t.add_pages_faulted(cursor.pages_faulted());
        }
        let mut p = PayloadWriter::new();
        p.u64(cursor.rows_emitted());
        self.reply_or_hangup(self.send(opcode::CLOSED, &p.into_vec()))
    }

    fn on_stats(&mut self, payload: &[u8]) -> Flow {
        if !payload.is_empty() {
            return self.malformed(&WireError::Malformed("STATS takes no payload".into()));
        }
        let text = self.render_stats();
        let mut p = PayloadWriter::new();
        p.str(&text);
        self.reply_or_hangup(self.send(opcode::STATS_OK, &p.into_vec()))
    }

    fn on_insert(&mut self, payload: &[u8]) -> Flow {
        let parsed = (|| -> Result<(String, Vec<Vec<Value>>), WireError> {
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
            Ok((table, rows))
        })();
        let (table, rows) = match parsed {
            Ok(p) => p,
            Err(e) => return self.malformed(&e),
        };
        match self.db.insert_batch(&table, rows) {
            Ok(n) => {
                if let Some(t) = &self.tenant {
                    t.add_rows_inserted(n as u64);
                }
                let mut p = PayloadWriter::new();
                p.u64(n as u64);
                self.reply_or_hangup(self.send(opcode::INSERTED, &p.into_vec()))
            }
            Err(e) => self.engine_error(&e),
        }
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

    /// Writes a frame; `false` means the socket is gone.
    fn send(&self, op: u8, payload: &[u8]) -> bool {
        let mut w = &self.writer;
        wire::write_frame(&mut w, op, payload).is_ok()
    }

    /// Sends an `ERROR` frame: `false` only when the write itself failed.
    fn send_error_frame(&self, code: ErrorCode, category: &str, message: &str) -> bool {
        let mut p = PayloadWriter::new();
        p.u16(code.as_u16()).str(category).str(message);
        self.send(opcode::ERROR, &p.into_vec())
    }

    fn reply_or_hangup(&self, ok: bool) -> Flow {
        if ok {
            Flow::Continue
        } else {
            Flow::Hangup
        }
    }

    /// An engine error becomes an `ERROR` frame with a stable code; tuple
    /// budget aborts are additionally counted as tenant budget rejections
    /// (the admission-control signal the load harness asserts on).
    fn engine_error(&self, err: &RankSqlError) -> Flow {
        let code = ErrorCode::for_engine_error(err);
        if code == ErrorCode::BudgetExceeded {
            if let Some(t) = &self.tenant {
                t.record_budget_rejection();
            }
        }
        self.reply_or_hangup(self.send_error_frame(code, err.category(), err.message()))
    }

    /// A payload that failed to decode: `ERROR MalformedFrame`, connection
    /// survives (framing is intact — the whole frame was consumed).
    fn malformed(&self, err: &WireError) -> Flow {
        self.record_protocol_error();
        let (code, msg) = match err {
            WireError::Oversized { len, max } => (
                ErrorCode::OversizedFrame,
                format!("oversized: {len} > {max}"),
            ),
            other => (ErrorCode::MalformedFrame, other.to_string()),
        };
        self.reply_or_hangup(self.send_error_frame(code, "wire", &msg))
    }

    fn record_protocol_error(&self) {
        if let Some(t) = &self.tenant {
            t.record_protocol_error();
        }
    }
}
