//! A blocking wire-protocol client for the `ranksql-server` front end.
//!
//! This is the driver side of the load harness: a thin, dependency-free
//! client over [`ranksql_common::wire`] that speaks the length-prefixed
//! protocol verb-for-verb (`HELLO` … `STATS`).  It lives in the workload
//! crate so examples, integration tests and benches can all share one
//! implementation — and so the server crate itself never links a client
//! (the protocol module in `ranksql-common` is the single shared truth).
//!
//! Every reply is decoded strictly: an unexpected opcode, a truncated
//! payload or trailing bytes is a [`ClientError::Protocol`].  A server
//! `ERROR` frame becomes [`ClientError::Server`] carrying the stable wire
//! code, so tests can assert on exact error categories.

use std::fmt;
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use ranksql_common::wire::{
    self, decode_row, opcode, ErrorCode, PayloadReader, PayloadWriter, WireError, WireRow,
};
use ranksql_common::Value;
use ranksql_core::PlanMode;

/// A failure on the client side of the wire.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Wire(WireError),
    /// The server answered with an `ERROR` frame.
    Server {
        /// Stable wire error code.
        code: ErrorCode,
        /// Engine error category (or `"wire"` for protocol errors).
        category: String,
        /// Human-readable message.
        message: String,
    },
    /// The reply violated the protocol (wrong opcode, bad payload).
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Server {
                code,
                category,
                message,
            } => write!(f, "server error {code:?} ({category}): {message}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Wire(WireError::Io(e))
    }
}

/// Result alias for client calls.
pub type ClientResult<T> = Result<T, ClientError>;

/// The negotiated session envelope echoed by `HELLO_OK`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloReply {
    /// Protocol version the server speaks.
    pub version: u16,
    /// Granted plan-mode code (echo of the request).
    pub mode_code: u8,
    /// Granted worker threads (after clamping).
    pub threads: u16,
    /// Granted batch size (after clamping).
    pub batch_size: u32,
    /// Granted tuple budget (`0` = unlimited).
    pub tuple_budget: u64,
}

/// `PREPARED`: the server-side statement handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreparedReply {
    /// Statement id for `BIND`.
    pub statement_id: u32,
    /// Number of `?` parameter slots in the statement.
    pub param_slots: u16,
}

/// `BOUND`: the server-side binding handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundReply {
    /// Binding id for `OPEN`.
    pub binding_id: u32,
    /// Whether the bind hit the shared plan cache.
    pub cache_hit: bool,
}

/// `OPENED`: a server-held cursor and its output schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenedReply {
    /// Cursor id for `FETCH`/`FETCH_MORE`/`CLOSE`.
    pub cursor_id: u64,
    /// Qualified output column names.
    pub columns: Vec<String>,
}

/// `ROWS`: one fetched chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct RowsReply {
    /// Whether the stream has reported its end.
    pub done: bool,
    /// The rows, in rank order.
    pub rows: Vec<WireRow>,
}

/// A blocking client connection to a `ranksql-server`.
#[derive(Debug)]
pub struct WireClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl WireClient {
    /// Connects to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> ClientResult<WireClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        Ok(WireClient {
            reader,
            writer: stream,
        })
    }

    /// Sends a raw frame — the escape hatch the error-path tests use to
    /// produce malformed and oversized traffic on purpose.
    pub fn send_raw(&mut self, op: u8, payload: &[u8]) -> ClientResult<()> {
        wire::write_frame(&mut self.writer, op, payload)?;
        Ok(())
    }

    /// Writes raw bytes straight to the socket, bypassing framing
    /// entirely (for oversized-frame tests that forge their own length
    /// prefix).
    pub fn send_unframed(&mut self, bytes: &[u8]) -> ClientResult<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Reads one reply frame (opcode + payload), without interpretation.
    pub fn read_reply(&mut self) -> ClientResult<(u8, Vec<u8>)> {
        Ok(wire::read_frame(&mut self.reader)?)
    }

    /// Reads a reply and requires opcode `want`, turning `ERROR` frames
    /// into [`ClientError::Server`].
    fn expect_reply(&mut self, want: u8) -> ClientResult<Vec<u8>> {
        let (op, payload) = self.read_reply()?;
        if op == opcode::ERROR {
            let mut r = PayloadReader::new(&payload);
            let code = r.u16("error code")?;
            let category = r.str("error category")?;
            let message = r.str("error message")?;
            r.finish()?;
            return Err(ClientError::Server {
                code: ErrorCode::from_u16(code),
                category,
                message,
            });
        }
        if op != want {
            return Err(ClientError::Protocol(format!(
                "expected reply opcode 0x{want:02x}, got 0x{op:02x}"
            )));
        }
        Ok(payload)
    }

    /// `HELLO`: negotiate the session envelope.  `threads`/`batch_size` of
    /// `0` request server defaults; `tuple_budget` of `0` requests no
    /// budget (the server may impose one anyway).
    pub fn hello(
        &mut self,
        tenant: &str,
        mode: PlanMode,
        threads: u16,
        batch_size: u32,
        tuple_budget: u64,
    ) -> ClientResult<HelloReply> {
        let mut p = PayloadWriter::new();
        p.u16(wire::PROTOCOL_VERSION)
            .str(tenant)
            .u8(mode.wire_code())
            .u16(threads)
            .u32(batch_size)
            .u64(tuple_budget);
        self.send_raw(opcode::HELLO, &p.into_vec())?;
        let payload = self.expect_reply(opcode::HELLO_OK)?;
        let mut r = PayloadReader::new(&payload);
        let reply = HelloReply {
            version: r.u16("version")?,
            mode_code: r.u8("mode")?,
            threads: r.u16("threads")?,
            batch_size: r.u32("batch size")?,
            tuple_budget: r.u64("tuple budget")?,
        };
        r.finish()?;
        Ok(reply)
    }

    /// `PREPARE`: parse + optimize on the server, get a statement handle.
    pub fn prepare(&mut self, sql: &str) -> ClientResult<PreparedReply> {
        let mut p = PayloadWriter::new();
        p.str(sql);
        self.send_raw(opcode::PREPARE, &p.into_vec())?;
        let payload = self.expect_reply(opcode::PREPARED)?;
        let mut r = PayloadReader::new(&payload);
        let reply = PreparedReply {
            statement_id: r.u32("statement id")?,
            param_slots: r.u16("param slots")?,
        };
        r.finish()?;
        Ok(reply)
    }

    /// `BIND`: attach parameter values (and optionally a `k` override) to a
    /// prepared statement.
    pub fn bind(
        &mut self,
        statement_id: u32,
        k: Option<u64>,
        values: &[(u16, Value)],
    ) -> ClientResult<BoundReply> {
        let mut p = PayloadWriter::new();
        p.u32(statement_id)
            .u8(u8::from(k.is_some()))
            .u64(k.unwrap_or(0))
            .u16(values.len() as u16);
        for (slot, value) in values {
            p.u16(*slot).value(value);
        }
        self.send_raw(opcode::BIND, &p.into_vec())?;
        let payload = self.expect_reply(opcode::BOUND)?;
        let mut r = PayloadReader::new(&payload);
        let reply = BoundReply {
            binding_id: r.u32("binding id")?,
            cache_hit: r.u8("cache hit")? != 0,
        };
        r.finish()?;
        Ok(reply)
    }

    /// `OPEN`: materialize a server-held cursor from a binding.
    pub fn open(&mut self, binding_id: u32) -> ClientResult<OpenedReply> {
        let mut p = PayloadWriter::new();
        p.u32(binding_id);
        self.send_raw(opcode::OPEN, &p.into_vec())?;
        let payload = self.expect_reply(opcode::OPENED)?;
        let mut r = PayloadReader::new(&payload);
        let cursor_id = r.u64("cursor id")?;
        let ncols = r.u16("column count")?;
        let mut columns = Vec::with_capacity(ncols as usize);
        for _ in 0..ncols {
            columns.push(r.str("column name")?);
        }
        r.finish()?;
        Ok(OpenedReply { cursor_id, columns })
    }

    fn fetch_inner(&mut self, op: u8, cursor_id: u64, k: u32) -> ClientResult<RowsReply> {
        let mut p = PayloadWriter::new();
        p.u64(cursor_id).u32(k);
        self.send_raw(op, &p.into_vec())?;
        let payload = self.expect_reply(opcode::ROWS)?;
        let mut r = PayloadReader::new(&payload);
        let done = r.u8("done flag")? != 0;
        let n = r.u32("row count")?;
        let mut rows = Vec::new();
        for _ in 0..n {
            rows.push(decode_row(&mut r)?);
        }
        r.finish()?;
        Ok(RowsReply { done, rows })
    }

    /// `FETCH k`: pull up to `k` more rows of the cursor's current answer.
    pub fn fetch(&mut self, cursor_id: u64, k: u32) -> ClientResult<RowsReply> {
        self.fetch_inner(opcode::FETCH, cursor_id, k)
    }

    /// `FETCH_MORE k`: extend the cursor's top-k limit by `k` and stream
    /// the extra rows — no re-execution, same pinned epochs.
    pub fn fetch_more(&mut self, cursor_id: u64, k: u32) -> ClientResult<RowsReply> {
        self.fetch_inner(opcode::FETCH_MORE, cursor_id, k)
    }

    /// `CLOSE`: release a cursor; returns how many of its rows this client
    /// received.
    pub fn close(&mut self, cursor_id: u64) -> ClientResult<u64> {
        let mut p = PayloadWriter::new();
        p.u64(cursor_id);
        self.send_raw(opcode::CLOSE, &p.into_vec())?;
        let payload = self.expect_reply(opcode::CLOSED)?;
        let mut r = PayloadReader::new(&payload);
        let rows = r.u64("rows emitted")?;
        r.finish()?;
        Ok(rows)
    }

    /// `STATS`: the server's `key=value` observability report for this
    /// connection's tenant.
    pub fn stats(&mut self) -> ClientResult<String> {
        self.send_raw(opcode::STATS, &[])?;
        let payload = self.expect_reply(opcode::STATS_OK)?;
        let mut r = PayloadReader::new(&payload);
        let text = r.str("stats text")?;
        r.finish()?;
        Ok(text)
    }

    /// `INSERT`: append rows to a table; returns the number inserted.
    pub fn insert(&mut self, table: &str, rows: &[Vec<Value>]) -> ClientResult<u64> {
        let mut p = PayloadWriter::new();
        p.str(table).u32(rows.len() as u32);
        for row in rows {
            p.u16(row.len() as u16);
            for v in row {
                p.value(v);
            }
        }
        self.send_raw(opcode::INSERT, &p.into_vec())?;
        let payload = self.expect_reply(opcode::INSERTED)?;
        let mut r = PayloadReader::new(&payload);
        let n = r.u64("rows inserted")?;
        r.finish()?;
        Ok(n)
    }

    /// Drains a freshly opened cursor in `chunk`-sized `FETCH`es and
    /// returns every row, for whole-result fingerprint comparisons.
    pub fn drain(&mut self, cursor_id: u64, chunk: u32) -> ClientResult<Vec<WireRow>> {
        let chunk = chunk.max(1);
        let mut out = Vec::new();
        loop {
            let reply = self.fetch(cursor_id, chunk)?;
            let got = reply.rows.len();
            out.extend(reply.rows);
            if reply.done || got == 0 {
                return Ok(out);
            }
        }
    }
}

/// Reads a `key=value` line out of a `STATS` report; `None` when absent.
pub fn stats_value<'a>(report: &'a str, key: &str) -> Option<&'a str> {
    report.lines().find_map(|line| {
        let (k, v) = line.split_once('=')?;
        (k == key).then_some(v)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_lines_parse_by_exact_key() {
        let report = "a=1\nplan_cache.hits=42\nplan_cache.hits_total=9\n";
        assert_eq!(stats_value(report, "plan_cache.hits"), Some("42"));
        assert_eq!(stats_value(report, "plan_cache"), None);
        assert_eq!(stats_value(report, "missing"), None);
    }
}
