//! The length-prefixed wire protocol spoken between `ranksql-server` and
//! its clients.
//!
//! Every message is one *frame*: a 4-byte big-endian length followed by a
//! 1-byte opcode and an opcode-specific payload (the length covers opcode +
//! payload).  Payloads are built and parsed through [`PayloadWriter`] /
//! [`PayloadReader`], which encode the primitive vocabulary — integers in
//! big-endian, strings as `u32` length + UTF-8 bytes, [`Value`]s as a tag
//! byte + payload, and floats as raw IEEE-754 bits so `NaN` round-trips
//! bit-exactly.
//!
//! Result rows cross the wire in a canonical byte encoding
//! ([`encode_row`] / [`decode_row`]): score bits, the tuple's provenance
//! identity (its `(table_id, row_index)` parts), then the column values.
//! [`ResultFingerprint`] folds exactly those bytes into an FNV-1a hash, so
//! a client-side fingerprint over a TCP stream and a server-side (or
//! in-process) fingerprint over the same logical rows agree **iff** the
//! streams are byte-identical — the end-to-end oracle the load generator
//! and the CI `server-e2e` job are built on.
//!
//! This module is deliberately free of any I/O policy beyond framing: no
//! sockets, no timeouts, no sessions.  Those live in `ranksql-server` (and
//! the client driver in `ranksql-workload`); keeping the codec here means
//! both sides share one definition and cannot drift.

use std::fmt;
use std::io::{Read, Write};

use crate::error::RankSqlError;
use crate::value::Value;

/// Protocol version negotiated in `HELLO` (bumped on incompatible frame or
/// payload changes).
pub const PROTOCOL_VERSION: u16 = 2;

/// The upper bound on a frame's length field, in both directions.  Frames
/// above the limit are rejected *before* their body is read, so a corrupt
/// or hostile length prefix cannot make a peer allocate gigabytes.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Request opcodes (client → server).
pub mod opcode {
    /// Open a tenant session: negotiate settings (admission control).
    pub const HELLO: u8 = 0x01;
    /// Prepare a SQL text into a server-side statement.
    pub const PREPARE: u8 = 0x02;
    /// Bind parameters (and optionally `k`) to a prepared statement.
    pub const BIND: u8 = 0x03;
    /// Open a server-held streaming cursor over a bound statement.
    pub const OPEN: u8 = 0x04;
    /// Pull up to `k` rows from an open cursor.
    pub const FETCH: u8 = 0x05;
    /// Extend an exhausted top-k cursor past its limit by `k` more rows.
    pub const FETCH_MORE: u8 = 0x06;
    /// Close an open cursor.
    pub const CLOSE: u8 = 0x07;
    /// Fetch the per-tenant observability report.
    pub const STATS: u8 = 0x08;
    /// Append rows to a table (the writer side of the e2e harness).
    pub const INSERT: u8 = 0x09;

    /// Reply to [`HELLO`]: the *negotiated* (possibly clamped) settings.
    pub const HELLO_OK: u8 = 0x81;
    /// Reply to [`PREPARE`]: statement id + parameter slot count.
    pub const PREPARED: u8 = 0x82;
    /// Reply to [`BIND`]: binding id + plan-cache outcome.
    pub const BOUND: u8 = 0x83;
    /// Reply to [`OPEN`]: cursor id + result schema column names.
    pub const OPENED: u8 = 0x84;
    /// Reply to [`FETCH`] / [`FETCH_MORE`]: a batch of encoded rows.
    pub const ROWS: u8 = 0x85;
    /// Reply to [`CLOSE`]: rows the client received from the cursor.
    pub const CLOSED: u8 = 0x86;
    /// Reply to [`STATS`]: the `key=value` report text.
    pub const STATS_OK: u8 = 0x87;
    /// Reply to [`INSERT`]: rows appended.
    pub const INSERTED: u8 = 0x88;
    /// Any request may be answered with an error frame instead.
    pub const ERROR: u8 = 0xFF;
}

/// Plan-mode codes used in `HELLO` (the wire form of `PlanMode`, which
/// lives above this crate).
///
/// Code 2 is retired: it named a transformation-rule plan search that the
/// two-dimensional DP dominated and that was removed.  It is never reused,
/// so a client that still sends it gets the `AdmissionDenied` refusal any
/// unknown code gets, never a different mode.
pub mod mode_code {
    /// Rank-aware heuristic planning (the default).
    pub const RANK_AWARE: u8 = 0;
    /// Rank-aware exhaustive enumeration.
    pub const RANK_AWARE_EXHAUSTIVE: u8 = 1;
    /// Traditional (non-rank-aware) cost-based planning.
    pub const TRADITIONAL: u8 = 3;
    /// Canonical materialize-then-sort plans.
    pub const CANONICAL: u8 = 4;
}

/// Stable numeric error codes carried by `ERROR` frames.
///
/// Codes below 100 mirror the [`RankSqlError`] categories; codes from 100
/// up are wire/protocol-level conditions the engine itself never produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// [`RankSqlError::Schema`].
    Schema,
    /// [`RankSqlError::Catalog`].
    Catalog,
    /// [`RankSqlError::Storage`].
    Storage,
    /// [`RankSqlError::Expression`].
    Expression,
    /// [`RankSqlError::Plan`].
    Plan,
    /// [`RankSqlError::Execution`].
    Execution,
    /// [`RankSqlError::Optimizer`].
    Optimizer,
    /// [`RankSqlError::Parse`].
    Parse,
    /// [`RankSqlError::Internal`].
    Internal,
    /// The frame's payload could not be decoded.
    MalformedFrame,
    /// The frame's length field exceeded the peer's limit.
    OversizedFrame,
    /// The opcode is not a known request.
    UnknownOpcode,
    /// The statement id does not name a prepared statement.
    UnknownStatement,
    /// The cursor id does not name an open cursor.
    UnknownCursor,
    /// The tenant's negotiated tuple budget was exhausted mid-query.
    BudgetExceeded,
    /// The HELLO was rejected outright (bad version, bad mode code).
    AdmissionDenied,
    /// The connection is at its open-cursor cap.
    CursorLimit,
}

impl ErrorCode {
    /// The stable numeric form carried on the wire.
    pub fn as_u16(self) -> u16 {
        match self {
            ErrorCode::Schema => 1,
            ErrorCode::Catalog => 2,
            ErrorCode::Storage => 3,
            ErrorCode::Expression => 4,
            ErrorCode::Plan => 5,
            ErrorCode::Execution => 6,
            ErrorCode::Optimizer => 7,
            ErrorCode::Parse => 8,
            ErrorCode::Internal => 9,
            ErrorCode::MalformedFrame => 100,
            ErrorCode::OversizedFrame => 101,
            ErrorCode::UnknownOpcode => 102,
            ErrorCode::UnknownStatement => 103,
            ErrorCode::UnknownCursor => 104,
            ErrorCode::BudgetExceeded => 105,
            ErrorCode::AdmissionDenied => 106,
            ErrorCode::CursorLimit => 107,
        }
    }

    /// Decodes a wire code ([`ErrorCode::Internal`] for unknown values, so
    /// a newer server's codes degrade gracefully on an older client).
    pub fn from_u16(code: u16) -> ErrorCode {
        match code {
            1 => ErrorCode::Schema,
            2 => ErrorCode::Catalog,
            3 => ErrorCode::Storage,
            4 => ErrorCode::Expression,
            5 => ErrorCode::Plan,
            6 => ErrorCode::Execution,
            7 => ErrorCode::Optimizer,
            8 => ErrorCode::Parse,
            100 => ErrorCode::MalformedFrame,
            101 => ErrorCode::OversizedFrame,
            102 => ErrorCode::UnknownOpcode,
            103 => ErrorCode::UnknownStatement,
            104 => ErrorCode::UnknownCursor,
            105 => ErrorCode::BudgetExceeded,
            106 => ErrorCode::AdmissionDenied,
            107 => ErrorCode::CursorLimit,
            _ => ErrorCode::Internal,
        }
    }

    /// The code an engine error maps to on the wire.  Tuple-budget
    /// violations get their dedicated code (the admission-control signal a
    /// tenant acts on) even though the engine reports them as plain
    /// execution errors.
    pub fn for_engine_error(err: &RankSqlError) -> ErrorCode {
        if err.message().contains("tuple budget exceeded") {
            return ErrorCode::BudgetExceeded;
        }
        match err {
            RankSqlError::Schema(_) => ErrorCode::Schema,
            RankSqlError::Catalog(_) => ErrorCode::Catalog,
            RankSqlError::Storage(_) => ErrorCode::Storage,
            RankSqlError::Expression(_) => ErrorCode::Expression,
            RankSqlError::Plan(_) => ErrorCode::Plan,
            RankSqlError::Execution(_) => ErrorCode::Execution,
            RankSqlError::Optimizer(_) => ErrorCode::Optimizer,
            RankSqlError::Parse(_) => ErrorCode::Parse,
            RankSqlError::Internal(_) => ErrorCode::Internal,
        }
    }
}

/// Errors at the framing/codec layer.
///
/// Kept distinct from [`RankSqlError`] because the two sides react
/// differently: I/O errors tear the connection down, oversized and
/// malformed frames are answered with an `ERROR` frame and (for malformed
/// payloads) the connection survives.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed (includes clean EOF between frames).
    Io(std::io::Error),
    /// A frame declared a length above [`MAX_FRAME_LEN`].
    Oversized {
        /// The declared frame length.
        len: u32,
        /// The limit it exceeded.
        max: u32,
    },
    /// A frame or payload violated the protocol grammar.
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Oversized { len, max } => {
                write!(
                    f,
                    "oversized frame: {len} bytes exceeds the {max}-byte limit"
                )
            }
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<WireError> for RankSqlError {
    fn from(e: WireError) -> Self {
        RankSqlError::Storage(e.to_string())
    }
}

/// Writes one frame: 4-byte big-endian length, opcode, payload.
pub fn write_frame(w: &mut impl Write, opcode: u8, payload: &[u8]) -> Result<(), WireError> {
    let len = payload.len() as u64 + 1;
    if len > u64::from(MAX_FRAME_LEN) {
        return Err(WireError::Oversized {
            len: len.min(u64::from(u32::MAX)) as u32,
            max: MAX_FRAME_LEN,
        });
    }
    w.write_all(&(len as u32).to_be_bytes())?;
    w.write_all(&[opcode])?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, returning `(opcode, payload)`.  Frames longer than
/// [`MAX_FRAME_LEN`] are rejected before their body is read (the length
/// prefix has been consumed, so the stream is no longer framed — callers
/// should close the connection after answering).
pub fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), WireError> {
    let mut header = [0u8; 4];
    r.read_exact(&mut header)?;
    let len = u32::from_be_bytes(header);
    if len == 0 {
        return Err(WireError::Malformed("zero-length frame".into()));
    }
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let opcode = body[0];
    body.drain(..1);
    Ok((opcode, body))
}

/// Builds a frame payload out of the protocol's primitive vocabulary.
#[derive(Debug, Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// An empty payload.
    pub fn new() -> Self {
        PayloadWriter::default()
    }

    /// The finished payload bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a big-endian `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `i64` (two's complement).
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends an `f64` as its raw IEEE-754 bits (NaN-exact).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// Appends a [`Value`] as a tag byte plus payload.
    pub fn value(&mut self, v: &Value) -> &mut Self {
        match v {
            Value::Null => self.u8(0),
            Value::Int64(i) => self.u8(1).i64(*i),
            Value::Float64(f) => self.u8(2).f64(*f),
            Value::Bool(b) => self.u8(3).u8(u8::from(*b)),
            Value::Utf8(s) => self.u8(4).str(s),
        }
    }
}

/// Parses a frame payload; every `take_*` fails with
/// [`WireError::Malformed`] on truncation instead of panicking.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        PayloadReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless the whole payload was consumed — catches payloads with
    /// trailing garbage, which would otherwise hide protocol drift.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Malformed(format!(
                "{} trailing byte(s) after the payload",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Malformed(format!(
                "truncated payload: needed {n} byte(s) for {what}, had {}",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a big-endian `u16`.
    pub fn u16(&mut self, what: &str) -> Result<u16, WireError> {
        let b = self.take(2, what)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a big-endian `i64`.
    pub fn i64(&mut self, what: &str) -> Result<i64, WireError> {
        Ok(self.u64(what)? as i64)
    }

    /// Reads an `f64` from its raw bits.
    pub fn f64(&mut self, what: &str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> Result<String, WireError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed(format!("{what} is not valid UTF-8")))
    }

    /// Reads a tagged [`Value`].
    pub fn value(&mut self, what: &str) -> Result<Value, WireError> {
        match self.u8(what)? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int64(self.i64(what)?)),
            2 => Ok(Value::Float64(self.f64(what)?)),
            3 => Ok(Value::Bool(self.u8(what)? != 0)),
            4 => Ok(Value::from(self.str(what)?)),
            tag => Err(WireError::Malformed(format!(
                "unknown value tag {tag} in {what}"
            ))),
        }
    }
}

/// One decoded result row as it crossed the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRow {
    /// The row's final query score.
    pub score: f64,
    /// The provenance identity: `(table_id, row_index)` constituents.
    pub id: Vec<(u32, u64)>,
    /// The projected column values.
    pub values: Vec<Value>,
}

/// Encodes one result row in the canonical byte layout shared by the
/// streaming protocol and [`ResultFingerprint`]: score bits, identity
/// parts, values.
pub fn encode_row(out: &mut PayloadWriter, score: f64, id: &[(u32, u64)], values: &[Value]) {
    out.f64(score);
    out.u8(id.len() as u8);
    for (table, row) in id {
        out.u32(*table).u64(*row);
    }
    out.u16(values.len() as u16);
    for v in values {
        out.value(v);
    }
}

/// Decodes one result row (the inverse of [`encode_row`]).
pub fn decode_row(r: &mut PayloadReader<'_>) -> Result<WireRow, WireError> {
    let score = r.f64("row score")?;
    let id_len = r.u8("row id arity")? as usize;
    let mut id = Vec::with_capacity(id_len);
    for _ in 0..id_len {
        id.push((r.u32("row id table")?, r.u64("row id index")?));
    }
    let n = r.u16("row value count")? as usize;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(r.value("row value")?);
    }
    Ok(WireRow { score, id, values })
}

/// An order-sensitive FNV-1a fingerprint over a result stream's canonical
/// row encoding.
///
/// Two streams have equal fingerprints (hash **and** row count) iff their
/// [`encode_row`] byte sequences are identical — same rows, same order,
/// same scores bit-for-bit.  This is the verification primitive of the
/// load generator and the server e2e suite: fold the in-process reference
/// on one side, fold the TCP stream on the other, compare two `u64`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResultFingerprint {
    hash: u64,
    rows: u64,
}

impl Default for ResultFingerprint {
    fn default() -> Self {
        ResultFingerprint::new()
    }
}

impl ResultFingerprint {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The fingerprint of the empty stream.
    pub fn new() -> Self {
        ResultFingerprint {
            hash: Self::FNV_OFFSET,
            rows: 0,
        }
    }

    /// Folds raw bytes into the hash (used by `fold_row`; exposed so tests
    /// can cross-check the canonical encoding).
    pub fn fold_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(Self::FNV_PRIME);
        }
    }

    /// Folds one result row (score, identity, values) in the canonical
    /// encoding.
    pub fn fold_row(&mut self, score: f64, id: &[(u32, u64)], values: &[Value]) {
        let mut row = PayloadWriter::new();
        encode_row(&mut row, score, id, values);
        self.fold_bytes(&row.into_vec());
        self.rows += 1;
    }

    /// Folds a decoded [`WireRow`] (client side of the same fold).
    pub fn fold_wire_row(&mut self, row: &WireRow) {
        self.fold_row(row.score, &row.id, &row.values);
    }

    /// The fingerprint value.
    pub fn value(&self) -> u64 {
        self.hash
    }

    /// Rows folded so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }
}

impl fmt::Display for ResultFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}/{}", self.hash, self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, opcode::PREPARE, b"SELECT 1").unwrap();
        write_frame(&mut buf, opcode::STATS, b"").unwrap();
        let mut r = &buf[..];
        let (op, payload) = read_frame(&mut r).unwrap();
        assert_eq!(
            (op, payload.as_slice()),
            (opcode::PREPARE, &b"SELECT 1"[..])
        );
        let (op, payload) = read_frame(&mut r).unwrap();
        assert_eq!((op, payload.as_slice()), (opcode::STATS, &b""[..]));
        // Clean EOF between frames.
        let err = read_frame(&mut r).unwrap_err();
        assert!(
            matches!(&err, WireError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
            "{err}"
        );
    }

    #[test]
    fn oversized_and_zero_frames_are_rejected() {
        // Only the forged header: the body must not be read (or allocated).
        let forged = (MAX_FRAME_LEN + 1).to_be_bytes();
        let err = read_frame(&mut &forged[..]).unwrap_err();
        assert!(
            matches!(err, WireError::Oversized { len, max: MAX_FRAME_LEN } if len == MAX_FRAME_LEN + 1),
            "{err}"
        );

        let zero = 0u32.to_be_bytes();
        let err = read_frame(&mut &zero[..]).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "{err}");
    }

    #[test]
    fn payload_primitives_round_trip() {
        let mut w = PayloadWriter::new();
        w.u8(7)
            .u16(300)
            .u32(70_000)
            .u64(1 << 40)
            .i64(-5)
            .f64(f64::NAN)
            .str("héllo");
        let bytes = w.into_vec();
        let mut r = PayloadReader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16("b").unwrap(), 300);
        assert_eq!(r.u32("c").unwrap(), 70_000);
        assert_eq!(r.u64("d").unwrap(), 1 << 40);
        assert_eq!(r.i64("e").unwrap(), -5);
        assert!(r.f64("f").unwrap().is_nan());
        assert_eq!(r.str("g").unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn values_round_trip_and_truncation_is_malformed() {
        let vals = [
            Value::Null,
            Value::Int64(-42),
            Value::Float64(0.25),
            Value::Bool(true),
            Value::from("x"),
        ];
        let mut w = PayloadWriter::new();
        for v in &vals {
            w.value(v);
        }
        let bytes = w.into_vec();
        let mut r = PayloadReader::new(&bytes);
        for v in &vals {
            assert_eq!(&r.value("v").unwrap(), v);
        }
        r.finish().unwrap();

        let mut r = PayloadReader::new(&bytes[..bytes.len() - 1]);
        for _ in 0..4 {
            r.value("v").unwrap();
        }
        assert!(matches!(r.value("v"), Err(WireError::Malformed(_))));
    }

    #[test]
    fn trailing_bytes_fail_finish() {
        let mut w = PayloadWriter::new();
        w.u8(1).u8(2);
        let bytes = w.into_vec();
        let mut r = PayloadReader::new(&bytes);
        r.u8("one").unwrap();
        assert!(matches!(r.finish(), Err(WireError::Malformed(_))));
    }

    #[test]
    fn rows_round_trip_and_fingerprints_agree() {
        let id = vec![(1u32, 7u64), (2, 9)];
        let values = vec![Value::Int64(3), Value::Float64(0.5)];
        let mut w = PayloadWriter::new();
        encode_row(&mut w, 0.75, &id, &values);
        let bytes = w.into_vec();
        let row = decode_row(&mut PayloadReader::new(&bytes)).unwrap();
        assert_eq!(row.score, 0.75);
        assert_eq!(row.id, id);
        assert_eq!(row.values, values);

        // Server-side fold (raw parts) == client-side fold (decoded row).
        let mut server = ResultFingerprint::new();
        server.fold_row(0.75, &id, &values);
        let mut client = ResultFingerprint::new();
        client.fold_wire_row(&row);
        assert_eq!(server, client);
        assert_eq!(server.rows(), 1);

        // Any perturbation — score bits, order, values — changes the hash.
        let mut other = ResultFingerprint::new();
        other.fold_row(0.75 + 1e-15, &id, &values);
        assert_ne!(server.value(), other.value());
    }

    #[test]
    fn error_codes_round_trip_and_classify() {
        for code in [
            ErrorCode::Schema,
            ErrorCode::Parse,
            ErrorCode::MalformedFrame,
            ErrorCode::OversizedFrame,
            ErrorCode::UnknownCursor,
            ErrorCode::BudgetExceeded,
            ErrorCode::CursorLimit,
        ] {
            assert_eq!(ErrorCode::from_u16(code.as_u16()), code);
        }
        assert_eq!(ErrorCode::from_u16(9999), ErrorCode::Internal);
        let budget = RankSqlError::Execution("tuple budget exceeded: 10 > 5".into());
        assert_eq!(
            ErrorCode::for_engine_error(&budget),
            ErrorCode::BudgetExceeded
        );
        let parse = RankSqlError::Parse("nope".into());
        assert_eq!(ErrorCode::for_engine_error(&parse), ErrorCode::Parse);
    }
}
