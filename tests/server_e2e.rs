//! End-to-end tests for the `ranksql-server` front end: multi-client
//! histories with interleaved writes across a column seal boundary, and
//! the protocol's error paths.
//!
//! The snapshot-isolation test drives a *deterministic interleaving*: at
//! each point in history a new reader opens a wire cursor alongside a
//! twin in-process cursor, both pull a prefix (pinning their MVCC
//! epochs), a writer then inserts a burst — eventually pushing the table
//! across the 1024-row seal — and every reader must finish streaming the
//! answer its pinned epoch promised, byte-identically to its twin.

use ranksql::common::wire::{self, opcode, ErrorCode, PayloadWriter, ResultFingerprint, WireRow};
use ranksql::server::{Server, ServerConfig, ShutdownHandle};
use ranksql::workload::client::{stats_value, ClientError, WireClient};
use ranksql::{Cursor, DataType, Database, Field, Params, PlanMode, Schema, Value};

fn fresh_db(initial_rows: i64) -> Database {
    let db = Database::new();
    db.create_table(
        "T",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("jc", DataType::Int64),
            Field::new("score", DataType::Float64),
        ]),
    )
    .unwrap();
    db.insert_batch("T", (0..initial_rows).map(row_for))
        .unwrap();
    db
}

fn row_for(i: i64) -> Vec<Value> {
    let score = (((i * 2_654_435_761) % 10_000).abs() as f64) / 10_000.0;
    vec![Value::from(i), Value::from(i % 8), Value::from(score)]
}

/// Runs `body` with a served database: binds an ephemeral port, serves on
/// a scoped thread, and shuts down cleanly afterwards.
fn with_server<F>(db: &Database, config: ServerConfig, body: F)
where
    F: FnOnce(std::net::SocketAddr, &ShutdownHandle),
{
    let server = Server::bind(config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(db));
        // A panicking assertion must still stop the server: the scope
        // joins `serving` before propagating, which would hang forever if
        // the shutdown flag were never set.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(addr, &handle)));
        handle.shutdown();
        serving.join().unwrap().unwrap();
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    });
}

fn fingerprint_wire(rows: &[WireRow]) -> String {
    let mut fp = ResultFingerprint::new();
    for r in rows {
        fp.fold_wire_row(r);
    }
    fp.to_string()
}

fn fingerprint_engine(cursor: &Cursor, rows: &[ranksql::expr::RankedTuple]) -> String {
    let mut fp = ResultFingerprint::new();
    for r in rows {
        fp.fold_row(cursor.score(r), r.tuple.id().parts(), r.tuple.values());
    }
    fp.to_string()
}

/// One reader in the history: a wire cursor and its in-process twin,
/// opened at the same point in time, compared chunk by chunk.
struct Reader {
    client: WireClient,
    cursor_id: u64,
    twin: Cursor,
    label: &'static str,
}

impl Reader {
    fn open(db: &Database, addr: std::net::SocketAddr, label: &'static str, prefix: u32) -> Reader {
        const SQL: &str = "SELECT * FROM T ORDER BY s(T.score) LIMIT 15";
        let session = db.session().with_mode(PlanMode::RankAware);
        let twin = session
            .prepare(SQL)
            .unwrap()
            .bind(Params::new())
            .unwrap()
            .cursor()
            .unwrap();
        let mut client = WireClient::connect(addr).unwrap();
        client.hello(label, PlanMode::RankAware, 0, 0, 0).unwrap();
        let stmt = client.prepare(SQL).unwrap();
        let bound = client.bind(stmt.statement_id, None, &[]).unwrap();
        let opened = client.open(bound.binding_id).unwrap();
        let mut reader = Reader {
            client,
            cursor_id: opened.cursor_id,
            twin,
            label,
        };
        // Pull a prefix through both cursors: this pins their epochs at
        // the current watermark, before any later burst.
        reader.pull_and_compare(prefix);
        reader
    }

    fn pull_and_compare(&mut self, k: u32) {
        let wire = self.client.fetch(self.cursor_id, k).unwrap();
        let engine = self.twin.take(k as usize).unwrap();
        assert_eq!(
            fingerprint_wire(&wire.rows),
            fingerprint_engine(&self.twin, &engine),
            "reader {} diverged from its twin on a {k}-row chunk",
            self.label
        );
    }

    fn extend_and_compare(&mut self, k: u32) {
        let wire = self.client.fetch_more(self.cursor_id, k).unwrap();
        let engine = self.twin.fetch_more(k as usize).unwrap();
        assert_eq!(
            fingerprint_wire(&wire.rows),
            fingerprint_engine(&self.twin, &engine),
            "reader {} diverged from its twin on a fetch_more({k})",
            self.label
        );
    }

    fn finish(mut self) {
        // Drain whatever the 15-row limit still owes, then close.
        self.pull_and_compare(15);
        self.client.close(self.cursor_id).unwrap();
    }
}

#[test]
fn interleaved_history_streams_pinned_epoch_answers() {
    let db = fresh_db(900);
    with_server(&db, ServerConfig::default(), |addr, _| {
        let mut writer = WireClient::connect(addr).unwrap();
        writer
            .hello("writer", PlanMode::RankAware, 0, 0, 0)
            .unwrap();

        // History: open reader → burst → open reader → burst (crossing the
        // 1024-row seal: 900 → 1100 → 1300) → open reader → burst.
        let mut r1 = Reader::open(&db, addr, "reader-1", 4);
        let burst1: Vec<Vec<Value>> = (900..1100i64).map(row_for).collect();
        assert_eq!(writer.insert("T", &burst1).unwrap(), 200);

        let mut r2 = Reader::open(&db, addr, "reader-2", 5);
        let burst2: Vec<Vec<Value>> = (1100..1300i64).map(row_for).collect();
        assert_eq!(writer.insert("T", &burst2).unwrap(), 200);

        let r3 = Reader::open(&db, addr, "reader-3", 6);
        let burst3: Vec<Vec<Value>> = (1300..1400i64).map(row_for).collect();
        assert_eq!(writer.insert("T", &burst3).unwrap(), 100);

        // Every reader keeps streaming its own pinned-epoch answer,
        // interleaved with each other and with the bursts.
        r1.pull_and_compare(3);
        r2.pull_and_compare(2);
        r1.extend_and_compare(4); // past the original LIMIT, no re-run
        r2.pull_and_compare(8);
        r1.finish();
        r2.finish();
        r3.finish();

        // The pinned epochs differ across readers — each open cursor is
        // its own snapshot (observable through each connection's STATS).
        let mut writer_check = WireClient::connect(addr).unwrap();
        writer_check
            .hello("writer", PlanMode::RankAware, 0, 0, 0)
            .unwrap();
        let stats = writer_check.stats().unwrap();
        assert_eq!(
            stats_value(&stats, "tenant.rows_inserted"),
            Some("500"),
            "writer tenant must account all bursts:\n{stats}"
        );
    });
}

/// Plan-mode code 2 is retired and never reused: a HELLO that still
/// carries it gets the refusal any unknown code gets, and the connection
/// may say HELLO again.
#[test]
fn a_hello_with_the_retired_mode_code_is_refused() {
    assert_eq!(PlanMode::from_wire_code(2), None);
    let db = fresh_db(10);
    with_server(&db, ServerConfig::default(), |addr, _| {
        let mut client = WireClient::connect(addr).unwrap();
        let mut hello = PayloadWriter::new();
        hello
            .u16(wire::PROTOCOL_VERSION)
            .str("retired")
            .u8(2)
            .u16(0)
            .u32(0)
            .u64(0);
        client.send_raw(opcode::HELLO, &hello.into_vec()).unwrap();
        let (op, payload) = client.read_reply().unwrap();
        assert_eq!(op, opcode::ERROR);
        assert_eq!(
            u16::from_be_bytes([payload[0], payload[1]]),
            ErrorCode::AdmissionDenied.as_u16()
        );
        client
            .hello("retired", PlanMode::RankAware, 0, 0, 0)
            .unwrap();
    });
}

/// A re-HELLO renegotiates the session on the socket it arrived on: the
/// tenant counts that socket once.  A re-HELLO under another name counts
/// the socket for that tenant.
#[test]
fn a_re_hello_counts_its_connection_once() {
    let db = fresh_db(10);
    with_server(&db, ServerConfig::default(), |addr, _| {
        let mut client = WireClient::connect(addr).unwrap();
        let connections = |client: &mut WireClient| {
            let stats = client.stats().unwrap();
            let count = stats_value(&stats, "tenant.connections").map(str::to_owned);
            (count, stats)
        };
        client.hello("alice", PlanMode::RankAware, 0, 0, 0).unwrap();
        client
            .hello("alice", PlanMode::Traditional, 1, 0, 0)
            .unwrap();
        let (count, stats) = connections(&mut client);
        assert_eq!(count.as_deref(), Some("1"), "{stats}");
        client.hello("bob", PlanMode::RankAware, 0, 0, 0).unwrap();
        let (count, stats) = connections(&mut client);
        assert_eq!(count.as_deref(), Some("1"), "{stats}");
    });
}

#[test]
fn error_paths_answer_with_stable_codes_and_keep_the_connection() {
    let db = fresh_db(50);
    with_server(&db, ServerConfig::default(), |addr, _| {
        // Before HELLO, everything but HELLO is refused.
        let mut client = WireClient::connect(addr).unwrap();
        match client.prepare("SELECT * FROM T ORDER BY s(T.score) LIMIT 3") {
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::AdmissionDenied)
            }
            other => panic!("expected AdmissionDenied, got {other:?}"),
        }

        client.hello("probe", PlanMode::RankAware, 0, 0, 0).unwrap();

        // Malformed payload: a PREPARE frame whose string length lies.
        client
            .send_raw(opcode::PREPARE, &[0xFF, 0xFF, 0xFF, 0xFF, b'x'])
            .unwrap();
        let (op, payload) = client.read_reply().unwrap();
        assert_eq!(op, opcode::ERROR);
        assert_eq!(
            u16::from_be_bytes([payload[0], payload[1]]),
            ErrorCode::MalformedFrame.as_u16()
        );

        // Unknown opcode: refused, connection still intact.
        client.send_raw(0x66, &[]).unwrap();
        let (op, payload) = client.read_reply().unwrap();
        assert_eq!(op, opcode::ERROR);
        assert_eq!(
            u16::from_be_bytes([payload[0], payload[1]]),
            ErrorCode::UnknownOpcode.as_u16()
        );

        // Unknown ids: statement, then cursor.
        match client.bind(941, None, &[]) {
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::UnknownStatement)
            }
            other => panic!("expected UnknownStatement, got {other:?}"),
        }
        match client.fetch(941, 1) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownCursor),
            other => panic!("expected UnknownCursor, got {other:?}"),
        }

        // The connection survived all of the above and counted them.
        let stats = client.stats().unwrap();
        let errors: u64 = stats_value(&stats, "tenant.protocol_errors")
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert!(errors >= 4, "expected >=4 protocol errors:\n{stats}");

        // An engine error (unknown table — caught when the bind plans
        // against the catalog) maps to its category code and also keeps
        // the connection.
        let ghost = client
            .prepare("SELECT * FROM Nope ORDER BY s(Nope.x) LIMIT 1")
            .unwrap();
        match client.bind(ghost.statement_id, None, &[]) {
            Err(ClientError::Server { code, category, .. }) => {
                assert_eq!(code, ErrorCode::Catalog);
                assert_eq!(category, "catalog");
            }
            other => panic!("expected Catalog error, got {other:?}"),
        }
        assert!(client.stats().is_ok());

        // A 65-term ranking function (one past the cap) is refused at
        // PREPARE with the Plan code, and the next request succeeds.
        let terms: Vec<String> = (0..65).map(|i| format!("f{i}(T.score)")).collect();
        let wide = format!("SELECT * FROM T ORDER BY {} LIMIT 1", terms.join(" + "));
        match client.prepare(&wide) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Plan),
            other => panic!("expected Plan error, got {other:?}"),
        }
        client
            .prepare("SELECT * FROM T ORDER BY s(T.score) LIMIT 3")
            .unwrap();

        // Oversized frame: answered with OversizedFrame, then the server
        // hangs up (the stream is no longer framed past a forged header).
        let mut big = WireClient::connect(addr).unwrap();
        big.hello("probe", PlanMode::RankAware, 0, 0, 0).unwrap();
        let forged = (ranksql::common::wire::MAX_FRAME_LEN + 1).to_be_bytes();
        big.send_unframed(&forged).unwrap();
        let (op, payload) = big.read_reply().unwrap();
        assert_eq!(op, opcode::ERROR);
        assert_eq!(
            u16::from_be_bytes([payload[0], payload[1]]),
            ErrorCode::OversizedFrame.as_u16()
        );
        assert!(
            big.read_reply().is_err(),
            "server must close after an oversized frame"
        );
    });
}

/// A 65-relation join (past every cost-based mode's 12-relation bound, and
/// past the 64 tables a table set can name) is refused at BIND with the
/// Optimizer code before any statistics are drawn; the connection then
/// answers a normal query.
#[test]
fn a_bind_past_the_relation_bound_is_a_typed_error() {
    let db = fresh_db(20);
    let (mut from, mut chain) = (Vec::new(), Vec::new());
    for t in 0..65 {
        let name = format!("W{t}");
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("p", DataType::Float64),
        ]);
        db.create_table(&name, schema).unwrap();
        db.insert(&name, vec![Value::from(1), Value::from(0.5)])
            .unwrap();
        if t > 0 {
            chain.push(format!("W{}.a = {name}.a", t - 1));
        }
        from.push(name);
    }
    with_server(&db, ServerConfig::default(), |addr, _| {
        let mut client = WireClient::connect(addr).unwrap();
        client.hello("wide", PlanMode::RankAware, 0, 0, 0).unwrap();
        let sql = format!(
            "SELECT * FROM {} WHERE {} ORDER BY s(W0.p) LIMIT 1",
            from.join(", "),
            chain.join(" AND ")
        );
        let wide = client.prepare(&sql).unwrap();
        match client.bind(wide.statement_id, None, &[]) {
            Err(ClientError::Server { code, category, .. }) => {
                assert_eq!(code, ErrorCode::Optimizer);
                assert_eq!(category, "optimizer");
            }
            other => panic!("expected Optimizer error, got {other:?}"),
        }
        let stmt = client
            .prepare("SELECT * FROM T ORDER BY s(T.score) LIMIT 3")
            .unwrap();
        let bound = client.bind(stmt.statement_id, None, &[]).unwrap();
        let opened = client.open(bound.binding_id).unwrap();
        assert_eq!(client.drain(opened.cursor_id, 10).unwrap().len(), 3);
    });
}

#[test]
fn tuple_budget_rejections_surface_and_count() {
    let db = fresh_db(400);
    let config = ServerConfig::default().with_max_tuple_budget(10);
    with_server(&db, config, |addr, _| {
        let mut client = WireClient::connect(addr).unwrap();
        // Requesting "no budget" (0) cannot escape the server cap.
        let hello = client
            .hello("greedy", PlanMode::RankAware, 0, 0, 0)
            .unwrap();
        assert_eq!(hello.tuple_budget, 10);

        let stmt = client
            .prepare("SELECT * FROM T ORDER BY s(T.score) LIMIT 200")
            .unwrap();
        let bound = client.bind(stmt.statement_id, None, &[]).unwrap();
        let opened = client.open(bound.binding_id).unwrap();
        match client.fetch(opened.cursor_id, 200) {
            Err(ClientError::Server { code, message, .. }) => {
                assert_eq!(code, ErrorCode::BudgetExceeded, "{message}");
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }

        let stats = client.stats().unwrap();
        assert_eq!(
            stats_value(&stats, "tenant.budget_rejections"),
            Some("1"),
            "budget rejection must be counted:\n{stats}"
        );
        assert_eq!(stats_value(&stats, "session.tuple_budget"), Some("10"));
    });
}

#[test]
fn admission_clamps_are_echoed_and_cursor_limit_enforced() {
    let db = fresh_db(100);
    let config = ServerConfig::default()
        .with_max_threads(2)
        .with_max_batch_size(256)
        .with_max_open_cursors(2);
    with_server(&db, config, |addr, _| {
        let mut client = WireClient::connect(addr).unwrap();
        let hello = client
            .hello("clamped", PlanMode::RankAware, 999, 1_000_000, 0)
            .unwrap();
        assert_eq!(hello.threads, 2, "threads clamp to the server cap");
        assert_eq!(hello.batch_size, 256, "batch clamps to the server cap");

        let stmt = client
            .prepare("SELECT * FROM T ORDER BY s(T.score) LIMIT 5")
            .unwrap();
        let bound = client.bind(stmt.statement_id, None, &[]).unwrap();
        let c1 = client.open(bound.binding_id).unwrap();
        let _c2 = client.open(bound.binding_id).unwrap();
        match client.open(bound.binding_id) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::CursorLimit),
            other => panic!("expected CursorLimit, got {other:?}"),
        }
        // Closing one frees a slot.
        client.close(c1.cursor_id).unwrap();
        client.open(bound.binding_id).unwrap();
    });
}

/// A `FETCH` whose rows overflow one frame is answered with the rows that
/// fit (`done = false`); the rest wait, in order, for the cursor's next
/// fetch, and `CLOSE` counts only what the client received.
#[test]
fn a_fetch_larger_than_a_frame_streams_every_row_across_replies() {
    const SQL: &str = "SELECT * FROM T ORDER BY s(T.score) LIMIT 60000";
    let db = fresh_db(60_000);
    let mut twin = db.session().query(SQL).unwrap();
    let engine = twin.drain().unwrap();
    assert_eq!(engine.len(), 60_000);
    with_server(&db, ServerConfig::default(), |addr, _| {
        let mut client = WireClient::connect(addr).unwrap();
        client.hello("bulk", PlanMode::RankAware, 0, 0, 0).unwrap();
        let stmt = client.prepare(SQL).unwrap();
        let bound = client.bind(stmt.statement_id, None, &[]).unwrap();

        // A cursor closed after one oversized FETCH reports what it sent.
        let first = client.open(bound.binding_id).unwrap();
        let partial = client.fetch(first.cursor_id, 30_000).unwrap();
        let sent = partial.rows.len();
        assert!(!partial.done && 0 < sent && sent < 30_000, "{sent} rows");
        assert_eq!(client.close(first.cursor_id).unwrap(), sent as u64);

        let cursor = client.open(bound.binding_id).unwrap().cursor_id;
        let mut rows = Vec::new();
        loop {
            let reply = client.fetch(cursor, 30_000).unwrap();
            rows.extend(reply.rows);
            if reply.done {
                break;
            }
        }
        assert_eq!(fingerprint_wire(&rows), fingerprint_engine(&twin, &engine));
        assert_eq!(client.close(cursor).unwrap(), 60_000);
        assert!(client.stats().is_ok());
    });
}

/// A single row larger than a frame cannot be streamed: `FETCH` answers
/// with a typed `OversizedFrame` error and the connection lives on.
#[test]
fn a_row_larger_than_a_frame_is_a_typed_error() {
    let db = Database::new();
    let schema = Schema::new(vec![
        Field::new("blob", DataType::Utf8),
        Field::new("score", DataType::Float64),
    ]);
    db.create_table("B", schema).unwrap();
    let blob = "x".repeat(3 << 19); // 1.5 MiB
    db.insert("B", vec![Value::from(blob), Value::from(0.5)])
        .unwrap();
    with_server(&db, ServerConfig::default(), |addr, _| {
        let mut client = WireClient::connect(addr).unwrap();
        client.hello("blob", PlanMode::RankAware, 0, 0, 0).unwrap();
        let stmt = client
            .prepare("SELECT * FROM B ORDER BY s(B.score) LIMIT 1")
            .unwrap();
        let bound = client.bind(stmt.statement_id, None, &[]).unwrap();
        let opened = client.open(bound.binding_id).unwrap();
        match client.fetch(opened.cursor_id, 1) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::OversizedFrame),
            other => panic!("expected OversizedFrame, got {other:?}"),
        }
        assert!(client.stats().is_ok());
    });
}

/// A splitmix64 stream.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A valid request frame: opcode, payload, and the `(offset, width)` of
/// each string length or element count in the payload.
type Request = (u8, Vec<u8>, Vec<(usize, usize)>);

/// One valid frame of every request verb, against a connection that has
/// `stmt` prepared, `binding` bound and `cursor` open.
fn valid_requests(stmt: u32, binding: u32, cursor: u64) -> Vec<Request> {
    use ranksql::common::wire::{PayloadWriter, PROTOCOL_VERSION};
    let frame = |op: u8, counts: Vec<(usize, usize)>, build: &dyn Fn(&mut PayloadWriter)| {
        let mut p = PayloadWriter::new();
        build(&mut p);
        (op, p.into_vec(), counts)
    };
    vec![
        frame(opcode::HELLO, vec![(2, 4)], &|p| {
            p.u16(PROTOCOL_VERSION)
                .str("fuzz")
                .u8(0)
                .u16(1)
                .u32(0)
                .u64(0);
        }),
        frame(opcode::PREPARE, vec![(0, 4)], &|p| {
            p.str(FUZZ_SQL);
        }),
        frame(opcode::BIND, vec![(13, 2)], &|p| {
            p.u32(stmt)
                .u8(1)
                .u64(4)
                .u16(1)
                .u16(0)
                .value(&Value::from(7));
        }),
        frame(opcode::OPEN, vec![], &|p| {
            p.u32(binding);
        }),
        frame(opcode::FETCH, vec![], &|p| {
            p.u64(cursor).u32(3);
        }),
        frame(opcode::FETCH_MORE, vec![], &|p| {
            p.u64(cursor).u32(2);
        }),
        frame(opcode::CLOSE, vec![], &|p| {
            p.u64(cursor);
        }),
        frame(opcode::STATS, vec![], &|_| {}),
        frame(opcode::INSERT, vec![(0, 4), (5, 4), (9, 2)], &|p| {
            p.str("T").u32(1).u16(3);
            for v in row_for(7) {
                p.value(&v);
            }
        }),
    ]
}

const FUZZ_SQL: &str = "SELECT * FROM T WHERE T.id > ? ORDER BY s(T.score) LIMIT 5";

/// Mutates a valid request's payload (never its framing): truncates it,
/// flips bytes, lies in one of its counts, or swaps in a random opcode.
fn mutate(g: &mut Gen, (mut op, mut payload, counts): Request) -> (u8, Vec<u8>) {
    match g.below(4) {
        0 if !payload.is_empty() => payload.truncate(g.below(payload.len())),
        1 if !payload.is_empty() => {
            for _ in 0..=g.below(3) {
                let at = g.below(payload.len());
                payload[at] ^= 1 + g.below(255) as u8;
            }
        }
        2 if !counts.is_empty() => {
            let (at, width) = counts[g.below(counts.len())];
            let lie = [0, 1, payload.len() as u64 + 1, u64::MAX, g.next()][g.below(5)];
            payload[at..at + width].copy_from_slice(&lie.to_be_bytes()[8 - width..]);
        }
        _ => op = g.next() as u8,
    }
    (op, payload)
}

/// The reply opcode a request verb succeeds with (`None`: not a request).
fn reply_opcode(op: u8) -> Option<u8> {
    Some(match op {
        opcode::HELLO => opcode::HELLO_OK,
        opcode::PREPARE => opcode::PREPARED,
        opcode::BIND => opcode::BOUND,
        opcode::OPEN => opcode::OPENED,
        opcode::FETCH | opcode::FETCH_MORE => opcode::ROWS,
        opcode::CLOSE => opcode::CLOSED,
        opcode::STATS => opcode::STATS_OK,
        opcode::INSERT => opcode::INSERTED,
        _ => return None,
    })
}

/// Every well-framed request gets exactly one reply — its verb's reply
/// opcode or a typed `ERROR` — however its payload is mangled, and the
/// connection then answers `STATS`.
fn every_request_gets_one_reply(cases: u64) {
    let db = fresh_db(50);
    with_server(&db, ServerConfig::default(), |addr, _| {
        let mut client = WireClient::connect(addr).unwrap();
        for case in 0..cases {
            let mut g = Gen(0x5EED_0000 + case);
            // A valid re-HELLO resets the connection's state every case.
            client.hello("fuzz", PlanMode::RankAware, 1, 0, 0).unwrap();
            let stmt = client.prepare(FUZZ_SQL).unwrap().statement_id;
            let binding = client
                .bind(stmt, None, &[(0, Value::from(7))])
                .unwrap()
                .binding_id;
            let cursor = client.open(binding).unwrap().cursor_id;
            let mut requests = valid_requests(stmt, binding, cursor);
            let request = requests.swap_remove(g.below(requests.len()));
            let (op, payload) = mutate(&mut g, request);

            client.send_raw(op, &payload).unwrap();
            let (reply, body) = client.read_reply().unwrap();
            if reply == opcode::ERROR {
                let mut r = ranksql::common::wire::PayloadReader::new(&body);
                r.u16("code").unwrap();
                r.str("category").unwrap();
                r.str("message").unwrap();
                r.finish().unwrap();
            } else {
                assert_eq!(
                    Some(reply),
                    reply_opcode(op),
                    "case {case}: request 0x{op:02x} {payload:02x?}"
                );
            }
            if let Err(e) = client.stats() {
                panic!("case {case}: request 0x{op:02x} {payload:02x?}, then STATS: {e}");
            }
        }
    });
}

#[test]
fn every_well_framed_request_gets_exactly_one_reply() {
    every_request_gets_one_reply(512);
}

#[test]
#[ignore = "100x the cases of the tier-1 test; run in release"]
fn every_well_framed_request_gets_exactly_one_reply_at_scale() {
    every_request_gets_one_reply(51_200);
}

/// `shutdown` ends blocked reads by closing sockets: with 32 idle HELLO'd
/// connections and one stalled two bytes into a frame header, `serve`
/// returns `Ok`, on a loopback and on an unspecified bind address alike.
#[test]
fn shutdown_closes_idle_and_half_framed_connections() {
    let db = fresh_db(10);
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = Server::bind(ServerConfig::default().with_addr(bind)).unwrap();
        let addr = ("127.0.0.1", server.local_addr().unwrap().port());
        let handle = server.shutdown_handle();
        std::thread::scope(|scope| {
            let serving = scope.spawn(|| server.serve(&db));
            let mut idle: Vec<WireClient> = (0..32)
                .map(|_| {
                    let mut client = WireClient::connect(addr).unwrap();
                    client.hello("idle", PlanMode::RankAware, 0, 0, 0).unwrap();
                    client
                })
                .collect();
            let mut stalled = WireClient::connect(addr).unwrap();
            stalled.send_unframed(&[0, 0]).unwrap();
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while server.metrics().connections_accepted() < 33 {
                assert!(std::time::Instant::now() < deadline, "{bind}: not accepted");
                std::thread::yield_now();
            }
            handle.shutdown();
            assert!(serving.join().unwrap().is_ok(), "{bind}");
            // The connect that woke `accept` is not a served connection.
            assert_eq!(server.metrics().connections_accepted(), 33, "{bind}");
            for client in idle.iter_mut().chain([&mut stalled]) {
                assert!(client.read_reply().is_err(), "{bind}: still open");
            }
        });
    }
}
