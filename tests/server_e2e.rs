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

use ranksql::common::wire::{opcode, ErrorCode, ResultFingerprint, WireRow};
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
