//! The five workloads: set-up, answer oracle, one operation each.
//!
//! Only the engine's narrow user surface is named here (`Database`,
//! `Session`, `PreparedQuery`, `BoundQuery`, `Cursor`, `Server`,
//! `WireClient`, the wire row codec and the two index builders), never a
//! storage backend or an operator, so the engine can change beneath it.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Instant;

use ranksql::common::wire::ResultFingerprint;
use ranksql::expr::RankedTuple;
use ranksql::server::{Server, ServerConfig};
use ranksql::workload::client::WireClient;
use ranksql::{Database, PagedOptions, Params, PlanMode, PreparedQuery, Schema, Session, Value};

use crate::gen::{self, PaperqShape, SplitMix64, E_ROW_BYTES, INGEST_Q, PAPER_Q, POINT_Q};
use crate::measure::Sample;
use crate::phases::{self, Outcome};
use crate::trace::Tracer;
use crate::{affinity, Res};

/// Seed of the stored data.  `--seed` drives the operation sequence only:
/// the optimizer's plan for Q flips with the data (2 ms, 14 ms and 150 ms
/// plans within six data seeds), which would drown every bound, so the data
/// is pinned and the plan's hash is printed with every run.
pub const DATA_SEED: u64 = 20_050_614;

/// Rows per `insert_batch` call of `ingest-paged`; four calls make a cycle,
/// so exactly one call of each cycle crosses a 1 024-row seal.
pub const INSERT_BATCH: usize = 256;
const INSERTS_PER_CYCLE: usize = 4;
const SEAL_ROWS: u64 = 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperqRank,
    PaperqSort,
    ColdPlan,
    PointWire,
    IngestPaged,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PaperqRank,
        Workload::PaperqSort,
        Workload::ColdPlan,
        Workload::PointWire,
        Workload::IngestPaged,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperqRank => "paperq-rank",
            Workload::PaperqSort => "paperq-sort",
            Workload::ColdPlan => "cold-plan",
            Workload::PointWire => "point-wire",
            Workload::IngestPaged => "ingest-paged",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations run and thrown away at the end of set-up, the first cold
    /// plan among them.
    fn warmup_ops(self) -> u64 {
        match self {
            Workload::PaperqRank => 20,
            Workload::PaperqSort => 4,
            Workload::ColdPlan => 2,
            Workload::PointWire => 2000,
            Workload::IngestPaged => 3,
        }
    }
}

/// Input sizes; `full` is what the benchmark measures, `smoke` what its own
/// test runs.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub paperq: PaperqShape,
    /// Rows of `E` loaded before the first cycle.
    pub ingest_preload: usize,
    /// Buffer-pool budget of `ingest-paged`, in 16 KiB pages.
    pub pool_pages: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Warm-up and probe counts are divided by this.
    pub divisor: u64,
    /// Operations every loop runs whatever the clock says.
    pub min_ops: u64,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            paperq: PaperqShape {
                rows: 5000,
                join_domain: 250,
            },
            ingest_preload: 200_000,
            pool_pages: 64,
            setups: 5,
            divisor: 1,
            min_ops: 10,
        }
    }

    #[cfg(test)]
    pub fn smoke() -> Sizes {
        Sizes {
            paperq: PaperqShape {
                rows: 500,
                join_domain: 25,
            },
            ingest_preload: 4096,
            pool_pages: 8,
            setups: 2,
            divisor: 100,
            min_ops: 4,
        }
    }

    pub fn scaled(&self, n: u64) -> u64 {
        (n / self.divisor).max(1)
    }
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Where the trace file and the paged database go.
    pub out_dir: PathBuf,
}

/// One statement as a user would run it: the text, the session settings,
/// `k` and the parameter values of the `i`-th request.
#[derive(Clone, Copy)]
pub struct Statement<'a> {
    pub db: &'a Database,
    pub sql: &'static str,
    pub mode: PlanMode,
    pub threads: usize,
    pub k: usize,
    pub params: &'a dyn Fn(u64) -> Vec<Value>,
}

impl<'a> Statement<'a> {
    pub fn session(&self) -> Session<'a> {
        self.db
            .session()
            .with_mode(self.mode)
            .with_threads(self.threads)
    }

    pub fn with_mode(&self, mode: PlanMode, threads: usize) -> Statement<'a> {
        Statement {
            mode,
            threads,
            ..*self
        }
    }
}

/// The answer of one in-process request, with the cursor's counters.
pub struct Answer {
    pub rows: Vec<RankedTuple>,
    /// Final score of each row, in rank order.
    pub scores: Vec<f64>,
    pub schema: Schema,
    pub tuples_scanned: u64,
    pub rows_emitted: u64,
    pub pages_faulted: u64,
    pub latency_ns: u64,
}

impl Answer {
    pub fn fingerprint(&self) -> ResultFingerprint {
        let columns: Vec<String> = self
            .schema
            .fields()
            .iter()
            .map(|f| f.qualified_name())
            .collect();
        let rows = self.rows.iter().zip(&self.scores);
        fingerprint(
            &columns,
            rows.map(|(r, &score)| (score, r.tuple.id().parts(), r.tuple.values())),
        )
    }
}

/// Fingerprint of an answer: scores, row identities and values in rank
/// order.  `SELECT *` lists columns in the plan's join order, so the values
/// are folded in the order of their column names; two plans that return the
/// same rows then agree whatever their join order.
pub fn fingerprint<'r>(
    columns: &[String],
    rows: impl Iterator<Item = (f64, &'r [(u32, u64)], &'r [Value])>,
) -> ResultFingerprint {
    let mut by_name: Vec<usize> = (0..columns.len()).collect();
    by_name.sort_by_key(|&i| &columns[i]);
    let mut fp = ResultFingerprint::new();
    for (score, id, values) in rows {
        let ordered: Vec<Value> = by_name.iter().map(|&i| values[i].clone()).collect();
        fp.fold_row(score, id, &ordered);
    }
    fp
}

/// bind → cursor → take `k` → drop the cursor, as an embedded caller does.
pub fn request_inproc(
    prepared: &PreparedQuery<'_>,
    values: Vec<Value>,
    k: usize,
    tracer: &mut Tracer,
) -> Res<Answer> {
    tracer.scope("request_inproc", |t| {
        let started = Instant::now();
        let bound = t.leaf("core.bind", || {
            prepared.bind(Params::positional(values).k(k))
        })?;
        let mut cursor = t.leaf("core.cursor_open", || bound.cursor())?;
        let rows = t.leaf("executor.pull", || cursor.take(k))?;
        let mut answer = Answer {
            scores: rows.iter().map(|r| cursor.score(r)).collect(),
            rows,
            schema: cursor.schema().clone(),
            tuples_scanned: cursor.tuples_scanned(),
            rows_emitted: cursor.rows_emitted(),
            pages_faulted: cursor.pages_faulted(),
            latency_ns: 0,
        };
        t.leaf("core.cursor_close", || drop(cursor));
        answer.latency_ns = started.elapsed().as_nanos() as u64;
        Ok(answer)
    })
}

/// BIND → OPEN → FETCH `k` → CLOSE over one connection.
pub fn request_wire(
    client: &mut WireClient,
    statement_id: u32,
    values: Vec<Value>,
    k: usize,
    tracer: &mut Tracer,
) -> Res<(ResultFingerprint, u64)> {
    let (columns, rows, latency_ns) = tracer.scope("request_wire", |t| -> Res<_> {
        let started = Instant::now();
        let values: Vec<(u16, Value)> = (0u16..).zip(values).collect();
        let bound = t.leaf("server.bind", || {
            client.bind(statement_id, Some(k as u64), &values)
        })?;
        let opened = t.leaf("server.open", || client.open(bound.binding_id))?;
        let reply = t.leaf("server.fetch", || client.fetch(opened.cursor_id, k as u32))?;
        t.leaf("server.close", || client.close(opened.cursor_id))?;
        Ok((
            opened.columns,
            reply.rows,
            started.elapsed().as_nanos() as u64,
        ))
    })?;
    let rows = rows.iter().map(|r| (r.score, &r.id[..], &r.values[..]));
    Ok((fingerprint(&columns, rows), latency_ns))
}

/// Serves `db` on a loopback port for as long as `f` runs.  With `one_cpu`
/// the caller and the server's threads share a CPU meanwhile; see
/// `affinity.rs` for why.  A statement that runs on two executor threads
/// must not ask for it.
pub fn with_server<T>(
    db: &Database,
    one_cpu: bool,
    f: impl FnOnce(SocketAddr) -> Res<T>,
) -> Res<T> {
    let _pinned = if one_cpu {
        affinity::pin_to_one_cpu()
    } else {
        None
    };
    let server = Server::bind(ServerConfig::default())?;
    let addr = server.local_addr()?;
    let stop = server.shutdown_handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(db));
        let out = f(addr);
        stop.shutdown();
        serving.join().map_err(|_| "the server thread panicked")??;
        out
    })
}

/// Connects, negotiates the statement's session and prepares it.
pub fn connect(addr: SocketAddr, stmt: &Statement<'_>) -> Res<(WireClient, u32)> {
    let mut client = WireClient::connect(addr)?;
    client.hello("perfbench", stmt.mode, stmt.threads as u16, 0, 0)?;
    let statement_id = client.prepare(stmt.sql)?.statement_id;
    Ok((client, statement_id))
}

/// Sets the workload up `sizes.setups` times.  With tracing off every
/// instance is measured for an equal share of the time; a traced run
/// measures the last instance only.
pub fn run(cfg: &Config) -> Res<Outcome> {
    let mut out = Outcome::default();
    for rep in 1..=cfg.sizes.setups {
        let last = rep == cfg.sizes.setups;
        match cfg.workload {
            Workload::PaperqRank => paperq(cfg, PlanMode::RankAware, 1, last, &mut out),
            Workload::PaperqSort => paperq(cfg, PlanMode::Traditional, 2, last, &mut out),
            Workload::ColdPlan => cold_plan(cfg, last, &mut out),
            Workload::PointWire => point_wire(cfg, last, &mut out),
            Workload::IngestPaged => ingest_paged(cfg, last, &mut out),
        }?;
    }
    out.finish(cfg.trace)?;
    Ok(out)
}

/// Closes an instance's set-up: records its time and, on the last instance,
/// the plan.  False when this instance is not to be measured.
fn set_up(
    cfg: &Config,
    started: Instant,
    last: bool,
    stmt: &Statement<'_>,
    out: &mut Outcome,
) -> Res<bool> {
    out.setups.push(started.elapsed().as_secs_f64());
    if last {
        phases::note_plan(stmt, out)?;
    }
    Ok(last || !cfg.trace)
}

fn paperq_db(cfg: &Config) -> Res<Database> {
    let db = Database::new();
    gen::load_paperq(&db, DATA_SEED, cfg.sizes.paperq)?;
    Ok(db)
}

/// `paperq-rank` and `paperq-sort`: Q on a warm plan cache, in process.
fn paperq(cfg: &Config, mode: PlanMode, threads: usize, last: bool, out: &mut Outcome) -> Res<()> {
    let started = Instant::now();
    let db = paperq_db(cfg)?;
    let no_params = |_| Vec::new();
    let stmt = Statement {
        db: &db,
        sql: PAPER_Q,
        mode,
        threads,
        k: 10,
        params: &no_params,
    };
    let prepared = stmt.session().prepare(PAPER_Q)?;
    for _ in 0..cfg.sizes.scaled(cfg.workload.warmup_ops()) {
        request_inproc(&prepared, Vec::new(), stmt.k, &mut Tracer::off())?;
    }
    if !set_up(cfg, started, last, &stmt, out)? {
        return Ok(());
    }

    let oracle = paperq_oracle(&stmt)?;
    let mut op = |_i: u64, tracer: &mut Tracer| -> Res<Sample> {
        tracer.scope("op", |t| {
            let answer = request_inproc(&prepared, Vec::new(), stmt.k, t)?;
            Ok(Sample {
                latency_ns: answer.latency_ns,
                correct: answer.fingerprint() == oracle,
            })
        })
    };
    phases::run(cfg, &stmt, None, &mut op, out)
}

/// `cold-plan`: what the first sight of a statement shape costs.
fn cold_plan(cfg: &Config, last: bool, out: &mut Outcome) -> Res<()> {
    let started = Instant::now();
    let db = paperq_db(cfg)?;
    let no_params = |_| Vec::new();
    let stmt = Statement {
        db: &db,
        sql: PAPER_Q,
        mode: PlanMode::RankAware,
        threads: 1,
        k: 10,
        params: &no_params,
    };
    let session = stmt.session();
    let plan_cold = |tracer: &mut Tracer| -> Res<(u64, bool, u64)> {
        let started = Instant::now();
        tracer.leaf("core.clear_plan_cache", || db.clear_plan_cache());
        let prepared = tracer.leaf("core.prepare", || session.prepare(PAPER_Q))?;
        let bound = tracer.leaf("optimizer.bind_miss", || {
            prepared.bind(Params::none().k(stmt.k))
        })?;
        let latency_ns = started.elapsed().as_nanos() as u64;
        Ok((
            latency_ns,
            bound.cache_hit(),
            phases::text_hash(&bound.explain()),
        ))
    };
    let mut plan_hash = 0;
    for _ in 0..cfg.sizes.scaled(cfg.workload.warmup_ops()) {
        plan_hash = plan_cold(&mut Tracer::off())?.2;
    }
    if !set_up(cfg, started, last, &stmt, out)? {
        return Ok(());
    }

    // There are no rows to check: an operation is right when the optimizer
    // ran (no cache hit) and chose the plan it chose in set-up.
    let mut op = |_i: u64, tracer: &mut Tracer| -> Res<Sample> {
        tracer.scope("op", |t| {
            let (latency_ns, hit, hash) = plan_cold(t)?;
            Ok(Sample {
                latency_ns,
                correct: !hit && hash == plan_hash,
            })
        })
    };
    phases::run(cfg, &stmt, None, &mut op, out)
}

/// `point-wire`: a cheap query over one persistent loopback connection.
fn point_wire(cfg: &Config, last: bool, out: &mut Outcome) -> Res<()> {
    let started = Instant::now();
    let db = paperq_db(cfg)?;
    // 100 seeded values from the upper half of the join domain: at least
    // half the rows pass, so the rank-scan stops about 2k tuples deep.
    let domain = cfg.sizes.paperq.join_domain;
    let mut rng = SplitMix64::fork(cfg.seed, 1);
    let bounds: Vec<i64> = (0..100)
        .map(|_| (domain / 2 + rng.below(domain - domain / 2)) as i64)
        .collect();
    let params = |i: u64| vec![Value::from(bounds[(i % 100) as usize])];
    let stmt = Statement {
        db: &db,
        sql: POINT_Q,
        mode: PlanMode::RankAware,
        threads: 1,
        k: 10,
        params: &params,
    };
    with_server(&db, true, |addr| {
        let (mut client, statement_id) = connect(addr, &stmt)?;
        for i in 0..cfg.sizes.scaled(cfg.workload.warmup_ops()) {
            request_wire(
                &mut client,
                statement_id,
                params(i),
                stmt.k,
                &mut Tracer::off(),
            )?;
        }
        if !set_up(cfg, started, last, &stmt, out)? {
            return Ok(());
        }

        let oracle = canonical_oracle(&stmt, 100)?;
        let mut op = |i: u64, tracer: &mut Tracer| -> Res<Sample> {
            tracer.scope("op", |t| {
                let (answer, latency_ns) =
                    request_wire(&mut client, statement_id, params(i), stmt.k, t)?;
                Ok(Sample {
                    latency_ns,
                    correct: answer == oracle[(i % 100) as usize],
                })
            })
        };
        phases::run(cfg, &stmt, Some(addr), &mut op, out)
    })
}

/// `ingest-paged`: inserts beside reads on a table nine times the pool.
fn ingest_paged(cfg: &Config, last: bool, out: &mut Outcome) -> Res<()> {
    let started = Instant::now();
    let dir = cfg.out_dir.join(format!(
        "data-{}-{}",
        cfg.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let _cleanup = RemoveDir(dir.clone());
    let options = PagedOptions {
        pool_pages: cfg.sizes.pool_pages,
    };

    let mut state = IngestState {
        rng: SplitMix64::fork(cfg.seed, 2),
        acknowledged: 0,
    };
    let seed = cfg.seed;
    let params = move |i: u64| {
        vec![Value::from(
            0.5 + 0.5 * SplitMix64::fork(seed, 1000 + i).unit(),
        )]
    };
    let last_answer;
    {
        let db = Database::open_paged_with(&dir, options)?;
        gen::create_e(&db)?;
        let mut preload = SplitMix64::fork(DATA_SEED, 3);
        while (state.acknowledged as usize) < cfg.sizes.ingest_preload {
            let n = (cfg.sizes.ingest_preload - state.acknowledged as usize).min(8192);
            state.acknowledged +=
                db.insert_batch("E", gen::e_rows(&mut preload, state.acknowledged, n))? as u64;
        }
        let stmt = Statement {
            db: &db,
            sql: INGEST_Q,
            mode: PlanMode::Traditional,
            threads: 1,
            k: 10,
            params: &params,
        };
        let prepared = stmt.session().prepare(INGEST_Q)?;
        for i in 0..cfg.sizes.scaled(cfg.workload.warmup_ops()) {
            ingest_cycle(
                &db,
                &prepared,
                &mut state,
                params(i),
                stmt.k,
                &mut Tracer::off(),
            )?;
        }
        if !set_up(cfg, started, last, &stmt, out)? {
            return Ok(());
        }

        let mut op = |i: u64, tracer: &mut Tracer| -> Res<Sample> {
            tracer.scope("op", |t| {
                ingest_cycle(&db, &prepared, &mut state, params(i), stmt.k, t)
            })
        };
        phases::run(cfg, &stmt, None, &mut op, out)?;
        last_answer = request_inproc(
            &prepared,
            vec![Value::from(0.75)],
            stmt.k,
            &mut Tracer::off(),
        )?
        .fingerprint();
    }

    // Every handle is closed.  What the engine acknowledged must be what a
    // fresh process finds, and the canonical plan over it must give the
    // answer the live database gave last.
    let reopening = Instant::now();
    let db = Database::open_paged_with(&dir, options)?;
    let reopen_s = reopening.elapsed().as_secs_f64();
    let rows_found = db.catalog().table("E")?.row_count() as u64;
    let fixed = |_| vec![Value::from(0.75)];
    let canonical = Statement {
        db: &db,
        sql: INGEST_Q,
        mode: PlanMode::Canonical,
        threads: 1,
        k: 10,
        params: &fixed,
    };
    let durable =
        rows_found == state.acknowledged && canonical_oracle(&canonical, 1)?[0] == last_answer;
    out.attempted += 1;
    if !durable {
        out.failed += 1;
        out.note(format!(
            "FAILED reopen check: {rows_found} rows found, {} acknowledged",
            state.acknowledged
        ));
    }

    let file_bytes = |suffix: &str| -> Res<u64> {
        let mut total = 0;
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            if entry.file_name().to_string_lossy().ends_with(suffix) {
                total += entry.metadata()?.len();
            }
        }
        Ok(total)
    };
    let (data, wal, all) = (file_bytes(".dat")?, file_bytes(".wal")?, file_bytes("")?);
    let user_bytes = (state.acknowledged * E_ROW_BYTES) as f64;
    out.note(format!(
        "storage: {} rows acknowledged, reopen {reopen_s:.4} s (storage.reopen_s), data {data} B, wal {wal} B, \
         all files {all} B, flush policy: engine default (fsync at each 1 024-row seal)",
        state.acknowledged
    ));
    if cfg.trace {
        out.set("storage.data_bytes", data as f64);
        out.set("storage.wal_bytes", wal as f64);
        out.set("storage.disk_bytes_per_user_byte", all as f64 / user_bytes);
    }
    Ok(())
}

struct IngestState {
    rng: SplitMix64,
    /// Rows `insert_batch` has acknowledged, preload included.
    acknowledged: u64,
}

/// Four inserts of 256 rows, then one top-k read.  The latency reported is
/// the read's; the answer is right when it holds `k` rows that pass the
/// filter, best score first.
fn ingest_cycle(
    db: &Database,
    prepared: &PreparedQuery<'_>,
    state: &mut IngestState,
    values: Vec<Value>,
    k: usize,
    tracer: &mut Tracer,
) -> Res<Sample> {
    for _ in 0..INSERTS_PER_CYCLE {
        let rows = gen::e_rows(&mut state.rng, state.acknowledged, INSERT_BATCH);
        let crosses_seal =
            (state.acknowledged + INSERT_BATCH as u64) / SEAL_ROWS > state.acknowledged / SEAL_ROWS;
        let name = if crosses_seal {
            "storage.insert_seal"
        } else {
            "storage.insert"
        };
        state.acknowledged += tracer.leaf(name, || db.insert_batch("E", rows))? as u64;
    }
    let limit = values[0]
        .as_f64()
        .ok_or("the ingest parameter is a float")?;
    let answer = request_inproc(prepared, values, k, tracer)?;
    let correct = answer.rows.len() == k
        && answer.scores.windows(2).all(|w| w[0] >= w[1])
        && answer
            .rows
            .iter()
            .all(|r| r.tuple.value(2).as_f64().is_some_and(|x| x < limit));
    Ok(Sample {
        latency_ns: answer.latency_ns,
        correct,
    })
}

/// Removes the paged database's directory when the run ends, however.
struct RemoveDir(PathBuf);

impl Drop for RemoveDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The reference answers of a single-table statement: the canonical Eq. 1
/// plan (scan, filter, sort everything) for requests `0..cycle`.
pub fn canonical_oracle(stmt: &Statement<'_>, cycle: u64) -> Res<Vec<ResultFingerprint>> {
    let canonical = stmt.with_mode(PlanMode::Canonical, 1);
    let prepared = canonical.session().prepare(stmt.sql)?;
    (0..cycle)
        .map(|i| {
            Ok(
                request_inproc(&prepared, (stmt.params)(i), stmt.k, &mut Tracer::off())?
                    .fingerprint(),
            )
        })
        .collect()
}

/// The reference answer of Q.  Its canonical plan is a triple cross product
/// (1.25e11 tuples at s = 5 000) and never ends, so the reference is this
/// file's own join and sort over the stored rows; the engine's
/// materialise-then-sort answer must name the same rows with the same
/// scores, and its fingerprint is what every operation is then held to.
fn paperq_oracle(stmt: &Statement<'_>) -> Res<ResultFingerprint> {
    let k = stmt.k;
    let [a, b, c] = ["A", "B", "C"].map(|name| stmt.db.catalog().table(name));
    let (a, b, c) = (a?, b?, c?);
    let int = |v: &Value| v.as_i64().ok_or("join columns are integers");
    let float = |v: &Value| v.as_f64().ok_or("score columns are floats");

    // A rows that pass A.b by jc1, and C rows by jc2, each with its score.
    let mut a_by_jc1: HashMap<i64, Vec<(u64, f64, f64)>> = HashMap::new();
    for (row, t) in a.scan().iter().enumerate() {
        if t.value(2).as_bool() == Some(true) {
            let entry = (row as u64, float(t.value(3))?, float(t.value(4))?);
            a_by_jc1.entry(int(t.value(0))?).or_default().push(entry);
        }
    }
    let mut c_by_jc2: HashMap<i64, Vec<(u64, f64)>> = HashMap::new();
    for (row, t) in c.scan().iter().enumerate() {
        c_by_jc2
            .entry(int(t.value(1))?)
            .or_default()
            .push((row as u64, float(t.value(2))?));
    }
    // The k best of the join, best first; ties are not expected in
    // continuous scores and would show as a mismatch below.
    let mut best: Vec<(f64, [(u32, u64); 3])> = Vec::new();
    for (b_row, t) in b.scan().iter().enumerate() {
        if t.value(2).as_bool() != Some(true) {
            continue;
        }
        let (b_p1, b_p2) = (float(t.value(3))?, float(t.value(4))?);
        let a_side = a_by_jc1
            .get(&int(t.value(0))?)
            .map_or(&[][..], Vec::as_slice);
        let c_side = c_by_jc2
            .get(&int(t.value(1))?)
            .map_or(&[][..], Vec::as_slice);
        for &(a_row, a_p1, a_p2) in a_side {
            for &(c_row, c_p1) in c_side {
                let score = a_p1 + a_p2 + b_p1 + b_p2 + c_p1;
                if best.len() == k && score <= best[k - 1].0 {
                    continue;
                }
                let at = best.partition_point(|(s, _)| *s >= score);
                best.insert(
                    at,
                    (
                        score,
                        [(a.id(), a_row), (b.id(), b_row as u64), (c.id(), c_row)],
                    ),
                );
                best.truncate(k);
            }
        }
    }

    let sorting = stmt.with_mode(PlanMode::Traditional, 1);
    let prepared = sorting.session().prepare(stmt.sql)?;
    let answer = request_inproc(&prepared, Vec::new(), k, &mut Tracer::off())?;
    let same = answer.rows.len() == best.len()
        && answer.rows.iter().zip(&answer.scores).zip(&best).all(
            |((row, got_score), (score, ids))| {
                let mut got = row.tuple.id().parts().to_vec();
                got.sort_unstable();
                let mut want = ids.to_vec();
                want.sort_unstable();
                got == want && (got_score - score).abs() < 1e-9
            },
        );
    if !same {
        return Err(
            "the engine's answer to Q differs from the benchmark's own join and sort".into(),
        );
    }
    Ok(answer.fingerprint())
}
