//! What a run does once its workload is set up: the measured pass with
//! tracing off, or the traced pass and its probes.
//!
//! Every per-layer time is the median of the spans of one name.  The spans
//! come from the workload's own traced operations when these make the call,
//! and from a probe otherwise: a probe runs the same public call on the
//! workload's own database and statement, so every workload reports every
//! layer and no time is ever a made-up zero.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::Instant;

use ranksql::common::wire::{
    decode_row, encode_row, PayloadReader, PayloadWriter, ResultFingerprint,
};
use ranksql::{parse_topk_query, Params};

use crate::gen::{self, SplitMix64};
use crate::measure::{self, closed_loop, median, median_f64, Sample, Trial};
use crate::trace::{write_trace_file, Tracer};
use crate::workloads::{
    connect, request_inproc, request_wire, with_server, Config, Statement, INSERT_BATCH,
};
use crate::Res;

/// The metrics a user of the system sees, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("latency_p50_us", "us"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The metrics of single layers, with their units.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("core.parse_us", "us"),
    ("optimizer.plan_us", "us"),
    ("core.bind_hit_us", "us"),
    ("core.plan_cache_hit_share", "share"),
    ("core.cursor_open_us", "us"),
    ("core.cursor_close_us", "us"),
    ("executor.pull_us", "us"),
    ("executor.tuples_scanned_per_row", "count"),
    ("executor.scan_depth_at_k1", "count"),
    ("executor.scan_depth_at_k10", "count"),
    ("executor.scan_depth_at_k100", "count"),
    ("executor.scan_depth_at_k1000", "count"),
    ("executor.exchange_speedup", "x"),
    ("common.wire_encode_ns_per_row", "ns"),
    ("common.wire_decode_ns_per_row", "ns"),
    ("common.wire_bytes_per_row", "B"),
    ("server.verb_us.bind", "us"),
    ("server.verb_us.open", "us"),
    ("server.verb_us.fetch", "us"),
    ("server.verb_us.close", "us"),
    ("server.wire_overhead_us", "us"),
    ("storage.insert_us_per_row", "us"),
    ("storage.insert_rows_per_s", "1/s"),
    ("storage.seal_stall_us", "us"),
    ("storage.pages_faulted_per_query", "count"),
    ("storage.data_bytes", "B"),
    ("storage.wal_bytes", "B"),
    ("storage.disk_bytes_per_user_byte", "x"),
    ("client.latency_p50_us", "us"),
    ("client.latency_tail_us", "us"),
    ("client.self_share", "share"),
    ("trace_overhead_share", "share"),
    ("trace_spans", "spans"),
];

/// What a run gathers: the counts, the metrics and the report's lines.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub report: String,
    /// Seconds each set-up took.
    pub setups: Vec<f64>,
    /// One measured trial per set-up, tracing off.
    pub trials: Vec<Trial>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.report.push_str(&line);
        self.report.push('\n');
    }

    fn count(&mut self, trial: &Trial) {
        self.attempted += trial.attempted;
        self.failed += trial.failed;
        if let Some(e) = &trial.first_error {
            self.note(format!(
                "FAILED {} of {} operations; the first: {e}",
                trial.failed, trial.attempted
            ));
        }
    }

    /// Turns the set-up times and, for a run with tracing off, the trials
    /// into the end-to-end metrics.  A traced run prints `setup_s` in its
    /// report only.
    pub fn finish(&mut self, trace: bool) -> Res<()> {
        let setup_s = median_f64(&self.setups);
        self.note(format!(
            "setup_s {setup_s:.4} s, median of {:.4?}",
            self.setups
        ));
        if trace {
            return Ok(());
        }
        let medians: Vec<f64> = self.trials.iter().map(Trial::median_us).collect();
        let rates: Vec<f64> = self.trials.iter().map(Trial::ops_per_s).collect();
        let all: Vec<u64> = self
            .trials
            .iter()
            .flat_map(|t| &t.latencies_ns)
            .copied()
            .collect();
        let p50 = median_f64(&medians);
        let (low, high) = medians
            .iter()
            .fold((f64::MAX, f64::MIN), |(l, h), &m| (l.min(m), h.max(m)));
        let (tail_name, tail_ns) = measure::tail(&all);
        self.note(format!(
            "latency_p50_us {p50:.3} us over {} samples; trial medians {medians:.3?} us, spread {:.4}; \
             latency_tail_us {:.3} us at {tail_name} (reported, not gated)\n\
             ops_per_s: trial rates {rates:.3?} 1/s",
            all.len(),
            (high - low) / p50,
            tail_ns / 1e3,
        ));
        self.set("latency_p50_us", p50);
        self.set("ops_per_s", median_f64(&rates));
        self.set("peak_rss_mb", measure::peak_rss_mb()?);
        self.set("setup_s", setup_s);
        Ok(())
    }
}

/// FNV-1a of a plan's text, so a plan flip shows as a changed hash.
pub fn text_hash(text: &str) -> u64 {
    let mut fp = ResultFingerprint::new();
    fp.fold_bytes(text.as_bytes());
    fp.value()
}

type Op<'a> = dyn FnMut(u64, &mut Tracer) -> Res<Sample> + 'a;

/// Measures `op`, the workload's operation, on an instance that is set up:
/// one trial with tracing off, or the traced pass.  `server` is the address
/// of a server over the statement's database when the workload runs one.
pub fn run(
    cfg: &Config,
    stmt: &Statement<'_>,
    server: Option<SocketAddr>,
    op: &mut Op<'_>,
    out: &mut Outcome,
) -> Res<()> {
    if cfg.trace {
        return traced_pass(cfg, stmt, server, op, out);
    }
    let share = cfg.seconds / cfg.sizes.setups as f64;
    let trial = closed_loop(share, cfg.sizes.min_ops, |i| op(i, &mut Tracer::off()));
    out.count(&trial);
    out.trials.push(trial);
    Ok(())
}

/// The statement, its session and the plan it gets, for the report.
pub fn note_plan(stmt: &Statement<'_>, out: &mut Outcome) -> Res<()> {
    let bound = stmt
        .session()
        .prepare(stmt.sql)?
        .bind(Params::positional((stmt.params)(0)).k(stmt.k))?;
    let plan = bound.explain();
    out.note(format!(
        "statement: {}\nmode {:?}, threads {}, k {}, plan hash {:016x}\n{}",
        stmt.sql,
        stmt.mode,
        stmt.threads,
        stmt.k,
        text_hash(&plan),
        plan.trim_end()
    ));
    Ok(())
}

fn traced_pass(
    cfg: &Config,
    stmt: &Statement<'_>,
    server: Option<SocketAddr>,
    op: &mut Op<'_>,
    out: &mut Outcome,
) -> Res<()> {
    let sizes = &cfg.sizes;
    let mut probes = Tracer::on(1 << 16);

    // Before the loop, while the data is what set-up left: the counts.
    // They repeat exactly from run to run.
    let prepared = stmt.session().prepare(stmt.sql)?;
    let (mut scanned, mut emitted, mut faulted) = (0, 0, 0);
    for i in 0..sizes.min_ops {
        let answer = request_inproc(&prepared, (stmt.params)(i), stmt.k, &mut probes)?;
        scanned += answer.tuples_scanned;
        emitted += answer.rows_emitted;
        faulted += answer.pages_faulted;
    }
    out.set(
        "executor.tuples_scanned_per_row",
        scanned as f64 / emitted.max(1) as f64,
    );
    out.set(
        "storage.pages_faulted_per_query",
        faulted as f64 / sizes.min_ops as f64,
    );
    let at_k = |k| request_inproc(&prepared, (stmt.params)(0), k, &mut Tracer::off());
    for (name, k) in [
        ("executor.scan_depth_at_k1", 1),
        ("executor.scan_depth_at_k10", 10),
        ("executor.scan_depth_at_k100", 100),
    ] {
        out.set(name, at_k(k)?.tuples_scanned as f64);
    }
    let thousand = at_k(1000)?;
    out.set(
        "executor.scan_depth_at_k1000",
        thousand.tuples_scanned as f64,
    );
    probe_codec(&thousand, sizes.scaled(200), &mut probes, out)?;

    // The workload's own operations, every other one traced: both halves
    // see the same data and the same drift, so their medians compare.
    let cache_before = stmt.db.plan_cache_stats();
    let mut tracer = Tracer::on(1 << 20);
    let (mut traced_ns, mut untraced_ns) = (Vec::new(), Vec::new());
    let stats = closed_loop(cfg.seconds * 0.5, sizes.min_ops.max(2), |i| {
        let traced = i % 2 == 0;
        tracer.set_enabled(traced);
        let sample = op(i, &mut tracer)?;
        if sample.correct {
            let half = if traced {
                &mut traced_ns
            } else {
                &mut untraced_ns
            };
            half.push(sample.latency_ns);
        }
        Ok(sample)
    });
    out.count(&stats);
    let cache_after = stmt.db.plan_cache_stats();
    let (hits, misses) = (
        cache_after.hits - cache_before.hits,
        cache_after.misses - cache_before.misses,
    );
    out.set(
        "core.plan_cache_hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set("client.latency_p50_us", median(&untraced_ns) / 1e3);
    let (tail_name, tail_ns) = measure::tail(&untraced_ns);
    out.set("client.latency_tail_us", tail_ns / 1e3);
    out.set(
        "trace_overhead_share",
        median(&traced_ns) / median(&untraced_ns).max(1.0) - 1.0,
    );
    out.set("trace_spans", tracer.spans().len() as f64);

    // After the loop: the calls the workload's operation does not make.
    probe_planning(stmt, sizes.scaled(200), &mut probes)?;
    request_inproc(&prepared, (stmt.params)(0), stmt.k, &mut Tracer::off())?; // plans again
    let slice = cfg.seconds * 0.05;
    if tracer.durations("request_inproc").is_empty() {
        out.count(&closed_loop(slice, sizes.min_ops, |i| {
            let answer = request_inproc(&prepared, (stmt.params)(i), stmt.k, &mut probes)?;
            Ok(Sample {
                latency_ns: answer.latency_ns,
                correct: true,
            })
        }));
    }
    probe_exchange(stmt, slice, sizes.min_ops, &mut probes, out)?;
    if tracer.durations("request_wire").is_empty() {
        let mut probe = |addr| probe_wire(stmt, addr, slice, sizes.min_ops, &mut probes);
        out.count(&match server {
            Some(addr) => probe(addr)?,
            None => with_server(stmt.db, stmt.threads == 1, probe)?,
        });
    }
    if tracer.durations("storage.insert").is_empty() {
        probe_insert(stmt, &mut probes)?;
    }

    // A span name's durations: the workload's own where it has them.
    let spans = |name: &str| -> Vec<u64> {
        let own = tracer.durations(name);
        if own.is_empty() {
            probes.durations(name)
        } else {
            own
        }
    };
    let p50_ns = |name: &str| median(&spans(name));
    for (metric, span) in [
        ("core.parse_us", "core.parse"),
        ("optimizer.plan_us", "optimizer.plan"),
        ("core.bind_hit_us", "core.bind"),
        ("core.cursor_open_us", "core.cursor_open"),
        ("core.cursor_close_us", "core.cursor_close"),
        ("executor.pull_us", "executor.pull"),
        ("server.verb_us.bind", "server.bind"),
        ("server.verb_us.open", "server.open"),
        ("server.verb_us.fetch", "server.fetch"),
        ("server.verb_us.close", "server.close"),
    ] {
        out.set(metric, p50_ns(span) / 1e3);
    }
    out.set(
        "server.wire_overhead_us",
        (p50_ns("request_wire") - p50_ns("request_inproc")) / 1e3,
    );
    out.set(
        "executor.exchange_speedup",
        p50_ns("executor.pull_threads1") / p50_ns("executor.pull_threads2").max(1.0),
    );
    let (plain, sealing) = (spans("storage.insert"), spans("storage.insert_seal"));
    let insert_ns: u64 = plain.iter().chain(&sealing).sum();
    let inserted = ((plain.len() + sealing.len()) * INSERT_BATCH) as f64;
    out.set(
        "storage.insert_us_per_row",
        insert_ns as f64 / 1e3 / inserted,
    );
    out.set(
        "storage.insert_rows_per_s",
        inserted / (insert_ns as f64 / 1e9),
    );
    out.set(
        "storage.seal_stall_us",
        (median(&sealing) - median(&plain)) / 1e3,
    );
    for name in [
        "storage.data_bytes",
        "storage.wal_bytes",
        "storage.disk_bytes_per_user_byte",
    ] {
        out.metrics.entry(name).or_insert(0.0); // nothing on disk unless the workload says so
    }

    let shares = tracer.layer_shares();
    out.set(
        "client.self_share",
        shares.get("client").copied().unwrap_or(0.0),
    );
    let mut line = format!(
        "traced loop: {} operations, {} spans; latency tail at {tail_name}; layer shares of an operation:",
        stats.attempted,
        tracer.spans().len()
    );
    for (layer, share) in &shares {
        write!(line, " {layer} {share:.4}")?;
    }
    out.note(line);

    let path = cfg
        .out_dir
        .join(format!("trace-{}.jsonl", cfg.workload.name()));
    write_trace_file(&path, &[("loop", &tracer), ("probe", &probes)])?;
    out.note(format!("trace written to {}", path.display()));
    Ok(())
}

/// `parse_topk_query` and an uncached `Session::plan` of the statement.
fn probe_planning(stmt: &Statement<'_>, parses: u64, probes: &mut Tracer) -> Res<()> {
    let session = stmt.session();
    let bound = session
        .prepare(stmt.sql)?
        .bind(Params::positional((stmt.params)(0)).k(stmt.k))?;
    for _ in 0..parses {
        probes.leaf("core.parse", || parse_topk_query(stmt.sql))?;
    }
    for _ in 0..3 {
        stmt.db.clear_plan_cache();
        probes.leaf("optimizer.plan", || session.plan(bound.query()))?;
    }
    Ok(())
}

/// The statement's pull with one executor thread and with two.
fn probe_exchange(
    stmt: &Statement<'_>,
    seconds: f64,
    min_ops: u64,
    probes: &mut Tracer,
    out: &mut Outcome,
) -> Res<()> {
    for (threads, name) in [(1, "executor.pull_threads1"), (2, "executor.pull_threads2")] {
        let prepared = stmt
            .with_mode(stmt.mode, threads)
            .session()
            .prepare(stmt.sql)?;
        let request = |i: u64, probes: &mut Tracer| -> Res<Sample> {
            let bound = prepared.bind(Params::positional((stmt.params)(i)).k(stmt.k))?;
            let mut cursor = bound.cursor()?;
            let started = Instant::now();
            probes.leaf(name, || cursor.take(stmt.k))?;
            Ok(Sample {
                latency_ns: started.elapsed().as_nanos() as u64,
                correct: true,
            })
        };
        request(0, &mut Tracer::off())?; // the first bind of this thread count plans
        out.count(&closed_loop(seconds, min_ops, |i| request(i, probes)));
    }
    Ok(())
}

/// The statement over a loopback connection, verb by verb.
fn probe_wire(
    stmt: &Statement<'_>,
    addr: SocketAddr,
    seconds: f64,
    min_ops: u64,
    probes: &mut Tracer,
) -> Res<Trial> {
    let (mut client, statement_id) = connect(addr, stmt)?;
    let mut request = |i: u64, probes: &mut Tracer| -> Res<Sample> {
        let (_, latency_ns) =
            request_wire(&mut client, statement_id, (stmt.params)(i), stmt.k, probes)?;
        Ok(Sample {
            latency_ns,
            correct: true,
        })
    };
    request(0, &mut Tracer::off())?;
    Ok(closed_loop(seconds, min_ops, |i| request(i, probes)))
}

/// Two seal cycles of inserts into `E`, for workloads that never insert.
fn probe_insert(stmt: &Statement<'_>, probes: &mut Tracer) -> Res<()> {
    if !stmt.db.catalog().contains("E") {
        gen::create_e(stmt.db)?;
    }
    let mut rng = SplitMix64::fork(0, 4);
    for batch in 0..8u64 {
        let rows = gen::e_rows(&mut rng, batch * INSERT_BATCH as u64, INSERT_BATCH);
        let name = if batch % 4 == 3 {
            "storage.insert_seal"
        } else {
            "storage.insert"
        };
        probes.leaf(name, || stmt.db.insert_batch("E", rows))?;
    }
    Ok(())
}

/// `encode_row` and `decode_row` over the statement's thousand-row answer.
fn probe_codec(
    answer: &crate::workloads::Answer,
    reps: u64,
    probes: &mut Tracer,
    out: &mut Outcome,
) -> Res<()> {
    let rows = answer.rows.len().max(1) as f64;
    let mut bytes = 0;
    for _ in 0..reps {
        let mut payload = PayloadWriter::new();
        probes.leaf("common.wire_encode", || {
            for (row, &score) in answer.rows.iter().zip(&answer.scores) {
                encode_row(
                    &mut payload,
                    score,
                    row.tuple.id().parts(),
                    row.tuple.values(),
                );
            }
        });
        let payload = payload.into_vec();
        bytes = payload.len();
        let mut reader = PayloadReader::new(&payload);
        probes.leaf("common.wire_decode", || {
            for _ in &answer.rows {
                std::hint::black_box(decode_row(&mut reader)?);
            }
            Ok::<(), ranksql::common::wire::WireError>(())
        })?;
    }
    out.set(
        "common.wire_encode_ns_per_row",
        median(&probes.durations("common.wire_encode")) / rows,
    );
    out.set(
        "common.wire_decode_ns_per_row",
        median(&probes.durations("common.wire_decode")) / rows,
    );
    out.set("common.wire_bytes_per_row", bytes as f64 / rows);
    out.note(format!(
        "codec probe: {} rows, {bytes} bytes",
        answer.rows.len()
    ));
    Ok(())
}
