//! One end-to-end benchmark of the RankSQL engine: five named workloads,
//! answer-checked, with a traced pass that attributes time to layers.
//!
//! `perfbench --workload NAME --seed N --seconds S --trace 0|1` runs one
//! workload in this process and prints a report, then one JSON object on
//! the last line.  Without `--workload` it runs all five, each pass in a
//! child process of its own, and with `--repeat N` does so N times and
//! prints how far the repeats agree.  See `README.md` beside `Cargo.toml`.

mod affinity;
mod gen;
mod measure;
mod phases;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use phases::{Outcome, END_TO_END, PER_LAYER};
use workloads::{Config, Sizes, Workload};

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Seed and run length used when the command line names none; the same
/// values stand in `BENCHMARK.json`.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 15.0;

/// Allowed worsening of each end-to-end metric, as in `BENCHMARK.json`; the
/// `--repeat` table judges against these.
const BOUNDS: [(&str, f64); 4] = [
    ("latency_p50_us", 0.2),
    ("ops_per_s", 0.25),
    ("peak_rss_mb", 0.25),
    ("setup_s", 0.25),
];

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn parse_args(args: &[String]) -> Res<Args> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let known = Workload::ALL.map(Workload::name).join(", ");
                parsed.workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload `{value}`; one of {known}"))?,
                );
            }
            "--seed" => parsed.seed = value.parse()?,
            "--seconds" => parsed.seconds = value.parse()?,
            "--trace" => parsed.trace = value.parse::<u8>()? != 0,
            "--repeat" => parsed.repeat = value.parse()?,
            other => return Err(format!("unknown argument `{other}`").into()),
        }
    }
    if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) || parsed.repeat == 0 {
        return Err("--seconds must be positive and --repeat at least 1".into());
    }
    Ok(parsed)
}

/// Build products' directory: the nearest directory above this executable
/// that cargo has tagged as a target directory.  The trace files and the
/// paged database go beneath it, so a run writes nothing outside the
/// checkout.
fn out_dir() -> Res<PathBuf> {
    let exe = std::env::current_exe()?;
    let target = exe
        .ancestors()
        .find(|dir| dir.join("CACHEDIR.TAG").is_file())
        .ok_or("the executable is not under a cargo target directory")?;
    Ok(target.join("perfbench"))
}

/// The metrics a pass must print: all of them, each a finite number.
fn expected(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The last line of a run: counts and metrics as one JSON object.
fn result_line(outcome: &Outcome, trace: bool) -> Res<String> {
    let mut metrics = Vec::new();
    for (name, unit) in expected(trace) {
        let value = outcome
            .metrics
            .get(name)
            .copied()
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}").into());
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some(stray) = outcome
        .metrics
        .keys()
        .find(|k| !expected(trace).iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {stray} is not declared").into());
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

fn run_one(cfg: &Config) -> Res<bool> {
    println!(
        "== {} (seed {}, {} s, trace {}, {} hardware threads) ==",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let outcome = workloads::run(cfg)?;
    print!("{}", outcome.report);
    let line = result_line(&outcome, cfg.trace)?;
    for (name, unit) in expected(cfg.trace) {
        println!("{name} = {} {unit}", outcome.metrics[name]);
    }
    println!("{line}");
    Ok(outcome.failed == 0)
}

/// Reads `"name": {"value": V, ...}` pairs back out of a result line.
fn metrics_of(line: &str) -> Vec<(String, f64)> {
    let mut found = Vec::new();
    for (at, _) in line.match_indices("\": {\"value\": ") {
        let name = line[..at].rsplit('"').next().unwrap_or_default();
        let rest = &line[at + "\": {\"value\": ".len()..];
        let number = rest.split(',').next().unwrap_or_default();
        if let Ok(value) = number.parse() {
            found.push((name.to_owned(), value));
        }
    }
    found
}

/// Runs both passes of every workload, each in a child process, `repeat`
/// times over; prints the children's reports and, for more than one repeat,
/// the noise table.
fn run_all(args: &Args) -> Res<bool> {
    let exe = std::env::current_exe()?;
    let mut all_correct = true;
    // (workload, metric) -> one value per repeat
    let mut table: Vec<((&str, String), Vec<f64>)> = Vec::new();
    for _ in 0..args.repeat {
        for workload in Workload::ALL {
            for trace in ["0", "1"] {
                let child = Command::new(&exe)
                    .args(["--workload", workload.name(), "--trace", trace])
                    .args([
                        "--seed",
                        &args.seed.to_string(),
                        "--seconds",
                        &args.seconds.to_string(),
                    ])
                    .stdout(Stdio::piped())
                    .output()?;
                let stdout = String::from_utf8_lossy(&child.stdout);
                print!("{stdout}");
                all_correct &= child.status.success();
                let last = stdout.lines().last().unwrap_or_default();
                for (metric, value) in metrics_of(last) {
                    let key = (workload.name(), metric);
                    match table.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, values)) => values.push(value),
                        None => table.push((key, vec![value])),
                    }
                }
            }
        }
    }
    if args.repeat > 1 {
        noise_table(args.repeat, &table);
    }
    Ok(all_correct)
}

/// How far repeats of the same code and seed agree: every end-to-end
/// metric against its bound, and whether every count repeated exactly.
fn noise_table(repeat: usize, table: &[((&str, String), Vec<f64>)]) {
    let range = |values: &[f64]| {
        values
            .iter()
            .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)))
    };
    println!("== noise: {repeat} repeats of the same code, same seed ==");
    println!("| workload | metric | values | (max - min) / min | bound | verdict |");
    println!("|---|---|---|---|---|---|");
    for ((workload, metric), values) in table {
        let Some((_, bound)) = BOUNDS.iter().find(|(name, _)| name == metric) else {
            continue;
        };
        let (low, high) = range(values);
        let difference = (high - low) / low;
        let verdict = if difference <= *bound {
            "ok"
        } else {
            "unresolved"
        };
        let values: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        println!(
            "| {workload} | {metric} | {} | {difference:.4} | {bound} | {verdict} |",
            values.join(", ")
        );
    }
    for workload in Workload::ALL {
        let is_count = |metric: &str| PER_LAYER.contains(&(metric, "count"));
        let counts: Vec<_> = table
            .iter()
            .filter(|((w, metric), _)| *w == workload.name() && is_count(metric))
            .collect();
        let moved: Vec<&str> = counts
            .iter()
            .filter(|(_, values)| values.iter().any(|v| *v != values[0]))
            .map(|((_, metric), _)| metric.as_str())
            .collect();
        println!(
            "{}: {} counts, {} of them differ between repeats {moved:?}",
            workload.name(),
            counts.len(),
            moved.len()
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|args| match args.workload {
        Some(workload) => run_one(&Config {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            sizes: Sizes::full(),
            out_dir: out_dir()?,
        }),
        None => run_all(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: an operation failed or gave a wrong answer");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload and its traced pass at a hundredth of the size, twice.
    #[test]
    fn smoke_all_workloads_both_passes() {
        let out_dir = out_dir().unwrap().join("smoke");
        let mut counts_by_run: Vec<Vec<(String, f64)>> = Vec::new();
        for _run in 0..2 {
            let mut counts = Vec::new();
            for workload in Workload::ALL {
                for trace in [false, true] {
                    let cfg = Config {
                        workload,
                        seed: 7,
                        seconds: 0.3,
                        trace,
                        sizes: Sizes::smoke(),
                        out_dir: out_dir.clone(),
                    };
                    let outcome = workloads::run(&cfg)
                        .unwrap_or_else(|e| panic!("{} trace {trace}: {e}", workload.name()));
                    assert_eq!(
                        outcome.failed,
                        0,
                        "{}:\n{}",
                        workload.name(),
                        outcome.report
                    );
                    assert!(outcome.attempted >= cfg.sizes.min_ops);
                    // Present, finite, declared with a unit.
                    let line = result_line(&outcome, trace).unwrap();
                    assert_eq!(metrics_of(&line).len(), expected(trace).len());
                    assert!(outcome.report.contains("plan hash"));
                    for (name, unit) in expected(trace) {
                        if *unit == "count" {
                            counts.push((
                                format!("{}/{name}", workload.name()),
                                outcome.metrics[name],
                            ));
                        }
                    }
                    if trace {
                        check_trace_file(&out_dir.join(format!("trace-{}.jsonl", workload.name())));
                    }
                }
            }
            counts_by_run.push(counts);
        }
        assert_eq!(
            counts_by_run[0], counts_by_run[1],
            "counts must repeat exactly"
        );
    }

    /// Child spans lie inside their parents and share their operation.
    fn check_trace_file(path: &std::path::Path) {
        let text = std::fs::read_to_string(path).unwrap();
        let field = |line: &str, key: &str| -> String {
            let rest = &line[line.find(&format!("\"{key}\":")).unwrap() + key.len() + 3..];
            rest.split([',', '}'])
                .next()
                .unwrap()
                .trim_matches('"')
                .to_owned()
        };
        // phase -> (start, end, parent, op) of each span
        type Spans = Vec<(u64, u64, Option<usize>, u64)>;
        let mut by_phase: std::collections::BTreeMap<String, Spans> = Default::default();
        for line in text.lines() {
            let num = |key: &str| field(line, key).parse::<u64>().unwrap();
            let parent = field(line, "parent").parse::<usize>().ok();
            by_phase.entry(field(line, "phase")).or_default().push((
                num("start_ns"),
                num("end_ns"),
                parent,
                num("op_id"),
            ));
        }
        assert!(by_phase.contains_key("loop") && by_phase.contains_key("probe"));
        for spans in by_phase.values() {
            for &(start, end, parent, op_id) in spans {
                assert!(start <= end);
                if let Some(p) = parent {
                    let (p_start, p_end, _, p_op) = spans[p];
                    assert!(p_start <= start && end <= p_end && p_op == op_id);
                }
            }
        }
    }

    /// `BENCHMARK.json` and the program name the same workloads, metrics,
    /// units, bounds and run length.
    #[test]
    fn the_contract_file_matches_the_program() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let contract = std::fs::read_to_string(path).unwrap();
        for workload in Workload::ALL {
            assert!(contract.contains(&format!("{{\"name\": \"{}\", \"why\": ", workload.name())));
        }
        assert_eq!(contract.matches("\"why\": ").count(), Workload::ALL.len());
        for (name, unit) in PER_LAYER {
            assert!(
                contract.contains(&format!(
                    "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": "
                )),
                "{name}"
            );
        }
        for ((name, unit), (bounded, bound)) in END_TO_END.iter().zip(BOUNDS) {
            assert_eq!(*name, bounded);
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            let rest = &contract[contract.find(&entry).unwrap_or_else(|| panic!("{name}"))..];
            assert!(
                rest[..rest.find('}').unwrap()].ends_with(&format!("\"bound\": {bound}")),
                "{name}"
            );
        }
        assert_eq!(
            contract.matches("\"better\": ").count(),
            PER_LAYER.len() + END_TO_END.len()
        );
        assert!(contract.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS},")));
    }

    #[test]
    fn result_lines_read_back() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            outcome.set(name, 1.5 + i as f64);
        }
        let line = result_line(&outcome, false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        assert_eq!(metrics_of(&line)[1], ("ops_per_s".to_owned(), 2.5));
        outcome.set("ops_per_s", f64::NAN);
        assert!(result_line(&outcome, false).is_err());
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
    }
}
