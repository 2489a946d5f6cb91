//! The closed measurement loop and the statistics taken from it.
//!
//! Every caller of this system waits for its reply, so the load is a closed
//! loop with one client: the next operation starts when the previous one
//! has returned.  A run sets its workload up several times and measures each
//! instance for an equal share of the time: one trial per instance.  The
//! reported median is the median of the trials' medians, which neither a
//! stall inside one trial nor one instance's luck with memory layout moves.

use std::time::{Duration, Instant};

use crate::Res;

/// What one operation reports back to the loop.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Time the client waited for its answer.
    pub latency_ns: u64,
    /// Whether the answer matched the oracle.
    pub correct: bool,
}

/// One closed loop over one instance of a workload.
#[derive(Debug, Default)]
pub struct Trial {
    /// Latencies of the verified operations.
    pub latencies_ns: Vec<u64>,
    /// Wall time of the loop, answer checks and failed operations included.
    pub wall: Duration,
    pub attempted: u64,
    pub failed: u64,
    /// The first error an operation returned, for the report.
    pub first_error: Option<String>,
}

/// Runs `op` back to back for `seconds`, and for at least `min_ops`
/// operations.  An operation that returns an error or a wrong answer counts
/// as failed and the loop goes on.
pub fn closed_loop(seconds: f64, min_ops: u64, mut op: impl FnMut(u64) -> Res<Sample>) -> Trial {
    let mut trial = Trial::default();
    let start = Instant::now();
    while trial.wall.as_secs_f64() < seconds || trial.attempted < min_ops {
        let outcome = op(trial.attempted);
        trial.wall = start.elapsed();
        trial.attempted += 1;
        match outcome {
            Ok(sample) if sample.correct => trial.latencies_ns.push(sample.latency_ns),
            Ok(_) => {
                trial.failed += 1;
                trial.first_error.get_or_insert("wrong answer".to_owned());
            }
            Err(e) => {
                trial.failed += 1;
                trial.first_error.get_or_insert(e.to_string());
            }
        }
    }
    trial
}

impl Trial {
    pub fn median_us(&self) -> f64 {
        median(&self.latencies_ns) / 1e3
    }

    /// Verified operations per second of wall time.
    pub fn ops_per_s(&self) -> f64 {
        self.latencies_ns.len() as f64 / self.wall.as_secs_f64()
    }
}

/// Median of nanosecond samples; 0 for none.
pub fn median(samples: &[u64]) -> f64 {
    let as_f64: Vec<f64> = samples.iter().map(|&v| v as f64).collect();
    median_f64(&as_f64)
}

pub fn median_f64(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest of p50, p90, p99, p99.9 and p99.99 that still has ten
/// samples beyond it, with its name: the tail the sample supports.
pub fn tail(samples: &[u64]) -> (&'static str, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let mut best = ("p50", median(&sorted));
    for (name, beyond_share) in [
        ("p90", 0.1),
        ("p99", 0.01),
        ("p99.9", 0.001),
        ("p99.99", 0.0001),
    ] {
        let beyond = (n as f64 * beyond_share).floor() as usize;
        if beyond >= 10 {
            best = (name, sorted[n - 1 - beyond] as f64);
        }
    }
    best
}

/// `VmHWM` of this process in MiB: the most memory it has held at once.
pub fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_tail() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3, 1, 2]), 2.0);
        assert_eq!(median(&[4, 1, 2, 3]), 2.5);
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&samples), ("p99", 990.0));
        assert_eq!(tail(&samples[..50]).0, "p50");
    }

    #[test]
    fn the_loop_counts_failures_and_runs_min_ops() {
        let trial = closed_loop(0.0, 6, |i| match i % 3 {
            0 => Ok(Sample {
                latency_ns: 10,
                correct: true,
            }),
            1 => Ok(Sample {
                latency_ns: 10,
                correct: false,
            }),
            _ => Err("refused".into()),
        });
        assert_eq!(
            (trial.attempted, trial.failed, trial.latencies_ns.len()),
            (6, 4, 2)
        );
        assert_eq!(trial.first_error.as_deref(), Some("wrong answer"));
        assert!(trial.ops_per_s() > 0.0 && trial.median_us() == 0.01);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
