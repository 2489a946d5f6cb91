//! Per-operator runtime metrics.
//!
//! The cardinality-estimation experiment (Figure 13) compares the *real*
//! output cardinality of every operator in a plan against the optimizer's
//! estimate, and Example 4 reasons about plans through the number of tuples
//! each operator processed.  Each physical operator therefore registers an
//! [`OperatorMetrics`] handle in a shared [`MetricsRegistry`] and updates it
//! while running.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Counters for one physical operator.
#[derive(Debug, Default)]
pub struct OperatorMetrics {
    name: Mutex<String>,
    tuples_in: AtomicU64,
    tuples_out: AtomicU64,
    batches_out: AtomicU64,
    buffered_peak: AtomicU64,
    tuples_built: AtomicU64,
}

impl OperatorMetrics {
    /// Creates metrics labelled with the operator name.
    pub fn new(name: impl Into<String>) -> Arc<Self> {
        let m = OperatorMetrics::default();
        *m.name.lock() = name.into();
        Arc::new(m)
    }

    /// The operator label.
    pub fn name(&self) -> String {
        self.name.lock().clone()
    }

    /// Records `n` tuples drawn from the operator's input(s).
    pub fn add_in(&self, n: u64) {
        self.tuples_in.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one tuple emitted by the operator.
    pub fn add_out(&self, n: u64) {
        self.tuples_out.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one `next_batch` call that emitted at least one tuple.
    pub fn add_batch(&self) {
        self.batches_out.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` rows a hash join or a zone-pruning scan actually
    /// constructed — under a top-k heap's threshold fewer than the
    /// `tuples_out` it decided.
    pub fn add_built(&self, n: u64) {
        self.tuples_built.fetch_add(n, Ordering::Relaxed);
    }

    /// Records the current number of buffered tuples, keeping the maximum.
    pub fn observe_buffered(&self, n: u64) {
        self.buffered_peak.fetch_max(n, Ordering::Relaxed);
    }

    /// Records what one `next_batch` call of an incremental operator did:
    /// the tuples it drew, the tuples it emitted (one batch if any) and the
    /// most it held buffered.  Such an operator draws and emits one tuple at
    /// a time, so it counts in locals and writes the shared counters here,
    /// once per call.
    pub fn record_call(&self, tuples_in: u64, tuples_out: u64, buffered_peak: u64) {
        if tuples_in > 0 {
            self.add_in(tuples_in);
            self.observe_buffered(buffered_peak);
        }
        if tuples_out > 0 {
            self.add_out(tuples_out);
            self.add_batch();
        }
    }

    /// Tuples drawn from inputs.
    pub fn tuples_in(&self) -> u64 {
        self.tuples_in.load(Ordering::Relaxed)
    }

    /// Tuples emitted.
    pub fn tuples_out(&self) -> u64 {
        self.tuples_out.load(Ordering::Relaxed)
    }

    /// `next_batch` calls that emitted at least one tuple.
    pub fn batches_out(&self) -> u64 {
        self.batches_out.load(Ordering::Relaxed)
    }

    /// Mean number of tuples per emitted batch (0 when no batch was
    /// emitted).  A fill far below the configured batch size means the
    /// operator trickles tuples out — expected for incremental rank-aware
    /// operators under small `k`, suspicious for scans and filters.
    pub fn mean_batch_fill(&self) -> f64 {
        let batches = self.batches_out();
        if batches == 0 {
            0.0
        } else {
            self.tuples_out() as f64 / batches as f64
        }
    }

    /// Peak number of buffered tuples (priority queues, hash tables).
    pub fn buffered_peak(&self) -> u64 {
        self.buffered_peak.load(Ordering::Relaxed)
    }

    /// Rows a hash join or a columnar scan constructed (0 for every other
    /// operator).
    pub fn tuples_built(&self) -> u64 {
        self.tuples_built.load(Ordering::Relaxed)
    }
}

/// An ordered collection of the metrics of every operator in a plan.
///
/// Operators are registered during plan lowering in post-order (inputs before
/// parents), so index `i` consistently refers to the same operator across
/// runs of the same plan shape.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    ops: Mutex<Vec<Arc<OperatorMetrics>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Arc<Self> {
        Arc::new(MetricsRegistry::default())
    }

    /// Registers a new operator and returns its metrics handle.
    pub fn register(&self, name: impl Into<String>) -> Arc<OperatorMetrics> {
        let m = OperatorMetrics::new(name);
        self.ops.lock().push(Arc::clone(&m));
        m
    }

    /// Snapshot of all operators' metrics, in registration order.
    pub fn snapshot(&self) -> Vec<Arc<OperatorMetrics>> {
        self.ops.lock().clone()
    }

    /// `(name, tuples_out)` pairs in registration order — the series plotted
    /// by Figure 13.
    pub fn output_cardinalities(&self) -> Vec<(String, u64)> {
        self.ops
            .lock()
            .iter()
            .map(|m| (m.name(), m.tuples_out()))
            .collect()
    }

    /// Per-operator runtime actuals (tuples, batches, mean batch fill,
    /// buffered peak) in registration order — the series
    /// `explain_with_actuals` pairs against the physical plan.
    pub fn operator_actuals(&self) -> Vec<ranksql_algebra::OperatorActuals> {
        self.ops
            .lock()
            .iter()
            .map(|m| ranksql_algebra::OperatorActuals {
                label: m.name(),
                rows: m.tuples_out(),
                batches: m.batches_out(),
                mean_batch_fill: m.mean_batch_fill(),
                buffered_peak: m.buffered_peak(),
                built: m.tuples_built(),
            })
            .collect()
    }

    /// Number of registered operators.
    pub fn len(&self) -> usize {
        self.ops.lock().len()
    }

    /// Whether no operators have been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_accumulate() {
        let m = OperatorMetrics::new("Rank_p1");
        m.add_in(3);
        m.add_in(2);
        m.add_out(1);
        m.observe_buffered(4);
        m.observe_buffered(2);
        assert_eq!(m.tuples_in(), 5);
        assert_eq!(m.tuples_out(), 1);
        assert_eq!(m.buffered_peak(), 4);
        assert_eq!(m.name(), "Rank_p1");
    }

    #[test]
    fn registry_orders_and_reports() {
        let reg = MetricsRegistry::new();
        let a = reg.register("SeqScan(A)");
        let b = reg.register("HRJN");
        a.add_out(10);
        b.add_out(3);
        assert_eq!(reg.len(), 2);
        let cards = reg.output_cardinalities();
        assert_eq!(cards[0], ("SeqScan(A)".to_string(), 10));
        assert_eq!(cards[1], ("HRJN".to_string(), 3));
        assert!(!reg.is_empty());
    }
}
