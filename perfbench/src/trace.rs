//! The benchmark's own span recorder.
//!
//! Spans are taken from outside the engine, around the public calls the
//! benchmark makes: one root span per operation and one child span per
//! call.  They are held in a vector allocated before the loop starts and
//! written out as JSON lines when the run ends.  A span's name is
//! `<layer>.<call>`, the layer being the crate that serves the call; the
//! structural spans `op` and `request` belong to the layer `client`, the
//! benchmark itself.
//!
//! A layer's self time is its span's duration minus the part its child
//! spans cover, so the self times of one operation add up to its root span.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<u32>,
    /// Shared by all spans of one operation.
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The part of the name before the first dot; `client` for the
    /// structural spans.
    pub fn layer(&self) -> &'static str {
        match self.name.split_once('.') {
            Some((layer, _)) => layer,
            None => "client",
        }
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    next_op: u64,
}

impl Tracer {
    /// A recorder that records nothing and reads no clock.
    pub fn off() -> Self {
        Tracer::new(false, 0)
    }

    /// A recorder with room for `capacity` spans before it reallocates.
    pub fn on(capacity: usize) -> Self {
        Tracer::new(true, capacity)
    }

    fn new(enabled: bool, capacity: usize) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            next_op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records `f` as one span under the innermost open one and hands the
    /// recorder on, so `f` can open child spans.  A span opened with none
    /// open is a root and starts a new operation.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let parent = self.open.last().copied();
        if parent.is_none() {
            self.next_op += 1;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id: self.next_op,
        });
        self.open.push(id);
        let out = f(self);
        self.spans[id as usize].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Records `f` as one span without children.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.scope(name, |_| f())
    }

    /// Turns recording on or off between operations.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "no span may be open");
        self.enabled = enabled;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Each layer's share of the time under root spans.
    pub fn layer_shares(&self) -> BTreeMap<&'static str, f64> {
        let own = self.self_times();
        let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(&own) {
            *by_layer.entry(s.layer()).or_default() += t;
        }
        let total: u64 = by_layer.values().sum();
        by_layer
            .into_iter()
            .map(|(layer, t)| (layer, t as f64 / total.max(1) as f64))
            .collect()
    }

    /// Appends the spans to `out`, one JSON object per line.
    pub fn write_jsonl(&self, phase: &str, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"phase\":\"{phase}\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )?;
        }
        Ok(())
    }
}

/// Writes the traced loop's and the probes' spans to `path`.
pub fn write_trace_file(path: &Path, phases: &[(&str, &Tracer)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (phase, tracer) in phases {
        tracer.write_jsonl(phase, &mut out)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_of_an_operation_add_up_to_its_root() {
        let mut t = Tracer::on(16);
        for _ in 0..3 {
            t.scope("op", |t| {
                t.leaf("core.bind", || std::hint::black_box(1 + 1));
                t.scope("request", |t| {
                    t.leaf("executor.pull", || {
                        std::thread::sleep(std::time::Duration::from_micros(50))
                    })
                });
            });
        }
        let own = t.self_times();
        for (i, root) in t
            .spans()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none())
        {
            let sum: u64 = t
                .spans()
                .iter()
                .zip(&own)
                .filter(|(s, _)| s.op_id == root.op_id)
                .map(|(_, own)| own)
                .sum();
            assert_eq!(sum, root.duration_ns(), "root {i}");
        }
        assert_eq!(t.durations("executor.pull").len(), 3);
        let shares = t.layer_shares();
        assert!((shares.values().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(shares["executor"] > shares["core"]);
    }

    #[test]
    fn a_recorder_that_is_off_keeps_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.scope("op", |t| t.leaf("core.bind", || 7)), 7);
        assert!(t.spans().is_empty());
    }
}
