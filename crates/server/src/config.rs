//! Server configuration: the bind address and the admission-control caps
//! tenants negotiate against at `HELLO`.  The frame-length limit is the
//! protocol's own [`MAX_FRAME_LEN`](ranksql_common::wire::MAX_FRAME_LEN).

use ranksql_common::MAX_THREADS;

/// Configuration for a [`Server`](crate::Server).
///
/// The `max_*` fields are *caps*, not grants: `HELLO` requests are clamped
/// into them and the clamped values are echoed back, so a tenant always
/// knows the envelope it actually runs under.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` by default: loopback, OS-chosen
    /// port — the right default for tests and examples; a deployment sets
    /// an explicit port).
    pub addr: String,
    /// Upper bound on a tenant's worker threads (further clamped by the
    /// engine-wide `MAX_THREADS`).
    pub max_threads: usize,
    /// Upper bound on a tenant's batched-pull chunk size.
    pub max_batch_size: usize,
    /// When set, every tenant runs under at most this tuple budget —
    /// including tenants that asked for no budget at all.  `None` leaves
    /// budgets entirely to the tenant's request.
    pub max_tuple_budget: Option<u64>,
    /// Cap on simultaneously open cursors per connection (each one pins
    /// epochs and holds live operator state).
    pub max_open_cursors: usize,
    /// Cap on prepared statements and live bindings per connection.
    pub max_statements: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_threads: MAX_THREADS,
            max_batch_size: 65_536,
            max_tuple_budget: None,
            max_open_cursors: ranksql_core::DEFAULT_MAX_OPEN_CURSORS,
            max_statements: 256,
        }
    }
}

impl ServerConfig {
    /// Sets the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Caps tenants' worker threads.
    pub fn with_max_threads(mut self, n: usize) -> Self {
        self.max_threads = n.clamp(1, MAX_THREADS);
        self
    }

    /// Caps tenants' batch size.
    pub fn with_max_batch_size(mut self, n: usize) -> Self {
        self.max_batch_size = n.max(1);
        self
    }

    /// Imposes a tuple budget on every tenant.
    pub fn with_max_tuple_budget(mut self, budget: u64) -> Self {
        self.max_tuple_budget = Some(budget);
        self
    }

    /// Caps open cursors per connection.
    pub fn with_max_open_cursors(mut self, n: usize) -> Self {
        self.max_open_cursors = n.max(1);
        self
    }

    /// The effective tuple budget for a tenant that requested `requested`
    /// (`0` meaning "no budget, please"): the request clamped into the
    /// server cap.
    pub fn negotiate_budget(&self, requested: u64) -> Option<u64> {
        match (requested, self.max_tuple_budget) {
            (0, cap) => cap,
            (r, None) => Some(r),
            (r, Some(cap)) => Some(r.min(cap)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_negotiation_clamps_into_the_cap() {
        let open = ServerConfig::default();
        assert_eq!(open.negotiate_budget(0), None);
        assert_eq!(open.negotiate_budget(500), Some(500));

        let capped = ServerConfig::default().with_max_tuple_budget(1_000);
        assert_eq!(capped.negotiate_budget(0), Some(1_000), "no escape hatch");
        assert_eq!(capped.negotiate_budget(500), Some(500));
        assert_eq!(capped.negotiate_budget(5_000), Some(1_000));
    }

    #[test]
    fn builder_clamps_degenerate_values() {
        let c = ServerConfig::default()
            .with_max_threads(0)
            .with_max_batch_size(0)
            .with_max_open_cursors(0);
        assert_eq!(c.max_threads, 1);
        assert_eq!(c.max_batch_size, 1);
        assert_eq!(c.max_open_cursors, 1);
    }
}
