//! The accept loop: thread-per-connection on scoped threads.
//!
//! [`Server::serve`] runs a blocking accept loop on the caller's thread and
//! spawns one scoped thread per connection (`std::thread::scope` — the
//! same primitive as the executor's `WorkerPool`): handlers borrow the
//! `Database`, the config and the metrics registry directly, need no
//! `'static` bounds or `Arc` plumbing, and are all joined before `serve`
//! returns, so a shutdown is complete when the call comes back.
//!
//! Accept and reads block; nothing polls.  Shutdown closes sockets
//! instead: the accept loop registers a clone of every live connection in
//! one shared map, and [`ShutdownHandle::shutdown`] takes the map, shuts
//! the read half of each stream (a blocked read ends, a reply in flight
//! is still written) and wakes `accept` with a loopback connect.
//!
//! This file is the server's *edge*: it owns the one non-deterministic
//! ingredient the engine itself must never touch (and which the repo lint
//! exempts only here) — a `SystemTime` reading taken at bind so `STATS`
//! can report a wall-clock start time.  Nothing downstream of the edge
//! depends on it: query results are a pure function of plan and data.

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::SystemTime;

use parking_lot::Mutex;
use ranksql_common::{RankSqlError, Result};
use ranksql_core::Database;

use crate::config::ServerConfig;
use crate::connection::serve_connection;
use crate::metrics::ServerMetrics;

/// A read-half clone of every live connection, keyed by accept order;
/// `None` once the server has been shut down.
pub(crate) type LiveConnections = Mutex<Option<HashMap<u64, TcpStream>>>;

/// A handle for stopping a running [`Server::serve`] from another thread.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    live: Arc<LiveConnections>,
    wake: SocketAddr,
}

impl ShutdownHandle {
    /// Asks the server to stop: the accept loop exits, connection handlers
    /// finish their current request and unwind, and `serve` returns after
    /// joining them.
    pub fn shutdown(&self) {
        let Some(streams) = self.live.lock().take() else {
            return; // already shut down
        };
        for stream in streams.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        // Wake the blocked `accept`; the loop drops this connection and
        // returns.  A failed connect means the listener is gone.
        let _ = TcpStream::connect(self.wake);
    }
}

/// A bound TCP server front end over one [`Database`].
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    metrics: Arc<ServerMetrics>,
    live: Arc<LiveConnections>,
}

impl Server {
    /// Binds the configured address (the listener is live — and the
    /// OS-assigned port knowable via [`Server::local_addr`] — before
    /// [`Server::serve`] is called, so tests and examples can connect
    /// clients without racing the accept loop).
    pub fn bind(config: ServerConfig) -> Result<Server> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| RankSqlError::Storage(format!("cannot bind {}: {e}", config.addr)))?;
        let started_unix_ms = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        Ok(Server {
            listener,
            config,
            metrics: Arc::new(ServerMetrics::new(started_unix_ms)),
            live: Arc::new(Mutex::new(Some(HashMap::new()))),
        })
    }

    /// The bound address (with the OS-chosen port resolved).
    pub fn local_addr(&self) -> Result<SocketAddr> {
        self.listener
            .local_addr()
            .map_err(|e| RankSqlError::Storage(format!("cannot read local addr: {e}")))
    }

    /// The server's metrics registry.
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// A handle that stops [`Server::serve`] when triggered.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        let mut wake = self
            .listener
            .local_addr()
            .unwrap_or_else(|_| SocketAddr::from(([127, 0, 0, 1], 0)));
        // An unspecified bind address accepts on loopback too.
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => [127, 0, 0, 1].into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        ShutdownHandle {
            live: Arc::clone(&self.live),
            wake,
        }
    }

    /// Serves connections against `db` until the shutdown handle fires.
    ///
    /// Blocks the calling thread.  Every connection runs on its own scoped
    /// thread; a handler that panics (which the no-panic lint makes
    /// unlikely) is contained by a `catch_unwind` and counted as a closed
    /// connection rather than taking the server down.
    pub fn serve(&self, db: &Database) -> Result<()> {
        std::thread::scope(|scope| {
            for id in 0u64.. {
                let stream = match self.listener.accept() {
                    Ok((stream, _peer)) => stream,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        // A broken listener cannot make progress; stop the
                        // handlers and surface the error.
                        self.shutdown_handle().shutdown();
                        return Err(RankSqlError::Storage(format!("accept failed: {e}")));
                    }
                };
                // Register under the lock the handle takes, so a
                // connection is either closed by `shutdown` or never
                // served.  After shutdown this is the wake-up connect.
                let Ok(read_half) = stream.try_clone() else {
                    continue;
                };
                match self.live.lock().as_mut() {
                    Some(streams) => streams.insert(id, read_half),
                    None => return Ok(()),
                };
                self.metrics.record_connection();
                let (config, metrics, live) = (&self.config, &*self.metrics, &*self.live);
                scope.spawn(move || {
                    // Contain a panicking handler to its own connection;
                    // the stream drops (and the client sees a reset) but
                    // the server keeps serving.
                    let _ = catch_unwind(AssertUnwindSafe(|| {
                        serve_connection(stream, db, config, metrics, live);
                    }));
                    if let Some(streams) = live.lock().as_mut() {
                        streams.remove(&id);
                    }
                });
            }
            Ok(())
        })
    }
}
