//! A small scoped-thread worker pool for morsel-driven parallel execution.
//!
//! The executor's exchange fans *morsels* — contiguous chunks of
//! a base-table scan — across a handful of worker threads and reassembles
//! the per-morsel outputs in morsel order, so parallel execution is
//! deterministic regardless of thread count or scheduling.  [`WorkerPool`]
//! is the threading primitive underneath: it runs `tasks` independent
//! closures over at most `threads` threads — the calling thread plus up to
//! `threads − 1` scoped workers (`std::thread::scope`, no detached threads,
//! no channels) — and collects the results *in task order*.
//!
//! Failure semantics are strict so that a broken worker can never wedge a
//! query: the first task that returns an error — or panics — poisons the
//! run, remaining unstarted tasks are skipped, every already-running task is
//! allowed to finish, and [`WorkerPool::run`] returns a single clean
//! [`RankSqlError`].  The pool itself holds no state besides its size, so it
//! is trivially reusable after a failed run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::error::{RankSqlError, Result};

/// The default number of base-table rows per morsel: one columnar block.
///
/// A morsel costs one operator-pipeline instantiation and one slot write,
/// which vanish against a thousand rows of per-tuple work; and a table of a
/// few thousand rows still splits into several near-equal work items (5 000
/// rows make five morsels, where 4096 made one of 4 096 and one of 904 and
/// left a second worker 18 % of the work).  Aligned with the columnar block
/// size so a morsel scan never shares a block with its neighbour.
pub const DEFAULT_MORSEL_SIZE: usize = 1024;

/// The hard upper bound on worker threads (guards against nonsense
/// configuration like `RANKSQL_THREADS=100000`).
pub const MAX_THREADS: usize = 64;

/// The process-default worker-thread count: the `RANKSQL_THREADS`
/// environment variable when set to a positive integer (clamped to
/// [`MAX_THREADS`]), otherwise 1 — parallel execution is strictly opt-in.
pub fn default_thread_count() -> usize {
    std::env::var("RANKSQL_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
        .min(MAX_THREADS)
}

/// Splits `total` items into contiguous `(start, end)` morsel ranges of at
/// most `morsel_size` items.  The split depends only on `total` and
/// `morsel_size` — never on the thread count — which is what makes parallel
/// output deterministic across pool sizes.
pub fn morsel_ranges(total: usize, morsel_size: usize) -> Vec<(usize, usize)> {
    let step = morsel_size.max(1);
    let mut out = Vec::with_capacity(total.div_ceil(step));
    let mut start = 0;
    while start < total {
        let end = (start + step).min(total);
        out.push((start, end));
        start = end;
    }
    out
}

/// A scoped-thread worker pool of a fixed size.
///
/// The pool is a value, not a set of live threads: each [`WorkerPool::run`]
/// call spawns its workers under `std::thread::scope`, works alongside them
/// on the calling thread and joins them before returning, so borrowed task
/// state needs no `'static` bound and a panicking worker can never outlive
/// the call that launched it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A pool of `threads` workers (clamped to `1..=`[`MAX_THREADS`]).
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.clamp(1, MAX_THREADS),
        }
    }

    /// Runs `f(0) .. f(tasks - 1)` across the pool, returning the results in
    /// task order.
    ///
    /// Tasks are handed out through a shared counter (work stealing at
    /// morsel granularity): a worker that finishes a cheap task immediately
    /// grabs the next one, so skewed task costs still balance.  The caller
    /// runs the same loop as the `threads − 1` workers it spawns; with one
    /// thread — or a single task — no thread is spawned at all, which is the
    /// serial degradation path of parallel plans executed with `threads = 1`.
    ///
    /// The first task error or panic cancels all not-yet-started tasks and
    /// surfaces as the `Err` of the whole run; a panic is converted into
    /// [`RankSqlError::Execution`] with the panic message.
    pub fn run<T, F>(&self, tasks: usize, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize) -> Result<T> + Sync,
    {
        if tasks == 0 {
            return Ok(Vec::new());
        }
        let workers = self.threads.min(tasks);
        let next = AtomicUsize::new(0);
        let poisoned = AtomicBool::new(false);
        let results: Mutex<Vec<Option<T>>> =
            Mutex::new(std::iter::repeat_with(|| None).take(tasks).collect());
        let failure: Mutex<Option<RankSqlError>> = Mutex::new(None);

        let worker = || loop {
            if poisoned.load(Ordering::Acquire) {
                break;
            }
            let task = next.fetch_add(1, Ordering::Relaxed);
            if task >= tasks {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| f(task))) {
                Ok(Ok(value)) => {
                    results.lock()[task] = Some(value);
                }
                Ok(Err(e)) => {
                    poisoned.store(true, Ordering::Release);
                    failure.lock().get_or_insert(e);
                    break;
                }
                Err(payload) => {
                    poisoned.store(true, Ordering::Release);
                    failure
                        .lock()
                        .get_or_insert(RankSqlError::Execution(format!(
                            "worker thread panicked: {}",
                            panic_message(payload.as_ref())
                        )));
                    break;
                }
            }
        };

        std::thread::scope(|scope| {
            // The closure captures only shared references, so it is `Copy`:
            // each spawn gets its own copy of the same loop.
            for _ in 1..workers {
                scope.spawn(worker);
            }
            worker();
        });

        if let Some(e) = failure.into_inner() {
            return Err(e);
        }
        results
            .into_inner()
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.ok_or_else(|| {
                    RankSqlError::Internal(format!("worker pool lost the result of task {i}"))
                })
            })
            .collect()
    }
}

/// Best-effort extraction of a panic payload message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_come_back_in_task_order() {
        let pool = WorkerPool::new(4);
        let out = pool.run(37, |i| Ok(i * i)).unwrap();
        assert_eq!(out.len(), 37);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * i));
    }

    #[test]
    fn single_thread_runs_inline() {
        let main_thread = std::thread::current().id();
        let pool = WorkerPool::new(1);
        let out = pool
            .run(3, |i| {
                assert_eq!(std::thread::current().id(), main_thread);
                Ok(i)
            })
            .unwrap();
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn error_poisons_the_run_and_skips_remaining_tasks() {
        let started = AtomicU64::new(0);
        let pool = WorkerPool::new(1);
        let err = pool
            .run(100, |i| {
                started.fetch_add(1, Ordering::Relaxed);
                if i == 3 {
                    Err(RankSqlError::Execution("injected".into()))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        // Tasks 0..=3 started; 4..100 were cancelled.
        assert_eq!(started.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn panic_becomes_a_clean_error_and_pool_is_reusable() {
        let pool = WorkerPool::new(4);
        let err = pool
            .run(16, |i| {
                if i == 7 {
                    panic!("morsel 7 exploded");
                }
                Ok(i)
            })
            .unwrap_err();
        assert!(err.to_string().contains("worker thread panicked"), "{err}");
        assert!(err.to_string().contains("morsel 7 exploded"), "{err}");
        // The pool carries no state: the next run works normally.
        let out = pool.run(8, Ok).unwrap();
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn the_caller_is_one_of_at_most_n_threads() {
        let caller = std::thread::current().id();
        for n in 1..=4 {
            // n tasks meeting at an n-way barrier must run on n threads at
            // once, so the caller has to take one of them.
            let barrier = std::sync::Barrier::new(n);
            let seen = Mutex::new(Vec::new());
            let out = WorkerPool::new(n)
                .run(n, |i| {
                    barrier.wait();
                    seen.lock().push(std::thread::current().id());
                    Ok(i)
                })
                .unwrap();
            assert_eq!(out, (0..n).collect::<Vec<_>>());
            let seen: std::collections::HashSet<_> = seen.into_inner().into_iter().collect();
            assert!(seen.contains(&caller), "threads = {n}");
            assert_eq!(seen.len(), n);
            // Many more tasks than threads still run on at most n of them.
            let seen = Mutex::new(std::collections::HashSet::new());
            let out = WorkerPool::new(n)
                .run(64, |i| {
                    seen.lock().insert(std::thread::current().id());
                    Ok(i)
                })
                .unwrap();
            assert_eq!(out, (0..64).collect::<Vec<_>>());
            assert!(seen.into_inner().len() <= n, "threads = {n}");
        }
    }

    #[test]
    fn a_panic_on_the_calling_thread_is_a_clean_error() {
        let caller = std::thread::current().id();
        let barrier = std::sync::Barrier::new(2);
        let err = WorkerPool::new(2)
            .run(2, |i| {
                barrier.wait();
                if std::thread::current().id() == caller {
                    panic!("caller task {i} exploded");
                }
                Ok(i)
            })
            .unwrap_err();
        assert!(matches!(err, RankSqlError::Execution(_)), "{err:?}");
        assert!(err.to_string().contains("worker thread panicked"), "{err}");
        assert!(err.to_string().contains("exploded"), "{err}");
    }

    #[test]
    fn morsel_ranges_cover_exactly_once() {
        assert!(morsel_ranges(0, 100).is_empty());
        assert_eq!(morsel_ranges(10, 100), vec![(0, 10)]);
        let r = morsel_ranges(10, 3);
        assert_eq!(r, vec![(0, 3), (3, 6), (6, 9), (9, 10)]);
        // Degenerate morsel size is clamped to 1.
        assert_eq!(morsel_ranges(2, 0), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn thread_count_clamps() {
        assert_eq!(WorkerPool::new(0).threads, 1);
        assert_eq!(WorkerPool::new(1_000_000).threads, MAX_THREADS);
    }
}
