//! The shared worker pool behind morsel-parallel query execution and
//! the router's scatter-gather fan-out.
//!
//! One process-wide pool of lazily-spawned worker threads executes
//! index-claimed task batches: a caller hands in `tasks` logical indices
//! and a closure, workers (plus the caller itself) claim indices off a
//! shared atomic counter until the range is drained, and the caller
//! blocks until every claimed task has finished. Blocking the caller is
//! what makes the lifetime erasure sound — the closure and everything it
//! borrows outlive the batch by construction, exactly the guarantee
//! `std::thread::scope` provides, without paying a thread spawn per
//! call (the cost `scatter_legs` used to pay per routed operation).
//!
//! Two deliberate degradations keep the pool deadlock-free:
//!
//! * **Busy pool → inline.** Only one batch is open for claiming at a
//!   time. A caller that finds the pool busy — including a worker whose
//!   task itself calls [`parallel_for`], as a shard leg running the
//!   parallel executor does — runs its batch inline on its own thread.
//!   Nested parallelism therefore composes without a lock hierarchy:
//!   the outer layer fans out, the inner layers run serial.
//! * **One core → inline.** With a single available core (or
//!   `workers <= 1`) there is nothing to overlap; the batch runs inline
//!   with zero synchronization.
//!
//! Task panics are caught per task, the batch is drained to completion,
//! and the panic re-raises on the caller — matching the join semantics
//! of the scoped-thread code this replaces.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Hard ceiling on pool threads, far above any sane worker count a
/// caller passes to [`parallel_for`]; a runaway argument cannot
/// fork-bomb the process.
const MAX_POOL_THREADS: usize = 64;

/// The worker count callers without a reason to choose one pass to
/// [`parallel_for`]: the machine's available parallelism (1 if unknown).
pub fn parallel_workers() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// The caller's borrowed task closure with its lifetime erased to
/// `'static`. Sound to ship across threads because [`parallel_for`]
/// does not return until every task that calls it has completed, so the
/// borrow outlives every use. (`&dyn Fn + Sync` is `Send + Sync` by the
/// ordinary auto rules; only the lifetime is lied about.)
type TaskFn = &'static (dyn Fn(usize) + Sync);

/// One submitted batch: an index-claim counter over `total` tasks plus
/// completion bookkeeping.
struct Batch {
    f: TaskFn,
    total: usize,
    /// Next unclaimed task index (may run past `total`).
    next: AtomicUsize,
    /// Helper slots still available (caller participation not counted).
    helpers: AtomicUsize,
    /// (unfinished task count, a task panicked) under one lock.
    state: Mutex<(usize, bool)>,
    done: Condvar,
}

impl Batch {
    /// Claims and runs tasks until the index range is drained.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return;
            }
            let panicked = catch_unwind(AssertUnwindSafe(|| (self.f)(i))).is_err();
            let mut st = lock(&self.state);
            st.0 -= 1;
            st.1 |= panicked;
            if st.0 == 0 {
                self.done.notify_all();
            }
        }
    }
}

/// The pool: a one-deep submission slot plus lazily spawned workers.
struct Pool {
    /// The batch currently open for claiming, if any.
    slot: Mutex<Option<std::sync::Arc<Batch>>>,
    /// Signals workers that a new batch was installed.
    wake: Condvar,
    /// Worker threads spawned so far.
    spawned: AtomicUsize,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Pool-internal critical sections never run user code, so the only
    // poisoning source is a bug in this module; propagate the panic.
    m.lock().expect("pool lock poisoned")
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        slot: Mutex::new(None),
        wake: Condvar::new(),
        spawned: AtomicUsize::new(0),
    })
}

/// Ensures at least `n` worker threads exist (capped at
/// [`MAX_POOL_THREADS`]). Threads are detached and live for the process;
/// they block on the wake condvar between batches.
fn ensure_workers(pool: &'static Pool, n: usize) {
    let n = n.min(MAX_POOL_THREADS);
    loop {
        let have = pool.spawned.load(Ordering::Relaxed);
        if have >= n {
            return;
        }
        if pool
            .spawned
            .compare_exchange(have, have + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            continue;
        }
        std::thread::Builder::new()
            .name(format!("doclite-pool-{have}"))
            .spawn(move || worker_loop(pool))
            .expect("spawn pool worker");
    }
}

fn worker_loop(pool: &'static Pool) {
    loop {
        let batch = {
            let mut slot = lock(&pool.slot);
            loop {
                if let Some(b) = slot.as_ref() {
                    if b.next.load(Ordering::Relaxed) >= b.total {
                        // Fully claimed; clear so submitters see a free
                        // slot without waiting for stragglers to finish.
                        *slot = None;
                        continue;
                    }
                    // Join only if the batch still wants helpers, so a
                    // 2-worker batch on an 8-thread pool really runs
                    // with 2 executors.
                    let mut h = b.helpers.load(Ordering::Relaxed);
                    let joined = loop {
                        if h == 0 {
                            break false;
                        }
                        match b.helpers.compare_exchange(
                            h,
                            h - 1,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        ) {
                            Ok(_) => break true,
                            Err(now) => h = now,
                        }
                    };
                    if joined {
                        break b.clone();
                    }
                }
                slot = pool.wake.wait(slot).expect("pool lock poisoned");
            }
        };
        batch.work();
    }
}

/// Runs `f(0) .. f(tasks - 1)`, each exactly once, using up to `workers`
/// concurrent executors (the calling thread plus pool helpers). Returns
/// after every task has completed. Panics if any task panicked.
///
/// Degrades to an inline serial loop when `workers <= 1`, `tasks <= 1`,
/// or the pool's submission slot is busy (which is how nested calls —
/// a parallel shard leg inside a parallel scatter — stay deadlock-free).
pub fn parallel_for(workers: usize, tasks: usize, f: &(dyn Fn(usize) + Sync)) {
    if workers <= 1 || tasks <= 1 {
        for i in 0..tasks {
            f(i);
        }
        return;
    }
    let pool = pool();
    let helpers = workers.min(tasks) - 1;
    // SAFETY: lifetime erasure only — this function blocks below until
    // every task has finished, so the borrow outlives all uses.
    let erased: TaskFn = unsafe { std::mem::transmute(f) };
    let batch = std::sync::Arc::new(Batch {
        f: erased,
        total: tasks,
        next: AtomicUsize::new(0),
        helpers: AtomicUsize::new(helpers),
        state: Mutex::new((tasks, false)),
        done: Condvar::new(),
    });
    {
        let mut slot = lock(&pool.slot);
        let busy = slot.as_ref().is_some_and(|b| b.next.load(Ordering::Relaxed) < b.total);
        if busy {
            drop(slot);
            for i in 0..tasks {
                f(i);
            }
            return;
        }
        *slot = Some(batch.clone());
    }
    ensure_workers(pool, helpers);
    pool.wake.notify_all();

    // The caller is an executor too; it claims alongside the helpers.
    batch.work();
    let mut st = lock(&batch.state);
    while st.0 > 0 {
        st = batch.done.wait(st).expect("pool lock poisoned");
    }
    let panicked = st.1;
    drop(st);
    if panicked {
        panic!("parallel_for task panicked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_index_runs_exactly_once() {
        for tasks in [0usize, 1, 2, 7, 64, 1000] {
            let hits: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
            parallel_for(4, tasks, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "task {i} of {tasks}");
            }
        }
    }

    #[test]
    fn results_can_be_written_into_per_index_slots() {
        let slots: Vec<OnceLock<usize>> = (0..100).map(|_| OnceLock::new()).collect();
        parallel_for(8, slots.len(), &|i| {
            let _ = slots[i].set(i * i);
        });
        for (i, s) in slots.iter().enumerate() {
            assert_eq!(s.get(), Some(&(i * i)));
        }
    }

    #[test]
    fn nested_calls_do_not_deadlock() {
        let total = AtomicU64::new(0);
        parallel_for(4, 8, &|_| {
            // The inner call finds the slot busy and runs inline.
            parallel_for(4, 8, &|j| {
                total.fetch_add(j as u64 + 1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8));
    }

    #[test]
    fn task_panic_propagates_after_batch_drains() {
        let ran = AtomicUsize::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            parallel_for(4, 16, &|i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err(), "panic must re-raise on the caller");
        assert_eq!(ran.load(Ordering::Relaxed), 16, "batch drains fully");
    }

    #[test]
    fn serial_fallback_handles_zero_and_one_worker() {
        let n = AtomicUsize::new(0);
        parallel_for(0, 5, &|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        parallel_for(1, 5, &|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 10);
    }
}
