//! The shared worker pool — one long-lived execution substrate for every
//! fan-out in the workspace.
//!
//! Before this crate existed, every parallel RHE solve and every parallel
//! timeline sweep spawned and joined its own `std::thread::scope` workers:
//! under concurrent server load a cold explain multiplied thread creation
//! by `min(restarts, cores)` per sub-millisecond solve. The pool replaces
//! that with [`WorkerPool`]: a lazily-initialized, process-wide set of
//! [`num_threads`] workers that pull jobs
//! from one MPMC channel, serving both
//!
//! * **scoped fan-outs** — [`WorkerPool::map_indexed`] maps a borrowing
//!   closure over `0..n` and blocks until every index completed, so the
//!   borrow stays valid without `'static` bounds; and
//! * **detached jobs** — [`WorkerPool::spawn`] runs a `'static` closure
//!   (one HTTP request, say) on the next free worker.
//!
//! The crate is a dependency *leaf* (nothing below it but the channel
//! shim), so every layer of the workspace can fan out on the same
//! substrate: `maprat-cube` parallelizes its per-cuboid materialization
//! passes, `maprat-core` its RHE restarts, `maprat-explore` its timeline
//! sweep, and `maprat-server` its request dispatch. `maprat_core::pool`
//! re-exports this crate for compatibility with pre-split call sites.
//!
//! # Scheduling model
//!
//! `map_indexed` publishes a per-call *index dispenser* (an atomic
//! counter) and sends up to `max_workers - 1` help tickets into the
//! channel — never more than there are idle workers, so tickets cannot
//! pile up while long jobs (keep-alive connections, say) hold every
//! worker; idle workers that pop a ticket join the drain. Crucially the
//! **submitter drains its own dispenser too** (help-first): the call
//! completes even when every pool worker is busy with other work, so a
//! scoped fan-out can never deadlock behind queued jobs, and under heavy
//! concurrent load each request's solve degrades gracefully toward an
//! inline run instead of oversubscribing the machine.
//!
//! # Guarantees
//!
//! * **Index determinism** — every item's computation depends only on its
//!   index and results are reassembled by index, so the output is
//!   bit-identical for any worker count (including zero helpers).
//! * **Nested fan-outs run inline** — work executed on behalf of a scoped
//!   fan-out sets a thread-local flag ([`in_fan_out`]); a nested
//!   `map_indexed` then degrades to an inline loop instead of multiplying
//!   parallelism. Detached jobs do *not* set the flag: a server request is
//!   a fresh top-level context whose solves may fan out.
//! * **Panic isolation** — a panicking job never kills a worker thread.
//!   A panic inside `map_indexed` is caught, the call's remaining indices
//!   are abandoned, and the payload is re-raised *on the submitting
//!   thread* once in-flight items finish; a panicking detached job is
//!   caught and dropped. The pool keeps serving either way.
//!
//! # Example
//!
//! ```
//! let pool = maprat_pool::global();
//!
//! // Scoped fan-out: borrows `base` from this stack frame, returns
//! // results reassembled by index — bit-identical for any worker count.
//! let base = 10usize;
//! let squares = pool.map_indexed(4, maprat_pool::num_threads(), |i| (base + i) * (base + i));
//! assert_eq!(squares, vec![100, 121, 144, 169]);
//!
//! // Detached job: runs on the next free worker.
//! let (tx, rx) = std::sync::mpsc::channel();
//! pool.spawn(move || tx.send(42).unwrap());
//! assert_eq!(rx.recv().unwrap(), 42);
//! ```

#![warn(missing_docs)]

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::any::Any;
use std::cell::Cell;
use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// The default worker count: `MAPRAT_THREADS` when set (`0` and `1` both
/// disable threading), otherwise the machine's available parallelism.
///
/// The knob is read **once, at first use**, and cached for the process
/// lifetime — it also sizes the shared worker pool, so flipping the
/// environment variable after startup cannot take effect anyway. Set it
/// before the first solve: `MAPRAT_THREADS=1` is useful for profiling and
/// for A/B-ing the determinism guarantee; a non-numeric value is ignored.
pub fn num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        match std::env::var("MAPRAT_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(n) => n.max(1),
            None => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    })
}

/// Maps `f` over `0..n` on up to `threads` shared-pool workers (the
/// calling thread counts as one — it helps drain its own call) and
/// returns the results in index order.
///
/// Runs inline (pool untouched) when `threads <= 1`, when `n <= 1`, or
/// when already called from inside another fan-out item (nested fan-outs
/// don't multiply parallelism; see [`in_fan_out`]). A panicking `f`
/// propagates out of the call on the submitting thread once in-flight
/// items finish — pool workers survive.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.min(n);
    if threads <= 1 || in_fan_out() {
        return (0..n).map(f).collect();
    }
    global().map_indexed(n, threads, f)
}

thread_local! {
    /// True while this thread is executing items of a scoped fan-out
    /// (either as a pool worker that accepted a help ticket or as the
    /// submitter draining its own call).
    static IN_FAN_OUT: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is already executing a scoped fan-out item.
/// A nested fan-out observes `true` and runs inline — the rule that keeps
/// `threads²` oversubscription impossible. Purely a scheduling signal;
/// results are index-deterministic either way.
pub fn in_fan_out() -> bool {
    IN_FAN_OUT.with(|flag| flag.get())
}

/// Runs `f` with the fan-out flag set, restoring the previous value.
fn with_fan_out_flag<R>(f: impl FnOnce() -> R) -> R {
    let was = IN_FAN_OUT.with(|flag| flag.replace(true));
    let out = f();
    IN_FAN_OUT.with(|flag| flag.set(was));
    out
}

/// One unit in the pool's job channel.
enum Job {
    /// An invitation to help drain one scoped `map_indexed` call.
    Help(Arc<TaskCore>),
    /// A detached fire-and-forget closure (e.g. one server request).
    Detached(Box<dyn FnOnce() + Send + 'static>),
}

/// A long-lived worker pool over one MPMC job channel.
///
/// Most code wants the process-wide [`global`] pool (or the
/// [`parallel_map`] façade); constructing a
/// private pool is mainly for tests. Dropping a private pool closes its
/// channel and the workers exit on their own.
pub struct WorkerPool {
    job_tx: Sender<Job>,
    workers: usize,
    /// Workers currently blocked waiting for a job. A scheduling hint
    /// only: it caps the help tickets a fan-out sends, and publishes no
    /// other data (`Relaxed` throughout), because the submitter's
    /// help-first drain completes the call whatever helpers join.
    idle: Arc<AtomicUsize>,
}

/// The process-wide pool, created on first use with
/// [`num_threads`] workers (so the
/// `MAPRAT_THREADS` knob sizes it, read once at first use).
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::with_workers(num_threads()))
}

impl WorkerPool {
    /// Spawns a pool with exactly `workers` worker threads (at least one,
    /// so detached jobs always have an executor).
    pub fn with_workers(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let (job_tx, job_rx) = unbounded::<Job>();
        let idle = Arc::new(AtomicUsize::new(0));
        for _ in 0..workers {
            let rx = job_rx.clone();
            let idle = Arc::clone(&idle);
            std::thread::spawn(move || worker_loop(rx, &idle));
        }
        WorkerPool {
            job_tx,
            workers,
            idle,
        }
    }

    /// The number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs a detached job on the next free worker. A panic inside `job`
    /// is caught and dropped — the worker survives.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        let _ = self.job_tx.send(Job::Detached(Box::new(job)));
    }

    /// Maps `f` over `0..n` with up to `max_workers` threads working
    /// concurrently (the submitter plus at most `max_workers - 1` pool
    /// helpers, and no more helpers than workers are idle at the call)
    /// and returns the results in index order.
    ///
    /// Runs inline when `max_workers <= 1`, when `n <= 1`, or when called
    /// from inside another fan-out item ([`in_fan_out`]). Blocks until
    /// every index completed, so `f` may borrow from the caller's stack.
    /// If `f` panics, the panic resumes on the calling thread after
    /// in-flight items finish; the pool itself is unaffected.
    pub fn map_indexed<T, F>(&self, n: usize, max_workers: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let max_workers = max_workers.min(n);
        if max_workers <= 1 || in_fan_out() {
            return (0..n).map(f).collect();
        }

        let out: Vec<Slot<T>> = (0..n).map(|_| Slot(UnsafeCell::new(None))).collect();
        let ctx = CallCtx {
            f: &f as *const F,
            out: out.as_ptr(),
        };
        let core = Arc::new(TaskCore {
            next: AtomicUsize::new(0),
            n,
            stopped: AtomicBool::new(false),
            state: Mutex::new(TaskState {
                remaining: n,
                panic: None,
            }),
            done: Condvar::new(),
            run_one: run_one::<T, F>,
            ctx: &ctx as *const CallCtx<T, F> as *const (),
        });

        // Invite idle workers only. A ticket no idle worker can take
        // adds no concurrency — the submitter drains the call first — and
        // would sit in the unbounded channel until a busy worker frees
        // up; a stale ticket popped after the call completed is a cheap
        // no-op (the dispenser is exhausted and the borrowed context is
        // never touched).
        let helpers = (max_workers - 1).min(self.idle.load(Ordering::Relaxed));
        for _ in 0..helpers {
            let _ = self.job_tx.send(Job::Help(Arc::clone(&core)));
        }

        // Help-first: drain our own dispenser, so the call completes even
        // when every worker is busy elsewhere — queued work can therefore
        // never deadlock a scoped fan-out.
        with_fan_out_flag(|| core.drain());

        // Wait for in-flight helpers to finish the last indices. Only
        // after `remaining == 0` (every index claimed *and* completed) can
        // the borrowed `f`/`out` leave scope, which is what makes the
        // raw-pointer context sound.
        let mut state = core.state.lock().unwrap();
        while state.remaining > 0 {
            state = core.done.wait(state).unwrap();
        }
        let payload = state.panic.take();
        drop(state);
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }

        out.into_iter()
            .map(|slot| {
                slot.0
                    .into_inner()
                    .expect("every index produced exactly once")
            })
            .collect()
    }
}

fn worker_loop(rx: Receiver<Job>, idle: &AtomicUsize) {
    loop {
        idle.fetch_add(1, Ordering::Relaxed);
        let job = rx.recv();
        idle.fetch_sub(1, Ordering::Relaxed);
        let Ok(job) = job else {
            return;
        };
        // Chaos harness: a "slow worker" (GC pause, noisy neighbor,
        // overcommitted core) stalls before picking up its job. Inert
        // unless a `MAPRAT_FAULTS` schedule arms the site.
        maprat_faults::maybe_delay("worker.slow", 25);
        match job {
            // `drain` catches item panics itself, so the worker survives.
            Job::Help(core) => with_fan_out_flag(|| core.drain()),
            Job::Detached(job) => {
                let _ = panic::catch_unwind(AssertUnwindSafe(job));
            }
        }
    }
}

/// A result slot written by exactly one claimer of its index.
struct Slot<T>(UnsafeCell<Option<T>>);

// SAFETY: the index dispenser hands each index to exactly one thread, so
// each slot has a single writer; the submitter only reads after every
// index completed.
unsafe impl<T: Send> Sync for Slot<T> {}

/// The borrowed closure and output slots of one `map_indexed` call,
/// type-erased behind raw pointers so help tickets need no lifetime.
struct CallCtx<T, F> {
    f: *const F,
    out: *const Slot<T>,
}

/// Runs item `i` of the call behind `ctx`.
///
/// # Safety
/// `ctx` must point at a live `CallCtx<T, F>` and `i` must be an index
/// claimed from the call's dispenser (`i < n`, claimed exactly once).
/// `map_indexed` guarantees liveness by blocking until every claimed
/// index completed.
unsafe fn run_one<T, F: Fn(usize) -> T>(ctx: *const (), i: usize) {
    let ctx = &*(ctx as *const CallCtx<T, F>);
    let value = (*ctx.f)(i);
    *(*ctx.out.add(i)).0.get() = Some(value);
}

/// Completion/panic bookkeeping of one scoped call.
struct TaskState {
    /// Indices not yet completed (or abandoned after a panic).
    remaining: usize,
    /// The first panic payload, re-raised by the submitter.
    panic: Option<Box<dyn Any + Send + 'static>>,
}

/// The shared core of one scoped `map_indexed` call. Owned data only
/// (dispenser, latch) plus raw pointers into the submitter's stack that
/// are dereferenced exclusively for successfully claimed indices.
struct TaskCore {
    /// The index dispenser — the call's work queue.
    next: AtomicUsize,
    n: usize,
    /// Set after a panic: stop claiming further indices.
    stopped: AtomicBool,
    state: Mutex<TaskState>,
    done: Condvar,
    run_one: unsafe fn(*const (), usize),
    ctx: *const (),
}

// SAFETY: the raw `ctx` pointer is only dereferenced while the submitter
// provably blocks in `map_indexed` (see `run_one`'s contract); everything
// else in the struct is owned and thread-safe.
unsafe impl Send for TaskCore {}
unsafe impl Sync for TaskCore {}

impl TaskCore {
    /// Claims and runs indices until the dispenser is exhausted (or a
    /// panic stopped the call). Item panics are caught here: the payload
    /// is recorded for the submitter, every unclaimed index is abandoned
    /// so the completion latch still reaches zero, and the caller —
    /// worker thread or submitter — keeps running.
    fn drain(&self) {
        loop {
            if self.stopped.load(Ordering::Acquire) {
                return;
            }
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            let run =
                panic::catch_unwind(AssertUnwindSafe(|| unsafe { (self.run_one)(self.ctx, i) }));
            match run {
                Ok(()) => self.complete(1, None),
                Err(payload) => {
                    self.stopped.store(true, Ordering::Release);
                    // Take over every index nobody claimed yet, so the
                    // submitter's completion count still reaches zero.
                    // Concurrent drainers each count their own claims —
                    // the dispenser hands out every index exactly once.
                    let mut abandoned = 1;
                    while self.next.fetch_add(1, Ordering::Relaxed) < self.n {
                        abandoned += 1;
                    }
                    self.complete(abandoned, Some(payload));
                    return;
                }
            }
        }
    }

    fn complete(&self, count: usize, payload: Option<Box<dyn Any + Send + 'static>>) {
        let mut state = self.state.lock().unwrap();
        state.remaining -= count;
        if let Some(payload) = payload {
            state.panic.get_or_insert(payload);
        }
        if state.remaining == 0 {
            self.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn pool() -> WorkerPool {
        WorkerPool::with_workers(4)
    }

    #[test]
    fn maps_in_index_order() {
        let p = pool();
        let expected: Vec<usize> = (0..200).map(|i| i * 3).collect();
        for max_workers in [2, 4, 64] {
            assert_eq!(p.map_indexed(200, max_workers, |i| i * 3), expected);
        }
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let p = pool();
        let hits = AtomicUsize::new(0);
        let out = p.map_indexed(123, 4, |i| {
            hits.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(hits.load(Ordering::SeqCst), 123);
        assert_eq!(out, (0..123).collect::<Vec<_>>());
    }

    #[test]
    fn borrows_from_the_caller_stack() {
        let p = pool();
        let data: Vec<u64> = (0..64).map(|i| i * i).collect();
        let doubled = p.map_indexed(data.len(), 4, |i| data[i] * 2);
        assert_eq!(doubled[10], 200);
    }

    #[test]
    fn zero_and_one_items() {
        let p = pool();
        assert_eq!(p.map_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(p.map_indexed(1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn nested_fan_out_runs_inline() {
        let p = pool();
        let inline_runs = AtomicUsize::new(0);
        let out = p.map_indexed(6, 3, |i| {
            let inner = p.map_indexed(4, 8, |j| {
                if in_fan_out() {
                    inline_runs.fetch_add(1, Ordering::SeqCst);
                }
                i * 10 + j
            });
            assert_eq!(inner, vec![i * 10, i * 10 + 1, i * 10 + 2, i * 10 + 3]);
            i
        });
        assert_eq!(out, (0..6).collect::<Vec<_>>());
        assert_eq!(
            inline_runs.load(Ordering::SeqCst),
            24,
            "every inner item must run inline inside the outer fan-out"
        );
    }

    #[test]
    fn panic_reaches_submitter_and_pool_survives() {
        let p = pool();
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            p.map_indexed(64, 4, |i| {
                if i == 13 {
                    panic!("boom at 13");
                }
                i
            })
        }));
        let payload = result.expect_err("panic must propagate to the submitter");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(message.contains("boom"), "{message}");

        // The same pool keeps working — no worker died, no latch wedged.
        for _ in 0..3 {
            assert_eq!(p.map_indexed(50, 4, |i| i + 1)[49], 50);
        }
    }

    #[test]
    fn detached_jobs_run_and_panics_are_isolated() {
        let p = pool();
        let ran = Arc::new(AtomicUsize::new(0));
        p.spawn(|| panic!("detached boom"));
        for _ in 0..8 {
            let ran = Arc::clone(&ran);
            p.spawn(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while ran.load(Ordering::SeqCst) < 8 {
            assert!(
                std::time::Instant::now() < deadline,
                "detached jobs stalled after a panicking job"
            );
            std::thread::yield_now();
        }
        // Scoped work still runs too.
        assert_eq!(p.map_indexed(10, 4, |i| i).len(), 10);
    }

    #[test]
    fn many_concurrent_submitters_make_progress() {
        // More submitters than workers: every call must still complete
        // (help-first draining), with correct per-call results.
        let p = Arc::new(WorkerPool::with_workers(2));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    for round in 0..20 {
                        let out = p.map_indexed(33, 4, |i| t * 10_000 + round * 100 + i);
                        assert_eq!(out[32], t * 10_000 + round * 100 + 32);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn fan_outs_queue_no_tickets_while_every_worker_is_busy() {
        let workers = 2;
        let p = WorkerPool::with_workers(workers);
        // Pin every worker on a job that blocks until released.
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let release = Arc::new((Mutex::new(false), Condvar::new()));
        for _ in 0..workers {
            let started_tx = started_tx.clone();
            let release = Arc::clone(&release);
            p.spawn(move || {
                started_tx.send(()).unwrap();
                let (lock, cvar) = &*release;
                let mut go = lock.lock().unwrap();
                while !*go {
                    go = cvar.wait(go).unwrap();
                }
            });
        }
        for _ in 0..workers {
            started_rx.recv().unwrap();
        }
        let mut max_queued = 0;
        for round in 0..10_000 {
            let out = p.map_indexed(3, workers + 1, |i| round + i);
            assert_eq!(out, vec![round, round + 1, round + 2]);
            max_queued = max_queued.max(p.job_tx.len());
        }
        assert!(
            max_queued <= workers,
            "{max_queued} help tickets queued behind {workers} pinned workers"
        );
        let (lock, cvar) = &*release;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
        // Released workers serve fan-outs again.
        assert_eq!(p.map_indexed(40, workers + 1, |i| i)[39], 39);
    }

    #[test]
    fn global_pool_is_sized_by_num_threads() {
        assert_eq!(global().workers(), num_threads().max(1));
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        let sequential: Vec<usize> = (0..100).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 200] {
            assert_eq!(parallel_map(100, threads, |i| i * i), sequential);
        }
    }

    #[test]
    fn parallel_map_runs_every_item_exactly_once() {
        let hits = AtomicUsize::new(0);
        let out = parallel_map(57, 4, |i| {
            hits.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(hits.load(Ordering::SeqCst), 57);
        assert_eq!(out.len(), 57);
    }

    #[test]
    fn parallel_map_empty_and_single_inputs() {
        assert_eq!(parallel_map(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(1, 4, |i| i + 1), vec![1]);
    }

    #[test]
    fn num_threads_is_positive_and_stable() {
        let first = num_threads();
        assert!(first >= 1);
        // Cached at first use: later reads agree even if the environment
        // were to change mid-process.
        assert_eq!(num_threads(), first);
    }

    #[test]
    fn parallel_map_nested_fan_out_runs_inline_and_stays_correct() {
        let flat_threads = AtomicUsize::new(0);
        let out = parallel_map(6, 3, |i| {
            // The inner fan-out must not spawn helpers: its closure runs
            // on a thread already executing a fan-out item, so the
            // fan-out flag stays visible to it.
            let inner = parallel_map(4, 8, |j| {
                if in_fan_out() {
                    flat_threads.fetch_add(1, Ordering::SeqCst);
                }
                i * 10 + j
            });
            assert_eq!(inner, vec![i * 10, i * 10 + 1, i * 10 + 2, i * 10 + 3]);
            i
        });
        assert_eq!(out, (0..6).collect::<Vec<_>>());
        assert_eq!(
            flat_threads.load(Ordering::SeqCst),
            24,
            "every inner item must run inline inside the outer fan-out"
        );
    }
}
