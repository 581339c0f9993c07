//! Worker pools: a long-lived submit/await pool and the experiment
//! harness's index-ordered job runner built on top of it.
//!
//! [`WorkerPool`] is the scheduling substrate: a fixed set of worker
//! threads pulling boxed jobs off a bounded channel.
//! Submission returns a [`JobTicket`] that the caller awaits; a panic
//! inside a job is caught on the worker (which survives and keeps
//! serving) and re-raised at the await site. This is the pool the
//! `snc-server` crate schedules solve requests onto — one long-lived
//! pool per server, bounded injection queue, jobs submitted as requests
//! arrive.
//!
//! [`JobRunner`] keeps the harness-facing shape it always had — run
//! `f(0), …, f(count−1)` across threads and return results in index
//! order — but is now a thin façade: it opens a [`std::thread::scope`],
//! builds a scoped `WorkerPool` inside it (so `f` may borrow from the
//! caller), submits every index, and awaits the tickets in order.
//! Results are deterministic: job `i` always computes `f(i)` and results
//! are returned in index order regardless of thread count or completion
//! order.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// A boxed unit of work. The lifetime lets scoped pools run jobs that
/// borrow from the enclosing scope; long-lived pools use `'static`.
type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

/// Error returned by [`WorkerPool::try_submit`] when the bounded
/// injection queue is at capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueFull;

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("worker pool queue is full")
    }
}

impl std::error::Error for QueueFull {}

/// The await side of a submitted job.
///
/// Dropping a ticket detaches the job (it still runs; its result is
/// discarded).
#[derive(Debug)]
pub struct JobTicket<T> {
    rx: Receiver<std::thread::Result<T>>,
}

impl<T> JobTicket<T> {
    /// Blocks until the job completes and returns its result.
    ///
    /// # Panics
    ///
    /// Re-raises the job's panic if it panicked, and panics if the pool
    /// was torn down without ever running the job (not possible through
    /// the public API: shutdown drains the queue first).
    pub fn wait(self) -> T {
        match self.rx.recv() {
            Ok(Ok(value)) => value,
            Ok(Err(payload)) => resume_unwind(payload),
            Err(_) => panic!("worker pool dropped the job before completion"),
        }
    }

    /// Returns the result if the job has already completed, or the
    /// ticket back if it is still pending.
    ///
    /// # Panics
    ///
    /// Re-raises the job's panic if it panicked.
    pub fn try_wait(self) -> Result<T, JobTicket<T>> {
        match self.rx.try_recv() {
            Ok(Ok(value)) => Ok(value),
            Ok(Err(payload)) => resume_unwind(payload),
            Err(TryRecvError::Empty) => Err(self),
            Err(TryRecvError::Disconnected) => {
                panic!("worker pool dropped the job before completion")
            }
        }
    }
}

/// A fixed-width pool of worker threads with submit/await semantics.
///
/// Two constructions:
///
/// * [`WorkerPool::bounded`] — a long-lived (`'static`) pool whose
///   threads are owned and joined on drop or [`WorkerPool::shutdown`].
///   [`WorkerPool::try_submit`] refuses jobs once `queue_depth` are
///   waiting, which is how the server sheds load instead of buffering
///   unboundedly.
/// * [`WorkerPool::scoped`] — workers spawned inside a
///   [`std::thread::scope`], so jobs may borrow from the enclosing
///   environment. The scope joins the workers; dropping the pool closes
///   the queue.
///
/// Either way the injection queue is bounded, so a blocking
/// [`WorkerPool::submit`] waits while it is full.
///
/// A panicking job never kills its worker: the panic is caught, carried
/// through the ticket, and re-raised at [`JobTicket::wait`].
pub struct WorkerPool<'env> {
    tx: Option<SyncSender<Job<'env>>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
    in_flight: Arc<AtomicUsize>,
}

impl std::fmt::Debug for WorkerPool<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("in_flight", &self.in_flight.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

/// The worker main loop: pull jobs until the queue closes and drains.
///
/// The receiver sits behind a mutex because `std::sync::mpsc` is
/// single-consumer; pickup is serialized, execution is not.
fn worker_loop(rx: &Mutex<Receiver<Job<'_>>>) {
    loop {
        let job = match rx.lock().unwrap_or_else(PoisonError::into_inner).recv() {
            Ok(job) => job,
            Err(_) => break,
        };
        job();
    }
}

impl WorkerPool<'static> {
    /// Spawns a long-lived pool whose injection queue holds at most
    /// `queue_depth` not-yet-started jobs; [`WorkerPool::try_submit`]
    /// returns [`QueueFull`] beyond that. `threads` and `queue_depth`
    /// are clamped to ≥ 1.
    pub fn bounded(threads: usize, queue_depth: usize) -> Self {
        let threads = threads.max(1);
        let (tx, rx) = mpsc::sync_channel(queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..threads)
            .map(|_| {
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || worker_loop(&rx))
            })
            .collect();
        Self {
            tx: Some(tx),
            handles,
            threads,
            in_flight: Arc::new(AtomicUsize::new(0)),
        }
    }
}

impl<'env> WorkerPool<'env> {
    /// Spawns a pool whose workers live inside `scope`, so submitted
    /// jobs may borrow from the scope's environment. The scope joins
    /// the workers after the pool is dropped. `threads` is clamped
    /// to ≥ 1, and the queue holds `threads` not-yet-started jobs.
    pub fn scoped<'scope>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        threads: usize,
    ) -> WorkerPool<'env> {
        let threads = threads.max(1);
        let (tx, rx) = mpsc::sync_channel(threads);
        let rx = Arc::new(Mutex::new(rx));
        for _ in 0..threads {
            let rx = Arc::clone(&rx);
            scope.spawn(move || worker_loop(&rx));
        }
        WorkerPool {
            tx: Some(tx),
            handles: Vec::new(),
            threads,
            in_flight: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Jobs submitted but not yet completed (queued + running).
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    fn package<T, F>(&self, f: F) -> (Job<'env>, JobTicket<T>)
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let (tx, rx) = mpsc::channel();
        let counter = Arc::clone(&self.in_flight);
        counter.fetch_add(1, Ordering::SeqCst);
        let job: Job<'env> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            counter.fetch_sub(1, Ordering::SeqCst);
            let _ = tx.send(result);
        });
        (job, JobTicket { rx })
    }

    /// Submits a job, blocking while the queue is at capacity, and
    /// returns the ticket to await it on.
    ///
    /// # Panics
    ///
    /// Panics if the pool has been shut down.
    pub fn submit<T, F>(&self, f: F) -> JobTicket<T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let (job, ticket) = self.package(f);
        let tx = self.tx.as_ref().expect("worker pool is shut down");
        if tx.send(job).is_err() {
            unreachable!("workers hold the receiver while the pool owns a sender");
        }
        ticket
    }

    /// Submits a job without blocking; returns [`QueueFull`] when the
    /// injection queue is at capacity.
    ///
    /// # Panics
    ///
    /// Panics if the pool has been shut down.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] if the job was not accepted.
    pub fn try_submit<T, F>(&self, f: F) -> Result<JobTicket<T>, QueueFull>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let (job, ticket) = self.package(f);
        let tx = self.tx.as_ref().expect("worker pool is shut down");
        match tx.try_send(job) {
            Ok(()) => Ok(ticket),
            Err(TrySendError::Full(_)) => {
                self.in_flight.fetch_sub(1, Ordering::SeqCst);
                Err(QueueFull)
            }
            Err(TrySendError::Disconnected(_)) => {
                unreachable!("workers hold the receiver while the pool owns a sender")
            }
        }
    }

    /// Closes the injection queue, lets the workers drain every queued
    /// job, and joins them (graceful shutdown). Equivalent to dropping
    /// the pool, but explicit at call sites that care about the drain.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        self.tx = None;
        let current = std::thread::current().id();
        for handle in self.handles.drain(..) {
            // Never join the current thread: if the last owner of a pool
            // is dropped *from one of its own workers* (e.g. the final
            // Arc to pool-owning state was captured by a job), joining
            // that worker would deadlock — std aborts it with a
            // "Resource deadlock avoided" panic inside Drop. Detach the
            // own-thread handle instead; every other worker is still
            // joined after the drain.
            if handle.thread().id() == current {
                continue;
            }
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool<'_> {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// Parallel job runner with optional progress reporting to stderr.
#[derive(Clone, Copy, Debug)]
pub struct JobRunner {
    /// Worker threads (≥ 1).
    pub threads: usize,
    /// Whether to print per-job progress lines to stderr.
    pub verbose: bool,
}

impl JobRunner {
    /// Creates a runner with the given thread count (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            verbose: false,
        }
    }

    /// Enables progress reporting.
    pub fn verbose(mut self) -> Self {
        self.verbose = true;
        self
    }

    /// Runs `f(0), …, f(count−1)` on a scoped [`WorkerPool`] and returns
    /// results in index order, independent of thread count and
    /// completion order.
    ///
    /// # Panics
    ///
    /// Propagates worker panics (every job still runs; the first
    /// panicking index in order is re-raised).
    pub fn run<T, F>(&self, count: usize, label: &str, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if count == 0 {
            return Vec::new();
        }
        let started = Instant::now();
        let threads = self.threads.min(count);
        let verbose = self.verbose;
        // Progress is printed by the *workers* at job completion, so it
        // streams in completion order while work continues (awaiting the
        // tickets in index order below would stall reporting behind the
        // slowest low-index job).
        let completed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let pool = WorkerPool::scoped(scope, threads);
            let (f, completed) = (&f, &completed);
            let tickets: Vec<JobTicket<T>> = (0..count)
                .map(|i| {
                    pool.submit(move || {
                        let result = f(i);
                        if verbose {
                            let done = completed.fetch_add(1, Ordering::SeqCst) + 1;
                            eprintln!(
                                "[{label}] {done}/{count} done ({:.1}s elapsed)",
                                started.elapsed().as_secs_f64()
                            );
                        }
                        result
                    })
                })
                .collect();
            tickets.into_iter().map(JobTicket::wait).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn order_and_determinism() {
        let r = JobRunner::new(3);
        let out = r.run(10, "t", |i| i * 2);
        assert_eq!(out, (0..10).map(|i| i * 2).collect::<Vec<_>>());
        let single = JobRunner::new(1).run(10, "t", |i| i * 2);
        assert_eq!(out, single);
    }

    #[test]
    fn empty_job_list() {
        let r = JobRunner::new(4);
        let out: Vec<u32> = r.run(0, "t", |_| 0);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_jobs() {
        let r = JobRunner::new(64);
        let out = r.run(3, "t", |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn results_stay_in_index_order_under_contention() {
        // Early indices sleep longest, so completion order is roughly the
        // reverse of index order; the returned vector must not care.
        let r = JobRunner::new(8);
        let count = 24;
        let out = r.run(count, "t", |i| {
            std::thread::sleep(Duration::from_millis((count - i) as u64));
            i
        });
        assert_eq!(out, (0..count).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates_to_the_caller() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            JobRunner::new(2).run(4, "t", |i| {
                if i == 2 {
                    panic!("boom at {i}");
                }
                i
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("string panic payload");
        assert!(message.contains("boom at 2"), "got {message:?}");
    }

    #[test]
    fn borrowed_environment_jobs() {
        // `f` may borrow: the scoped pool keeps the old JobRunner
        // contract that jobs need not be 'static.
        let data: Vec<u64> = (0..100).collect();
        let r = JobRunner::new(4);
        let out = r.run(10, "t", |i| data[i * 10]);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70, 80, 90]);
    }

    #[test]
    fn pool_submit_await_roundtrip() {
        let pool = WorkerPool::bounded(4, 32);
        let tickets: Vec<JobTicket<usize>> =
            (0..32).map(|i| pool.submit(move || i * i)).collect();
        let results: Vec<usize> = tickets.into_iter().map(JobTicket::wait).collect();
        assert_eq!(results, (0..32).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(pool.in_flight(), 0);
        pool.shutdown();
    }

    #[test]
    fn pool_worker_survives_a_panicking_job() {
        let pool = WorkerPool::bounded(1, 2);
        let bad: JobTicket<()> = pool.submit(|| panic!("job panic"));
        // The single worker must still be alive to run this:
        let good = pool.submit(|| 7u32);
        assert!(catch_unwind(AssertUnwindSafe(|| bad.wait())).is_err());
        assert_eq!(good.wait(), 7);
    }

    #[test]
    fn bounded_pool_sheds_load_when_full() {
        let pool = WorkerPool::bounded(1, 2);
        // Park the single worker so queued jobs stay queued.
        let gate = Arc::new(AtomicUsize::new(0));
        let started = Arc::new(AtomicUsize::new(0));
        let (g, s) = (Arc::clone(&gate), Arc::clone(&started));
        let parked = pool.submit(move || {
            s.store(1, Ordering::SeqCst);
            while g.load(Ordering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        // Wait until the worker has picked the parked job up, then fill
        // the two queue slots.
        while started.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let q1 = pool.try_submit(|| 1u8).expect("slot 1");
        let q2 = pool.try_submit(|| 2u8).expect("slot 2");
        let overflow = pool.try_submit(|| 3u8);
        assert_eq!(overflow.unwrap_err(), QueueFull);
        gate.store(1, Ordering::SeqCst);
        parked.wait();
        assert_eq!(q1.wait(), 1);
        assert_eq!(q2.wait(), 2);
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let pool = WorkerPool::bounded(1, 8);
        let tickets: Vec<JobTicket<usize>> = (0..8)
            .map(|i| {
                pool.submit(move || {
                    std::thread::sleep(Duration::from_millis(2));
                    i
                })
            })
            .collect();
        pool.shutdown();
        // Every queued job ran before the workers exited.
        let results: Vec<usize> = tickets.into_iter().map(JobTicket::wait).collect();
        assert_eq!(results, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn dropping_the_pool_from_inside_a_worker_does_not_panic() {
        // If a job captures the last owner of its own pool, the pool is
        // torn down on a worker thread; close_and_join must detach that
        // thread instead of self-joining (which panics in Drop with
        // "Resource deadlock avoided").
        let pool = Arc::new(Mutex::new(Some(WorkerPool::bounded(2, 1))));
        let ticket = {
            let guard = pool.lock().unwrap();
            let pool_ref = Arc::clone(&pool);
            guard.as_ref().unwrap().submit(move || {
                // Take the pool out of the shared slot and drop it here,
                // on the worker.
                let taken = pool_ref.lock().unwrap().take();
                drop(taken);
                11u8
            })
        };
        assert_eq!(ticket.wait(), 11);
        assert!(pool.lock().unwrap().is_none(), "worker consumed the pool");
    }

    #[test]
    fn try_wait_reports_pending_then_done() {
        let pool = WorkerPool::bounded(1, 1);
        let gate = Arc::new(AtomicUsize::new(0));
        let g = Arc::clone(&gate);
        let ticket = pool.submit(move || {
            while g.load(Ordering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            42u32
        });
        let ticket = match ticket.try_wait() {
            Err(t) => t,
            Ok(v) => panic!("job finished early with {v}"),
        };
        gate.store(1, Ordering::SeqCst);
        assert_eq!(ticket.wait(), 42);
    }
}
