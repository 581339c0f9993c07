//! The solver worker pool: a fixed set of threads pulling boxed jobs off
//! a bounded queue.
//!
//! The server hands every cache miss to [`WorkerPool::try_submit`] and
//! never waits on the job: a solve delivers its own reply (through the
//! reactor's mailbox, or into the async job store). Once `queue_depth`
//! jobs are waiting, `try_submit` refuses with [`QueueFull`] and the
//! request is answered 503, so load is shed instead of buffered.
//!
//! A panicking job never kills its worker: the worker loop catches the
//! panic and moves on to the next job. The server's jobs catch their own
//! panics as well, so that a reply is always delivered.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// A boxed unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Error returned by [`WorkerPool::try_submit`] when the bounded
/// injection queue is at capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueFull;

/// A fixed-width pool of long-lived worker threads behind a bounded
/// queue. Dropping the pool closes the queue, lets the workers drain every
/// queued job, and joins them.
pub struct WorkerPool {
    tx: Option<SyncSender<Job>>,
    handles: Vec<JoinHandle<()>>,
    in_flight: Arc<AtomicUsize>,
}

/// The worker main loop: pull jobs until the queue closes and drains.
///
/// The receiver sits behind a mutex because `std::sync::mpsc` is
/// single-consumer; pickup is serialized, execution is not.
fn worker_loop(rx: &Mutex<Receiver<Job>>, in_flight: &AtomicUsize) {
    loop {
        let job = match rx.lock().unwrap_or_else(PoisonError::into_inner).recv() {
            Ok(job) => job,
            Err(_) => break,
        };
        let _ = catch_unwind(AssertUnwindSafe(job));
        in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

impl WorkerPool {
    /// Spawns a pool whose injection queue holds at most `queue_depth`
    /// not-yet-started jobs; [`WorkerPool::try_submit`] returns
    /// [`QueueFull`] beyond that. `threads` and `queue_depth` are
    /// clamped to ≥ 1.
    pub fn bounded(threads: usize, queue_depth: usize) -> Self {
        let (tx, rx) = mpsc::sync_channel(queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let handles = (0..threads.max(1))
            .map(|_| {
                let (rx, in_flight) = (Arc::clone(&rx), Arc::clone(&in_flight));
                std::thread::spawn(move || worker_loop(&rx, &in_flight))
            })
            .collect();
        Self {
            tx: Some(tx),
            handles,
            in_flight,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Jobs accepted but not yet completed (queued + running).
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Queues `job` without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] if the injection queue is at capacity; the
    /// job is dropped unrun.
    pub fn try_submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), QueueFull> {
        let tx = self.tx.as_ref().expect("the queue closes only on drop");
        // Count the job before a worker can finish it.
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        match tx.try_send(Box::new(job)) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => {
                self.in_flight.fetch_sub(1, Ordering::SeqCst);
                Err(QueueFull)
            }
            Err(TrySendError::Disconnected(_)) => {
                unreachable!("workers hold the receiver while the pool owns a sender")
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    const PATIENCE: Duration = Duration::from_secs(10);

    /// `in_flight` once every finished job has been counted out: a
    /// worker decrements it just after the job returns, so a result the
    /// job sent can arrive a moment earlier.
    fn settled_in_flight(pool: &WorkerPool) -> usize {
        let deadline = Instant::now() + PATIENCE;
        while pool.in_flight() != 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        pool.in_flight()
    }

    #[test]
    fn pool_runs_every_accepted_job() {
        let pool = WorkerPool::bounded(4, 32);
        let (tx, rx) = mpsc::channel();
        for i in 0..32usize {
            let tx = tx.clone();
            pool.try_submit(move || tx.send((i, i * i)).unwrap())
                .expect("the queue holds all 32");
        }
        let mut results: Vec<(usize, usize)> = (0..32)
            .map(|_| rx.recv_timeout(PATIENCE).unwrap())
            .collect();
        results.sort_unstable();
        assert_eq!(results, (0..32).map(|i| (i, i * i)).collect::<Vec<_>>());
        assert_eq!(settled_in_flight(&pool), 0);
        drop(pool);
    }

    #[test]
    fn pool_worker_survives_a_panicking_job() {
        let pool = WorkerPool::bounded(1, 2);
        let panicked = Arc::new(AtomicUsize::new(0));
        let flag = Arc::clone(&panicked);
        pool.try_submit(move || {
            flag.store(1, Ordering::SeqCst);
            panic!("job panic");
        })
        .expect("slot 1");
        // The single worker must still be alive to run this:
        let (tx, rx) = mpsc::channel();
        pool.try_submit(move || tx.send(7u32).unwrap())
            .expect("slot 2");
        assert_eq!(rx.recv_timeout(PATIENCE), Ok(7));
        assert_eq!(panicked.load(Ordering::SeqCst), 1, "the bad job ran");
        assert_eq!(settled_in_flight(&pool), 0, "the panic was counted out");
    }

    #[test]
    fn bounded_pool_sheds_load_when_full() {
        let pool = WorkerPool::bounded(1, 2);
        // Park the single worker so queued jobs stay queued.
        let gate = Arc::new(AtomicUsize::new(0));
        let started = Arc::new(AtomicUsize::new(0));
        let (g, s) = (Arc::clone(&gate), Arc::clone(&started));
        let (tx, rx) = mpsc::channel();
        let parked = tx.clone();
        pool.try_submit(move || {
            s.store(1, Ordering::SeqCst);
            while g.load(Ordering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            parked.send(0u8).unwrap();
        })
        .expect("the worker is idle");
        // Wait until the worker has picked the parked job up, then fill
        // the two queue slots.
        while started.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let (t1, t2, t3) = (tx.clone(), tx.clone(), tx);
        pool.try_submit(move || t1.send(1u8).unwrap())
            .expect("slot 1");
        pool.try_submit(move || t2.send(2u8).unwrap())
            .expect("slot 2");
        let overflow = pool.try_submit(move || t3.send(3u8).unwrap());
        assert_eq!(overflow.unwrap_err(), QueueFull);
        gate.store(1, Ordering::SeqCst);
        let order: Vec<u8> = (0..3).map(|_| rx.recv_timeout(PATIENCE).unwrap()).collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(settled_in_flight(&pool), 0);
        drop(pool);
        assert!(rx.try_recv().is_err(), "the refused job never ran");
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let pool = WorkerPool::bounded(1, 8);
        let (tx, rx) = mpsc::channel();
        for i in 0..8usize {
            let tx = tx.clone();
            pool.try_submit(move || {
                std::thread::sleep(Duration::from_millis(2));
                tx.send(i).unwrap();
            })
            .expect("the queue holds all 8");
        }
        drop(pool);
        // Every queued job ran before the workers exited.
        let results: Vec<usize> = rx.try_iter().collect();
        assert_eq!(results, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn dropping_the_pool_from_inside_a_worker_does_not_panic() {
        // If a job captures the last owner of its own pool, the pool is
        // torn down on a worker thread; Drop must detach that thread
        // instead of self-joining (which panics in Drop with "Resource
        // deadlock avoided" — the job would then never send).
        let pool = Arc::new(Mutex::new(Some(WorkerPool::bounded(2, 1))));
        let (tx, rx) = mpsc::channel();
        {
            let guard = pool.lock().unwrap();
            let pool_ref = Arc::clone(&pool);
            guard
                .as_ref()
                .unwrap()
                .try_submit(move || {
                    // Take the pool out of the shared slot and drop it
                    // here, on the worker.
                    let taken = pool_ref.lock().unwrap().take();
                    drop(taken);
                    tx.send(11u8).unwrap();
                })
                .expect("the queue is empty");
        }
        assert_eq!(rx.recv_timeout(PATIENCE), Ok(11));
        assert!(pool.lock().unwrap().is_none(), "worker consumed the pool");
    }
}
