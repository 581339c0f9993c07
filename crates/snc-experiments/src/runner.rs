//! The experiment harness's index-ordered job runner.
//!
//! [`JobRunner::run`] computes `f(0), …, f(count−1)` on a
//! [`std::thread::scope`] (so `f` may borrow from the caller) and returns
//! the results in index order. Workers claim the next index from an
//! atomic counter, so the results are deterministic: job `i` always
//! computes `f(i)`, whatever the thread count or completion order.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

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

    /// Runs `f(0), …, f(count−1)` on scoped worker threads and returns
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
        let started = Instant::now();
        let next = AtomicUsize::new(0);
        let completed = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<std::thread::Result<T>>>> =
            (0..count).map(|_| Mutex::new(None)).collect();
        let worker = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                break;
            }
            let result = catch_unwind(AssertUnwindSafe(|| f(i)));
            *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            // Progress streams in completion order while work continues.
            if self.verbose {
                let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                eprintln!(
                    "[{label}] {done}/{count} done ({:.1}s elapsed)",
                    started.elapsed().as_secs_f64()
                );
            }
        };
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(count) {
                scope.spawn(worker);
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                let result = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
                match result.expect("every index runs") {
                    Ok(value) => value,
                    Err(payload) => resume_unwind(payload),
                }
            })
            .collect()
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
}
