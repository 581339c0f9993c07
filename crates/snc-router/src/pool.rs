//! Keep-alive connection pooling to the backends.
//!
//! The pool is the only way the edge reaches a backend. A fresh TCP
//! connection per forwarded request costs ~3.5 ms/request on loopback,
//! over an order of magnitude more than a backend's warm cache hit, so
//! [`ConnectionPool`] keeps a bounded stack (at least one slot) of idle
//! keep-alive connections **per backend index**: the forward path
//! checks a connection out, runs one strictly-framed request/response
//! exchange on it, and checks it back in if (and only if) the response
//! left the stream positioned at a clean request boundary.
//!
//! ## The stale-connection rule
//!
//! A pooled connection can die while parked — the backend's idle reaper
//! (`--idle-timeout-ms`) closes it, the backend restarts, or the kernel
//! drops it. The checkout cannot see that without racing, so the
//! forward path applies the classic rule: a transport error on a
//! **reused** connection is retried exactly once on a **fresh**
//! connection to the *same* backend, before anything is reported to the
//! health machine or failover. A backend recycling idle sockets
//! therefore never looks down, and `stale_retries` counts how often the
//! rule fired. Errors on a *fresh* connection propagate immediately —
//! those are real evidence.
//!
//! ## Accounting
//!
//! Every connection the pool ever creates is counted in `created`, and
//! every connection that permanently leaves the pool's custody —
//! errored, non-reusable, displaced by a full stack, expired by
//! `--pool-idle-timeout-ms`, or drained on demotion — is counted in
//! `retired` (enforced by `Drop`, so no code path can leak one
//! uncounted). At rest, `created == retired + idle` exactly; the suites
//! assert it.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Monotonic pool counters (shared with every live [`BackendConn`] so
/// retirement is counted by `Drop`, never by hand).
#[derive(Debug, Default)]
struct PoolCounters {
    created: AtomicU64,
    reused: AtomicU64,
    retired: AtomicU64,
    stale_retries: AtomicU64,
}

/// A point-in-time snapshot of the pool for `/healthz` and `/metrics`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Idle connections currently parked, fleet-wide.
    pub idle: u64,
    /// Connections ever opened to a backend.
    pub created: u64,
    /// Checkouts satisfied by a parked connection.
    pub reused: u64,
    /// Connections permanently closed (errored, non-reusable,
    /// displaced, expired, or drained).
    pub retired: u64,
    /// Times the stale-connection rule replaced a dead reused
    /// connection with a fresh one mid-request.
    pub stale_retries: u64,
}

/// One checked-out backend connection: buffered reader + writer halves
/// of the same stream, plus whether it came out of the pool (`reused`)
/// — which is what arms the stale-retry rule.
#[derive(Debug)]
pub(crate) struct BackendConn {
    pub(crate) reader: BufReader<TcpStream>,
    pub(crate) writer: TcpStream,
    pub(crate) reused: bool,
    /// Suppresses the `Drop` retirement count while parked in the pool.
    parked: bool,
    counters: Arc<PoolCounters>,
}

impl Drop for BackendConn {
    fn drop(&mut self) {
        if !self.parked {
            self.counters.retired.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// An idle pooled connection and when it was parked.
#[derive(Debug)]
struct Idle {
    conn: BackendConn,
    parked_at: Instant,
}

/// Bounded per-backend stacks of idle keep-alive connections.
#[derive(Debug)]
pub struct ConnectionPool {
    stacks: Vec<Mutex<Vec<Idle>>>,
    capacity: usize,
    idle_timeout: Duration,
    connect_timeout: Duration,
    read_timeout: Duration,
    counters: Arc<PoolCounters>,
}

impl ConnectionPool {
    /// A pool over `backends` indices holding at most `capacity` idle
    /// connections per backend (at least 1). `idle_timeout`
    /// retires parked connections at checkout; `connect_timeout` /
    /// `read_timeout` are applied once, at connection creation.
    pub fn new(
        backends: usize,
        capacity: usize,
        idle_timeout: Duration,
        connect_timeout: Duration,
        read_timeout: Duration,
    ) -> ConnectionPool {
        ConnectionPool {
            stacks: (0..backends).map(|_| Mutex::new(Vec::new())).collect(),
            capacity,
            idle_timeout,
            connect_timeout,
            read_timeout,
            counters: Arc::new(PoolCounters::default()),
        }
    }

    fn stack(&self, backend: usize) -> MutexGuard<'_, Vec<Idle>> {
        self.stacks[backend]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a fresh connection to `addr`: connect timeout, NODELAY,
    /// and the backend read timeout, set once for the connection's life.
    pub(crate) fn connect_fresh(&self, addr: SocketAddr) -> std::io::Result<BackendConn> {
        let stream = TcpStream::connect_timeout(&addr, self.connect_timeout)?;
        stream.set_read_timeout(Some(self.read_timeout))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        self.counters.created.fetch_add(1, Ordering::Relaxed);
        Ok(BackendConn {
            reader: BufReader::new(stream),
            writer,
            reused: false,
            parked: false,
            counters: Arc::clone(&self.counters),
        })
    }

    /// Checks a connection to backend `backend` out: the most recently
    /// parked idle connection if one is fresh enough (LIFO keeps warm
    /// sockets warm), else a new connection. Parked connections past the
    /// idle timeout are retired on the way.
    pub(crate) fn checkout(
        &self,
        backend: usize,
        addr: SocketAddr,
    ) -> std::io::Result<BackendConn> {
        let mut stack = self.stack(backend);
        let now = Instant::now();
        stack.retain_mut(|idle| {
            let keep = now.duration_since(idle.parked_at) <= self.idle_timeout;
            if !keep {
                idle.conn.parked = false; // drop below counts it retired
            }
            keep
        });
        let parked = stack.pop();
        drop(stack);
        let Some(mut idle) = parked else {
            return self.connect_fresh(addr);
        };
        self.counters.reused.fetch_add(1, Ordering::Relaxed);
        idle.conn.parked = false;
        idle.conn.reused = true;
        Ok(idle.conn)
    }

    /// Parks a connection for reuse. The caller vouches that the stream
    /// sits at a clean response boundary (strictly framed body fully
    /// read, no buffered bytes). A full stack simply drops the
    /// connection (counted retired by `Drop`).
    pub(crate) fn checkin(&self, backend: usize, mut conn: BackendConn) {
        let mut stack = self.stack(backend);
        if stack.len() >= self.capacity {
            return;
        }
        conn.parked = true;
        stack.push(Idle {
            conn,
            parked_at: Instant::now(),
        });
    }

    /// Records one firing of the stale-connection rule.
    pub(crate) fn note_stale_retry(&self) {
        self.counters.stale_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Closes every idle connection parked for backend `backend` — the
    /// health machine calls this on demotion, so a down backend's
    /// sockets never linger to serve a first stale request after
    /// re-admission.
    pub fn drain(&self, backend: usize) {
        for mut idle in std::mem::take(&mut *self.stack(backend)) {
            idle.conn.parked = false; // drop below counts it retired
            drop(idle);
        }
    }

    /// Idle connections currently parked for backend `backend`.
    pub fn idle_count(&self, backend: usize) -> usize {
        self.stack(backend).len()
    }

    /// Fleet-wide snapshot for `/healthz` and the `/metrics` mirror.
    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot {
            idle: (0..self.stacks.len())
                .map(|b| self.stack(b).len() as u64)
                .sum(),
            created: self.counters.created.load(Ordering::Relaxed),
            reused: self.counters.reused.load(Ordering::Relaxed),
            retired: self.counters.retired.load(Ordering::Relaxed),
            stale_retries: self.counters.stale_retries.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pool_for(listener_count: usize, capacity: usize, idle_ms: u64) -> ConnectionPool {
        ConnectionPool::new(
            listener_count,
            capacity,
            Duration::from_millis(idle_ms),
            Duration::from_millis(1000),
            Duration::from_millis(1000),
        )
    }

    /// A listener that accepts (and holds) connections in a background
    /// thread so checkouts can complete their TCP handshake.
    fn sink_listener() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut held = Vec::new();
            // Accept until the test drops its side and the listener errs
            // out of scope; bounded so the thread always exits.
            listener.set_nonblocking(false).expect("blocking listener");
            for _ in 0..64 {
                match listener.accept() {
                    Ok((stream, _)) => held.push(stream),
                    Err(_) => break,
                }
                if held.len() >= 16 {
                    break;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn checkout_checkin_reuses_lifo_and_counts_exactly() {
        let (addr, _accepts) = sink_listener();
        let pool = pool_for(1, 2, 60_000);
        let a = pool.checkout(0, addr).unwrap();
        assert!(!a.reused, "first checkout must be fresh");
        pool.checkin(0, a);
        assert_eq!(pool.idle_count(0), 1);
        let b = pool.checkout(0, addr).unwrap();
        assert!(b.reused, "second checkout must reuse");
        pool.checkin(0, b);
        let s = pool.snapshot();
        assert_eq!((s.created, s.reused, s.idle, s.retired), (1, 1, 1, 0));
        assert_eq!(s.created, s.retired + s.idle, "conservation at rest");
    }

    #[test]
    fn capacity_bounds_the_stack_and_overflow_is_retired() {
        let (addr, _accepts) = sink_listener();
        let pool = pool_for(1, 1, 60_000);
        let a = pool.checkout(0, addr).unwrap();
        let b = pool.checkout(0, addr).unwrap();
        pool.checkin(0, a);
        pool.checkin(0, b); // stack full: b is dropped, counted retired
        let s = pool.snapshot();
        assert_eq!((s.created, s.idle, s.retired), (2, 1, 1));
    }

    #[test]
    fn expired_idle_connections_are_retired_at_checkout() {
        let (addr, _accepts) = sink_listener();
        let pool = pool_for(1, 4, 0); // everything expires instantly
        let a = pool.checkout(0, addr).unwrap();
        pool.checkin(0, a);
        std::thread::sleep(Duration::from_millis(5));
        let b = pool.checkout(0, addr).unwrap();
        assert!(!b.reused, "expired connection must not be reused");
        drop(b);
        let s = pool.snapshot();
        assert_eq!((s.created, s.reused, s.retired, s.idle), (2, 0, 2, 0));
    }

    #[test]
    fn drain_empties_one_backend_only() {
        let (addr_a, _aa) = sink_listener();
        let (addr_b, _ab) = sink_listener();
        let pool = pool_for(2, 2, 60_000);
        let a = pool.checkout(0, addr_a).unwrap();
        let b = pool.checkout(1, addr_b).unwrap();
        pool.checkin(0, a);
        pool.checkin(1, b);
        pool.drain(0);
        assert_eq!(pool.idle_count(0), 0);
        assert_eq!(pool.idle_count(1), 1);
        let s = pool.snapshot();
        assert_eq!((s.retired, s.idle), (1, 1));
    }

    #[test]
    fn checkout_to_a_dead_port_propagates_the_connect_error() {
        let pool = pool_for(1, 2, 60_000);
        let addr = snc_server::process::reserve_port();
        assert!(pool.checkout(0, addr).is_err());
        assert_eq!(
            pool.snapshot().created,
            0,
            "failed connects are not created"
        );
    }
}
