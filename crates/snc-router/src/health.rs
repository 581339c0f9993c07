//! Backend health: hysteresis state machine, traffic counters, and the
//! background prober.
//!
//! Every backend has a two-state (up/down) machine driven by
//! *observations* — probe outcomes and proxy-attempt outcomes feed the
//! same counters, so a connect-refused during traffic advances the same
//! hysteresis a failed probe would. Transitions require consecutive
//! agreement: `down_after` consecutive failures to leave `up`,
//! `up_after` consecutive successes to leave `down`. That asymmetric
//! debounce is what keeps a flapping backend from oscillating the ring:
//! one lost probe neither removes a healthy backend nor re-admits a
//! half-restarted one.
//!
//! The [`probe_loop`] thread sweeps all backends every `interval`,
//! issuing a `GET /healthz` with a bounded connect + read timeout. Backends
//! start **up** (optimistic): a cold start must not 503 traffic that
//! arrives before the first sweep, and a genuinely dead backend is
//! demoted after `down_after` observations from either source.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Hysteresis counters for one backend (behind the table's mutex).
#[derive(Clone, Copy, Debug, Default)]
struct Machine {
    consecutive_ok: u32,
    consecutive_fail: u32,
}

/// Monotonic per-backend counters (lock-free; read by `/healthz`).
#[derive(Debug, Default)]
struct Counters {
    probes_ok: AtomicU64,
    probes_failed: AtomicU64,
    routed: AtomicU64,
    errors: AtomicU64,
}

/// A point-in-time snapshot of one backend's health and traffic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BackendSnapshot {
    /// Whether the ring currently routes to this backend.
    pub up: bool,
    /// Successful probes since startup.
    pub probes_ok: u64,
    /// Failed probes since startup.
    pub probes_failed: u64,
    /// Requests answered by this backend through the proxy.
    pub routed: u64,
    /// Proxy attempts against this backend that failed (connect/read
    /// errors or retryable 5xx).
    pub errors: u64,
}

/// Shared health state for all backends of one router.
#[derive(Debug)]
pub struct HealthTable {
    up: Vec<AtomicBool>,
    machines: Vec<Mutex<Machine>>,
    counters: Vec<Counters>,
    down_after: u32,
    up_after: u32,
    /// Total proxied requests answered (any backend).
    pub routed: AtomicU64,
    /// Total retry attempts (second and later attempts for a request).
    pub retried: AtomicU64,
    /// Requests the router itself had to fail (no backend could answer).
    pub failed: AtomicU64,
}

impl HealthTable {
    /// A table for `n` backends, all initially up.
    ///
    /// # Panics
    ///
    /// Panics when a hysteresis threshold is 0 (a transition that needs
    /// zero observations would fire spuriously).
    pub fn new(n: usize, down_after: u32, up_after: u32) -> Self {
        assert!(
            down_after > 0 && up_after > 0,
            "hysteresis thresholds must be ≥ 1"
        );
        Self {
            up: (0..n).map(|_| AtomicBool::new(true)).collect(),
            machines: (0..n).map(|_| Mutex::new(Machine::default())).collect(),
            counters: (0..n).map(|_| Counters::default()).collect(),
            down_after,
            up_after,
            routed: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        }
    }

    /// Whether backend `i` is currently routed to.
    pub fn is_up(&self, i: usize) -> bool {
        self.up[i].load(Ordering::Relaxed)
    }

    /// Count of currently-up backends.
    pub fn up_count(&self) -> usize {
        self.up.iter().filter(|u| u.load(Ordering::Relaxed)).count()
    }

    /// Records a successful observation (probe 200 or proxied response)
    /// for backend `i`; re-admits it after `up_after` consecutive
    /// successes. Returns `true` when this observation is the one that
    /// flipped the backend from down to up.
    pub fn observe_success(&self, i: usize, probe: bool) -> bool {
        if probe {
            self.counters[i].probes_ok.fetch_add(1, Ordering::Relaxed);
        }
        let mut m = self.machines[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        m.consecutive_fail = 0;
        m.consecutive_ok = m.consecutive_ok.saturating_add(1);
        if !self.up[i].load(Ordering::Relaxed) && m.consecutive_ok >= self.up_after {
            self.up[i].store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Records a failed observation (probe failure or connect/read/5xx
    /// proxy failure) for backend `i`; demotes it after `down_after`
    /// consecutive failures. Returns `true` when this observation is
    /// the one that flipped the backend from up to down — the caller's
    /// cue to drain any resources (pooled connections) tied to it.
    pub fn observe_failure(&self, i: usize, probe: bool) -> bool {
        if probe {
            self.counters[i]
                .probes_failed
                .fetch_add(1, Ordering::Relaxed);
        } else {
            self.counters[i].errors.fetch_add(1, Ordering::Relaxed);
        }
        let mut m = self.machines[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        m.consecutive_ok = 0;
        m.consecutive_fail = m.consecutive_fail.saturating_add(1);
        if self.up[i].load(Ordering::Relaxed) && m.consecutive_fail >= self.down_after {
            self.up[i].store(false, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Credits backend `i` with one successfully proxied request.
    pub fn count_routed(&self, i: usize) {
        self.counters[i].routed.fetch_add(1, Ordering::Relaxed);
        self.routed.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of backend `i` for `/healthz`.
    pub fn snapshot(&self, i: usize) -> BackendSnapshot {
        BackendSnapshot {
            up: self.is_up(i),
            probes_ok: self.counters[i].probes_ok.load(Ordering::Relaxed),
            probes_failed: self.counters[i].probes_failed.load(Ordering::Relaxed),
            routed: self.counters[i].routed.load(Ordering::Relaxed),
            errors: self.counters[i].errors.load(Ordering::Relaxed),
        }
    }
}

/// One `GET /healthz` probe: TCP connect with timeout, minimal request,
/// success ⇔ an `HTTP/1.1 200` status line within the read timeout.
pub fn probe_backend(addr: SocketAddr, timeout: Duration) -> bool {
    let Ok(stream) = TcpStream::connect_timeout(&addr, timeout) else {
        return false;
    };
    if stream.set_read_timeout(Some(timeout)).is_err() || stream.set_nodelay(true).is_err() {
        return false;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return false,
    };
    if writer
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: snc-router\r\nConnection: close\r\n\r\n")
        .is_err()
    {
        return false;
    }
    let mut line = String::new();
    let mut reader = BufReader::new(stream);
    reader.read_line(&mut line).is_ok() && line.starts_with("HTTP/1.1 200")
}

/// The background probe loop: sweeps every backend each `interval`
/// until `shutdown` flips, feeding outcomes into the health table.
/// Between sweeps it parks until the next one is due; whoever raises
/// `shutdown` unparks this thread, so shutdown is prompt even with long
/// intervals and no timer polls the flag. `on_demote(i)` fires on the
/// sweep that marks backend `i` down — the router uses it to drain the
/// victim's pooled connections.
pub fn probe_loop(
    backends: Vec<SocketAddr>,
    table: Arc<HealthTable>,
    interval: Duration,
    timeout: Duration,
    shutdown: Arc<AtomicBool>,
    on_demote: impl Fn(usize),
) {
    while !shutdown.load(Ordering::SeqCst) {
        for (i, &addr) in backends.iter().enumerate() {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            if probe_backend(addr, timeout) {
                table.observe_success(i, true);
            } else if table.observe_failure(i, true) {
                on_demote(i);
            }
        }
        let due = Instant::now() + interval;
        // `park_timeout` may return early (an unpark, or spuriously):
        // re-check the flag and the clock each time.
        while !shutdown.load(Ordering::SeqCst) {
            let left = due.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            std::thread::park_timeout(left);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hysteresis_requires_consecutive_agreement() {
        let t = HealthTable::new(1, 3, 2);
        assert!(t.is_up(0));
        // Two failures, then a success: the streak resets, still up.
        t.observe_failure(0, true);
        t.observe_failure(0, true);
        assert!(t.is_up(0));
        t.observe_success(0, true);
        t.observe_failure(0, true);
        t.observe_failure(0, true);
        assert!(t.is_up(0), "streak was broken, must still be up");
        t.observe_failure(0, true);
        assert!(!t.is_up(0), "three consecutive failures demote");
        // One success is not enough to re-admit; two are.
        t.observe_success(0, true);
        assert!(!t.is_up(0));
        t.observe_success(0, true);
        assert!(t.is_up(0));
        let snap = t.snapshot(0);
        assert_eq!(snap.probes_failed, 5);
        assert_eq!(snap.probes_ok, 3);
    }

    #[test]
    fn proxy_and_probe_observations_share_the_machine() {
        let t = HealthTable::new(2, 2, 1);
        // One probe failure + one proxy failure = demoted.
        t.observe_failure(1, true);
        t.observe_failure(1, false);
        assert!(!t.is_up(1));
        assert!(t.is_up(0), "neighbor untouched");
        let snap = t.snapshot(1);
        assert_eq!((snap.probes_failed, snap.errors), (1, 1));
        assert_eq!(t.up_count(), 1);
    }

    #[test]
    fn counters_accumulate() {
        let t = HealthTable::new(2, 1, 1);
        t.count_routed(0);
        t.count_routed(0);
        t.count_routed(1);
        assert_eq!(t.snapshot(0).routed, 2);
        assert_eq!(t.snapshot(1).routed, 1);
        assert_eq!(t.routed.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn observations_report_the_transition_edge_exactly_once() {
        let t = HealthTable::new(1, 2, 2);
        assert!(!t.observe_failure(0, false), "first failure is not an edge");
        assert!(
            t.observe_failure(0, false),
            "second consecutive failure demotes"
        );
        assert!(!t.observe_failure(0, false), "already down: no edge");
        assert!(!t.observe_success(0, false), "first success is not an edge");
        assert!(
            t.observe_success(0, false),
            "second consecutive success re-admits"
        );
        assert!(!t.observe_success(0, false), "already up: no edge");
    }

    #[test]
    fn probe_against_a_dead_port_fails_fast() {
        let addr = snc_server::process::reserve_port();
        let started = std::time::Instant::now();
        assert!(!probe_backend(addr, Duration::from_millis(500)));
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn zero_thresholds_are_rejected() {
        let _ = HealthTable::new(1, 0, 1);
    }
}
