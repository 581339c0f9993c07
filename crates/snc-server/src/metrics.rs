//! The server's metric surface: one [`snc_metrics::Registry`] per
//! process, pre-registered reactor instruments, and the scrape-time
//! sync that mirrors pre-existing counters (caches, connections, jobs)
//! onto the registry.
//!
//! ## Data flow
//!
//! Hot-path instruments — request latency histograms, reactor tick
//! timers, connection gauges — are recorded *live* (a few relaxed
//! atomics per event, no locks on the recording side). Values that
//! already have an owner elsewhere — cache hit/miss/eviction tallies,
//! connection totals, jobs stored — are **mirrored at scrape time**
//! instead: the `GET /metrics` handler copies them into registry
//! counters/gauges just before rendering. Mirroring avoids giving the
//! registry closures that capture server state (the workspace's
//! ownership rule: nothing that outlives a request may own the worker
//! pool, even transitively), keeps `/healthz` as the compatibility
//! surface it always was, and costs one copy per scrape instead of one
//! indirection per request.
//!
//! Metric names follow the fleet convention `snc_<layer>_<name>_<unit>`
//! (see `snc_metrics`): `snc_server_*` for the request plane,
//! `snc_reactor_*` for the event loop, `snc_solver_*` for stage
//! timers, `snc_cache_*` for both caches.

use snc_maxcut::StageTimings;
use snc_metrics::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;

/// Per-process metric state: the registry plus `Arc` handles to the
/// instruments hot paths record into (pre-registered so the hot path
/// never takes the registry lock).
#[derive(Debug)]
pub struct ServerMetrics {
    /// The process-wide registry rendered by `GET /metrics`.
    pub registry: Registry,
    /// Time the reactor spent blocked in the poller per tick (µs).
    pub poll_wait_us: Arc<Histogram>,
    /// Time the reactor spent doing work per tick (µs).
    pub work_us: Arc<Histogram>,
    /// Reactor loop iterations.
    pub ticks: Arc<Counter>,
    /// Connections currently owned by the reactor.
    pub connections_active: Arc<Gauge>,
    /// Connections currently parked on an in-flight solve.
    pub connections_waiting: Arc<Gauge>,
    /// Completions sitting in the mailbox at last scrape.
    pub mailbox_depth: Arc<Gauge>,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerMetrics {
    /// Builds the registry and pre-registers the reactor instruments.
    pub fn new() -> ServerMetrics {
        let registry = Registry::new();
        let poll_wait_us = registry.histogram(
            "snc_reactor_poll_wait_us",
            "Time the reactor spent blocked waiting for readiness per tick",
            &[],
        );
        let work_us = registry.histogram(
            "snc_reactor_work_us",
            "Time the reactor spent processing events per tick",
            &[],
        );
        let ticks = registry.counter("snc_reactor_ticks_total", "Reactor loop iterations", &[]);
        let connections_active = registry.gauge(
            "snc_reactor_connections_active",
            "Connections currently owned by the reactor",
            &[],
        );
        let connections_waiting = registry.gauge(
            "snc_reactor_connections_waiting",
            "Connections parked on an in-flight solve",
            &[],
        );
        let mailbox_depth = registry.gauge(
            "snc_reactor_mailbox_depth",
            "Solve completions queued in the mailbox",
            &[],
        );
        ServerMetrics {
            registry,
            poll_wait_us,
            work_us,
            ticks,
            connections_active,
            connections_waiting,
            mailbox_depth,
        }
    }

    /// The per-request latency histogram for one `(route, family,
    /// outcome)` cell. Get-or-create on the registry — callers on the
    /// warm path should cache the returned `Arc` (the reactor keeps a
    /// local map keyed by the label triple).
    pub fn request_duration(
        &self,
        route: &'static str,
        family: &'static str,
        outcome: &'static str,
    ) -> Arc<Histogram> {
        self.registry.histogram(
            "snc_server_request_duration_us",
            "End-to-end request latency by route, circuit family, and cache outcome",
            &[("route", route), ("family", family), ("outcome", outcome)],
        )
    }

    /// Records one solve's stage breakdown into the per-family stage
    /// histograms: `total` always, `sdp` only when a real SDP ran this
    /// call (cache hits report none, keeping the series a census of
    /// actual solves), `sampling` when the workload separates it. A real
    /// SDP also records its iteration count and, when it stopped at its
    /// iteration cap, one capped solve.
    pub fn record_solve_stages(&self, family: &'static str, stages: &StageTimings, total_us: u64) {
        self.stage_histogram("total", family).record(total_us);
        if let Some(sdp_us) = stages.sdp_us {
            self.stage_histogram("sdp", family).record(sdp_us);
        }
        if let Some(iterations) = stages.sdp_iterations {
            let labels = [("family", family)];
            self.registry
                .histogram(
                    "snc_solver_sdp_iterations",
                    "Gradient iterations per real SDP solve",
                    &labels,
                )
                .record(iterations);
            self.registry
                .counter(
                    "snc_solver_sdp_capped_total",
                    "Real SDP solves that stopped at the iteration cap (unconverged bound)",
                    &labels,
                )
                .add(u64::from(stages.sdp_capped));
        }
        if stages.sampling_us > 0 {
            self.stage_histogram("sampling", family)
                .record(stages.sampling_us);
        }
    }

    fn stage_histogram(&self, stage: &'static str, family: &'static str) -> Arc<Histogram> {
        self.registry.histogram(
            "snc_solver_stage_duration_us",
            "Wall-clock time per solver stage (sdp = offline stage on real solves only)",
            &[("stage", stage), ("family", family)],
        )
    }

    /// Mirrors one cache's lifetime stats onto the registry (called at
    /// scrape time with values read from the owning cache).
    pub fn sync_cache(
        &self,
        cache: &'static str,
        hits: u64,
        misses: u64,
        evictions: u64,
        entries: u64,
    ) {
        let labels = [("cache", cache)];
        self.registry
            .counter("snc_cache_hits_total", "Cache hits", &labels)
            .set_total(hits);
        self.registry
            .counter("snc_cache_misses_total", "Cache misses", &labels)
            .set_total(misses);
        self.registry
            .counter("snc_cache_evictions_total", "Cache evictions", &labels)
            .set_total(evictions);
        self.registry
            .gauge(
                "snc_cache_entries",
                "Entries resident in the cache",
                &labels,
            )
            .set(entries as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reactor_instruments_render_under_fleet_names() {
        let m = ServerMetrics::new();
        m.ticks.inc();
        m.poll_wait_us.record(120);
        m.connections_active.set(3);
        let text = m.registry.render();
        assert!(text.contains("# TYPE snc_reactor_ticks_total counter"));
        assert!(text.contains("snc_reactor_ticks_total 1"));
        assert!(text.contains("# TYPE snc_reactor_poll_wait_us histogram"));
        assert!(text.contains("snc_reactor_connections_active 3"));
    }

    #[test]
    fn stage_recording_skips_sdp_on_cache_hits() {
        let m = ServerMetrics::new();
        let hit = StageTimings {
            sampling_us: 40,
            ..StageTimings::default()
        };
        m.record_solve_stages("lif-gw", &hit, 55);
        let text = m.registry.render();
        assert!(text
            .contains("snc_solver_stage_duration_us_count{stage=\"total\",family=\"lif-gw\"} 1"));
        assert!(text.contains(
            "snc_solver_stage_duration_us_count{stage=\"sampling\",family=\"lif-gw\"} 1"
        ));
        assert!(!text.contains("stage=\"sdp\""));
        let miss = StageTimings {
            sdp_us: Some(1000),
            sampling_us: 40,
            ..StageTimings::default()
        };
        m.record_solve_stages("lif-gw", &miss, 1100);
        let text = m.registry.render();
        assert!(
            text.contains("snc_solver_stage_duration_us_count{stage=\"sdp\",family=\"lif-gw\"} 1")
        );
    }

    #[test]
    fn capped_counter_counts_only_solves_that_hit_the_iteration_cap() {
        // The same graph solved twice: once with a cap far below
        // convergence, once at the defaults, which converge on C6.
        let m = ServerMetrics::new();
        let g = snc_graph::generators::structured::cycle(6);
        let record = |max_iters| {
            let sdp = snc_linalg::SdpConfig {
                max_iters,
                ..snc_linalg::SdpConfig::default()
            };
            let gw = snc_maxcut::solve_gw(&g, &snc_maxcut::GwConfig { sdp }).unwrap();
            let stages = StageTimings {
                sdp_us: Some(10),
                sdp_iterations: Some(gw.iterations as u64),
                sdp_capped: gw.capped,
                sampling_us: 1,
            };
            m.record_solve_stages("lif-gw", &stages, 20);
            gw
        };
        let capped = "snc_solver_sdp_capped_total{family=\"lif-gw\"}";
        let forced = record(3);
        assert!(forced.capped && forced.iterations == 3);
        assert!(m.registry.render().contains(&format!("{capped} 1")));
        let converged = record(snc_linalg::SdpConfig::default().max_iters);
        assert!(
            !converged.capped,
            "C6 converges in {} iterations",
            converged.iterations
        );
        let text = m.registry.render();
        assert!(
            text.contains(&format!("{capped} 1")),
            "a converged solve must not count"
        );
        assert!(text.contains("snc_solver_sdp_iterations_count{family=\"lif-gw\"} 2"));
        // Cache hits and non-SDP families record no convergence at all.
        m.record_solve_stages("hopfield", &StageTimings::default(), 5);
        assert!(!m
            .registry
            .render()
            .contains("sdp_iterations_count{family=\"hopfield\"}"));
    }

    #[test]
    fn cache_sync_is_idempotent_per_scrape() {
        let m = ServerMetrics::new();
        m.sync_cache("sdp", 5, 2, 1, 2);
        m.sync_cache("sdp", 7, 3, 1, 3);
        let text = m.registry.render();
        assert!(text.contains("snc_cache_hits_total{cache=\"sdp\"} 7"));
        assert!(text.contains("snc_cache_entries{cache=\"sdp\"} 3"));
    }

    #[test]
    fn request_duration_returns_one_series_per_label_cell() {
        let m = ServerMetrics::new();
        let a = m.request_duration("solve", "lif-gw", "hit");
        let b = m.request_duration("solve", "lif-gw", "hit");
        assert!(Arc::ptr_eq(&a, &b));
        let c = m.request_duration("solve", "lif-gw", "miss");
        assert!(!Arc::ptr_eq(&a, &c));
    }
}
