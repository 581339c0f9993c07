//! The router's metric surface: one [`snc_metrics::Registry`] per edge
//! process, rendered by `GET /metrics`.
//!
//! Same split as the backend's `snc_server::metrics`: per-request
//! latency histograms are recorded live on the connection threads;
//! tallies that already live in the [`crate::health::HealthTable`]
//! (routed/retried/failed, per-backend traffic, up/down state) are
//! mirrored onto the registry at scrape time, keeping `/healthz` the
//! compatibility surface and the hot path free of double bookkeeping.
//!
//! Names follow the fleet convention `snc_<layer>_<name>_<unit>` with
//! layer `router`.

use snc_metrics::{Histogram, Registry};
use std::sync::Arc;

/// Per-process router metric state.
#[derive(Debug, Default)]
pub struct RouterMetrics {
    /// The process-wide registry rendered by `GET /metrics`.
    pub registry: Registry,
}

impl RouterMetrics {
    /// Builds an empty registry (series appear on first use, so an idle
    /// router scrapes small).
    pub fn new() -> RouterMetrics {
        RouterMetrics {
            registry: Registry::new(),
        }
    }

    /// The edge-side request latency histogram for one `(route, family,
    /// outcome)` cell — end-to-end time including the backend hop.
    pub fn request_duration(
        &self,
        route: &'static str,
        family: &'static str,
        outcome: &'static str,
    ) -> Arc<Histogram> {
        self.registry.histogram(
            "snc_router_request_duration_us",
            "Edge request latency by route, circuit family, and proxy outcome",
            &[("route", route), ("family", family), ("outcome", outcome)],
        )
    }

    /// Mirrors the global proxy tallies onto the registry (scrape time).
    pub fn sync_totals(&self, routed: u64, retried: u64, failed: u64, backends_up: u64) {
        self.registry
            .counter(
                "snc_router_requests_routed_total",
                "Proxied requests answered by some backend",
                &[],
            )
            .set_total(routed);
        self.registry
            .counter(
                "snc_router_retries_total",
                "Second-and-later proxy attempts across all requests",
                &[],
            )
            .set_total(retried);
        self.registry
            .counter(
                "snc_router_requests_failed_total",
                "Requests the router itself had to fail (no backend answered)",
                &[],
            )
            .set_total(failed);
        self.registry
            .gauge(
                "snc_router_backends_up",
                "Backends the ring currently routes to",
                &[],
            )
            .set(i64::try_from(backends_up).unwrap_or(i64::MAX));
    }

    /// Mirrors the connection pool's accounting onto the registry
    /// (scrape time, same snapshot `/healthz` reports).
    pub fn sync_pool(
        &self,
        idle: u64,
        created: u64,
        reused: u64,
        retired: u64,
        stale_retries: u64,
    ) {
        self.registry
            .gauge(
                "snc_router_pool_idle",
                "Keep-alive backend connections currently parked in the pool",
                &[],
            )
            .set(i64::try_from(idle).unwrap_or(i64::MAX));
        self.registry
            .counter(
                "snc_router_pool_created_total",
                "Backend connections dialed (fresh connects)",
                &[],
            )
            .set_total(created);
        self.registry
            .counter(
                "snc_router_pool_reused_total",
                "Checkouts satisfied by a parked keep-alive connection",
                &[],
            )
            .set_total(reused);
        self.registry
            .counter(
                "snc_router_pool_retired_total",
                "Backend connections closed (expired, drained, or not poolable)",
                &[],
            )
            .set_total(retired);
        self.registry
            .counter(
                "snc_router_pool_stale_retries_total",
                "Transport errors on reused connections absorbed by a fresh-connection retry",
                &[],
            )
            .set_total(stale_retries);
    }

    /// Mirrors one backend's health-table counters onto the registry
    /// (scrape time), labelled by its ring-index-stable address.
    pub fn sync_backend(&self, addr: &str, up: bool, routed: u64, errors: u64) {
        // The label set is per-address, not &'static: the registry
        // copies label values, so a short-lived String is fine here.
        let labels = [("backend", addr)];
        self.registry
            .gauge(
                "snc_router_backend_up",
                "Whether the ring currently routes to this backend (1/0)",
                &labels,
            )
            .set(i64::from(up));
        self.registry
            .counter(
                "snc_router_backend_routed_total",
                "Requests answered by this backend through the proxy",
                &labels,
            )
            .set_total(routed);
        self.registry
            .counter(
                "snc_router_backend_errors_total",
                "Proxy attempts against this backend that failed",
                &labels,
            )
            .set_total(errors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_mirror_is_idempotent_per_scrape() {
        let m = RouterMetrics::new();
        m.sync_totals(10, 2, 1, 3);
        m.sync_totals(15, 2, 1, 2);
        let text = m.registry.render();
        assert!(text.contains("snc_router_requests_routed_total 15"));
        assert!(text.contains("snc_router_backends_up 2"));
    }

    #[test]
    fn backend_series_are_labelled_by_address() {
        let m = RouterMetrics::new();
        m.sync_backend("127.0.0.1:7878", true, 4, 0);
        m.sync_backend("127.0.0.1:7879", false, 1, 3);
        let text = m.registry.render();
        assert!(text.contains("snc_router_backend_up{backend=\"127.0.0.1:7878\"} 1"));
        assert!(text.contains("snc_router_backend_up{backend=\"127.0.0.1:7879\"} 0"));
        assert!(text.contains("snc_router_backend_errors_total{backend=\"127.0.0.1:7879\"} 3"));
    }

    #[test]
    fn pool_series_mirror_the_snapshot() {
        let m = RouterMetrics::new();
        m.sync_pool(2, 7, 5, 5, 1);
        let text = m.registry.render();
        assert!(text.contains("snc_router_pool_idle 2"));
        assert!(text.contains("snc_router_pool_created_total 7"));
        assert!(text.contains("snc_router_pool_reused_total 5"));
        assert!(text.contains("snc_router_pool_retired_total 5"));
        assert!(text.contains("snc_router_pool_stale_retries_total 1"));
    }

    #[test]
    fn request_histograms_record_per_cell() {
        let m = RouterMetrics::new();
        m.request_duration("solve", "lif-gw", "relayed").record(900);
        let text = m.registry.render();
        assert!(text.contains(
            "snc_router_request_duration_us_count{route=\"solve\",family=\"lif-gw\",outcome=\"relayed\"} 1"
        ));
    }
}
