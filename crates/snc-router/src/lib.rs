//! `snc-router` — the fingerprint-routed scale-out tier.
//!
//! A thin, dependency-free HTTP/1.1 edge that shards `POST /solve` and
//! `POST /jobs` traffic across N backend `snc-server` processes by the
//! instance fold ([`snc_server::ResponseKey::payload_fold`]) of the key
//! the backends cache under. For a dataset or gnp request that key
//! comes from the parsed spec (`wire::RequestSpec::key`): the label
//! `dataset:…` or `gnp(n=…,p=…,seed=…)` fixes the graph, so the edge
//! never generates or loads it. Other graphs shard on their canonical
//! fingerprint. Because the shard key depends only on the problem
//! *instance* (never on seed, budget, replicas, or family knobs), every
//! request about one graph, spelled one way, lands on one backend,
//! whose `SdpCache` and `ResponseCache` therefore see a stable slice of
//! the keyspace — the fleet's aggregate warm-cache hit rate matches a
//! single server's instead of being diluted N ways. One graph sent in
//! two spellings (a gnp and its edge list) may land on two backends: an
//! accepted trade-off, since their labels differ and they never shared
//! a response entry; only the SDP factor is solved twice.
//!
//! The tier is sound because the backends are deterministic: identical
//! canonical requests produce byte-identical response bodies on any
//! replica, so consistent-hash failover (and operator re-sharding)
//! never changes an answer, only who computes it.
//!
//! Modules:
//!
//! * [`ring`] — Karger-style consistent-hash ring over backend
//!   *indices* (stable across restarts and ephemeral ports), with
//!   weighted virtual nodes and a deterministic failover order.
//! * [`health`] — per-backend up/down hysteresis fed by both probes
//!   and live proxy outcomes, plus the traffic counters `/healthz`
//!   reports.
//! * [`proxy`] — the edge process: acceptor, keyed forwarding with
//!   bounded retry-on-another-replica, job-id re-keying, aggregated
//!   health.
//! * [`pool`] — per-backend keep-alive connection pool (bounded idle
//!   stacks, stale-retry accounting, drain-on-demotion).
//! * [`metrics`] — the edge's `/metrics` registry (request latency
//!   histograms plus scrape-time mirrors of the health-table and pool
//!   tallies).
//! * [`config`] — the binary's flags.

pub mod config;
pub mod health;
pub mod metrics;
pub mod pool;
pub mod proxy;
pub mod ring;

pub use config::{parse_args, parse_backend, BackendSpec, RouterConfig};
pub use health::{probe_backend, BackendSnapshot, HealthTable};
pub use pool::{ConnectionPool, PoolSnapshot};
pub use proxy::{serve_router, RouterHandle};
pub use ring::{HashRing, DEFAULT_VNODES};
