//! `snc-server` — a concurrent MAXCUT solve service over the batched
//! neuromorphic samplers.
//!
//! A dependency-free HTTP/1.1 server on a readiness-driven event loop
//! (one reactor thread multiplexing every connection via epoll on Linux,
//! portable `poll` elsewhere — see [`sys`] and [`event`]) that accepts
//! solve requests — graph, circuit family (LIF-GW / LIF-Trevisan),
//! sample budget, replica width, seed — schedules cache misses onto a
//! bounded [`pool::WorkerPool`] whose workers step
//! the batched `ReplicaBatch` circuits through [`snc_maxcut::solve()`]
//! (cache hits and `/healthz` answer inline on the reactor, zero thread
//! handoff), and answers with deterministic JSON: best cut, partition,
//! trace checkpoints. Timing is reported in the `x-snc-elapsed-us`
//! response header so that identical seeded requests yield
//! **byte-identical bodies** at any concurrency — the service inherits
//! the workspace's per-replica RNG-stream contract. Connections are
//! bounded by `--max-connections` (overflow accepts get a fast 503) and
//! idle-reaped after `--idle-timeout-ms`.
//!
//! This mirrors how neuromorphic accelerators are consumed in practice:
//! batch submission of jobs against a fixed device budget, with a job
//! queue in front of the hardware.
//!
//! ## Endpoints
//!
//! | Endpoint         | Semantics                                        |
//! |------------------|--------------------------------------------------|
//! | `POST /solve`    | Synchronous solve; blocks until the result       |
//! | `POST /jobs`     | Async submit; answers `202 {"id": …}`            |
//! | `GET /jobs/{id}` | Poll an async job (`queued/running/done/failed`) |
//! | `GET /healthz`   | Liveness + queue gauge                           |
//! | `GET /metrics`   | Prometheus-style text exposition ([`metrics`])   |
//!
//! ## Quickstart
//!
//! ```no_run
//! use snc_server::{serve, ServerConfig};
//!
//! let handle = serve(ServerConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     ..ServerConfig::default()
//! })
//! .unwrap();
//! println!("listening on {}", handle.addr());
//! // … drive it over TCP, then:
//! handle.shutdown(); // graceful: drains in-flight work
//! ```
//!
//! The request/response schema lives in [`wire`]; the HTTP subset in
//! [`http`]; the async job records in [`jobs`]; the deterministic
//! full-response cache in [`cache`]; the solver threads in [`pool`];
//! acceptor/routing in [`server`], with the per-request labels, index
//! body and access-log line the router shares; the flag parsers both
//! binaries share in [`cli`].
//!
//! ## Caching
//!
//! Two deterministic caches sit on the solve path (both bounded, both
//! disabled by passing `0`):
//!
//! * the per-graph [`snc_maxcut::SdpCache`] (`--sdp-cache-entries`)
//!   memoizes the offline SDP factor/bound LIF-GW and LIF-annealed
//!   share, by `(graph fingerprint, sdp seed, rank)`;
//! * the [`cache::ResponseCache`] (`--response-cache-bytes`) stores
//!   byte-exact response bodies keyed by the full canonical request and
//!   short-circuits `/solve` and `/jobs`.
//!
//! Because responses are byte-identical for identical requests by the
//! PR-4 wire contract, cached and computed responses are
//! indistinguishable; hit/miss/eviction counters are reported on
//! `GET /healthz`.

// `unsafe_code` is denied workspace-wide (not forbidden): the audited
// syscall layer in [`sys`] — and only it — carries a scoped
// `#![allow(unsafe_code)]`. CI asserts the token `unsafe` appears
// nowhere else in the workspace.
#![warn(missing_docs)]

pub mod cache;
pub mod cli;
pub mod event;
pub mod http;
pub mod jobs;
pub mod metrics;
pub mod pool;
pub mod process;
pub mod server;
pub mod sys;
pub mod wire;

pub use cache::{ResponseCache, ResponseCacheStats, ResponseKey};
pub use server::{serve, ServerConfig, ServerHandle};
