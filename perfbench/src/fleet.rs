//! The service processes a run starts: one `snc-server`, or one
//! `snc-router` in front of two `snc-server` backends. Processes are
//! started with the repository's own spawn helpers
//! ([`snc_server::process`]), which find the binaries next to this one
//! and kill and reap each process when its handle drops.

use crate::client::{fetch_ok, get};
use snc_experiments::json::{self, Json};
use snc_server::process::{spawn_listening, spawn_server, SpawnedProcess};
use std::net::SocketAddr;

/// How a workload's service is laid out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// One backend with two solver threads; clients talk to it directly.
    Direct,
    /// A router in front of two single-threaded backends.
    Routed,
}

/// The running service of one workload.
pub struct Fleet {
    pub backends: Vec<SpawnedProcess>,
    pub router: Option<SpawnedProcess>,
}

impl Fleet {
    /// Starts the processes and waits until each announced its address.
    pub fn start(topology: Topology, backend_flags: &[&str]) -> Fleet {
        let backend = |threads: &str| {
            let mut args = vec!["--threads", threads];
            args.extend_from_slice(backend_flags);
            spawn_server(&args)
        };
        match topology {
            Topology::Direct => Fleet {
                backends: vec![backend("2")],
                router: None,
            },
            Topology::Routed => {
                let backends = vec![backend("1"), backend("1")];
                let addrs: Vec<String> = backends.iter().map(|b| b.addr().to_string()).collect();
                let mut args = vec!["--addr", "127.0.0.1:0"];
                for addr in &addrs {
                    args.extend(["--backend", addr.as_str()]);
                }
                let router = spawn_listening("snc-router", &args);
                Fleet {
                    backends,
                    router: Some(router),
                }
            }
        }
    }

    /// Where clients send their requests.
    pub fn entry(&self) -> SocketAddr {
        self.router.as_ref().unwrap_or(&self.backends[0]).addr()
    }

    /// Sum of the processes' peak resident sets (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let mut kb = 0;
        for p in self.backends.iter().chain(&self.router) {
            let path = format!("/proc/{}/status", p.pid());
            let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            kb += status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|value| value.parse::<u64>().ok())
                .ok_or_else(|| format!("{path} has no VmHWM line"))?;
        }
        Ok(kb as f64 / 1024.0)
    }

    /// The fleet's counters, summed over backends.
    pub fn counters(&self) -> Result<Counters, String> {
        let mut c = Counters::default();
        for b in &self.backends {
            let health = parse(&fetch_ok(b.addr(), &get("/healthz"))?)?;
            c.response_hits += field(&health, &["response_cache", "hits"])?;
            c.response_misses += field(&health, &["response_cache", "misses"])?;
            c.sdp_hits += field(&health, &["sdp_cache", "hits"])?;
            c.sdp_misses += field(&health, &["sdp_cache", "misses"])?;
            let metrics =
                String::from_utf8_lossy(&fetch_ok(b.addr(), &get("/metrics"))?).into_owned();
            c.sdp_solves += stage_sum(&metrics, "count", "sdp") as u64;
            c.solver_runs += stage_sum(&metrics, "count", "total") as u64;
            c.solver_total_us += stage_sum(&metrics, "sum", "total");
        }
        if let Some(router) = &self.router {
            let health = parse(&fetch_ok(router.addr(), &get("/healthz"))?)?;
            c.pool_created = field(&health, &["pool", "created"])?;
            c.pool_reused = field(&health, &["pool", "reused"])?;
        }
        Ok(c)
    }
}

/// Fleet counters; [`Counters::since`] turns two scrapes into a delta.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub response_hits: u64,
    pub response_misses: u64,
    pub sdp_hits: u64,
    pub sdp_misses: u64,
    /// Real SDP solves (`snc_solver_stage_duration_us_count{stage="sdp"}`).
    pub sdp_solves: u64,
    /// Solver runs on the worker pool (`stage="total"` count).
    pub solver_runs: u64,
    /// Worker time of those runs (`stage="total"` sum), µs.
    pub solver_total_us: f64,
    pub pool_created: u64,
    pub pool_reused: u64,
}

impl Counters {
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            response_hits: self.response_hits - before.response_hits,
            response_misses: self.response_misses - before.response_misses,
            sdp_hits: self.sdp_hits - before.sdp_hits,
            sdp_misses: self.sdp_misses - before.sdp_misses,
            sdp_solves: self.sdp_solves - before.sdp_solves,
            solver_runs: self.solver_runs - before.solver_runs,
            solver_total_us: self.solver_total_us - before.solver_total_us,
            pool_created: self.pool_created - before.pool_created,
            pool_reused: self.pool_reused - before.pool_reused,
        }
    }
}

fn parse(body: &[u8]) -> Result<Json, String> {
    json::parse(&String::from_utf8_lossy(body)).map_err(|e| format!("bad /healthz body: {e}"))
}

fn field(doc: &Json, path: &[&str]) -> Result<u64, String> {
    let mut node = doc;
    for key in path {
        node = node
            .get(key)
            .ok_or_else(|| format!("/healthz has no {}", path.join(".")))?;
    }
    node.as_u64()
        .ok_or_else(|| format!("/healthz {} is not a count", path.join(".")))
}

/// Sums `snc_solver_stage_duration_us_<suffix>` over every family of one
/// stage in a Prometheus text exposition.
fn stage_sum(metrics: &str, suffix: &str, stage: &str) -> f64 {
    let prefix = format!("snc_solver_stage_duration_us_{suffix}{{");
    let label = format!("stage=\"{stage}\"");
    metrics
        .lines()
        .filter(|line| line.starts_with(&prefix) && line.contains(&label))
        .filter_map(|line| line.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}
