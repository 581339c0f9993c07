//! Router configuration and flag parsing.

use snc_server::cli::{non_negative, positive};
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

/// One configured backend: where it listens and how much of the ring it
/// owns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BackendSpec {
    /// Resolved socket address of the backend's `snc-server`.
    pub addr: SocketAddr,
    /// Ring weight (virtual nodes = `vnodes · weight`). Weight 0 keeps
    /// the backend addressable for async-job polling but routes no new
    /// keys to it (a drain slot).
    pub weight: u32,
}

/// Router configuration (all knobs the binary exposes).
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Edge bind address (port 0 picks an ephemeral port).
    pub addr: String,
    /// The backend fleet, in ring-index order. Order is identity: the
    /// ring hashes backend *indices*, so a stable ordering across
    /// restarts preserves every backend's keyspace slice.
    pub backends: Vec<BackendSpec>,
    /// Virtual nodes per unit of backend weight.
    pub vnodes: usize,
    /// Delay between health-probe sweeps.
    pub probe_interval: Duration,
    /// Connect + read timeout for one probe.
    pub probe_timeout: Duration,
    /// Consecutive failed observations before a backend is marked down.
    pub down_after: u32,
    /// Consecutive successful observations before a down backend is
    /// re-admitted.
    pub up_after: u32,
    /// Additional proxy attempts (on distinct backends) after the first
    /// fails; 0 disables failover retries.
    pub retries: usize,
    /// Connect timeout for proxied requests.
    pub connect_timeout: Duration,
    /// Read timeout while awaiting a backend's response (solves can be
    /// slow; this guards against a wedged backend, not a busy one).
    pub backend_read_timeout: Duration,
    /// Largest accepted request body in bytes (mirrors the backend
    /// limit so the edge rejects what the backend would).
    pub max_body_bytes: usize,
    /// Default replica width assumed when parsing requests that omit
    /// `"replicas"` (affects edge validation only; the backend applies
    /// its own default when solving).
    pub replicas: usize,
    /// Append one structured line per routed request (request id,
    /// route, family, outcome, status, elapsed µs) to this path.
    /// `None` disables access logging.
    pub access_log: Option<String>,
    /// Rotate the access log (rename to `<path>.1`, reopen) whenever it
    /// would grow past this many bytes. 0 disables rotation.
    pub access_log_max_bytes: u64,
    /// Keep-alive connections parked per backend. 0 disables pooling
    /// entirely — every forward opens a fresh connection and asks the
    /// backend to close it, reproducing the pre-pool wire behavior
    /// bit-for-bit.
    pub pool_idle_per_backend: usize,
    /// How long a parked connection stays eligible for reuse; older
    /// idles are retired at checkout. Irrelevant when pooling is off.
    pub pool_idle_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7979".to_string(),
            backends: Vec::new(),
            vnodes: crate::ring::DEFAULT_VNODES,
            probe_interval: Duration::from_millis(1000),
            probe_timeout: Duration::from_millis(1000),
            down_after: 3,
            up_after: 2,
            retries: 2,
            connect_timeout: Duration::from_millis(1000),
            backend_read_timeout: Duration::from_secs(120),
            max_body_bytes: 1 << 20,
            replicas: 1,
            access_log: None,
            access_log_max_bytes: 0,
            pool_idle_per_backend: 8,
            pool_idle_timeout: Duration::from_secs(10),
        }
    }
}

impl RouterConfig {
    /// Per-backend ring weights, in index order.
    pub fn weights(&self) -> Vec<u32> {
        self.backends.iter().map(|b| b.weight).collect()
    }
}

/// Parses one `--backend` value: `HOST:PORT` or `HOST:PORT@WEIGHT`.
///
/// # Errors
///
/// Returns a message suitable for direct printing when the address does
/// not resolve or the weight is not an integer.
pub fn parse_backend(raw: &str) -> Result<BackendSpec, String> {
    let (addr_part, weight) = match raw.rsplit_once('@') {
        Some((addr, w)) => {
            let weight: u32 = w
                .parse()
                .map_err(|_| format!("backend weight in `{raw}` must be an unsigned integer"))?;
            (addr, weight)
        }
        None => (raw, 1),
    };
    let addr = addr_part
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve backend `{addr_part}`: {e}"))?
        .next()
        .ok_or_else(|| format!("backend `{addr_part}` resolved to no address"))?;
    Ok(BackendSpec { addr, weight })
}

/// Parses the binary's command line into a [`RouterConfig`].
///
/// # Errors
///
/// Returns a usage message on unknown flags, missing values,
/// unresolvable backends, zero-able knobs set to zero, or an empty
/// backend list.
pub fn parse_args(args: &[String]) -> Result<RouterConfig, String> {
    let mut cfg = RouterConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => cfg.addr = it.next().ok_or("--addr needs a HOST:PORT value")?.clone(),
            "--backend" => cfg.backends.push(parse_backend(
                it.next()
                    .ok_or("--backend needs a HOST:PORT[@WEIGHT] value")?,
            )?),
            "--vnodes" => cfg.vnodes = positive(it.next(), "--vnodes")?,
            "--probe-interval-ms" => {
                cfg.probe_interval =
                    Duration::from_millis(positive(it.next(), "--probe-interval-ms")?);
            }
            "--probe-timeout-ms" => {
                cfg.probe_timeout =
                    Duration::from_millis(positive(it.next(), "--probe-timeout-ms")?);
            }
            "--down-after" => cfg.down_after = positive(it.next(), "--down-after")?,
            "--up-after" => cfg.up_after = positive(it.next(), "--up-after")?,
            "--retries" => cfg.retries = non_negative(it.next(), "--retries")?,
            "--connect-timeout-ms" => {
                cfg.connect_timeout =
                    Duration::from_millis(positive(it.next(), "--connect-timeout-ms")?);
            }
            "--backend-read-timeout-ms" => {
                cfg.backend_read_timeout =
                    Duration::from_millis(positive(it.next(), "--backend-read-timeout-ms")?);
            }
            "--replicas" => cfg.replicas = positive(it.next(), "--replicas")?,
            "--access-log" => {
                cfg.access_log = Some(it.next().ok_or("--access-log needs a PATH value")?.clone());
            }
            "--access-log-max-bytes" => {
                cfg.access_log_max_bytes = non_negative(it.next(), "--access-log-max-bytes")?;
            }
            "--pool-idle-per-backend" => {
                cfg.pool_idle_per_backend = non_negative(it.next(), "--pool-idle-per-backend")?;
            }
            "--pool-idle-timeout-ms" => {
                cfg.pool_idle_timeout =
                    Duration::from_millis(positive(it.next(), "--pool-idle-timeout-ms")?);
            }
            other => {
                return Err(format!(
                    "unknown flag `{other}`\nusage: snc-router --backend HOST:PORT[@WEIGHT] \
                     [--backend …] [--addr HOST:PORT] [--vnodes N] [--probe-interval-ms N] \
                     [--probe-timeout-ms N] [--down-after N] [--up-after N] [--retries N] \
                     [--connect-timeout-ms N] [--backend-read-timeout-ms N] [--replicas N] \
                     [--access-log PATH] [--access-log-max-bytes N] \
                     [--pool-idle-per-backend N] [--pool-idle-timeout-ms N]"
                ));
            }
        }
    }
    if cfg.backends.is_empty() {
        return Err("at least one --backend HOST:PORT is required".to_string());
    }
    if cfg.backends.iter().all(|b| b.weight == 0) {
        return Err("at least one backend needs a positive weight".to_string());
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn backend_forms_parse() {
        let plain = parse_backend("127.0.0.1:7878").unwrap();
        assert_eq!(plain.weight, 1);
        assert_eq!(plain.addr.port(), 7878);
        let weighted = parse_backend("127.0.0.1:7878@3").unwrap();
        assert_eq!(weighted.weight, 3);
        assert!(parse_backend("127.0.0.1:7878@x").is_err());
        assert!(parse_backend("not-an-addr").is_err());
    }

    #[test]
    fn defaults_and_overrides() {
        let cfg = parse_args(&strs(&["--backend", "127.0.0.1:7878"])).unwrap();
        assert_eq!(cfg.backends.len(), 1);
        assert_eq!(cfg.vnodes, crate::ring::DEFAULT_VNODES);
        assert_eq!(cfg.down_after, 3);
        assert_eq!(cfg.up_after, 2);
        assert_eq!(cfg.retries, 2);
        let cfg = parse_args(&strs(&[
            "--addr",
            "127.0.0.1:0",
            "--backend",
            "127.0.0.1:1@2",
            "--backend",
            "127.0.0.1:2",
            "--vnodes",
            "16",
            "--probe-interval-ms",
            "50",
            "--probe-timeout-ms",
            "100",
            "--down-after",
            "1",
            "--up-after",
            "4",
            "--retries",
            "0",
            "--connect-timeout-ms",
            "200",
            "--backend-read-timeout-ms",
            "5000",
            "--replicas",
            "2",
        ]))
        .unwrap();
        assert_eq!(cfg.weights(), vec![2, 1]);
        assert_eq!(cfg.vnodes, 16);
        assert_eq!(cfg.probe_interval, Duration::from_millis(50));
        assert_eq!(cfg.probe_timeout, Duration::from_millis(100));
        assert_eq!((cfg.down_after, cfg.up_after), (1, 4));
        assert_eq!(cfg.retries, 0);
        assert_eq!(cfg.connect_timeout, Duration::from_millis(200));
        assert_eq!(cfg.backend_read_timeout, Duration::from_millis(5000));
        assert_eq!(cfg.replicas, 2);
    }

    #[test]
    fn rejects_bad_configurations() {
        assert!(parse_args(&[]).is_err(), "no backends");
        assert!(
            parse_args(&strs(&["--backend", "127.0.0.1:1@0"])).is_err(),
            "all weight-0"
        );
        assert!(parse_args(&strs(&["--bogus"])).is_err());
        assert!(parse_args(&strs(&["--backend"])).is_err());
        for flag in [
            "--vnodes",
            "--down-after",
            "--up-after",
            "--probe-interval-ms",
        ] {
            let err = parse_args(&strs(&["--backend", "127.0.0.1:1", flag, "0"])).unwrap_err();
            assert!(err.contains("≥ 1"), "{flag}: {err}");
        }
        // --retries 0 is legal (failover disabled).
        assert_eq!(
            parse_args(&strs(&["--backend", "127.0.0.1:1", "--retries", "0"]))
                .unwrap()
                .retries,
            0
        );
    }

    #[test]
    fn access_log_flag_parses() {
        let base = strs(&["--backend", "127.0.0.1:1"]);
        assert_eq!(parse_args(&base).unwrap().access_log, None);
        let cfg = parse_args(&strs(&[
            "--backend",
            "127.0.0.1:1",
            "--access-log",
            "/tmp/router.log",
        ]))
        .unwrap();
        assert_eq!(cfg.access_log.as_deref(), Some("/tmp/router.log"));
        assert!(parse_args(&strs(&["--backend", "127.0.0.1:1", "--access-log"])).is_err());
    }

    #[test]
    fn pool_and_rotation_flags_parse() {
        let cfg = parse_args(&strs(&["--backend", "127.0.0.1:1"])).unwrap();
        assert_eq!(cfg.pool_idle_per_backend, 8, "pooling defaults on");
        assert_eq!(cfg.pool_idle_timeout, Duration::from_secs(10));
        assert_eq!(cfg.access_log_max_bytes, 0, "rotation defaults off");
        let cfg = parse_args(&strs(&[
            "--backend",
            "127.0.0.1:1",
            "--pool-idle-per-backend",
            "0",
            "--pool-idle-timeout-ms",
            "2500",
            "--access-log-max-bytes",
            "65536",
        ]))
        .unwrap();
        assert_eq!(cfg.pool_idle_per_backend, 0, "0 = pooling disabled");
        assert_eq!(cfg.pool_idle_timeout, Duration::from_millis(2500));
        assert_eq!(cfg.access_log_max_bytes, 65536);
        assert!(
            parse_args(&strs(&[
                "--backend",
                "127.0.0.1:1",
                "--pool-idle-timeout-ms",
                "0"
            ]))
            .is_err(),
            "a zero idle timeout would retire every connection at checkout"
        );
        assert!(parse_args(&strs(&[
            "--backend",
            "127.0.0.1:1",
            "--pool-idle-per-backend"
        ]))
        .is_err());
    }
}
