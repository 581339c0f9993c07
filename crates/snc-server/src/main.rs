//! The `snc-server` binary: bind, print the address, serve until killed.
//!
//! ```text
//! snc-server [--addr HOST:PORT] [--threads N] [--replicas N]
//!            [--queue-depth N] [--store-capacity N]
//!            [--sdp-cache-entries N] [--response-cache-bytes N]
//!            [--max-connections N] [--idle-timeout-ms N]
//!            [--access-log PATH] [--access-log-max-bytes N]
//! ```
//!
//! `--threads`, `--replicas`, `--queue-depth`, `--store-capacity`,
//! `--max-connections`, and `--idle-timeout-ms` must be ≥ 1 (0 is
//! rejected with an error, matching the experiment binaries). The cache
//! flags accept 0, which *disables* the cache in question
//! (`--sdp-cache-entries 0 --response-cache-bytes 0` reproduces the
//! uncached PR-4 request path bit for bit). `--max-connections` is the
//! reactor's connection budget (overflow accepts are shed with a fast
//! 503); `--idle-timeout-ms` is the per-request-cycle idle deadline the
//! reaper enforces. `--addr` with port 0 binds an ephemeral port; the
//! actual address is printed on startup. `--access-log PATH` appends
//! one structured line per routed request (request id, route, family,
//! cache outcome, status, elapsed µs) to PATH; omitted means no log.
//! `--access-log-max-bytes N` rotates the log (rename to `PATH.1`,
//! reopen) whenever it would grow past N bytes; 0 (the default)
//! disables rotation.

use snc_server::cli::{non_negative, positive};
use snc_server::{serve, ServerConfig};

fn parse_args(args: &[String]) -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                cfg.addr = it.next().ok_or("--addr needs a HOST:PORT value")?.clone();
            }
            "--threads" => cfg.threads = positive(it.next(), "--threads")?,
            "--replicas" => cfg.replicas = positive(it.next(), "--replicas")?,
            "--queue-depth" => cfg.queue_depth = positive(it.next(), "--queue-depth")?,
            "--store-capacity" => {
                cfg.store_capacity = positive(it.next(), "--store-capacity")?;
            }
            "--sdp-cache-entries" => {
                cfg.sdp_cache_entries = non_negative(it.next(), "--sdp-cache-entries")?;
            }
            "--response-cache-bytes" => {
                cfg.response_cache_bytes = non_negative(it.next(), "--response-cache-bytes")?;
            }
            "--max-connections" => {
                cfg.max_connections = positive(it.next(), "--max-connections")?;
            }
            "--idle-timeout-ms" => {
                cfg.idle_timeout_ms = positive(it.next(), "--idle-timeout-ms")?;
            }
            "--access-log" => {
                cfg.access_log = Some(it.next().ok_or("--access-log needs a PATH value")?.clone());
            }
            "--access-log-max-bytes" => {
                cfg.access_log_max_bytes = non_negative(it.next(), "--access-log-max-bytes")?;
            }
            other => {
                return Err(format!(
                    "unknown flag `{other}`\nusage: snc-server [--addr HOST:PORT] [--threads N] \
                     [--replicas N] [--queue-depth N] [--store-capacity N] \
                     [--sdp-cache-entries N] [--response-cache-bytes N] \
                     [--max-connections N] [--idle-timeout-ms N] [--access-log PATH] \
                     [--access-log-max-bytes N]"
                ));
            }
        }
    }
    Ok(cfg)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let (threads, replicas, queue_depth) = (cfg.threads, cfg.replicas, cfg.queue_depth);
    let handle = match serve(cfg) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("failed to bind: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "snc-server listening on {} ({threads} solver threads, replica width {replicas}, queue depth {queue_depth})",
        handle.addr()
    );
    handle.join();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_and_overrides() {
        let cfg = parse_args(&[]).unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:7878");
        assert_eq!(cfg.sdp_cache_entries, 128);
        assert_eq!(cfg.response_cache_bytes, 4 << 20);
        assert_eq!(cfg.max_connections, 1024);
        assert_eq!(cfg.idle_timeout_ms, 30_000);
        let cfg = parse_args(&strs(&[
            "--addr",
            "0.0.0.0:9000",
            "--threads",
            "2",
            "--replicas",
            "8",
            "--queue-depth",
            "16",
            "--store-capacity",
            "32",
            "--sdp-cache-entries",
            "7",
            "--response-cache-bytes",
            "65536",
            "--max-connections",
            "9",
            "--idle-timeout-ms",
            "2500",
        ]))
        .unwrap();
        assert_eq!(cfg.addr, "0.0.0.0:9000");
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.replicas, 8);
        assert_eq!(cfg.queue_depth, 16);
        assert_eq!(cfg.store_capacity, 32);
        assert_eq!(cfg.sdp_cache_entries, 7);
        assert_eq!(cfg.response_cache_bytes, 65536);
        assert_eq!(cfg.max_connections, 9);
        assert_eq!(cfg.idle_timeout_ms, 2500);
    }

    #[test]
    fn rejects_zero_and_unknown_flags() {
        for flag in [
            "--threads",
            "--replicas",
            "--queue-depth",
            "--store-capacity",
            "--max-connections",
            "--idle-timeout-ms",
        ] {
            let err = parse_args(&strs(&[flag, "0"])).unwrap_err();
            assert!(err.contains("must be ≥ 1"), "{flag}: {err}");
        }
        assert!(parse_args(&strs(&["--bogus"])).is_err());
        assert!(parse_args(&strs(&["--addr"])).is_err());
    }

    #[test]
    fn access_log_flag_parses() {
        let cfg = parse_args(&[]).unwrap();
        assert_eq!(cfg.access_log, None);
        assert_eq!(cfg.access_log_max_bytes, 0, "rotation defaults off");
        let cfg = parse_args(&strs(&["--access-log", "/tmp/snc-access.log"])).unwrap();
        assert_eq!(cfg.access_log.as_deref(), Some("/tmp/snc-access.log"));
        assert!(parse_args(&strs(&["--access-log"])).is_err());
        let cfg = parse_args(&strs(&[
            "--access-log",
            "/tmp/snc-access.log",
            "--access-log-max-bytes",
            "65536",
        ]))
        .unwrap();
        assert_eq!(cfg.access_log_max_bytes, 65536);
        assert!(parse_args(&strs(&["--access-log-max-bytes", "x"])).is_err());
        assert!(parse_args(&strs(&["--access-log-max-bytes"])).is_err());
    }

    #[test]
    fn cache_flags_accept_zero_as_disabled() {
        let cfg = parse_args(&strs(&[
            "--sdp-cache-entries",
            "0",
            "--response-cache-bytes",
            "0",
        ]))
        .unwrap();
        assert_eq!(cfg.sdp_cache_entries, 0);
        assert_eq!(cfg.response_cache_bytes, 0);
        for flag in ["--sdp-cache-entries", "--response-cache-bytes"] {
            assert!(parse_args(&strs(&[flag, "-1"])).is_err(), "{flag}");
            assert!(parse_args(&strs(&[flag, "x"])).is_err(), "{flag}");
            assert!(parse_args(&strs(&[flag])).is_err(), "{flag}");
        }
    }
}
