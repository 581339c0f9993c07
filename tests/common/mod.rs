//! Shared helpers for the TCP integration tests (`server_smoke`,
//! `cache_equivalence`, `server_cache_stress`, and the router suites):
//! one hand-rolled `std::net` HTTP client plus one way to start
//! servers, so wire framing and port allocation live in a single place.
//!
//! Every server — in-process via [`start_server`] or out-of-process via
//! the re-exported [`snc_server::process`] helpers — binds
//! `127.0.0.1:0` and reports the kernel-resolved address, so suites
//! can never race each other for a fixed port no matter how many run
//! concurrently.

// Each integration-test binary compiles its own copy of this module and
// uses a subset of it (the re-exports included).
#![allow(dead_code, unused_imports)]

pub mod corpus;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub use snc_server::process::{reserve_port, spawn_listening, spawn_server, SpawnedProcess};
use snc_server::{serve, ServerConfig, ServerHandle};

/// How long one test round-trip may take end to end before the suite
/// fails loudly instead of hanging (cold SDP solves included).
const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

/// Starts an in-process server on an ephemeral port. `configure`
/// adjusts everything else; the bind address is not adjustable — tests
/// that hard-code ports collide under `cargo test`'s parallelism.
pub fn start_server(configure: impl FnOnce(&mut ServerConfig)) -> ServerHandle {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    };
    configure(&mut cfg);
    assert_eq!(cfg.addr, "127.0.0.1:0", "tests must use ephemeral ports");
    serve(cfg).expect("bind ephemeral port")
}

/// One HTTP/1.1 round-trip: connect, send a request with
/// `Connection: close`, read to EOF, split into `(status, body)`.
/// Bounded by [`CLIENT_TIMEOUT`] so a wedged server fails the test
/// instead of hanging it.
pub fn roundtrip(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    try_roundtrip(addr, method, path, body).expect("round-trip")
}

/// [`roundtrip`] that surfaces transport errors instead of panicking —
/// the fault-injection suites race requests against dying backends and
/// need to observe the failure mode.
pub fn try_roundtrip(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let (status, _head, payload) = roundtrip_with_headers(addr, method, path, &[], body)?;
    Ok((status, payload))
}

/// One round-trip with caller-supplied extra request headers, returning
/// the response head alongside the body — the observability suites send
/// `x-snc-request-id` and assert on its echo.
pub fn roundtrip_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<(u16, String, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT)?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let mut request = format!("{method} {path} HTTP/1.1\r\nHost: snc\r\n");
    for (name, value) in headers {
        request.push_str(&format!("{name}: {value}\r\n"));
    }
    request.push_str(&format!(
        "Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    ));
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status: u16 = response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed status line in {response:?}"),
            )
        })?;
    let (head, payload) = response
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or((response.clone(), String::new()));
    Ok((status, head, payload))
}

/// Extracts one response-header value (case-insensitive name match)
/// from a head returned by [`roundtrip_with_headers`].
pub fn header_value(head: &str, name: &str) -> Option<String> {
    head.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        key.trim()
            .eq_ignore_ascii_case(name)
            .then(|| value.trim().to_string())
    })
}
