//! Serving-layer throughput: requests/sec through the full HTTP → queue
//! → WorkerPool → `snc_maxcut::solve` path.
//!
//! One server (4 solver threads, default queue) is started once outside
//! timing; each bench iteration opens C concurrent keep-alive
//! connections and sends `REQUESTS_PER_CONN` identical seeded
//! road-chesapeake LIF-GW solves per connection, waiting for every
//! response. Requests/sec = `C · REQUESTS_PER_CONN / iter_time`. The
//! solve (budget 64, SDP re-solved per request) dominates; HTTP framing
//! is noise — which is the point: the serving layer should add
//! negligible overhead over the batched samplers it schedules.
//!
//! Before timing, the bench asserts the determinism contract end to
//! end: every response body across connections must be byte-identical.
//!
//! A second group (`server_warm_hit_idle200`) measures the warm
//! response-cache hit path — answered inline on the reactor loop —
//! while 200 idle keep-alive connections sit parked on the same loop,
//! pinning the claim that idle connections are (near-)free under epoll.
//!
//! Record results per `docs/BENCHMARKS.md`; set `CRITERION_SHIM_JSON`
//! to capture the raw numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use snc_server::{serve, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Requests each connection sends per bench iteration (keep-alive).
const REQUESTS_PER_CONN: usize = 4;

const SOLVE_REQUEST: &str =
    r#"{"graph": "road-chesapeake", "circuit": "lif-gw", "budget": 64, "replicas": 4, "seed": 42}"#;

fn start_server() -> ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 4,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

/// Server for the idle-fleet topology: room in the connection budget
/// for the parked fleet plus the active clients, and an idle deadline
/// long enough that the reaper never fires mid-measurement.
fn start_fleet_server() -> ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 4,
        max_connections: 512,
        idle_timeout_ms: 600_000,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

/// Opens `count` keep-alive connections, proves each one admitted with
/// a `/healthz` round trip, then parks them idle for the caller's
/// lifetime — the reactor must keep paying attention to all of them
/// (epoll: O(ready), so for ~free) while the active connections are
/// timed.
fn idle_fleet(addr: SocketAddr, count: usize) -> Vec<TcpStream> {
    (0..count)
        .map(|_| {
            let stream = TcpStream::connect(addr).expect("fleet connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .expect("timeout");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            writer
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: snc\r\nContent-Length: 0\r\n\r\n")
                .expect("fleet probe");
            let _ = read_response(&mut reader);
            reader.into_inner()
        })
        .collect()
}

fn request_bytes() -> Vec<u8> {
    format!(
        "POST /solve HTTP/1.1\r\nHost: snc\r\nContent-Length: {}\r\n\r\n{SOLVE_REQUEST}",
        SOLVE_REQUEST.len()
    )
    .into_bytes()
}

/// Reads one keep-alive response (status line + headers + fixed-length
/// body) and returns the body.
fn read_response(reader: &mut BufReader<TcpStream>) -> String {
    let mut content_length = 0usize;
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    assert!(line.starts_with("HTTP/1.1 200"), "got {line:?}");
    loop {
        line.clear();
        reader.read_line(&mut line).expect("header line");
        let trimmed = line.trim();
        if trimmed.is_empty() {
            break;
        }
        if let Some(v) = trimmed.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("content-length");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    String::from_utf8(body).expect("utf-8 body")
}

/// One connection's work: `count` keep-alive requests, returning the
/// bodies.
fn drive_connection(addr: SocketAddr, count: usize) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let request = request_bytes();
    (0..count)
        .map(|_| {
            writer.write_all(&request).expect("send");
            writer.flush().expect("flush");
            read_response(&mut reader)
        })
        .collect()
}

/// C concurrent connections × `REQUESTS_PER_CONN` requests each; returns
/// every body for the determinism assertion.
fn round(addr: SocketAddr, connections: usize) -> Vec<String> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|_| scope.spawn(move || drive_connection(addr, REQUESTS_PER_CONN)))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    })
}

fn server_throughput(c: &mut Criterion) {
    let handle = start_server();
    let addr = handle.addr();

    // Loud correctness gate before timing: identical seeded requests on
    // concurrent connections must be byte-identical.
    let bodies = round(addr, 8);
    assert_eq!(bodies.len(), 8 * REQUESTS_PER_CONN);
    for body in &bodies {
        assert_eq!(
            body, &bodies[0],
            "response bodies diverged across connections"
        );
    }

    let mut group = c.benchmark_group("server_throughput_road_chesapeake");
    for connections in [1usize, 4, 8] {
        group.bench_function(format!("solve_b64_conns{connections}"), |b| {
            b.iter(|| round(addr, connections));
        });
    }
    group.finish();
    handle.shutdown();

    // PR 8 topology: the warm cache-hit path measured while ≥ 200 idle
    // keep-alive connections sit parked on the reactor. Hits answer
    // inline on the loop (zero thread handoff); the fleet proves idle
    // connections don't tax the hot path.
    let handle = start_fleet_server();
    let addr = handle.addr();
    let fleet = idle_fleet(addr, 200);
    assert_eq!(fleet.len(), 200);
    // Warm the response cache (and re-assert the determinism contract
    // with the fleet parked).
    let bodies = round(addr, 8);
    for body in &bodies {
        assert_eq!(
            body, &bodies[0],
            "warm bodies diverged under the idle fleet"
        );
    }
    let mut group = c.benchmark_group("server_warm_hit_idle200");
    for connections in [1usize, 8] {
        group.bench_function(format!("hit_b64_conns{connections}_idle200"), |b| {
            b.iter(|| round(addr, connections));
        });
    }
    group.finish();
    drop(fleet);
    handle.shutdown();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5));
    targets = server_throughput
);
criterion_main!(benches);
