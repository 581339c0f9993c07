//! Serving-layer cache effectiveness: cold vs warm `/solve` throughput.
//!
//! Three configurations of the same road-chesapeake LIF-GW request
//! (budget 64, R = 4 — the `server_throughput` workload):
//!
//! * **cold** — both caches disabled (`sdp_cache_entries 0`,
//!   `response_cache_bytes 0`): every request re-runs the offline SDP
//!   and the circuit, i.e. exactly the PR-4 path;
//! * **warm** — both caches enabled and primed: every request is a
//!   response-cache hit served without touching the worker pool;
//! * **evicting** — a multi-graph working set against a response-cache
//!   budget sized (via `ResponseKey::cost`) to hold only half of it, so
//!   every pass mixes hits, misses, SDP-cache hits, and evictions.
//!
//! Before timing, the bench asserts byte-equality between cached and
//! computed bodies across all three servers — the determinism contract
//! the caches rely on — and would abort loudly on any divergence.
//!
//! Record results per `docs/BENCHMARKS.md` (`results/BENCH_PR5.json`);
//! set `CRITERION_SHIM_JSON` to capture the raw numbers. The headline
//! acceptance claim for PR 5 is warm ≥ 2× cold requests/sec.

use criterion::{criterion_group, criterion_main, Criterion};
use snc_server::{serve, wire, ResponseKey, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Requests each connection sends per bench iteration (keep-alive).
const REQUESTS_PER_CONN: usize = 4;
/// Concurrent connections per round (matches `server_throughput`'s top
/// configuration so cold numbers are comparable across ledgers).
const CONNECTIONS: usize = 8;

const SOLVE_REQUEST: &str =
    r#"{"graph": "road-chesapeake", "circuit": "lif-gw", "budget": 64, "replicas": 4, "seed": 42}"#;

/// The evicting working set: six seeded gnp graphs, same spec shape.
const WORKING_SET: usize = 6;

fn gnp_request(graph_seed: u64) -> String {
    format!(
        r#"{{"graph": {{"gnp": {{"n": 30, "p": 0.3, "seed": {graph_seed}}}}}, "circuit": "lif-gw", "budget": 64, "replicas": 4, "seed": 42}}"#
    )
}

/// The key the server builds for [`gnp_request`], derived through the
/// wire layer.
fn gnp_key(graph_seed: u64) -> ResponseKey {
    let defaults = ServerConfig::default().request_defaults();
    let workload = wire::parse_request(gnp_request(graph_seed).as_bytes(), &defaults).unwrap();
    wire::response_key(&workload)
}

fn start_server(sdp_cache_entries: usize, response_cache_bytes: usize) -> ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 4,
        sdp_cache_entries,
        response_cache_bytes,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

fn request_bytes(body: &str) -> Vec<u8> {
    format!(
        "POST /solve HTTP/1.1\r\nHost: snc\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

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

/// One connection's work: `count` keep-alive requests drawn round-robin
/// from `bodies` starting at `offset`; returns the response bodies.
fn drive_connection(
    addr: SocketAddr,
    bodies: &[Vec<u8>],
    offset: usize,
    count: usize,
) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    (0..count)
        .map(|k| {
            writer
                .write_all(&bodies[(offset + k) % bodies.len()])
                .expect("send");
            writer.flush().expect("flush");
            read_response(&mut reader)
        })
        .collect()
}

/// `CONNECTIONS` concurrent connections × `REQUESTS_PER_CONN` requests.
fn round(addr: SocketAddr, bodies: &[Vec<u8>]) -> Vec<String> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|c| scope.spawn(move || drive_connection(addr, bodies, c, REQUESTS_PER_CONN)))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    })
}

fn server_cache(c: &mut Criterion) {
    let cold = start_server(0, 0);
    let warm = start_server(128, 4 << 20);

    // Eviction server: budget holds half the working set (single shard
    // at this size), so a full rotation must evict continuously.
    let single = round(cold.addr(), &[request_bytes(SOLVE_REQUEST)]);
    let set_requests: Vec<Vec<u8>> = (0..WORKING_SET as u64)
        .map(|s| request_bytes(&gnp_request(s)))
        .collect();
    let set_reference = round(cold.addr(), &set_requests);
    let probe_cost = gnp_key(0).cost(set_reference[0].len());
    let evicting = start_server(128, probe_cost * WORKING_SET / 2);

    // ── Correctness gate before timing ─────────────────────────────
    // Cached and computed bodies must be byte-identical: cold server
    // (computed), warm server twice (computed-then-cached), and the
    // evicting server under churn.
    for body in &single {
        assert_eq!(body, &single[0], "cold server diverged across connections");
    }
    let warm_first = round(warm.addr(), &[request_bytes(SOLVE_REQUEST)]);
    let warm_second = round(warm.addr(), &[request_bytes(SOLVE_REQUEST)]);
    for body in warm_first.iter().chain(&warm_second) {
        assert_eq!(body, &single[0], "cached body diverged from computed body");
    }
    let evict_bodies = round(evicting.addr(), &set_requests);
    // Responses arrive round-robin per connection; compare against the
    // cold server's bodies for the same rotation.
    assert_eq!(evict_bodies.len(), set_reference.len());
    for (got, want) in evict_bodies.iter().zip(&set_reference) {
        assert_eq!(
            got, want,
            "evicting-server body diverged from computed body"
        );
    }

    // ── Timing ─────────────────────────────────────────────────────
    let mut group = c.benchmark_group("server_cache_road_chesapeake");
    let one = [request_bytes(SOLVE_REQUEST)];
    group.bench_function("cold_b64_conns8", |b| {
        b.iter(|| round(cold.addr(), &one));
    });
    group.bench_function("warm_b64_conns8", |b| {
        b.iter(|| round(warm.addr(), &one));
    });
    group.bench_function("evicting_multigraph_conns8", |b| {
        b.iter(|| round(evicting.addr(), &set_requests));
    });
    group.finish();

    cold.shutdown();
    warm.shutdown();
    evicting.shutdown();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5));
    targets = server_cache
);
criterion_main!(benches);
