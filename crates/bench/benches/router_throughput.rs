//! Scale-out tier throughput: warm requests/sec through a real
//! `snc-router` process fronting 1, 2, or 3 real `snc-server` backend
//! processes (everything over loopback TCP, every process on an
//! ephemeral port).
//!
//! A corpus of six distinct-fingerprint solves is sent once to warm
//! every backend's response cache, so the timed path is: edge parse →
//! fingerprint → ring → forward → backend cache hit → relay. That is
//! the steady state the tier is designed for — the bench measures the
//! router's added hop and its scaling as backends are added, not SDP
//! solve time.
//!
//! Before timing, the determinism contract is asserted *across
//! topologies*: the bodies served through 2- and 3-backend fleets must
//! be byte-identical to the single-backend fleet's (routing must never
//! change bytes).
//!
//! Each topology is measured twice: `pooled` (the default keep-alive
//! connection pool between router and backends) and `fresh`
//! (`--pool-idle-per-backend 0`, the PR 7 connection-per-forward
//! behavior). The byte-identity gate covers both variants — pooling
//! must never change bytes, only latency.
//!
//! The timed groups drive **persistent** client connections admitted
//! before timing starts (see [`Client`]), so they time the steady-state
//! hop and not connection admission. PR 10 numbers are not comparable
//! to the PR 7 rows, which reconnected every iteration — the cross-PR
//! claim is recomputed in `results/BENCH_PR10.json`.
//!
//! Caveat for the ledger: on a single-core container the backend
//! processes share one CPU, so adding backends cannot add parallel
//! compute; what scaling remains comes from cache-hit concurrency.
//! Record results per `docs/BENCHMARKS.md`; set `CRITERION_SHIM_JSON`
//! to capture the raw numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use snc_server::process::{spawn_listening, spawn_server, SpawnedProcess};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Distinct-fingerprint warm corpus (small solves; cache-hit after the
/// first pass).
fn corpus() -> Vec<String> {
    (0..6)
        .map(|i| {
            format!(
                r#"{{"graph": {{"gnp": {{"n": 24, "p": 0.3, "seed": {i}}}}}, "circuit": "lif-gw", "budget": 32, "replicas": 2, "seed": 42}}"#
            )
        })
        .collect()
}

fn spawn_fleet(backends: usize, extra: &[&str]) -> (Vec<SpawnedProcess>, SpawnedProcess) {
    let servers: Vec<SpawnedProcess> = (0..backends)
        .map(|_| spawn_server(&["--threads", "2"]))
        .collect();
    let mut args: Vec<String> = vec!["--addr".into(), "127.0.0.1:0".into()];
    for server in &servers {
        args.push("--backend".into());
        args.push(server.addr().to_string());
    }
    args.extend(extra.iter().map(|s| (*s).to_string()));
    let arg_refs: Vec<&str> = args.iter().map(String::as_str).collect();
    let router = spawn_listening("snc-router", &arg_refs);
    (servers, router)
}

fn request_bytes(body: &str) -> Vec<u8> {
    format!(
        "POST /solve HTTP/1.1\r\nHost: snc\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Reads one keep-alive response and returns the body.
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

/// A persistent keep-alive client connection. The timed groups reuse
/// these across iterations, which keeps the timed region to the
/// steady-state path: request → ring → forward → relay.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

fn open_client(addr: SocketAddr) -> Client {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let writer = stream.try_clone().expect("clone");
    Client {
        writer,
        reader: BufReader::new(stream),
    }
}

/// One sequential sweep of the corpus over an open connection.
fn sweep(client: &mut Client, corpus: &[String]) -> Vec<String> {
    corpus
        .iter()
        .map(|body| {
            client.writer.write_all(&request_bytes(body)).expect("send");
            client.writer.flush().expect("flush");
            read_response(&mut client.reader)
        })
        .collect()
}

/// C fresh concurrent connections × the corpus each (used for the
/// warm/byte-identity gate, where admission latency is irrelevant).
fn round(addr: SocketAddr, connections: usize, corpus: &[String]) -> Vec<Vec<String>> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|_| scope.spawn(move || sweep(&mut open_client(addr), corpus)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    })
}

fn router_throughput(c: &mut Criterion) {
    let corpus = corpus();
    let mut reference: Option<Vec<String>> = None;
    let mut group = c.benchmark_group("router_throughput_warm");
    for backends in [1usize, 2, 3] {
        // `pooled` is the default keep-alive pool; `fresh` is the
        // pool-disabled escape hatch (one connection per forward).
        for (variant, extra) in [
            ("pooled", &[][..]),
            ("fresh", &["--pool-idle-per-backend", "0"][..]),
        ] {
            let (servers, router) = spawn_fleet(backends, extra);
            let addr = router.addr();

            // Warm pass (fills every backend's response cache) doubles
            // as the determinism gate: all connections, topologies, and
            // pool variants must see byte-identical bodies per corpus
            // entry.
            let warm = round(addr, 4, &corpus);
            for per_conn in &warm {
                assert_eq!(per_conn, &warm[0], "bodies diverged across connections");
            }
            match &reference {
                None => reference = Some(warm[0].clone()),
                Some(expected) => assert_eq!(
                    &warm[0], expected,
                    "bodies diverged across topologies/variants ({backends} backends, {variant})"
                ),
            }

            // Persistent clients (see `Client`): admitted once outside
            // timing, then 8 connections × 4 corpus sweeps × 6 entries
            // = 192 warm requests per iteration.
            let mut clients: Vec<Client> = (0..8).map(|_| open_client(addr)).collect();
            for client in &mut clients {
                let got = sweep(client, &corpus);
                assert_eq!(&got, &warm[0], "persistent client diverged");
            }
            group.bench_function(
                format!("solve_warm_backends{backends}_conns8_{variant}"),
                |b| {
                    b.iter(|| {
                        std::thread::scope(|scope| {
                            for client in &mut clients {
                                let corpus = &corpus;
                                scope.spawn(move || {
                                    for _ in 0..4 {
                                        sweep(client, corpus);
                                    }
                                });
                            }
                        });
                    });
                },
            );
            drop(router);
            drop(servers);
        }
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5));
    targets = router_throughput
);
criterion_main!(benches);
