//! Fault injection against the scale-out tier: real processes, real
//! SIGKILL, real TCP errors.
//!
//! * **Kill a backend mid-traffic** — every client request keeps
//!   succeeding with byte-identical bodies (failover replicas produce
//!   the same bytes by determinism); the router's `retried` counter
//!   moves, `failed` stays 0, and the victim is eventually demoted.
//! * **Late arrival / re-admission** — a backend that is configured but
//!   not running is demoted by probes; once its process starts, the
//!   probe hysteresis re-admits it and it starts receiving its keyspace
//!   slice again.
//! * **Whole fleet down** — requests answer a clean, fast `503`; the
//!   edge never hangs a client on a dead fleet.
//! * **Edge validation** — malformed bodies are rejected `400` at the
//!   edge without consuming a backend; wrong methods/paths mirror the
//!   backend's `405`/`404` behavior; raw framing faults get the
//!   backend's exact answer bytes.

use snc_experiments::json::{self, Json};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

mod common;
use common::{
    header_value, reserve_port, roundtrip, roundtrip_with_headers, spawn_listening, spawn_server,
    try_roundtrip, SpawnedProcess,
};

/// Distinct-fingerprint corpus: 16 cheap instances. Routing is
/// deterministic (the ring hashes backend indices), so coverage of all
/// backends by this corpus is a fixed fact, not luck — asserted where
/// needed.
fn corpus() -> Vec<String> {
    (0..16)
        .map(|i| {
            format!(
                r#"{{"graph": {{"gnp": {{"n": 18, "p": 0.35, "seed": {i}}}}}, "circuit": "lif-gw", "budget": 16, "seed": 9}}"#
            )
        })
        .collect()
}

fn spawn_router_args(backend_addrs: &[SocketAddr], extra: &[&str]) -> SpawnedProcess {
    let mut owned: Vec<String> = vec!["--addr".into(), "127.0.0.1:0".into()];
    for addr in backend_addrs {
        owned.push("--backend".into());
        owned.push(addr.to_string());
    }
    owned.extend(extra.iter().map(|s| (*s).to_string()));
    let args: Vec<&str> = owned.iter().map(String::as_str).collect();
    spawn_listening("snc-router", &args)
}

/// The router's fleet-wide pool accounting as `/healthz` reports it.
#[derive(Clone, Copy, Debug)]
struct PoolStats {
    idle: u64,
    created: u64,
    reused: u64,
    retired: u64,
    stale_retries: u64,
}

impl PoolStats {
    /// The pool's conservation invariant: every connection ever created
    /// is either still parked or has been retired — nothing leaks. Holds
    /// whenever no forward is in flight.
    fn assert_conserved(&self) {
        assert_eq!(
            self.created,
            self.retired + self.idle,
            "pool leaked a connection: {self:?}"
        );
    }
}

/// Router `/healthz` parsed: status, per-backend up/routed/errors/idle,
/// the global retried/failed tallies, and the pool block.
struct RouterHealth {
    status: String,
    up: Vec<bool>,
    routed: Vec<u64>,
    errors: Vec<u64>,
    pool_idle: Vec<u64>,
    retried: u64,
    failed: u64,
    pool: PoolStats,
}

fn router_health(router: SocketAddr) -> RouterHealth {
    let (status, body) = roundtrip(router, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).expect("healthz is JSON");
    let Some(Json::Arr(entries)) = doc.get("backends") else {
        panic!("no backends array in {body}");
    };
    let pool = doc.get("pool").expect("healthz has a pool block");
    let pool_field = |name: &str| pool.get(name).and_then(Json::as_u64).expect(name);
    RouterHealth {
        status: match doc.get("status") {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("no status: {other:?}"),
        },
        up: entries
            .iter()
            .map(|e| e.get("up").and_then(Json::as_bool).expect("up"))
            .collect(),
        routed: entries
            .iter()
            .map(|e| e.get("routed").and_then(Json::as_u64).expect("routed"))
            .collect(),
        errors: entries
            .iter()
            .map(|e| e.get("errors").and_then(Json::as_u64).expect("errors"))
            .collect(),
        pool_idle: entries
            .iter()
            .map(|e| {
                e.get("pool_idle")
                    .and_then(Json::as_u64)
                    .expect("pool_idle")
            })
            .collect(),
        retried: doc.get("retried").and_then(Json::as_u64).expect("retried"),
        failed: doc.get("failed").and_then(Json::as_u64).expect("failed"),
        pool: PoolStats {
            idle: pool_field("idle"),
            created: pool_field("created"),
            reused: pool_field("reused"),
            retired: pool_field("retired"),
            stale_retries: pool_field("stale_retries"),
        },
    }
}

/// Polls until `predicate` holds on the router's health or panics at
/// the deadline.
fn wait_for_health(
    router: SocketAddr,
    what: &str,
    deadline: Duration,
    predicate: impl Fn(&RouterHealth) -> bool,
) -> RouterHealth {
    let end = Instant::now() + deadline;
    loop {
        let health = router_health(router);
        if predicate(&health) {
            return health;
        }
        assert!(
            Instant::now() < end,
            "timed out waiting for {what}: up={:?} status={}",
            health.up,
            health.status
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn killing_one_backend_loses_no_client_requests() {
    let mut backends: Vec<SpawnedProcess> =
        (0..3).map(|_| spawn_server(&["--threads", "2"])).collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(SpawnedProcess::addr).collect();
    // Probes slow enough that the kill window is traffic-driven; two
    // retries cover the single dead replica with margin.
    let router = spawn_router_args(
        &addrs,
        &[
            "--probe-interval-ms",
            "200",
            "--probe-timeout-ms",
            "500",
            "--down-after",
            "2",
            "--up-after",
            "2",
            "--retries",
            "2",
        ],
    );
    let corpus = corpus();

    // Warm pass: every fingerprint answered, bodies recorded; determines
    // (deterministically) which backend owns the most keys.
    let mut expected = Vec::new();
    for request in &corpus {
        let (status, body) = roundtrip(router.addr(), "POST", "/solve", request);
        assert_eq!(status, 200, "{body}");
        expected.push(body);
    }
    let warm = router_health(router.addr());
    assert_eq!(warm.routed.iter().sum::<u64>(), corpus.len() as u64);
    let victim = (0..3).max_by_key(|&i| warm.routed[i]).unwrap();
    assert!(
        warm.routed[victim] > 0,
        "victim must own live keys for the kill to matter: {:?}",
        warm.routed
    );

    // SIGKILL mid-suite: no drain, no goodbye.
    backends[victim].kill();

    // Every request still succeeds, byte-identical — the victim's keys
    // fail over to live replicas which (determinism) answer the same
    // bytes. Zero client-visible errors.
    for (request, want) in corpus.iter().zip(&expected) {
        let (status, body) = roundtrip(router.addr(), "POST", "/solve", request);
        assert_eq!(
            status, 200,
            "client saw a failure after a backend died: {body}"
        );
        assert_eq!(&body, want, "failover changed bytes for {request}");
    }
    let after = router_health(router.addr());
    assert_eq!(after.failed, 0, "router failed client requests");
    assert!(
        after.retried > warm.retried,
        "victim owned keys, so at least one request must have retried"
    );
    // The traffic errors (and/or probes) demote the victim; survivors
    // stay up and the fleet reports degraded.
    let settled = wait_for_health(
        router.addr(),
        "victim demotion",
        Duration::from_secs(10),
        |h| !h.up[victim],
    );
    assert_eq!(settled.status, "degraded");
    for (i, up) in settled.up.iter().enumerate() {
        assert_eq!(*up, i != victim, "survivor {i} wrongly demoted");
    }

    // Steady state after demotion: no more retries needed, still 0
    // failures, still byte-exact.
    let before_retries = router_health(router.addr()).retried;
    for (request, want) in corpus.iter().zip(&expected) {
        let (status, body) = roundtrip(router.addr(), "POST", "/solve", request);
        assert_eq!(status, 200, "{body}");
        assert_eq!(&body, want);
    }
    let steady = router_health(router.addr());
    assert_eq!(steady.failed, 0);
    assert_eq!(
        steady.retried, before_retries,
        "demoted backend still receiving first-attempt traffic"
    );
}

#[test]
fn late_backend_is_demoted_then_readmitted_by_probe_hysteresis() {
    let live: Vec<SpawnedProcess> = (0..2).map(|_| spawn_server(&["--threads", "2"])).collect();
    // The third backend is configured before it exists: lease a port
    // from the kernel (never connected to ⇒ no TIME_WAIT ⇒ the later
    // bind cannot fail) and start the process only mid-test.
    let late_addr = reserve_port();
    let addrs = vec![live[0].addr(), live[1].addr(), late_addr];
    let router = spawn_router_args(
        &addrs,
        &[
            "--probe-interval-ms",
            "100",
            "--probe-timeout-ms",
            "300",
            "--down-after",
            "1",
            "--up-after",
            "2",
            "--retries",
            "2",
        ],
    );
    // Backends start optimistically up; the first failed probe demotes
    // the not-yet-started one.
    wait_for_health(
        router.addr(),
        "late backend demotion",
        Duration::from_secs(10),
        |h| !h.up[2] && h.up[0] && h.up[1],
    );

    // Traffic while degraded: everything lands on the two live
    // backends, zero failures.
    let corpus = corpus();
    let mut expected = Vec::new();
    for request in &corpus {
        let (status, body) = roundtrip(router.addr(), "POST", "/solve", request);
        assert_eq!(status, 200, "{body}");
        expected.push(body);
    }
    let degraded = router_health(router.addr());
    assert_eq!(degraded.status, "degraded");
    assert_eq!(degraded.failed, 0);
    assert_eq!(degraded.routed[2], 0, "down backend received traffic");

    // The backend finally starts, on exactly the reserved address.
    let late_flag = late_addr.to_string();
    let _late = spawn_listening("snc-server", &["--addr", &late_flag, "--threads", "2"]);
    let readmitted = wait_for_health(
        router.addr(),
        "late backend re-admission",
        Duration::from_secs(15),
        |h| h.up[2],
    );
    assert_eq!(readmitted.status, "ok");

    // Its keyspace slice comes home: replaying the corpus now routes
    // part of it (deterministically — 16 keys over 3 backends always
    // cover all three) to the re-admitted backend, bytes unchanged.
    for (request, want) in corpus.iter().zip(&expected) {
        let (status, body) = roundtrip(router.addr(), "POST", "/solve", request);
        assert_eq!(status, 200, "{body}");
        assert_eq!(&body, want, "re-admission changed bytes");
    }
    let settled = router_health(router.addr());
    assert!(
        settled.routed[2] > 0,
        "re-admitted backend never received its keys back: {:?}",
        settled.routed
    );
    assert_eq!(settled.failed, 0);
}

#[test]
fn whole_fleet_down_answers_clean_fast_503() {
    let mut backend = spawn_server(&["--threads", "2"]);
    let router = spawn_router_args(
        &[backend.addr()],
        &[
            "--probe-interval-ms",
            "100",
            "--probe-timeout-ms",
            "300",
            "--down-after",
            "1",
            "--up-after",
            "2",
            "--connect-timeout-ms",
            "500",
        ],
    );
    let request = &corpus()[0];
    let (status, _) = roundtrip(router.addr(), "POST", "/solve", request);
    assert_eq!(status, 200);

    backend.kill();
    // Window 1 — backend dead but not yet demoted: the connect fails
    // fast, the router answers 503 (it has nothing to retry onto).
    let started = Instant::now();
    let (status, body) = roundtrip(router.addr(), "POST", "/solve", request);
    assert_eq!(status, 503, "pre-demotion: {body}");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "503 took {:?} — the edge must fail fast, not hang",
        started.elapsed()
    );

    // Window 2 — after demotion: immediate 503 without touching TCP.
    let down = wait_for_health(router.addr(), "fleet down", Duration::from_secs(10), |h| {
        !h.up[0]
    });
    assert_eq!(down.status, "down");
    let started = Instant::now();
    let (status, body) = roundtrip(router.addr(), "POST", "/solve", request);
    assert_eq!(status, 503, "post-demotion: {body}");
    assert!(started.elapsed() < Duration::from_secs(2));
    let doc = json::parse(&body).expect("503 body is JSON");
    assert!(
        doc.get("error").is_some(),
        "503 carries an error object: {body}"
    );
    assert!(router_health(router.addr()).failed >= 2);

    // Async polling a job on a dead fleet is equally clean.
    let (status, _) = roundtrip(router.addr(), "GET", "/jobs/0", "");
    assert_eq!(status, 503, "polling a job on a down backend must 503");
}

/// Request-id correlation across tiers under fault injection: ids the
/// client mints are echoed by the edge, propagated to the serving
/// backend's access log, and — after a SIGKILL mid-traffic — the
/// retried request carries the *same* id into the surviving backend's
/// log, so one grep strings the whole failover story together.
#[test]
fn request_ids_correlate_across_tiers_and_survive_failover() {
    let pid = std::process::id();
    let dir = std::env::temp_dir();
    let backend_logs: Vec<String> = (0..3)
        .map(|i| {
            dir.join(format!("snc-faults-backend-{pid}-{i}.log"))
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    let router_log = dir
        .join(format!("snc-faults-router-{pid}.log"))
        .to_string_lossy()
        .into_owned();
    let mut backends: Vec<SpawnedProcess> = backend_logs
        .iter()
        .map(|path| spawn_server(&["--threads", "2", "--access-log", path]))
        .collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(SpawnedProcess::addr).collect();
    let router = spawn_router_args(
        &addrs,
        &[
            "--probe-interval-ms",
            "200",
            "--probe-timeout-ms",
            "500",
            "--down-after",
            "2",
            "--up-after",
            "2",
            "--retries",
            "2",
            "--access-log",
            &router_log,
        ],
    );
    let corpus = corpus();
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();

    // Warm pass with client-minted ids: the echo must be verbatim.
    let warm_ids: Vec<String> = (0..corpus.len())
        .map(|i| format!("corr-warm-{pid}-{i}"))
        .collect();
    for (request, id) in corpus.iter().zip(&warm_ids) {
        let (status, head, _body) = roundtrip_with_headers(
            router.addr(),
            "POST",
            "/solve",
            &[("x-snc-request-id", id)],
            request,
        )
        .expect("warm round-trip");
        assert_eq!(status, 200);
        assert_eq!(
            header_value(&head, "x-snc-request-id").as_deref(),
            Some(id.as_str()),
            "edge must echo the client's id"
        );
    }
    // Every id is in the router log and exactly one backend log (the
    // id rode the proxied request to the one backend that served it).
    // Match the full `id=… ` token — bare substring search would let
    // `…-1` hide inside `…-10`.
    let token = |id: &str| format!("id={id} ");
    let router_text = read(&router_log);
    let warm_texts: Vec<String> = backend_logs.iter().map(|p| read(p)).collect();
    for id in &warm_ids {
        assert!(
            router_text.contains(&token(id)),
            "id {id} missing from the router access log"
        );
        let holders = warm_texts.iter().filter(|t| t.contains(&token(id))).count();
        assert_eq!(holders, 1, "id {id} must appear in exactly one backend log");
    }

    // Kill the busiest backend; remember which requests it had served.
    let warm = router_health(router.addr());
    let victim = (0..3).max_by_key(|&i| warm.routed[i]).unwrap();
    let victim_requests: Vec<usize> = (0..corpus.len())
        .filter(|&i| warm_texts[victim].contains(&token(&warm_ids[i])))
        .collect();
    assert!(
        !victim_requests.is_empty(),
        "victim served nothing: {:?}",
        warm.routed
    );
    backends[victim].kill();

    // Replay with fresh ids. For requests the victim owned, attempt 1
    // dies on TCP and the retry carries the SAME id to a survivor.
    let retry_ids: Vec<String> = (0..corpus.len())
        .map(|i| format!("corr-retry-{pid}-{i}"))
        .collect();
    for (request, id) in corpus.iter().zip(&retry_ids) {
        let (status, head, _body) = roundtrip_with_headers(
            router.addr(),
            "POST",
            "/solve",
            &[("x-snc-request-id", id)],
            request,
        )
        .expect("post-kill round-trip");
        assert_eq!(status, 200, "client saw a failure after the kill");
        assert_eq!(
            header_value(&head, "x-snc-request-id").as_deref(),
            Some(id.as_str()),
            "failover must not change the echoed id"
        );
    }
    let after_texts: Vec<String> = backend_logs.iter().map(|p| read(p)).collect();
    for &i in &victim_requests {
        let id = &retry_ids[i];
        let holders: Vec<usize> = (0..3)
            .filter(|&b| after_texts[b].contains(&token(id)))
            .collect();
        assert!(
            !holders.contains(&victim),
            "id {id} in the dead victim's log — the kill did not take"
        );
        assert_eq!(
            holders.len(),
            1,
            "retried id {id} must land in exactly one survivor's log, found {holders:?}"
        );
    }

    drop(router);
    for path in backend_logs.iter().chain([&router_log]) {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn edge_validates_and_mirrors_backend_status_codes() {
    let backend = spawn_server(&["--threads", "2"]);
    let router = spawn_router_args(&[backend.addr()], &["--probe-interval-ms", "100"]);

    // Malformed JSON: rejected at the edge (the backend's counter does
    // not move — the request never crossed the router).
    let (_, before_body) = roundtrip(backend.addr(), "GET", "/healthz", "");
    let before = json::parse(&before_body).unwrap();
    let before_solves = before.get("solve_requests").and_then(Json::as_u64).unwrap();
    for bad in [
        "{not json",
        r#"{"graph": "no-such-dataset-ever", "budget": 16, "seed": 1}"#,
        r#"{"budget": 16, "seed": 1}"#,
    ] {
        let (status, body) = roundtrip(router.addr(), "POST", "/solve", bad);
        assert_eq!(status, 400, "edge accepted {bad}: {body}");
    }
    let (_, after_body) = roundtrip(backend.addr(), "GET", "/healthz", "");
    let after = json::parse(&after_body).unwrap();
    assert_eq!(
        after.get("solve_requests").and_then(Json::as_u64).unwrap(),
        before_solves,
        "rejected requests must not reach a backend"
    );

    // Path/method mirroring.
    let (status, _) = roundtrip(router.addr(), "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _) = roundtrip(router.addr(), "DELETE", "/solve", "");
    assert_eq!(status, 405);
    let (status, _) = roundtrip(router.addr(), "GET", "/jobs/not-a-number", "");
    assert_eq!(status, 400);
    let (status, _) = roundtrip(router.addr(), "GET", "/", "");
    assert_eq!(status, 200);

    // A request that *is* valid still flows.
    let (status, _) = roundtrip(router.addr(), "POST", "/solve", &corpus()[0]);
    assert_eq!(status, 200);
    // try_roundtrip is the fault-suite client; exercise its error path
    // against a never-listening port so the helper itself is covered.
    let dead = reserve_port();
    assert!(try_roundtrip(dead, "GET", "/healthz", "").is_err());

    // Raw framing corpus: both tiers answer every byte sequence alike,
    // down to the reason phrase, error message and connection header.
    for (name, raw) in raw_framing_cases() {
        let direct = strip_per_request_headers(&raw_exchange(backend.addr(), &raw));
        let routed = strip_per_request_headers(&raw_exchange(router.addr(), &raw));
        assert_eq!(routed, direct, "tiers diverge on {name}");
    }
    // An EOF partway through a request closes the connection on both
    // tiers without an answer.
    for (name, raw) in [
        (
            "body shorter than its content-length",
            &b"POST /solve HTTP/1.1\r\nContent-Length: 8\r\n\r\nabc"[..],
        ),
        ("head cut mid-line", b"GET /nope HTTP/1.1\r\nHos"),
        ("stray carriage return", b"\r\r\n"),
    ] {
        assert_eq!(raw_exchange(backend.addr(), raw), b"", "backend on {name}");
        assert_eq!(raw_exchange(router.addr(), raw), b"", "router on {name}");
    }
}

/// Wire-level inputs the edge and the backend must answer identically:
/// request-line and header faults, limits, framing variants, and EOF
/// at a request boundary.
fn raw_framing_cases() -> Vec<(&'static str, Vec<u8>)> {
    let solve = &corpus()[0];
    let flood = vec![b'A'; snc_server::http::MAX_HEAD_BYTES + 1024];
    let mut big_header = b"GET /nope HTTP/1.1\r\nX-Big: ".to_vec();
    big_header.extend(std::iter::repeat_n(b'x', snc_server::http::MAX_HEAD_BYTES));
    big_header.extend_from_slice(b"\r\n\r\n");
    vec![
        ("malformed request line", b"BOGUS\r\n\r\n".to_vec()),
        ("HTTP/2", b"GET /nope HTTP/2\r\n\r\n".to_vec()),
        (
            "oversized content-length",
            b"POST /solve HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n".to_vec(),
        ),
        (
            "chunked",
            b"POST /solve HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
        ),
        (
            "bare-newline framing",
            format!(
                "POST /solve HTTP/1.1\nHost: bare\nContent-Length: {}\n\n{solve}",
                solve.len()
            )
            .into_bytes(),
        ),
        ("query and HTTP/1.0", b"GET /nope?verbose=1 HTTP/1.0\r\n\r\n".to_vec()),
        (
            "HTTP/1.0 keep-alive",
            b"GET /nope HTTP/1.0\r\nConnection: keep-alive\r\n\r\n".to_vec(),
        ),
        ("newline-free flood", flood),
        ("oversized header line", big_header),
        (
            "header without a colon",
            b"GET /nope HTTP/1.1\r\nno colon here\r\n\r\n".to_vec(),
        ),
        (
            "bad content-length",
            b"POST /solve HTTP/1.1\r\nContent-Length: twelve\r\n\r\n".to_vec(),
        ),
        (
            "expect 100-continue",
            format!(
                "POST /solve HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: {}\r\n\r\n{solve}",
                solve.len()
            )
            .into_bytes(),
        ),
        (
            "pipelined pair",
            format!(
                "POST /solve HTTP/1.1\r\nContent-Length: {}\r\n\r\n{solve}GET /nope HTTP/1.1\r\n\r\n",
                solve.len()
            )
            .into_bytes(),
        ),
        ("blank request line", b"\r\n\r\n".to_vec()),
        (
            "EOF at a line boundary",
            b"GET /nope HTTP/1.1\r\nHost: x\r\n".to_vec(),
        ),
    ]
}

/// Sends `raw`, half-closes the write side, and returns every byte the
/// peer sent back before closing (a reset after a complete answer keeps
/// what arrived).
fn raw_exchange(addr: SocketAddr, raw: &[u8]) -> Vec<u8> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(raw).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut answer = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => answer.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                panic!("no EOF within the read timeout: {answer:?}")
            }
            Err(_) => break,
        }
    }
    answer
}

/// The answer bytes without the two headers that differ per request
/// (`x-snc-elapsed-us`, `x-snc-request-id`). Bodies are single-line
/// JSON, so dropping whole header lines cannot touch them.
fn strip_per_request_headers(answer: &[u8]) -> String {
    String::from_utf8_lossy(answer)
        .split_inclusive("\r\n")
        .filter(|line| {
            !line.starts_with("x-snc-elapsed-us:") && !line.starts_with("x-snc-request-id:")
        })
        .collect()
}

/// A gnp whose graph comes out edgeless is valid as a spec: the edge
/// shards it on its spec key without generating the graph, so only its
/// backend can refuse it. The client sees exactly the direct answer.
#[test]
fn edgeless_gnp_is_relayed_and_refused_by_its_backend() {
    let backend = spawn_server(&["--threads", "2"]);
    let router = spawn_router_args(&[backend.addr()], &["--probe-interval-ms", "100"]);
    let solves = || {
        let (_, body) = roundtrip(backend.addr(), "GET", "/healthz", "");
        let doc = json::parse(&body).unwrap();
        doc.get("solve_requests").and_then(Json::as_u64).unwrap()
    };
    let edgeless = r#"{"graph": {"gnp": {"n": 1, "p": 0.5, "seed": 3}}, "budget": 16, "seed": 1}"#;
    let direct = roundtrip(backend.addr(), "POST", "/solve", edgeless);
    assert_eq!(direct.0, 400, "{}", direct.1);
    let before = solves();
    let routed = roundtrip(router.addr(), "POST", "/solve", edgeless);
    assert_eq!(
        routed, direct,
        "the routed refusal must be the backend's own"
    );
    assert_eq!(solves(), before + 1, "the request crossed the edge");
}

/// The stale-connection rule end-to-end against a *real* backend idle
/// reaper: the backend closes a parked pooled connection, and the next
/// request rides the one-fresh-retry path — invisibly. No client error,
/// no health-machine observation, no failover; only `stale_retries`
/// moves. Pool gauge accounting is asserted exactly throughout.
#[test]
fn pool_survives_backend_idle_reap_via_stale_retry() {
    // Backend reaps idle connections aggressively; the router parks for
    // much longer, so the backend always wins the race.
    let backend = spawn_server(&["--threads", "2", "--idle-timeout-ms", "400"]);
    let router = spawn_router_args(
        &[backend.addr()],
        &[
            "--probe-interval-ms",
            "200",
            "--probe-timeout-ms",
            "500",
            "--down-after",
            "2",
            "--up-after",
            "2",
            "--pool-idle-timeout-ms",
            "60000",
        ],
    );
    let request = &corpus()[0];

    // Three sequential requests share one pooled connection.
    let (status, want) = roundtrip(router.addr(), "POST", "/solve", request);
    assert_eq!(status, 200, "{want}");
    for _ in 0..2 {
        let (status, body) = roundtrip(router.addr(), "POST", "/solve", request);
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, want);
    }
    let warm = router_health(router.addr());
    assert_eq!(
        warm.pool.created, 1,
        "one backend connection serves all three"
    );
    assert_eq!(warm.pool.reused, 2);
    assert_eq!(warm.pool.idle, 1);
    assert_eq!(warm.pool_idle, vec![1]);
    assert_eq!(warm.pool.retired, 0);
    assert_eq!(warm.pool.stale_retries, 0);
    warm.pool.assert_conserved();

    // Let the backend's reaper close the parked connection (plain FIN —
    // the connection is between requests, so no 408 is sent).
    std::thread::sleep(Duration::from_millis(1200));

    // The next request reuses the dead socket, hits a transport error,
    // and retries once on a fresh connection — same backend, same bytes.
    let (status, body) = roundtrip(router.addr(), "POST", "/solve", request);
    assert_eq!(status, 200, "stale retry must be invisible to the client");
    assert_eq!(body, want, "stale retry changed bytes");
    let after = router_health(router.addr());
    assert_eq!(after.pool.stale_retries, 1, "exactly one stale retry fired");
    assert_eq!(after.failed, 0);
    assert_eq!(
        after.retried, warm.retried,
        "stale retry is not a failover retry"
    );
    assert_eq!(
        after.errors,
        vec![0],
        "stale retry must not feed the health machine"
    );
    assert!(after.up[0], "backend must stay up");
    assert_eq!(after.pool.created, 2, "original + the fresh replacement");
    assert_eq!(after.pool.reused, 3, "the doomed checkout still counts");
    assert_eq!(after.pool.retired, 1, "the reaped connection is retired");
    assert_eq!(after.pool.idle, 1, "the replacement is parked again");
    after.pool.assert_conserved();
}

/// The PR 7 kill guarantee holds with pooling on: SIGKILL a backend
/// mid-traffic and every client request still succeeds byte-identically
/// — parked connections to the corpse are absorbed by stale retries and
/// failover, and demotion drains its idle stack.
#[test]
fn pool_keeps_zero_client_failures_across_sigkill() {
    let mut backends: Vec<SpawnedProcess> =
        (0..3).map(|_| spawn_server(&["--threads", "2"])).collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(SpawnedProcess::addr).collect();
    let router = spawn_router_args(
        &addrs,
        &[
            "--probe-interval-ms",
            "200",
            "--probe-timeout-ms",
            "500",
            "--down-after",
            "2",
            "--up-after",
            "2",
            "--retries",
            "2",
        ],
    );
    let corpus = corpus();
    let mut expected = Vec::new();
    for request in &corpus {
        let (status, body) = roundtrip(router.addr(), "POST", "/solve", request);
        assert_eq!(status, 200, "{body}");
        expected.push(body);
    }
    let warm = router_health(router.addr());
    assert!(
        warm.pool.reused > 0,
        "warm pass must reuse pooled connections"
    );
    assert_eq!(warm.pool.stale_retries, 0);
    warm.pool.assert_conserved();
    let victim = (0..3).max_by_key(|&i| warm.routed[i]).unwrap();
    assert!(
        warm.pool_idle[victim] > 0,
        "victim must have parked connections"
    );

    backends[victim].kill();

    // Replay: the first victim-keyed request reuses a dead parked
    // connection (stale retry → fresh connect refused → failover); all
    // requests still answer 200 with identical bytes.
    for (request, want) in corpus.iter().zip(&expected) {
        let (status, body) = roundtrip(router.addr(), "POST", "/solve", request);
        assert_eq!(status, 200, "client saw a failure after the kill: {body}");
        assert_eq!(&body, want, "failover changed bytes for {request}");
    }
    let after = router_health(router.addr());
    assert_eq!(
        after.failed, 0,
        "pooling must not surface backend death to clients"
    );
    assert!(
        after.pool.stale_retries >= 1,
        "the victim's parked connection must have triggered a stale retry"
    );
    assert!(
        after.retried > warm.retried,
        "victim-owned keys must have failed over"
    );

    // Demotion (traffic- or probe-driven) drains the victim's stack.
    wait_for_health(
        router.addr(),
        "victim demotion",
        Duration::from_secs(10),
        |h| !h.up[victim],
    );
    let settled = router_health(router.addr());
    assert_eq!(
        settled.pool_idle[victim], 0,
        "demotion must drain the victim's pooled connections"
    );
    settled.pool.assert_conserved();

    // Steady state: surviving backends keep reusing their connections.
    let before = router_health(router.addr()).pool.reused;
    for (request, want) in corpus.iter().zip(&expected) {
        let (status, body) = roundtrip(router.addr(), "POST", "/solve", request);
        assert_eq!(status, 200, "{body}");
        assert_eq!(&body, want);
    }
    let steady = router_health(router.addr());
    assert!(steady.pool.reused > before, "survivors must keep reusing");
    assert_eq!(steady.failed, 0);
    steady.pool.assert_conserved();
}
