//! End-to-end integration of the fingerprint-routed scale-out tier:
//! a real `snc-router` process in front of three real `snc-server`
//! processes, all on ephemeral ports, driven over TCP.
//!
//! Pinned properties:
//!
//! * **Byte identity** — for a mixed-family corpus (unweighted MAXCUT
//!   across three circuit families, weighted MAXCUT, MAX2SAT,
//!   MAXDICUT), the body answered through the router is byte-identical
//!   to a direct solve on an unrelated reference server. The router
//!   relays, never re-renders.
//! * **Affinity** — identical requests always land on the same backend:
//!   the fingerprint keyspace is sharded, not sprayed. Verified from
//!   both sides: the router's per-backend `routed` counters and each
//!   backend's own `solve_requests`/`pid` health fields.
//! * **Async jobs** — `POST /jobs` + `GET /jobs/{id}` through the
//!   router converge to the same result object as a direct synchronous
//!   solve, with the router's re-keyed job id echoed back consistently.
//! * **Concurrency** — mixed-family traffic on many simultaneous client
//!   connections stays byte-exact.

use snc_experiments::json::{self, Json};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

mod common;
use common::corpus::ROUTER_CORPUS as CORPUS;
use common::{roundtrip, spawn_listening, spawn_server, SpawnedProcess};

/// Starts a router process over `backends`, fast probes for test speed.
fn spawn_router(backends: &[&SpawnedProcess], extra: &[&str]) -> SpawnedProcess {
    let mut owned: Vec<String> = vec![
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--probe-interval-ms".into(),
        "100".into(),
        "--probe-timeout-ms".into(),
        "500".into(),
    ];
    for backend in backends {
        owned.push("--backend".into());
        owned.push(backend.addr().to_string());
    }
    owned.extend(extra.iter().map(|s| (*s).to_string()));
    let args: Vec<&str> = owned.iter().map(String::as_str).collect();
    spawn_listening("snc-router", &args)
}

/// Router `/healthz` → per-backend `(addr, up, routed)` in fleet order.
fn router_backends(router: SocketAddr) -> Vec<(String, bool, u64)> {
    let (status, body) = roundtrip(router, "GET", "/healthz", "");
    assert_eq!(status, 200, "router healthz: {body}");
    let doc = json::parse(&body).expect("router healthz is JSON");
    let Some(Json::Arr(entries)) = doc.get("backends") else {
        panic!("router healthz has no backends array: {body}");
    };
    entries
        .iter()
        .map(|e| {
            (
                match e.get("addr") {
                    Some(Json::Str(s)) => s.clone(),
                    other => panic!("backend addr missing: {other:?}"),
                },
                e.get("up").and_then(Json::as_bool).expect("up"),
                e.get("routed").and_then(Json::as_u64).expect("routed"),
            )
        })
        .collect()
}

/// A backend's own `/healthz` → `(pid, solve_requests)`.
fn backend_stats(addr: SocketAddr) -> (u64, u64) {
    let (status, body) = roundtrip(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let doc = json::parse(&body).expect("backend healthz is JSON");
    (
        doc.get("pid").and_then(Json::as_u64).expect("pid"),
        doc.get("solve_requests")
            .and_then(Json::as_u64)
            .expect("solve_requests"),
    )
}

#[test]
fn routed_fleet_matches_direct_solves_and_pins_affinity() {
    // An unrelated reference server computes ground-truth bodies.
    let reference = spawn_server(&["--threads", "2"]);
    let backends: Vec<SpawnedProcess> =
        (0..3).map(|_| spawn_server(&["--threads", "2"])).collect();
    let fleet: Vec<&SpawnedProcess> = backends.iter().collect();
    let router = spawn_router(&fleet, &[]);

    // ---- byte identity across every workload family --------------------
    let mut expected: Vec<String> = Vec::new();
    for request in CORPUS {
        let (direct_status, direct_body) = roundtrip(reference.addr(), "POST", "/solve", request);
        assert_eq!(direct_status, 200, "reference rejected {request}: {direct_body}");
        let (routed_status, routed_body) = roundtrip(router.addr(), "POST", "/solve", request);
        assert_eq!(routed_status, 200, "router failed {request}: {routed_body}");
        assert_eq!(
            direct_body, routed_body,
            "routed body is not byte-identical for {request}"
        );
        expected.push(direct_body);
    }

    // ---- affinity: identical requests always hit one backend ------------
    let routed_before = router_backends(router.addr());
    let solves_before: Vec<(u64, u64)> =
        backends.iter().map(|b| backend_stats(b.addr())).collect();
    const REPEATS: u64 = 5;
    for _ in 0..REPEATS {
        let (status, body) = roundtrip(router.addr(), "POST", "/solve", CORPUS[0]);
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, expected[0], "affinity repeat changed bytes");
    }
    let routed_after = router_backends(router.addr());
    let deltas: Vec<u64> = routed_after
        .iter()
        .zip(&routed_before)
        .map(|(a, b)| a.2 - b.2)
        .collect();
    assert_eq!(
        deltas.iter().sum::<u64>(),
        REPEATS,
        "router routed-counter deltas {deltas:?}"
    );
    assert_eq!(
        deltas.iter().filter(|&&d| d > 0).count(),
        1,
        "identical requests spread across backends: {deltas:?}"
    );
    let home = deltas.iter().position(|&d| d == REPEATS).unwrap();
    // The router's view of who served them matches the backend's own
    // accounting and identity.
    assert_eq!(routed_after[home].0, backends[home].addr().to_string());
    let (pid, solves) = backend_stats(backends[home].addr());
    assert_eq!(pid, u64::from(backends[home].pid()), "healthz pid matches the OS pid");
    assert_eq!(
        solves - solves_before[home].1,
        REPEATS,
        "home backend's own solve_requests counter saw every repeat"
    );
    for (i, b) in backends.iter().enumerate() {
        if i != home {
            assert_eq!(
                backend_stats(b.addr()).1,
                solves_before[i].1,
                "non-home backend {i} received affinity traffic"
            );
        }
    }

    // ---- async jobs: submit + poll through the router -------------------
    let (status, ack) = roundtrip(router.addr(), "POST", "/jobs", CORPUS[1]);
    assert_eq!(status, 202, "{ack}");
    let ack = json::parse(&ack).expect("job ack is JSON");
    let routed_id = ack.get("id").and_then(Json::as_u64).expect("job id");
    let deadline = Instant::now() + Duration::from_secs(60);
    let result_body = loop {
        let (status, body) = roundtrip(router.addr(), "GET", &format!("/jobs/{routed_id}"), "");
        assert_eq!(status, 200, "{body}");
        let doc = json::parse(&body).expect("job record is JSON");
        assert_eq!(
            doc.get("id").and_then(Json::as_u64),
            Some(routed_id),
            "router must echo its own job id, not the backend-local one"
        );
        match doc.get("status") {
            Some(Json::Str(s)) if s == "done" => {
                break doc.get("result").expect("done job has a result").render();
            }
            Some(Json::Str(s)) if s == "failed" => panic!("job failed: {body}"),
            _ => {
                assert!(Instant::now() < deadline, "job never finished");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    assert_eq!(
        result_body, expected[1],
        "async result through the router differs from the direct solve"
    );

    // ---- concurrent mixed-family traffic stays byte-exact ---------------
    const CLIENTS: usize = 6;
    const ROUNDS: usize = 3;
    let router_addr = router.addr();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let expected = &expected;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Each client walks the corpus at a different phase.
                    let i = (client + round) % CORPUS.len();
                    let (status, body) = roundtrip(router_addr, "POST", "/solve", CORPUS[i]);
                    assert_eq!(status, 200, "{body}");
                    assert_eq!(body, expected[i], "concurrent request {i} changed bytes");
                }
            });
        }
    });

    // Routing never invented an error: everything above was answered.
    let (_, body) = roundtrip(router_addr, "GET", "/healthz", "");
    let doc = json::parse(&body).unwrap();
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
    assert_eq!(doc.get("status"), Some(&Json::str("ok")));
}
