//! Concurrency stress for the serving-layer response cache.
//!
//! N client threads hammer one server with an interleaved mix of three
//! graphs whose response-cache budget is sized (via the public
//! [`ResponseKey::cost`] accounting) to hold only two entries — so the
//! rotation continuously evicts. Under that churn:
//!
//! * every response must be byte-identical to its single-threaded
//!   reference body (computed on a caches-disabled server — a cache
//!   can never change bytes, only latency);
//! * the `/healthz` counters must account for every request exactly:
//!   `hits + misses == requests`, and the SDP cache must have been
//!   consulted exactly once per response-cache miss (all requests are
//!   LIF-GW);
//! * eviction must actually have happened (the budget guarantees the
//!   three entries never fit together).

use snc_server::{wire, ResponseKey, ServerConfig, ServerHandle};

mod common;
use common::roundtrip;

const CLIENTS: usize = 6;
const ROUNDS: usize = 5;
const BUDGET: u64 = 16;
const REPLICAS: usize = 2;
const SOLVE_SEED: u64 = 77;
const GNP_N: usize = 24;
const GNP_P: f64 = 0.4;
const GRAPH_SEEDS: [u64; 3] = [1, 2, 3];

fn request_body(graph_seed: u64) -> String {
    format!(
        r#"{{"graph": {{"gnp": {{"n": {GNP_N}, "p": {GNP_P}, "seed": {graph_seed}}}}}, "circuit": "lif-gw", "budget": {BUDGET}, "replicas": {REPLICAS}, "seed": {SOLVE_SEED}}}"#
    )
}

/// The exact cache key the server builds for [`request_body`], derived
/// through the wire layer, used to size a budget that provably forces
/// eviction.
fn response_key(graph_seed: u64) -> ResponseKey {
    let defaults = ServerConfig::default().request_defaults();
    let workload = wire::parse_request(request_body(graph_seed).as_bytes(), &defaults).unwrap();
    wire::response_key(&workload)
}

fn start(response_cache_bytes: usize, sdp_cache_entries: usize) -> ServerHandle {
    common::start_server(|cfg| {
        cfg.threads = 3;
        cfg.replicas = 1;
        // Deep enough that CLIENTS in-flight requests never shed: a 503
        // would break the hits+misses == requests accounting.
        cfg.queue_depth = 64;
        cfg.response_cache_bytes = response_cache_bytes;
        cfg.sdp_cache_entries = sdp_cache_entries;
    })
}

#[test]
fn interleaved_eviction_storm_stays_byte_exact_and_counted() {
    // Single-threaded reference bodies from a caches-disabled server.
    let reference_server = start(0, 0);
    let references: Vec<String> = GRAPH_SEEDS
        .iter()
        .map(|&gs| {
            let (status, body) =
                roundtrip(reference_server.addr(), "POST", "/solve", &request_body(gs));
            assert_eq!(status, 200);
            body
        })
        .collect();
    reference_server.shutdown();

    // Budget: the two cheapest entries fit, all three never do —
    // guaranteed eviction whichever order the threads interleave in.
    let mut costs: Vec<usize> = GRAPH_SEEDS
        .iter()
        .zip(&references)
        .map(|(&gs, body)| response_key(gs).cost(body.len()))
        .collect();
    costs.sort_unstable();
    let budget = (costs[0] + costs[1]).max(costs[2]);
    assert!(
        budget < costs.iter().sum::<usize>(),
        "three entries must overflow the budget"
    );
    let stress = start(budget, 64);
    let addr = stress.addr();

    // CLIENTS threads × ROUNDS passes over the 3 graphs, each thread
    // rotating from a different offset so the interleaving mixes hits,
    // misses, and evictions.
    let bodies: Vec<(usize, String)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(ROUNDS * GRAPH_SEEDS.len());
                    for round in 0..ROUNDS {
                        for step in 0..GRAPH_SEEDS.len() {
                            let which = (client + round + step) % GRAPH_SEEDS.len();
                            let (status, body) = roundtrip(
                                addr,
                                "POST",
                                "/solve",
                                &request_body(GRAPH_SEEDS[which]),
                            );
                            assert_eq!(status, 200, "client {client} round {round}");
                            out.push((which, body));
                        }
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    });

    // Deterministic hit tail: back-to-back identical requests with no
    // concurrent traffic — the first leaves the entry resident before
    // its response is written, so the second must hit.
    let (status, tail_a) = roundtrip(addr, "POST", "/solve", &request_body(GRAPH_SEEDS[0]));
    assert_eq!(status, 200);
    let (status, tail_b) = roundtrip(addr, "POST", "/solve", &request_body(GRAPH_SEEDS[0]));
    assert_eq!(status, 200);
    assert_eq!(tail_a, references[0]);
    assert_eq!(tail_b, references[0]);

    let storm_requests = (CLIENTS * ROUNDS * GRAPH_SEEDS.len()) as u64;
    let total_requests = storm_requests + 2; // + the deterministic tail
    assert_eq!(bodies.len() as u64, storm_requests);
    for (i, (which, body)) in bodies.iter().enumerate() {
        assert_eq!(
            body, &references[*which],
            "response {i} (graph {which}) diverged from its single-threaded reference"
        );
    }

    // Counter audit once traffic has quiesced.
    let (status, health) = roundtrip(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let doc = snc_experiments::json::parse(&health).expect("healthz is JSON");
    let rc = doc.get("response_cache").expect("response_cache gauge");
    let hits = rc.get("hits").unwrap().as_u64().unwrap();
    let misses = rc.get("misses").unwrap().as_u64().unwrap();
    let evictions = rc.get("evictions").unwrap().as_u64().unwrap();
    let entries = rc.get("entries").unwrap().as_u64().unwrap();
    let bytes = rc.get("bytes").unwrap().as_u64().unwrap();
    assert_eq!(
        hits + misses,
        total_requests,
        "every request consulted the cache exactly once (hits {hits}, misses {misses})"
    );
    assert!(hits >= 1, "repeats within the working set must hit sometimes");
    assert!(
        evictions >= 1,
        "the budget admits at most two of three entries, so rotation must evict"
    );
    assert!(entries <= 2, "budget bounds residency below the working set");
    assert!(bytes <= rc.get("capacity_bytes").unwrap().as_u64().unwrap());

    // All traffic is LIF-GW: the SDP cache was consulted exactly once
    // per response-cache miss, over exactly three distinct keys.
    let sdp = doc.get("sdp_cache").expect("sdp_cache gauge");
    let sdp_hits = sdp.get("hits").unwrap().as_u64().unwrap();
    let sdp_misses = sdp.get("misses").unwrap().as_u64().unwrap();
    assert_eq!(
        sdp_hits + sdp_misses,
        misses,
        "one SDP lookup per response-cache miss"
    );
    assert_eq!(sdp.get("entries").unwrap().as_u64(), Some(3));
    assert!(sdp_misses >= 3, "three distinct graphs each missed at least once");

    stress.shutdown();
}
