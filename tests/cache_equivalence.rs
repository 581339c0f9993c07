//! Cache-equivalence suite: the PR-5 caches may change latency, never
//! bytes.
//!
//! Two layers are pinned:
//!
//! * **`solve()` layer** — a property test over random graphs, seeds,
//!   budgets, and replica widths asserts that a cold
//!   [`snc_maxcut::solve`] and warm (miss-then-hit) passes through
//!   [`snc_maxcut::solve_with_cache`] produce identical outcomes *and*
//!   byte-identical rendered response bodies. Factor reuse must not
//!   perturb any RNG stream: the outcome comparison covers the trace,
//!   the argmax partition, and the SDP bound bit for bit.
//! * **TCP layer** — the same request served twice by a cache-enabled
//!   server (cold then warm) and once by a caches-disabled server must
//!   produce three byte-identical bodies, for both circuit families and
//!   every graph-source form; `/healthz` counters must account for
//!   every lookup. The disabled server doubles as the
//!   `--sdp-cache-entries 0 --response-cache-bytes 0` ⇒ "PR 4 behavior
//!   bit-for-bit" acceptance check.

use proptest::prelude::*;
use snc_maxcut::{solve, solve_with_cache, CircuitFamily, SdpCache, SolveSpec};
use snc_server::wire::{solve_response, NamedGraph, SolveJob};
use snc_server::ServerHandle;

mod common;
use common::roundtrip;

fn render(job: &SolveJob, outcome: &snc_maxcut::SolveOutcome) -> String {
    solve_response(job, outcome).render()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cold solve ≡ cache-miss solve ≡ cache-hit solve, down to the
    /// rendered wire bytes.
    #[test]
    fn warm_and_cold_solves_render_identical_bodies(
        n in 6usize..24,
        p_mil in 200u64..800,
        graph_seed in 0u64..1_000,
        solve_seed in 0u64..10_000,
        budget in 1u64..96,
        replicas in 1usize..6,
        lif_gw in any::<bool>(),
    ) {
        let graph = snc_graph::generators::erdos_renyi::gnp(
            n, p_mil as f64 / 1000.0, graph_seed,
        ).expect("valid gnp parameters");
        if graph.m() == 0 {
            return; // the wire layer rejects edgeless graphs
        }
        let family = if lif_gw { CircuitFamily::LifGw } else { CircuitFamily::LifTrevisan };
        let spec = SolveSpec { budget, replicas, ..SolveSpec::new(family, budget, solve_seed) };
        let named = NamedGraph::Gnp { n, p: p_mil as f64 / 1000.0, seed: graph_seed };
        let job = SolveJob {
            graph: graph.clone(),
            spec: spec.clone(),
            graph_label: named.label(),
            named: Some(named),
        };

        let cache = SdpCache::new(4);
        let cold = solve(&graph, &spec).expect("cold solve");
        let miss = solve_with_cache(&graph, &spec, Some(&cache)).expect("miss solve");
        let hit = solve_with_cache(&graph, &spec, Some(&cache)).expect("hit solve");

        for (label, warm) in [("miss", &miss), ("hit", &hit)] {
            prop_assert_eq!(&cold.trace, &warm.trace, "trace diverged on {}", label);
            prop_assert_eq!(cold.best_value, warm.best_value);
            prop_assert_eq!(&cold.best_cut, &warm.best_cut);
            prop_assert_eq!(cold.sdp_bound, warm.sdp_bound, "bound must be bit-equal");
            prop_assert_eq!(render(&job, &cold), render(&job, warm),
                "wire bytes diverged on {}", label);
        }
        let stats = cache.stats();
        if family == CircuitFamily::LifGw {
            prop_assert_eq!((stats.hits, stats.misses), (1, 1));
        } else {
            prop_assert_eq!((stats.hits, stats.misses), (0, 0), "LIF-Trevisan bypasses");
        }
    }
}

// ---------------------------------------------------------------------
// TCP layer
// ---------------------------------------------------------------------

fn start(sdp_cache_entries: usize, response_cache_bytes: usize) -> ServerHandle {
    common::start_server(|cfg| {
        cfg.threads = 2;
        cfg.replicas = 1;
        cfg.queue_depth = 32;
        cfg.sdp_cache_entries = sdp_cache_entries;
        cfg.response_cache_bytes = response_cache_bytes;
    })
}

/// One request per graph-source form × family, all seeded.
fn request_corpus() -> Vec<&'static str> {
    vec![
        r#"{"graph": "road-chesapeake", "circuit": "lif-gw", "budget": 32, "replicas": 4, "seed": 42}"#,
        r#"{"graph": "road-chesapeake", "circuit": "lif-trevisan", "budget": 32, "replicas": 2, "seed": 42}"#,
        r#"{"graph": {"edges": [[0,1],[1,2],[2,3],[3,0],[0,2]]}, "circuit": "lif-gw", "budget": 16, "seed": 7}"#,
        r#"{"graph": {"edgelist": "0 1\n1 2\n2 0\n"}, "circuit": "lif-trevisan", "budget": 16, "seed": 9}"#,
        r#"{"graph": {"gnp": {"n": 18, "p": 0.5, "seed": 3}}, "circuit": "lif-gw", "budget": 24, "seed": 11}"#,
    ]
}

#[test]
fn tcp_replays_and_disabled_caches_are_byte_identical() {
    let cached = start(64, 1 << 20);
    // 0/0 is exactly the PR-4 (uncached) request path.
    let uncached = start(0, 0);

    for request in request_corpus() {
        let (s0, reference) = roundtrip(uncached.addr(), "POST", "/solve", request);
        let (s1, cold) = roundtrip(cached.addr(), "POST", "/solve", request);
        let (s2, warm) = roundtrip(cached.addr(), "POST", "/solve", request);
        assert_eq!((s0, s1, s2), (200, 200, 200), "{request}");
        assert_eq!(
            cold, reference,
            "cached-server cold body diverged from uncached server"
        );
        assert_eq!(
            warm, reference,
            "cache-hit body diverged from computed body"
        );
    }

    // Counter accounting: every /solve consulted the response cache
    // exactly once — one cold miss and one warm hit per corpus entry.
    let (_, health) = roundtrip(cached.addr(), "GET", "/healthz", "");
    let doc = snc_experiments::json::parse(&health).expect("healthz is JSON");
    let rc = doc.get("response_cache").expect("response_cache gauge");
    assert_eq!(rc.get("enabled").unwrap().as_bool(), Some(true));
    let corpus = request_corpus().len() as u64;
    assert_eq!(rc.get("hits").unwrap().as_u64(), Some(corpus));
    assert_eq!(rc.get("misses").unwrap().as_u64(), Some(corpus));
    assert_eq!(rc.get("evictions").unwrap().as_u64(), Some(0));
    assert_eq!(rc.get("entries").unwrap().as_u64(), Some(corpus));
    // The SDP cache saw exactly the LIF-GW response-cache misses (the
    // warm replays never reached a worker), each a distinct key.
    let sdp = doc.get("sdp_cache").expect("sdp_cache gauge");
    let lif_gw_requests = request_corpus()
        .iter()
        .filter(|r| r.contains("lif-gw"))
        .count() as u64;
    assert_eq!(sdp.get("enabled").unwrap().as_bool(), Some(true));
    assert_eq!(sdp.get("hits").unwrap().as_u64(), Some(0));
    assert_eq!(sdp.get("misses").unwrap().as_u64(), Some(lif_gw_requests));
    assert_eq!(sdp.get("entries").unwrap().as_u64(), Some(lif_gw_requests));

    // The uncached server reports both caches disabled.
    let (_, health) = roundtrip(uncached.addr(), "GET", "/healthz", "");
    let doc = snc_experiments::json::parse(&health).unwrap();
    for gauge in ["sdp_cache", "response_cache"] {
        assert_eq!(
            doc.get(gauge).unwrap().get("enabled").unwrap().as_bool(),
            Some(false),
            "{gauge}"
        );
    }

    cached.shutdown();
    uncached.shutdown();
}

/// `(hits, misses, entries)` of the SDP cache, from `/healthz`.
fn sdp_counters(addr: std::net::SocketAddr) -> (u64, u64, u64) {
    let (_, health) = roundtrip(addr, "GET", "/healthz", "");
    let doc = snc_experiments::json::parse(&health).expect("healthz is JSON");
    let sdp = doc.get("sdp_cache").expect("sdp_cache gauge");
    let count = |k: &str| sdp.get(k).unwrap().as_u64().unwrap();
    (count("hits"), count("misses"), count("entries"))
}

/// Sum of one `/metrics` series over every label set whose labels
/// contain `labels`.
fn metric_sum(addr: std::net::SocketAddr, name: &str, labels: &str) -> u64 {
    let (_, text) = roundtrip(addr, "GET", "/metrics", "");
    text.lines()
        .filter(|l| l.starts_with(&format!("{name}{{")) && l.contains(labels))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum()
}

/// LIF-GW and LIF-annealed program the same slot-1 SDP factor (the
/// cooling schedule acts on the readout only), so on one graph and seed
/// they share a single SdpCache entry: one real solve, one hit, one
/// `stage="sdp"` observation — and bodies byte-equal to a server with the
/// SDP cache disabled. Hopfield and LIF-Trevisan have no offline stage
/// and leave the SDP counters untouched; every family still rides the
/// response cache.
#[test]
fn sdp_families_share_one_sdp_cache_entry_and_companions_never_touch_it() {
    let handle = start(64, 1 << 20);
    let no_sdp_cache = start(0, 1 << 20);
    let addr = handle.addr();
    let sdp_pair = [
        r#"{"graph": "road-chesapeake", "circuit": "lif-gw", "budget": 24, "seed": 3}"#,
        r#"{"graph": "road-chesapeake", "circuit": "lif-annealed", "budget": 24, "seed": 3, "schedule": {"kind": "geometric", "start": 1.5, "end": 0.1}}"#,
    ];
    let companions = [
        r#"{"graph": "road-chesapeake", "circuit": "hopfield", "budget": 24, "seed": 3, "steps": 6}"#,
        r#"{"graph": "road-chesapeake", "circuit": "lif-trevisan", "budget": 24, "seed": 3}"#,
        r#"{"graph": {"edges": [[0,1],[1,2],[2,0]]}, "circuit": "hopfield", "budget": 12, "seed": 9}"#,
    ];

    let replay = |corpus: &[&str]| {
        for &request in corpus {
            let (s0, reference) = roundtrip(no_sdp_cache.addr(), "POST", "/solve", request);
            let (s1, cold) = roundtrip(addr, "POST", "/solve", request);
            let (s2, warm) = roundtrip(addr, "POST", "/solve", request);
            assert_eq!((s0, s1, s2), (200, 200, 200), "{request}");
            assert_eq!(cold, reference, "SDP-cached body diverged for {request}");
            assert_eq!(warm, reference, "response-cache hit diverged for {request}");
        }
    };

    replay(&sdp_pair);
    assert_eq!(
        sdp_counters(addr),
        (1, 1, 1),
        "LIF-annealed hits LIF-GW's entry"
    );
    let sdp_stage = "stage=\"sdp\"";
    assert_eq!(
        metric_sum(addr, "snc_solver_stage_duration_us_count", sdp_stage),
        1
    );
    assert_eq!(metric_sum(addr, "snc_solver_sdp_iterations_count", ""), 1);
    // With the SDP cache disabled both requests solve.
    assert_eq!(
        metric_sum(
            no_sdp_cache.addr(),
            "snc_solver_stage_duration_us_count",
            sdp_stage
        ),
        2
    );

    replay(&companions);
    assert_eq!(
        sdp_counters(addr),
        (1, 1, 1),
        "companions never consult the SDP cache"
    );
    assert_eq!(
        metric_sum(addr, "snc_solver_stage_duration_us_count", sdp_stage),
        1
    );

    let (_, health) = roundtrip(addr, "GET", "/healthz", "");
    let doc = snc_experiments::json::parse(&health).expect("healthz is JSON");
    let rc = doc.get("response_cache").expect("response_cache gauge");
    let n = (sdp_pair.len() + companions.len()) as u64;
    assert_eq!(rc.get("hits").unwrap().as_u64(), Some(n));
    assert_eq!(rc.get("misses").unwrap().as_u64(), Some(n));
    assert_eq!(rc.get("entries").unwrap().as_u64(), Some(n));
    handle.shutdown();
    no_sdp_cache.shutdown();
}

/// Schedule and step knobs are part of cache identity: requests that
/// differ only in those knobs must miss independently (four distinct
/// cache entries, zero cross-hits) and then replay their own bodies.
#[test]
fn family_knobs_are_part_of_the_cache_key() {
    let handle = start(64, 1 << 20);
    let addr = handle.addr();
    // Two pairs differing only in a family knob: default vs explicit
    // schedule, shallow vs deep relaxation.
    let corpus = [
        r#"{"graph": "road-chesapeake", "circuit": "lif-annealed", "budget": 24, "seed": 5}"#,
        r#"{"graph": "road-chesapeake", "circuit": "lif-annealed", "budget": 24, "seed": 5, "schedule": {"kind": "linear", "start": 2.0, "end": 0.01}}"#,
        r#"{"graph": "road-chesapeake", "circuit": "hopfield", "budget": 24, "seed": 5, "steps": 2}"#,
        r#"{"graph": "road-chesapeake", "circuit": "hopfield", "budget": 24, "seed": 5, "steps": 24}"#,
    ];
    let bodies: Vec<String> = corpus
        .iter()
        .map(|request| {
            let (status, body) = roundtrip(addr, "POST", "/solve", request);
            assert_eq!(status, 200, "{request}");
            body
        })
        .collect();

    // Four requests, four misses: had a knob been dropped from the key,
    // the second of a pair would have cross-hit the first.
    let (_, health) = roundtrip(addr, "GET", "/healthz", "");
    let doc = snc_experiments::json::parse(&health).expect("healthz is JSON");
    let rc = doc.get("response_cache").expect("response_cache gauge");
    let n = corpus.len() as u64;
    assert_eq!(rc.get("hits").unwrap().as_u64(), Some(0));
    assert_eq!(rc.get("misses").unwrap().as_u64(), Some(n));
    assert_eq!(rc.get("entries").unwrap().as_u64(), Some(n));

    // Each replay hits its own entry, byte for byte.
    for (request, body) in corpus.iter().zip(&bodies) {
        let (status, replay) = roundtrip(addr, "POST", "/solve", request);
        assert_eq!(status, 200);
        assert_eq!(&replay, body, "replay diverged for {request}");
    }
    let (_, health) = roundtrip(addr, "GET", "/healthz", "");
    let doc = snc_experiments::json::parse(&health).unwrap();
    let rc = doc.get("response_cache").unwrap();
    assert_eq!(rc.get("hits").unwrap().as_u64(), Some(n));
    handle.shutdown();
}

#[test]
fn async_jobs_replay_from_the_response_cache() {
    let handle = start(64, 1 << 20);
    let addr = handle.addr();
    let request = r#"{"graph": {"gnp": {"n": 16, "p": 0.5, "seed": 5}}, "circuit": "lif-gw", "budget": 16, "seed": 13}"#;

    // Prime via sync solve.
    let (status, sync_body) = roundtrip(addr, "POST", "/solve", request);
    assert_eq!(status, 200);

    // Submit the same request async: the job is born finished from the
    // cached body — the ack says so, and the poll result is exactly the
    // sync response object.
    let (status, ack) = roundtrip(addr, "POST", "/jobs", request);
    assert_eq!(status, 202);
    let ack = snc_experiments::json::parse(&ack).unwrap();
    assert_eq!(ack.get("status").unwrap().as_str(), Some("done"));
    let id = ack.get("id").unwrap().as_u64().unwrap();
    let (status, poll) = roundtrip(addr, "GET", &format!("/jobs/{id}"), "");
    assert_eq!(status, 200);
    let poll = snc_experiments::json::parse(&poll).unwrap();
    assert_eq!(poll.get("status").unwrap().as_str(), Some("done"));
    assert_eq!(
        poll.get("result").unwrap(),
        &snc_experiments::json::parse(&sync_body).unwrap(),
        "cached async result must equal the sync response object"
    );
    handle.shutdown();
}
