//! The response key built from a request's spec equals the key built
//! from its graph.
//!
//! The router shards on `RequestSpec::key`, and a backend looks a
//! dataset or gnp request up by `RequestSpec::spec_key` before it builds
//! the graph. Both must name the entry that `wire::response_key` of the
//! fully parsed request names, or a routed request lands on a backend
//! that does not own its entry, or a hit answers the wrong request. So
//! for every valid body the two keys are equal (equality, payload fold
//! and cost), and for every invalid body both paths give the same error.
//! The one deliberate gap: a gnp whose graph comes out edgeless gets a
//! spec key, and the build refuses it.

use snc_server::wire::{self, RequestDefaults};
use snc_server::{ResponseKey, ServerConfig};

mod common;
use common::corpus::{family_cases, signed_cases, FAMILIES, ROUTER_CORPUS};

/// A vertex limit small enough that some datasets and a cheap gnp
/// exceed it.
const MAX_VERTICES: usize = 100;

fn defaults() -> RequestDefaults {
    ServerConfig {
        max_vertices: MAX_VERTICES,
        ..ServerConfig::default()
    }
    .request_defaults()
}

/// The spec path's key and the full parse's key for one body.
fn both_keys(body: &str) -> (Result<ResponseKey, String>, Result<ResponseKey, String>) {
    let defaults = defaults();
    let light = wire::parse_spec(body.as_bytes(), &defaults)
        .and_then(wire::RequestSpec::key)
        .map_err(|e| e.0);
    let full = wire::parse_request(body.as_bytes(), &defaults)
        .map(|workload| wire::response_key(&workload))
        .map_err(|e| e.0);
    (light, full)
}

/// Whether the spec path keys `body` without building its graph.
fn keys_on_spec(body: &str) -> bool {
    wire::parse_spec(body.as_bytes(), &defaults())
        .unwrap_or_else(|e| panic!("{body}: {}", e.0))
        .spec_key()
        .is_some()
}

fn assert_same_key(body: &str) {
    let (light, full) = both_keys(body);
    let full = full.unwrap_or_else(|e| panic!("full parse refused {body}: {e}"));
    let light = light.unwrap_or_else(|e| panic!("spec parse refused {body}: {e}"));
    assert_eq!(light, full, "keys differ for {body}");
    assert_eq!(light.payload_fold(), full.payload_fold(), "{body}");
    for body_len in [0, 1000] {
        assert_eq!(light.cost(body_len), full.cost(body_len), "{body}");
    }
}

fn assert_same_error(body: &str, needle: &str) {
    let (light, full) = both_keys(body);
    let full = full.expect_err(body);
    assert!(full.contains(needle), "expected {needle:?} for {body}, got {full:?}");
    assert_eq!(light, Err(full), "the spec path must refuse {body} the same way");
}

fn gnp(n: usize, p: &str, seed: Option<u64>) -> String {
    let seed = seed.map_or(String::new(), |s| format!(r#", "seed": {s}"#));
    format!(r#"{{"graph": {{"gnp": {{"n": {n}, "p": {p}{seed}}}}}, "budget": 8, "seed": 3}}"#)
}

#[test]
fn golden_and_router_corpora_key_the_same_on_both_paths() {
    let mut cases: Vec<(String, String)> = FAMILIES
        .iter()
        .flat_map(|family| family_cases(family))
        .chain(signed_cases())
        .collect();
    cases.extend(ROUTER_CORPUS.iter().map(|b| ("router".to_string(), (*b).to_string())));
    let mut named = 0;
    for (case, body) in &cases {
        if case == "lif-trevisan/signed/r1" {
            // The golden suite's one rejection.
            assert_same_error(body, "lif-trevisan requires non-negative edge weights");
            continue;
        }
        assert_same_key(body);
        let expect_named = body.contains(r#""gnp""#) || body.contains(r#""road-chesapeake""#);
        assert_eq!(keys_on_spec(body), expect_named, "{body}");
        named += usize::from(expect_named);
    }
    assert_eq!(named, 4 * 2 * 2 + 3, "dataset and gnp rows of both corpora");
}

#[test]
fn every_spelling_keys_the_same_on_both_paths() {
    let named = [
        gnp(30, "0.2", Some(5)),
        gnp(30, "2e-1", Some(5)),
        gnp(30, "0.2", None),
        gnp(MAX_VERTICES, "0.05", Some(1)),
        r#"{"graph": "hamming6-2", "circuit": "hopfield", "steps": 12, "budget": 8}"#.to_string(),
        r#"{"graph": "soc-dolphins", "circuit": "lif-annealed", "schedule": {"kind": "linear", "start": 2.0, "end": 0.5}, "budget": 8}"#.to_string(),
    ];
    for body in &named {
        assert_same_key(body);
        assert!(keys_on_spec(body), "{body}");
    }
    // One graph, two spellings of `p`: one key, so one entry and one
    // backend.
    assert_eq!(both_keys(&named[0]).0, both_keys(&named[1]).0);
    // An omitted gnp seed is seed 0.
    assert_eq!(both_keys(&named[2]).0, both_keys(&gnp(30, "0.2", Some(0))).0);

    let built = [
        r#"{"graph": {"edges": [[0,1],[1,2],[2,0]]}, "budget": 8}"#,
        r#"{"graph": {"edges": [[0,1]], "n": 4}, "circuit": "lif-trevisan", "budget": 8}"#,
        r#"{"graph": {"edgelist": "0 1\n1 2\n2 3\n"}, "budget": 8}"#,
        r#"{"graph": {"weighted_edges": [[0, 1, 2.5], [1, 2, -0.5]]}, "budget": 8}"#,
        r#"{"max2sat": {"vars": 3, "clauses": [[1, -2], [2, 3], [-1]], "weights": [1.0, 2.0, 0.5]}, "budget": 16, "seed": 7}"#,
        r#"{"maxdicut": {"n": 4, "arcs": [[0, 1], [1, 2], [2, 3]]}, "budget": 32, "seed": 7}"#,
    ];
    for body in built {
        assert_same_key(body);
        assert!(!keys_on_spec(body), "{body} keys on its built instance");
    }
}

#[test]
fn every_dataset_keys_on_its_spec_or_is_refused_the_same_way() {
    for dataset in snc_graph::EmpiricalDataset::all() {
        let body = format!(r#"{{"graph": "{}", "budget": 8}}"#, dataset.name());
        let n = dataset.size().0;
        if n > MAX_VERTICES {
            assert_same_error(&body, &format!("graph has {n} vertices, exceeding"));
        } else {
            assert_same_key(&body);
            assert!(keys_on_spec(&body), "{body}");
        }
    }
}

#[test]
fn invalid_bodies_get_the_same_error_on_both_paths() {
    let over = MAX_VERTICES + 1;
    let cases: Vec<(String, &str)> = vec![
        ("not json".into(), "invalid JSON"),
        ("[1]".into(), "must be a JSON object"),
        (r#"{"budget": 8}"#.into(), "must name a workload"),
        (r#"{"graph": "road-chesapeake"}"#.into(), "missing `budget`"),
        (r#"{"graph": "no-such-graph", "budget": 8}"#.into(), "unknown dataset"),
        (r#"{"graph": 7, "budget": 8}"#.into(), "`graph` must be a dataset name"),
        (gnp(over, "0.01", Some(1)), "exceeding the server limit"),
        (gnp(10, "1.5", Some(1)), "invalid gnp parameters"),
        (gnp(10, "-0.1", Some(1)), "invalid gnp parameters"),
        (gnp(10, r#""x""#, Some(1)), "`gnp.p` must be a number"),
        (r#"{"graph": {"gnp": {"p": 0.5}}, "budget": 8}"#.into(), "`gnp.n` must be"),
        (r#"{"graph": {"gnp": {"n": 10, "p": 0.5, "seed": -1}}, "budget": 8}"#.into(), "`gnp.seed` must be"),
        // Unknown keys at every level.
        (r#"{"graph": "road-chesapeake", "budget": 8, "bogus": 1}"#.into(), "unknown key `bogus`"),
        (r#"{"graph": {"gnp": {"n": 10, "p": 0.5}, "extra": 1}, "budget": 8}"#.into(), "unknown key `extra` in `graph`"),
        (r#"{"graph": {"gnp": {"n": 10, "p": 0.5}, "n": 10}, "budget": 8}"#.into(), "`n` is only valid alongside"),
        (r#"{"graph": {"gnp": {"n": 10, "p": 0.5, "Seed": 3}}, "budget": 8}"#.into(), "unknown key `Seed` in `gnp`"),
        (r#"{"graph": {"gnp": {"n": 10, "p": 0.5}, "edges": [[0, 1]]}, "budget": 8}"#.into(), "exactly one of"),
        (r#"{"graph": {}, "budget": 8}"#.into(), "must contain one of"),
        (r#"{"graph": "road-chesapeake", "budget": 8, "circuit": "lif-annealed", "schedule": {"kind": "linear", "start": 1.0, "end": 0.1, "warmup": 2}}"#.into(), "unknown key `warmup` in `schedule`"),
        (r#"{"max2sat": {"vars": 2, "clauses": [[1]], "extra": 1}, "budget": 8}"#.into(), "unknown key `extra` in `max2sat`"),
        (r#"{"maxdicut": {"n": 3, "arcs": [[0, 1]], "p": 0.5}, "budget": 8}"#.into(), "unknown key `p` in `maxdicut`"),
        // Family knobs on the wrong family, and their bounds.
        (r#"{"graph": "road-chesapeake", "budget": 8, "steps": 4}"#.into(), "`steps` is only valid with circuit `hopfield`"),
        (r#"{"graph": {"gnp": {"n": 10, "p": 0.5}}, "circuit": "lif-gw", "budget": 8, "schedule": {"kind": "linear", "start": 1.0, "end": 0.1}}"#.into(), "`schedule` is only valid with circuit `lif-annealed`"),
        (r#"{"graph": "road-chesapeake", "budget": 8, "circuit": "hopfield", "steps": 0}"#.into(), "`steps` must be ≥ 1"),
        (r#"{"graph": "road-chesapeake", "budget": 8, "circuit": "lif-annealed", "schedule": {"kind": "linear", "start": -1.0, "end": 0.1}}"#.into(), "invalid schedule"),
        // Scalar fields and their limits.
        (r#"{"graph": "road-chesapeake", "budget": 0}"#.into(), "`budget` must be ≥ 1"),
        (r#"{"graph": "road-chesapeake", "budget": 99999999999}"#.into(), "exceeds the server limit"),
        (r#"{"graph": "road-chesapeake", "budget": 8, "replicas": 0}"#.into(), "`replicas` must be ≥ 1"),
        (r#"{"graph": "road-chesapeake", "budget": 8, "circuit": "gw"}"#.into(), "unknown circuit"),
        (r#"{"graph": "road-chesapeake", "budget": 8, "seed": "x"}"#.into(), "`seed` must be"),
        // The other spellings: pre-build bounds and build-time errors.
        (r#"{"graph": {"edges": [[0, 4294967294]]}, "budget": 8}"#.into(), "exceeding the server limit"),
        (r#"{"graph": {"edges": [[0, 1]], "n": 1}, "budget": 8}"#.into(), "invalid edges"),
        (r#"{"graph": {"edges": []}, "budget": 8}"#.into(), "no edges"),
        (r#"{"graph": {"edgelist": "0 4294967294\n"}, "budget": 8}"#.into(), "exceeding the server limit"),
        (r#"{"graph": {"weighted_edges": [[0, 1, 1e13]]}, "budget": 8}"#.into(), "exceeds the magnitude limit"),
        (r#"{"graph": {"weighted_edges": [[0, 4294967297, 1.0], [1, 2, 1.0]], "n": 5}, "budget": 8}"#.into(), "vertex id 4294967297 exceeds the supported range (u32)"),
        (r#"{"graph": {"weighted_edges": [[0, 1, -1.0]]}, "budget": 8, "circuit": "lif-trevisan"}"#.into(), "lif-trevisan requires non-negative edge weights"),
        (r#"{"max2sat": {"vars": 2, "clauses": [[3]]}, "budget": 8}"#.into(), "out of range"),
        (r#"{"maxdicut": {"n": 3, "arcs": [[1, 1]]}, "budget": 8}"#.into(), "no arcs after dropping self-loops"),
    ];
    for (body, needle) in &cases {
        assert_same_error(body, needle);
    }
}

#[test]
fn an_edgeless_gnp_gets_a_spec_key_and_is_refused_when_built() {
    for body in [gnp(1, "0.5", Some(1)), gnp(10, "0", Some(1)), gnp(0, "0.5", None)] {
        let (light, full) = both_keys(&body);
        assert!(light.is_ok(), "{body}: the spec path keys it without building");
        assert_eq!(
            full,
            Err("graph has no edges; MAXCUT needs at least one".to_string()),
            "{body}"
        );
    }
}
