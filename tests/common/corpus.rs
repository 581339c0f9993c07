//! Request corpora shared by the suites that pin wire behaviour:
//! `golden_bodies` (response bytes), `router_integration` (routed byte
//! identity and affinity) and `key_equivalence` (spec keys equal built
//! keys).

/// The golden suite's graph forms, small enough for a debug-mode test
/// run.
pub const GOLDEN_GRAPHS: [(&str, &str); 4] = [
    ("dataset", r#""road-chesapeake""#),
    (
        "edges",
        r#"{"edges": [[0,1],[1,2],[2,3],[3,4],[4,5],[5,0],[0,3],[1,4],[2,5],[6,0],[6,2],[6,4],[7,1],[7,3],[7,5],[7,6]]}"#,
    ),
    ("gnp", r#"{"gnp": {"n": 24, "p": 0.3, "seed": 7}}"#),
    (
        "weighted",
        r#"{"weighted_edges": [[0,1,1.5],[1,2,0.25],[2,3,2.0],[3,4,1.0],[4,5,3.5],[5,0,0.75],[0,3,1.25],[1,4,2.5],[2,5,0.5],[6,0,1.0],[6,3,2.25],[7,1,0.125],[7,6,1.75]]}"#,
    ),
];

/// Signed weights: accepted by every family but LIF-Trevisan.
pub const SIGNED: &str = r#"{"weighted_edges": [[0,1,1.5],[1,2,-0.5],[2,3,2.0],[3,4,-1.25],[4,5,3.0],[5,0,0.75],[0,3,-2.0],[1,4,2.5],[2,5,1.0],[6,0,-0.25],[6,3,1.5]]}"#;

const BUDGET: u64 = 64;
const SEED: u64 = 42;

/// The four circuit families, in the golden suite's order.
pub const FAMILIES: [&str; 4] = ["lif-gw", "lif-trevisan", "lif-annealed", "hopfield"];

fn request(family: &str, graph: &str, replicas: usize) -> String {
    format!(
        r#"{{"graph": {graph}, "circuit": "{family}", "budget": {BUDGET}, "replicas": {replicas}, "seed": {SEED}}}"#
    )
}

/// All four golden graph forms at R ∈ {1, 8} for one family, as
/// `(case, body)`.
pub fn family_cases(family: &str) -> Vec<(String, String)> {
    let mut cases = Vec::new();
    for (form, graph) in GOLDEN_GRAPHS {
        for replicas in [1, 8] {
            cases.push((
                format!("{family}/{form}/r{replicas}"),
                request(family, graph, replicas),
            ));
        }
    }
    cases
}

/// The signed-weight golden cases, LIF-Trevisan's rejection included.
pub fn signed_cases() -> Vec<(String, String)> {
    let mut cases: Vec<(String, String)> = ["lif-gw", "lif-annealed", "hopfield"]
        .into_iter()
        .flat_map(|family| {
            [1, 8].map(|replicas| {
                (
                    format!("{family}/signed/r{replicas}"),
                    request(family, SIGNED, replicas),
                )
            })
        })
        .collect();
    cases.push((
        "lif-trevisan/signed/r1".to_string(),
        request("lif-trevisan", SIGNED, 1),
    ));
    cases
}

/// The router suite's mixed-family corpus: every wire workload kind,
/// sized to solve in milliseconds. Bodies are canonical-identical across
/// sends, so each line is one shard key — one backend owns it.
pub const ROUTER_CORPUS: &[&str] = &[
    r#"{"graph": {"gnp": {"n": 24, "p": 0.3, "seed": 1}}, "circuit": "lif-gw", "budget": 24, "replicas": 2, "seed": 11}"#,
    r#"{"graph": {"gnp": {"n": 20, "p": 0.4, "seed": 2}}, "circuit": "lif-trevisan", "budget": 24, "seed": 12}"#,
    r#"{"graph": {"gnp": {"n": 22, "p": 0.3, "seed": 3}}, "circuit": "lif-annealed", "schedule": {"kind": "geometric", "start": 1.0, "end": 0.05}, "budget": 24, "seed": 13}"#,
    r#"{"graph": {"weighted_edges": [[0, 1, 2.5], [1, 2, -0.5], [2, 3, 1.0], [0, 3, 0.75]]}, "circuit": "hopfield", "steps": 8, "budget": 16, "seed": 14}"#,
    r#"{"max2sat": {"vars": 4, "clauses": [[1, -2], [2, 3], [-1, 4], [3]]}, "budget": 16, "seed": 15}"#,
    r#"{"maxdicut": {"n": 5, "arcs": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]}, "budget": 16, "seed": 16}"#,
];
