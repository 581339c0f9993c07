//! Integration tests for the §VI extensions: MAX2SAT and MAXDICUT share
//! the LIF-GW machinery and meet their approximation guarantees.

use snc::snc_linalg::SdpConfig;
use snc::snc_maxcut::extensions::max2sat::{solve_gw_max2sat, Clause, Literal, Max2Sat};
use snc::snc_maxcut::extensions::maxdicut::{solve_gw_maxdicut, DiGraph};

fn cfg() -> SdpConfig {
    SdpConfig {
        rank: 4,
        restarts: 2,
        ..SdpConfig::default()
    }
}

#[test]
fn max2sat_meets_guarantee_across_instances() {
    let mut worst: f64 = 1.0;
    for seed in 0..8u64 {
        let inst = Max2Sat::random(11, 33, seed);
        let (_, opt) = inst.brute_force();
        let sol = solve_gw_max2sat(&inst, &cfg(), 96, seed).unwrap();
        let ratio = sol.value / opt;
        worst = worst.min(ratio);
        assert!(sol.value <= opt + 1e-9, "seed {seed}: beat the optimum?!");
        assert!(
            sol.sdp_bound + 1e-6 >= opt,
            "seed {seed}: bound below optimum"
        );
    }
    assert!(worst >= 0.878, "worst ratio {worst} under the GW guarantee");
}

#[test]
fn maxdicut_meets_guarantee_across_instances() {
    let mut worst: f64 = 1.0;
    for seed in 0..8u64 {
        let g = DiGraph::random(11, 28, seed);
        let (_, opt) = g.brute_force();
        if opt == 0 {
            continue;
        }
        let sol = solve_gw_maxdicut(&g, &cfg(), 96, seed).unwrap();
        let ratio = sol.value as f64 / opt as f64;
        worst = worst.min(ratio);
        assert!(sol.value <= opt);
        assert!(sol.sdp_bound + 1e-6 >= opt as f64);
    }
    assert!(
        worst >= 0.796,
        "worst ratio {worst} under the GW-dicut guarantee"
    );
}

#[test]
fn maxcut_is_a_special_case_of_max2sat() {
    // Edge {u, v} ↦ clauses (u ∨ v) ∧ (¬u ∨ ¬v): both satisfied iff u, v
    // differ ⇒ MAX2SAT value = m + MAXCUT value.
    let edges = [(0u32, 1u32), (1, 2), (2, 0), (2, 3)];
    let graph = snc::snc_graph::Graph::from_edges(4, &edges).unwrap();
    let (_, maxcut) = snc::snc_maxcut::exact::brute_force(&graph);
    let clauses: Vec<Clause> = edges
        .iter()
        .flat_map(|&(u, v)| {
            [
                Clause {
                    a: Literal::pos(u),
                    b: Some(Literal::pos(v)),
                    weight: 1.0,
                },
                Clause {
                    a: Literal::neg(u),
                    b: Some(Literal::neg(v)),
                    weight: 1.0,
                },
            ]
        })
        .collect();
    let inst = Max2Sat { n_vars: 4, clauses };
    let (_, sat_opt) = inst.brute_force();
    assert_eq!(sat_opt as u64, edges.len() as u64 + maxcut);
    // The SDP pipeline reaches the same optimum on this tiny instance.
    let sol = solve_gw_max2sat(&inst, &cfg(), 64, 5).unwrap();
    assert_eq!(sol.value as u64, sat_opt as u64);
}

#[test]
fn dicut_of_complete_bidirected_pair_structure() {
    // A bidirected K3: every partition cuts |S|·(3−|S|) arcs in one
    // direction; optimum is 2 (|S| ∈ {1, 2}).
    let arcs: Vec<(u32, u32)> = (0..3u32)
        .flat_map(|u| (0..3u32).filter(move |&v| v != u).map(move |v| (u, v)))
        .collect();
    let g = DiGraph::new(3, &arcs);
    let (_, opt) = g.brute_force();
    assert_eq!(opt, 2);
    let sol = solve_gw_maxdicut(&g, &cfg(), 64, 7).unwrap();
    assert_eq!(sol.value, 2);
}
