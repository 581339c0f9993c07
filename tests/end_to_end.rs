//! End-to-end solver comparisons on graphs with known optima: the
//! integration-level version of the paper's Figure-3 claims.

use snc::snc_graph::generators::erdos_renyi::gnp;
use snc::snc_graph::generators::structured::{complete, complete_bipartite, petersen};
use snc::snc_maxcut::{
    exact, gw, log2_checkpoints, sample_best_trace, trevisan, GwConfig, GwSampler, LifGwCircuit,
    LifGwConfig, LifTrevisanCircuit, LifTrevisanConfig, RandomCutSampler, TrevisanConfig,
};

/// "The LIF-GW circuit matches the performance of the generic solver":
/// on small graphs with exact ground truth, both achieve ≥ 0.9·OPT within
/// 256 samples and differ from each other by at most ~5% of OPT.
#[test]
fn lif_gw_matches_software_solver() {
    for (idx, graph) in [
        gnp(16, 0.3, 1).unwrap(),
        gnp(16, 0.6, 2).unwrap(),
        petersen(),
        complete(10),
    ]
    .into_iter()
    .enumerate()
    {
        let (_, opt) = exact::brute_force(&graph);
        if opt == 0 {
            continue;
        }
        let cp = log2_checkpoints(256);
        let sol = gw::solve_gw(&graph, &GwConfig::default()).unwrap();
        let seed = [42 + idx as u64];
        let mut circuit = LifGwCircuit::new(&sol.factors, &seed, &LifGwConfig::default());
        let circuit_best = circuit.best_traces(&graph, &cp)[0].final_best();
        let mut software = GwSampler::new(sol.factors.clone(), 99 + idx as u64);
        let software_best = sample_best_trace(&mut software, &graph, &cp).final_best();

        let c = circuit_best as f64 / opt as f64;
        let s = software_best as f64 / opt as f64;
        assert!(c >= 0.9, "graph {idx}: circuit ratio {c}");
        assert!(s >= 0.9, "graph {idx}: software ratio {s}");
        assert!(
            (c - s).abs() <= 0.08,
            "graph {idx}: circuit {c} vs software {s}"
        );
    }
}

/// The GW guarantee: expected cut ≥ 0.878·SDP ≥ 0.878·OPT. With best-of-64
/// sampling the margin is comfortable on every small instance.
#[test]
fn gw_approximation_guarantee_holds_empirically() {
    for seed in 0..5u64 {
        let graph = gnp(14, 0.5, 100 + seed).unwrap();
        let (_, opt) = exact::brute_force(&graph);
        if opt == 0 {
            continue;
        }
        let sol = gw::solve_gw(&graph, &GwConfig::default()).unwrap();
        let mut sampler = GwSampler::new(sol.factors, seed);
        let best = sample_best_trace(&mut sampler, &graph, &log2_checkpoints(64)).final_best();
        assert!(
            best as f64 >= 0.878 * opt as f64,
            "seed {seed}: best {best} < 0.878·{opt}"
        );
    }
}

/// The LIF-TR circuit's defining behaviour (Fig. 3, orange curves):
/// performance increases over time and ends above the random baseline.
#[test]
fn lif_tr_learns_and_beats_random() {
    let graph = gnp(50, 0.25, 9).unwrap();
    let budget = 8192;
    let cp = log2_checkpoints(budget);

    let mut tr = LifTrevisanCircuit::new(&graph, &[5], &LifTrevisanConfig::default());
    let tr_trace = tr.best_traces(&graph, &cp).remove(0);

    let mut random = RandomCutSampler::new(graph.n(), 6);
    let random_trace = sample_best_trace(&mut random, &graph, &cp);

    // "In all cases, the LIF-Trevisan circuit eventually outperforms the
    // random algorithm."
    assert!(
        tr_trace.final_best() > random_trace.final_best(),
        "LIF-TR {} vs random {}",
        tr_trace.final_best(),
        random_trace.final_best()
    );
    // And improves over its own early performance.
    assert!(tr_trace.final_best() > tr_trace.best[1]);
}

/// The LIF-TR endpoint approaches the software spectral solution.
#[test]
fn lif_tr_approaches_software_trevisan() {
    let graph = complete_bipartite(5, 5);
    let spectral = trevisan::solve_trevisan(&graph, &TrevisanConfig::default()).unwrap();
    assert_eq!(spectral.value, 25); // bipartite: spectral is exact
    let mut tr = LifTrevisanCircuit::new(&graph, &[3], &LifTrevisanConfig::default());
    let trace = tr.best_traces(&graph, &log2_checkpoints(16_384)).remove(0);
    assert!(
        trace.final_best() >= 24,
        "LIF-TR reached only {} of 25",
        trace.final_best()
    );
}

/// All solvers respect the SDP upper bound and the trivial bound m.
#[test]
fn bounds_are_never_violated() {
    let graph = gnp(24, 0.4, 11).unwrap();
    let sol = gw::solve_gw(&graph, &GwConfig::default()).unwrap();
    let cp = log2_checkpoints(128);
    let m = graph.m() as u64;

    let mut circuit = LifGwCircuit::new(&sol.factors, &[1], &LifGwConfig::default());
    let mut tr = LifTrevisanCircuit::new(&graph, &[2], &LifTrevisanConfig::default());
    let mut random = RandomCutSampler::new(graph.n(), 3);
    for trace in [
        circuit.best_traces(&graph, &cp).remove(0),
        tr.best_traces(&graph, &cp).remove(0),
        sample_best_trace(&mut random, &graph, &cp),
    ] {
        assert!(trace.final_best() <= m);
        // SDP bound dominates any cut (it upper-bounds OPT).
        assert!(trace.final_best() as f64 <= sol.sdp_bound + 1e-6);
    }
}
