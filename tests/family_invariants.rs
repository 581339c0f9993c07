//! Cross-family invariant suite: every [`CircuitFamily`] — the paper's
//! two circuits plus the annealed and Hopfield companions — must
//! deliver valid partitions, self-consistent cut values, bit-exact
//! determinism, and batched/sequential agreement, on both unweighted
//! and weighted graphs. One suite, four families: a new family cannot
//! land without inheriting every contract.

use proptest::prelude::*;
use snc::snc_devices::SplitMix64;
use snc::snc_graph::generators::erdos_renyi::gnp;
use snc::snc_graph::weighted::{randomize_weights, WeightDistribution};
use snc::snc_graph::Graph;
use snc::snc_maxcut::sampling::CutSampler;
use snc::snc_maxcut::{
    solve, solve_gw, BatchedHopfieldCircuit, BatchedLifAnnealedCircuit, BatchedLifGwCircuit,
    BatchedLifTrevisanCircuit, CircuitFamily, GwConfig, HopfieldCircuit, HopfieldConfig,
    LifAnnealedCircuit, LifAnnealedConfig, LifGwCircuit, LifGwConfig, LifTrevisanCircuit,
    LifTrevisanConfig, SolveSpec,
};

/// Strategy: a connected-ish random graph on 4–12 vertices with at
/// least one edge (a ring plus random chords).
fn small_graph() -> impl Strategy<Value = Graph> {
    (4usize..12, proptest::collection::vec((0u32..12, 0u32..12), 0..16)).prop_map(|(n, raw)| {
        let mut edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        edges.extend(raw.into_iter().map(|(u, v)| (u % n as u32, v % n as u32)));
        Graph::from_edges(n, &edges).expect("in-range edges")
    })
}

/// A small spec for `family` (tiny budget keeps the per-case SDP cheap).
fn spec(family: CircuitFamily, seed: u64) -> SolveSpec {
    SolveSpec {
        replicas: 2,
        ..SolveSpec::new(family, 12, seed)
    }
}

proptest! {
    // Each case runs four families twice (determinism), two of which
    // solve an SDP — keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Partition validity, value consistency, and trace shape for every
    /// family on unweighted graphs, plus bit-exact determinism.
    #[test]
    fn every_family_solves_unweighted_graphs_consistently(
        g in small_graph(),
        seed in 0u64..500,
    ) {
        for family in CircuitFamily::all() {
            let s = spec(family, seed);
            let outcome = solve(&g, &s).expect("solve");
            // Partition validity: one side per vertex, sides are ±1.
            prop_assert_eq!(outcome.best_cut.sides().len(), g.n());
            prop_assert!(outcome.best_cut.sides().iter().all(|&x| x == 1 || x == -1));
            // The reported value is the recomputed value of the cut.
            prop_assert_eq!(outcome.best_value, outcome.best_cut.cut_value(&g));
            // Trace shape: monotone best-so-far ending at the best value.
            prop_assert_eq!(outcome.trace.final_best(), outcome.best_value);
            prop_assert!(outcome.trace.best.windows(2).all(|w| w[0] <= w[1]));
            prop_assert!(outcome.samples <= s.budget);
            // Determinism: an identical solve is bit-identical.
            let again = solve(&g, &s).expect("solve");
            prop_assert_eq!(outcome.best_value, again.best_value);
            prop_assert_eq!(outcome.best_cut.sides(), again.best_cut.sides());
            prop_assert_eq!(&outcome.trace.best, &again.trace.best);
        }
    }

    /// The same contracts on weighted graphs through the same `solve`
    /// (non-negative weights so all four families dispatch).
    #[test]
    fn every_family_solves_weighted_graphs_consistently(
        g in small_graph(),
        seed in 0u64..500,
    ) {
        let wg = randomize_weights(&g, WeightDistribution::Uniform { lo: 0.5, hi: 2.0 }, seed)
            .expect("weighting");
        for family in CircuitFamily::all() {
            let s = spec(family, seed);
            let outcome = solve(&wg, &s).expect("weighted solve");
            prop_assert_eq!(outcome.best_cut.sides().len(), wg.n());
            let recomputed = wg.cut_value(&outcome.best_cut);
            prop_assert!(
                (outcome.best_value - recomputed).abs() <= 1e-9 * wg.total_weight().max(1.0),
                "family {:?}: reported {} vs recomputed {}",
                family, outcome.best_value, recomputed
            );
            let again = solve(&wg, &s).expect("weighted solve");
            prop_assert_eq!(outcome.best_value.to_bits(), again.best_value.to_bits());
            prop_assert_eq!(outcome.best_cut.sides(), again.best_cut.sides());
        }
    }
}

/// A single-replica batched circuit must reproduce the sequential
/// circuit of the same seed sample for sample, for every family with a
/// batched path.
#[test]
fn single_replica_batches_match_sequential_circuits() {
    let g = gnp(14, 0.4, 11).unwrap();
    let seed = SplitMix64::derive(77, 3);
    const SAMPLES: usize = 6;

    let gw = solve_gw(&g, &GwConfig::default()).unwrap();

    let gw_cfg = LifGwConfig::default();
    let mut batched = BatchedLifGwCircuit::new(&gw.factors, &[seed], &gw_cfg);
    let mut sequential = LifGwCircuit::new(&gw.factors, seed, &gw_cfg);
    for _ in 0..SAMPLES {
        assert_eq!(batched.next_cuts()[0], sequential.next_cut(), "lif-gw");
    }

    let tr_cfg = LifTrevisanConfig::default();
    let mut batched = BatchedLifTrevisanCircuit::new(&g, &[seed], &tr_cfg);
    let mut sequential = LifTrevisanCircuit::new(&g, seed, &tr_cfg);
    for _ in 0..SAMPLES {
        assert_eq!(batched.next_cuts()[0], sequential.next_cut(), "lif-trevisan");
    }

    let ann_cfg = LifAnnealedConfig::default();
    let horizon = SAMPLES as u64;
    let mut batched = BatchedLifAnnealedCircuit::new(&gw.factors, &g, &[seed], &ann_cfg, horizon);
    let mut sequential = LifAnnealedCircuit::new(&gw.factors, &g, seed, &ann_cfg, horizon);
    for _ in 0..SAMPLES {
        assert_eq!(batched.next_cuts()[0], sequential.next_cut(), "lif-annealed");
    }

    let hop_cfg = HopfieldConfig::default();
    let mut batched = BatchedHopfieldCircuit::new(&g, &[seed], &hop_cfg);
    let mut sequential = HopfieldCircuit::new(&g, seed, &hop_cfg);
    for _ in 0..SAMPLES {
        assert_eq!(batched.next_cuts()[0], sequential.next_cut(), "hopfield");
    }
}

/// `CircuitFamily::all()` is the complete dispatch surface: four
/// families, unique names, round-tripping through `from_name`.
#[test]
fn family_enumeration_is_complete_and_round_trips() {
    let all = CircuitFamily::all();
    assert_eq!(all.len(), 4);
    let names: Vec<&str> = all.iter().map(|f| f.name()).collect();
    assert_eq!(names, vec!["lif-gw", "lif-trevisan", "lif-annealed", "hopfield"]);
    for family in all {
        assert_eq!(CircuitFamily::from_name(family.name()), Some(family));
    }
    assert_eq!(CircuitFamily::from_name("gw"), None);
}

/// Replica merging preserves the best value: the merged trace never
/// reports a value no replica achieved (checked by recomputation above)
/// and the `replicas = 1` path equals a width-1 batch for every family.
#[test]
fn width_one_solves_match_across_families() {
    let g = gnp(12, 0.5, 21).unwrap();
    for family in CircuitFamily::all() {
        let wide = SolveSpec { replicas: 1, ..SolveSpec::new(family, 10, 5) };
        let a = solve(&g, &wide).unwrap();
        let b = solve(&g, &wide).unwrap();
        assert_eq!(a.best_value, b.best_value, "{family:?}");
        assert_eq!(a.trace.best, b.trace.best, "{family:?}");
        assert_eq!(a.replicas, 1, "{family:?}");
    }
}
