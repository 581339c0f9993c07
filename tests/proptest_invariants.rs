//! Property-based tests over the workspace's core invariants.

use proptest::prelude::*;
use snc::snc_devices::{Rng64, Xoshiro256pp};
use snc::snc_graph::generators::erdos_renyi::{gnm, gnp};
use snc::snc_graph::{CutAssignment, Graph};
use snc::snc_linalg::{Cholesky, DMatrix};
use snc::snc_maxcut::trevisan::best_sweep_cut;
use snc::snc_maxcut::{exact, greedy};
use snc::snc_neuro::{BatchedTwoStageNetwork, LearningRate, Reset, TwoStageConfig};

/// Strategy: a random edge list on up to 12 vertices.
fn small_graph() -> impl Strategy<Value = Graph> {
    (
        2usize..12,
        proptest::collection::vec((0u32..12, 0u32..12), 0..40),
    )
        .prop_map(|(n, raw)| {
            let edges: Vec<(u32, u32)> = raw
                .into_iter()
                .map(|(u, v)| (u % n as u32, v % n as u32))
                .collect();
            Graph::from_edges(n, &edges).expect("in-range edges")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cut values are invariant under complementation and bounded by m.
    #[test]
    fn cut_complement_invariance(g in small_graph(), seed in 0u64..1000) {
        let mut rng = Xoshiro256pp::new(seed);
        let cut = CutAssignment::random(g.n(), &mut rng);
        let v = cut.cut_value(&g);
        prop_assert_eq!(v, cut.complemented().cut_value(&g));
        prop_assert!(v <= g.m() as u64);
    }

    /// flip_delta always predicts the exact cut change.
    #[test]
    fn flip_delta_exact(g in small_graph(), seed in 0u64..1000, v_raw in 0usize..12) {
        let mut rng = Xoshiro256pp::new(seed);
        let mut cut = CutAssignment::random(g.n(), &mut rng);
        let v = v_raw % g.n();
        let before = cut.cut_value(&g) as i64;
        let delta = cut.flip_delta(&g, v);
        cut.flip(v);
        prop_assert_eq!(cut.cut_value(&g) as i64, before + delta);
    }

    /// CSR graphs have symmetric adjacency and consistent degree sums.
    #[test]
    fn csr_invariants(g in small_graph()) {
        let degree_sum: usize = (0..g.n()).map(|i| g.degree(i)).sum();
        prop_assert_eq!(degree_sum, 2 * g.m());
        for u in 0..g.n() {
            for &v in g.neighbors(u) {
                prop_assert!(g.has_edge(v as usize, u));
                prop_assert!(u != v as usize, "self loop survived");
            }
        }
    }

    /// Local search never returns less than half the edges and is 1-opt.
    #[test]
    fn local_search_quality(g in small_graph(), seed in 0u64..100) {
        let (cut, value) = greedy::local_search(&g, seed);
        prop_assert!(2 * value >= g.m() as u64);
        for v in 0..g.n() {
            prop_assert!(cut.flip_delta(&g, v) <= 0);
        }
    }

    /// Brute force dominates every heuristic and equals branch-and-bound.
    #[test]
    fn exact_dominance(g in small_graph(), seed in 0u64..50) {
        let (_, opt) = exact::brute_force(&g);
        let (_, bb) = exact::branch_and_bound(&g);
        prop_assert_eq!(opt, bb);
        let (_, ls) = greedy::local_search(&g, seed);
        prop_assert!(ls <= opt);
        let mut rng = Xoshiro256pp::new(seed);
        let random = CutAssignment::random(g.n(), &mut rng).cut_value(&g);
        prop_assert!(random <= opt);
    }

    /// The sweep cut dominates the sign cut for any score vector.
    #[test]
    fn sweep_dominates_sign(g in small_graph(), seed in 0u64..100) {
        let mut rng = Xoshiro256pp::new(seed);
        let scores: Vec<f64> = (0..g.n()).map(|_| rng.next_f64() * 2.0 - 1.0).collect();
        let sign_value = CutAssignment::from_signs(&scores).cut_value(&g);
        let sweep_value = best_sweep_cut(&g, &scores).cut_value(&g);
        prop_assert!(sweep_value >= sign_value);
    }

    /// Cholesky round-trips SPD matrices built as A = B·Bᵀ + εI.
    #[test]
    fn cholesky_roundtrip(vals in proptest::collection::vec(-1.0f64..1.0, 9)) {
        let b = DMatrix::from_vec(3, 3, vals);
        let mut a = b.matmul(&b.transpose()).unwrap();
        for i in 0..3 {
            a[(i, i)] += 0.5;
        }
        let ch = Cholesky::new(&a).unwrap();
        prop_assert!(ch.reconstruct().max_abs_diff(&a) < 1e-10);
        // Solve consistency.
        let x = ch.solve(&[1.0, -1.0, 0.5]).unwrap();
        let ax = a.matvec(&x);
        prop_assert!((ax[0] - 1.0).abs() < 1e-8);
        prop_assert!((ax[1] + 1.0).abs() < 1e-8);
        prop_assert!((ax[2] - 0.5).abs() < 1e-8);
    }

    /// G(n, m) has exactly m edges; G(n, p) respects the simple-graph rules.
    #[test]
    fn generator_contracts(n in 2usize..30, seed in 0u64..100) {
        let max = n * (n - 1) / 2;
        let m = max / 2;
        let g = gnm(n, m, seed).unwrap();
        prop_assert_eq!(g.m(), m);
        let g2 = gnp(n, 0.5, seed).unwrap();
        prop_assert!(g2.m() <= max);
    }

    /// Gray-code brute force agrees with direct evaluation of its output.
    #[test]
    fn brute_force_is_self_consistent(g in small_graph()) {
        let (cut, v) = exact::brute_force(&g);
        prop_assert_eq!(cut.cut_value(&g), v);
    }

    /// Every lane of a batched LIF-Trevisan network is bit-for-bit the
    /// one-seed network of its seed (the sequential reference), across
    /// random ER graphs, learning rates (constant and decaying),
    /// plasticity intervals, and both reset modes.
    #[test]
    fn batched_two_stage_equals_sequential(
        n in 4usize..16,
        p in 0.15f64..0.8,
        graph_seed in 0u64..500,
        eta_millis in 1u64..200,
        decay in any::<bool>(),
        reset in any::<bool>(),
        interval in 1u64..6,
        base_seed in 0u64..10_000,
    ) {
        let g = gnp(n, p, graph_seed).expect("valid G(n,p)");
        let eta0 = eta_millis as f64 / 1000.0;
        let cfg = TwoStageConfig {
            learning_rate: if decay {
                LearningRate::Decay { eta0, t0: 500.0 }
            } else {
                LearningRate::Constant(eta0)
            },
            reset: if reset { Reset::ToValue(0.0) } else { Reset::None },
            plasticity_interval: interval,
            ..TwoStageConfig::default()
        };
        let seeds: Vec<u64> = (0..3u64).map(|i| base_seed.wrapping_add(i * 7919)).collect();
        let mut batch = BatchedTwoStageNetwork::new(&g, &seeds, cfg);
        let mut nets: Vec<BatchedTwoStageNetwork> =
            seeds.iter().map(|&s| BatchedTwoStageNetwork::new(&g, &[s], cfg)).collect();
        batch.run_updates(12);
        for net in nets.iter_mut() {
            net.run_updates(12);
        }
        prop_assert_eq!(batch.steps(), nets[0].steps());
        for (r, net) in nets.iter().enumerate() {
            for (i, (a, b)) in batch
                .readout_weights(r)
                .iter()
                .zip(net.readout_weights(0))
                .enumerate()
            {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "replica {} weight {}", r, i);
            }
        }
    }
}
