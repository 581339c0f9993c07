//! Runs the paper's four solvers on one graph: the atomic unit every
//! figure/table experiment is built from.
//!
//! For a graph `G` and a sample budget `B`, produce best-so-far traces at
//! log2 checkpoints for:
//!
//! * the software GW solver (SDP + Gaussian rounding) — the green curve and
//!   the normalization reference,
//! * the LIF-GW circuit seeded from the same SDP factors — blue,
//! * the LIF-Trevisan circuit (no offline work) — orange,
//! * uniform random cuts — red.
//!
//! ## Batched replicas
//!
//! Both neuromorphic circuits run batched over replicas
//! ([`BatchedLifGwCircuit`], [`BatchedLifTrevisanCircuit`]): each
//! `JobRunner` worker thread advances one `ReplicaBatch` unit of
//! [`SuiteConfig::replicas`] lock-stepped circuit replicas, so the full
//! experiment layout is *threads × batch width*. With `replicas == 1` the
//! trace is one circuit's; with `replicas = R > 1` the budget is split
//! across R replicas — the hardware reading: R physical circuits sampling
//! concurrently — and the per-replica traces are merged into one
//! total-samples trace with [`merge_traces`]. For the memoryless samplers
//! (LIF-GW) the merged curve is distributed exactly like a single
//! circuit's at the same total sample count; for LIF-Trevisan each replica
//! learns independently, so large R trades per-replica learning depth for
//! wall-clock.

use crate::config::SuiteConfig;
use snc_devices::SplitMix64;
use snc_graph::Graph;
use snc_linalg::{LinalgError, SdpConfig};
use snc_maxcut::solve::{effective_replicas, replica_checkpoints, replica_seeds};
use snc_maxcut::{
    log2_checkpoints, merge_traces, sample_best_trace, BatchedLifGwCircuit,
    BatchedLifTrevisanCircuit, BestTrace, GwConfig, GwSampler, LifGwConfig, LifTrevisanConfig,
    RandomCutSampler,
};

/// Best-so-far traces of all four solvers on one graph.
#[derive(Clone, Debug)]
pub struct SuiteTraces {
    /// Software GW (SDP + rounding).
    pub solver: BestTrace,
    /// LIF-GW circuit.
    pub lif_gw: BestTrace,
    /// LIF-Trevisan circuit.
    pub lif_tr: BestTrace,
    /// Uniform random baseline.
    pub random: BestTrace,
    /// The SDP upper bound (for reference).
    pub sdp_bound: f64,
}

impl SuiteTraces {
    /// The four traces with their display names, in the paper's legend
    /// order.
    ///
    /// With `replicas > 1` the circuit traces sit on a merged
    /// total-samples checkpoint grid, which can differ from the software
    /// traces' grid — consumers must read each trace's own `checkpoints`.
    pub fn named(&self) -> [(&'static str, &BestTrace); 4] {
        [
            ("lif_gw", &self.lif_gw),
            ("lif_tr", &self.lif_tr),
            ("solver", &self.solver),
            ("random", &self.random),
        ]
    }
}

/// Runs all four solvers on a graph with a deterministic seed ladder.
///
/// The budget/seed arithmetic — replica seed ladder, width capping,
/// per-replica checkpoint grid — lives in [`mod@snc_maxcut::solve`] and is
/// shared with the serving layer, so a server request carrying a
/// figure's per-graph seed reproduces that figure's circuit trace bit
/// for bit (pinned by a test below).
///
/// # Errors
///
/// Propagates SDP solver failures.
pub fn run_suite(graph: &Graph, cfg: &SuiteConfig, graph_seed: u64) -> Result<SuiteTraces, LinalgError> {
    let checkpoints = log2_checkpoints(cfg.sample_budget);
    let replicas = effective_replicas(cfg.sample_budget, cfg.replicas);
    let replica_cp = replica_checkpoints(cfg.sample_budget, cfg.replicas);
    let sdp_cfg = SdpConfig {
        rank: cfg.sdp_rank,
        seed: SplitMix64::derive(graph_seed, 1),
        ..SdpConfig::default()
    };
    let gw = snc_maxcut::gw::solve_gw(graph, &GwConfig { sdp: sdp_cfg })?;

    // Software GW rounding.
    let mut software = GwSampler::new(gw.factors.clone(), SplitMix64::derive(graph_seed, 2));
    let solver = sample_best_trace(&mut software, graph, &checkpoints);

    // LIF-GW circuit from the same factors, on the batched stepper.
    let lif_gw_cfg = LifGwConfig {
        lif: cfg.lif,
        ..LifGwConfig::default()
    };
    let gw_seeds = replica_seeds(SplitMix64::derive(graph_seed, 3), replicas);
    let mut lif_gw_batch = BatchedLifGwCircuit::new(&gw.factors, &gw_seeds, &lif_gw_cfg);
    let lif_gw = merge_traces(&lif_gw_batch.best_traces(graph, &replica_cp));

    // LIF-Trevisan circuit (entirely online), on the batched stepper.
    let lif_tr_cfg = LifTrevisanConfig {
        network: snc_neuro::TwoStageConfig {
            lif: cfg.lif,
            ..snc_neuro::TwoStageConfig::default()
        },
        ..LifTrevisanConfig::default()
    };
    let tr_seeds = replica_seeds(SplitMix64::derive(graph_seed, 4), replicas);
    let mut lif_tr_batch = BatchedLifTrevisanCircuit::new(graph, &tr_seeds, &lif_tr_cfg);
    let lif_tr = merge_traces(&lif_tr_batch.best_traces(graph, &replica_cp));

    // Random baseline.
    let mut random_sampler =
        RandomCutSampler::new(graph.n(), SplitMix64::derive(graph_seed, 5));
    let random = sample_best_trace(&mut random_sampler, graph, &checkpoints);

    Ok(SuiteTraces {
        solver,
        lif_gw,
        lif_tr,
        random,
        sdp_bound: gw.sdp_bound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExperimentScale, SuiteConfig};
    use snc_graph::generators::erdos_renyi::gnp;

    #[test]
    fn suite_produces_consistent_traces() {
        let g = gnp(30, 0.3, 7).unwrap();
        let mut cfg = SuiteConfig::for_scale(ExperimentScale::Quick);
        cfg.sample_budget = 256;
        let traces = run_suite(&g, &cfg, 42).unwrap();
        let m = g.m() as u64;
        for (name, t) in traces.named() {
            assert!(!t.best.is_empty(), "{name} trace empty");
            assert!(t.final_best() <= m, "{name} exceeds m");
            assert!(t.best.windows(2).all(|w| w[0] <= w[1]), "{name} not monotone");
        }
        // The paper's qualitative ordering at the end of sampling:
        // solver ≈ lif_gw ≥ random; everything ≤ SDP bound.
        assert!(traces.sdp_bound >= traces.solver.final_best() as f64 - 1e-6);
        let s = traces.solver.final_best() as f64;
        let c = traces.lif_gw.final_best() as f64;
        assert!((c - s).abs() / s.max(1.0) < 0.15, "solver {s} vs circuit {c}");
        assert!(traces.solver.final_best() >= traces.random.final_best());
    }

    #[test]
    fn suite_is_deterministic() {
        let g = gnp(20, 0.4, 3).unwrap();
        let mut cfg = SuiteConfig::for_scale(ExperimentScale::Quick);
        cfg.sample_budget = 64;
        let a = run_suite(&g, &cfg, 9).unwrap();
        let b = run_suite(&g, &cfg, 9).unwrap();
        assert_eq!(a.solver, b.solver);
        assert_eq!(a.lif_gw, b.lif_gw);
        assert_eq!(a.lif_tr, b.lif_tr);
        assert_eq!(a.random, b.random);
    }

    /// The harness at `replicas == 1` must reproduce one circuit's traces
    /// bit-for-bit (same seed ladder, same checkpoint grid): a one-seed
    /// batch per family, its stream scored one sample at a time.
    #[test]
    fn single_replica_suite_matches_sequential_circuits() {
        let g = gnp(18, 0.4, 11).unwrap();
        let mut cfg = SuiteConfig::for_scale(ExperimentScale::Quick);
        cfg.sample_budget = 64;
        assert_eq!(cfg.replicas, 1);
        let traces = run_suite(&g, &cfg, 33).unwrap();
        let checkpoints = log2_checkpoints(cfg.sample_budget);

        let sdp_cfg = SdpConfig {
            rank: cfg.sdp_rank,
            seed: SplitMix64::derive(33, 1),
            ..SdpConfig::default()
        };
        let gw = snc_maxcut::gw::solve_gw(&g, &GwConfig { sdp: sdp_cfg }).unwrap();
        let lif_gw_cfg = LifGwConfig { lif: cfg.lif, ..LifGwConfig::default() };
        let gw_seed = [SplitMix64::derive(33, 3)];
        let mut one_gw = BatchedLifGwCircuit::new(&gw.factors, &gw_seed, &lif_gw_cfg);
        let mut stream = || one_gw.next_cuts().remove(0);
        assert_eq!(traces.lif_gw, sample_best_trace(&mut stream, &g, &checkpoints));

        let lif_tr_cfg = LifTrevisanConfig {
            network: snc_neuro::TwoStageConfig {
                lif: cfg.lif,
                ..snc_neuro::TwoStageConfig::default()
            },
            ..LifTrevisanConfig::default()
        };
        let tr_seed = [SplitMix64::derive(33, 4)];
        let mut one_tr = BatchedLifTrevisanCircuit::new(&g, &tr_seed, &lif_tr_cfg);
        let mut stream = || one_tr.next_cuts().remove(0);
        assert_eq!(traces.lif_tr, sample_best_trace(&mut stream, &g, &checkpoints));
    }

    #[test]
    fn multi_replica_suite_merges_budget() {
        let g = gnp(24, 0.4, 5).unwrap();
        let mut cfg = SuiteConfig::for_scale(ExperimentScale::Quick);
        cfg.sample_budget = 256;
        cfg.replicas = 8;
        let traces = run_suite(&g, &cfg, 13).unwrap();
        // Circuit grids are merged total-sample counts ending at the
        // budget; software grids are untouched.
        assert_eq!(traces.lif_gw.checkpoints.last(), Some(&256));
        assert_eq!(traces.lif_tr.checkpoints.last(), Some(&256));
        assert_eq!(traces.lif_gw.checkpoints, log2_checkpoints(32).iter().map(|c| c * 8).collect::<Vec<_>>());
        assert_eq!(traces.solver.checkpoints, log2_checkpoints(256));
        for (name, t) in traces.named() {
            assert!(t.best.windows(2).all(|w| w[0] <= w[1]), "{name} not monotone");
            assert!(t.final_best() <= g.m() as u64, "{name} exceeds m");
        }
        // Determinism holds for the batched path too.
        let again = run_suite(&g, &cfg, 13).unwrap();
        assert_eq!(traces.lif_gw, again.lif_gw);
        assert_eq!(traces.lif_tr, again.lif_tr);
    }

    /// The serving layer's [`mod@snc_maxcut::solve`] entry point shares the
    /// suite's seed ladder and budget arithmetic, so a request carrying
    /// a figure's per-graph seed reproduces that figure's circuit trace
    /// bit for bit — the contract that makes server responses
    /// comparable to published harness numbers.
    #[test]
    fn server_solve_reproduces_suite_circuit_traces() {
        use snc_maxcut::{CircuitFamily, SolveSpec};
        let g = gnp(22, 0.4, 17).unwrap();
        let mut cfg = SuiteConfig::for_scale(ExperimentScale::Quick);
        cfg.sample_budget = 64;
        cfg.replicas = 4;
        let traces = run_suite(&g, &cfg, 21).unwrap();
        for (family, expected) in [
            (CircuitFamily::LifGw, &traces.lif_gw),
            (CircuitFamily::LifTrevisan, &traces.lif_tr),
        ] {
            let spec = SolveSpec {
                replicas: cfg.replicas,
                sdp_rank: cfg.sdp_rank,
                lif: cfg.lif,
                ..SolveSpec::new(family, cfg.sample_budget, 21)
            };
            let out = snc_maxcut::solve(&g, &spec).unwrap();
            assert_eq!(&out.trace, expected, "{family:?}");
            assert_eq!(out.best_cut.cut_value(&g), out.best_value);
        }
    }

    #[test]
    fn awkward_budget_replica_combinations_never_overshoot() {
        // Indivisible budget: merged trace ends at ⌊B/R⌋·R ≤ B.
        assert_eq!(replica_checkpoints(1000, 16).last(), Some(&62));
        assert_eq!(effective_replicas(1000, 16), 16); // 62·16 = 992 ≤ 1000
        // More replicas than samples: width capped at the budget.
        assert_eq!(effective_replicas(4, 8), 4);
        assert_eq!(replica_checkpoints(4, 8).last(), Some(&1)); // 1·4 = 4
        // Degenerate inputs stay sane: zero budget draws zero circuit
        // samples, exactly like the software baselines.
        assert_eq!(effective_replicas(0, 8), 1);
        assert_eq!(effective_replicas(64, 0), 1);
        assert!(replica_checkpoints(0, 8).is_empty());
        let g = gnp(12, 0.5, 2).unwrap();
        let mut cfg = SuiteConfig::for_scale(ExperimentScale::Quick);
        cfg.sample_budget = 10;
        cfg.replicas = 4;
        let traces = run_suite(&g, &cfg, 5).unwrap();
        // 4 replicas × ⌊10/4⌋ = 8 total circuit samples, ≤ budget.
        assert_eq!(traces.lif_gw.checkpoints.last(), Some(&8));
        assert_eq!(traces.lif_tr.checkpoints.last(), Some(&8));
        assert_eq!(traces.solver.checkpoints.last(), Some(&10));
    }
}
