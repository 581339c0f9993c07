//! The device-imperfection study (E5).
//!
//! The Discussion (§VI) hypothesizes: "we expect robustness to deviations
//! of individual devices from the idealized perfect coin as the number of
//! devices grows," while noting real devices "may display the statistics of
//! an unfair coin, show internal or external correlations, or display
//! statistics that drift over time." This experiment makes those three
//! deviations quantitative: sweep each imperfection knob and measure the
//! LIF-GW circuit's best cut (relative to the ideal software solver) on a
//! fixed Erdős–Rényi graph.

use crate::config::SuiteConfig;
use crate::report::{fmt_f, Table};
use crate::runner::JobRunner;
use snc_devices::{CommonCause, DeviceModel, SplitMix64};
use snc_graph::generators::erdos_renyi::gnp;
use snc_linalg::SdpConfig;
use snc_maxcut::{sampling::sample_stats, BatchedLifGwCircuit, GwConfig, GwSampler, LifGwConfig};

/// One measured configuration of the robustness sweep.
#[derive(Clone, Debug)]
pub struct RobustnessPoint {
    /// Human-readable imperfection description (e.g. `bias=0.7`).
    pub label: String,
    /// Best cut found by the imperfect-device LIF-GW circuit.
    pub circuit_best: u64,
    /// Best cut found by the ideal software sampler (same budget).
    pub software_best: u64,
    /// `circuit_best / software_best` — the saturating headline metric.
    pub relative: f64,
    /// Mean single-sample cut of the circuit relative to the software
    /// sampler's mean — the sensitive metric: covariance distortion shows
    /// up here long before it dents best-of-N.
    pub mean_relative: f64,
}

/// The full sweep result.
#[derive(Clone, Debug)]
pub struct RobustnessResult {
    /// Graph parameters used.
    pub n: usize,
    /// Connection probability used.
    pub p: f64,
    /// All measured points.
    pub points: Vec<RobustnessPoint>,
}

/// The sweep grid.
#[derive(Clone, Debug)]
pub struct RobustnessGrid {
    /// Device biases to test (0.5 = ideal).
    pub biases: Vec<f64>,
    /// Common-cause couplings to test (0 = ideal).
    pub couplings: Vec<f64>,
    /// Drift step sizes to test (0 = ideal), clamped to `[0.2, 0.8]`.
    pub drift_sigmas: Vec<f64>,
}

impl Default for RobustnessGrid {
    fn default() -> Self {
        Self {
            biases: vec![0.5, 0.6, 0.7, 0.8, 0.9],
            couplings: vec![0.0, 0.25, 0.5, 0.75],
            drift_sigmas: vec![0.0, 0.01, 0.05],
        }
    }
}

/// Runs the robustness sweep on `G(n, p)`.
///
/// # Panics
///
/// Panics on SDP failure or invalid device parameters (the grid is
/// validated by construction).
pub fn run_robustness(
    n: usize,
    p: f64,
    grid: &RobustnessGrid,
    cfg: &SuiteConfig,
    verbose: bool,
) -> RobustnessResult {
    let graph = gnp(n, p, SplitMix64::derive(cfg.seed, 0x40B)).expect("valid parameters");
    let sdp_cfg = SdpConfig {
        rank: cfg.sdp_rank,
        seed: SplitMix64::derive(cfg.seed, 1),
        ..SdpConfig::default()
    };
    let gw = snc_maxcut::gw::solve_gw(&graph, &GwConfig { sdp: sdp_cfg }).expect("sdp solve");
    // Ideal software reference at the same budget.
    let mut software = GwSampler::new(gw.factors.clone(), SplitMix64::derive(cfg.seed, 2));
    let software_stats = sample_stats(&mut software, &graph, cfg.sample_budget);

    // Build the sweep jobs.
    enum Knob {
        Bias(f64),
        Coupling(f64),
        Drift(f64),
    }
    let mut jobs: Vec<(String, Knob)> = Vec::new();
    for &b in &grid.biases {
        jobs.push((format!("bias={b}"), Knob::Bias(b)));
    }
    for &c in &grid.couplings {
        jobs.push((format!("coupling={c}"), Knob::Coupling(c)));
    }
    for &s in &grid.drift_sigmas {
        jobs.push((format!("drift={s}"), Knob::Drift(s)));
    }

    let mut runner = JobRunner::new(cfg.threads);
    if verbose {
        runner = runner.verbose();
    }
    let points = runner.run(jobs.len(), "robustness", |idx| {
        let (label, knob) = &jobs[idx];
        let mut circuit_cfg = LifGwConfig {
            lif: cfg.lif,
            ..LifGwConfig::default()
        };
        match knob {
            Knob::Bias(b) => {
                circuit_cfg.device = DeviceModel::biased(*b).expect("valid bias");
            }
            Knob::Coupling(c) => {
                circuit_cfg.common_cause = if *c > 0.0 {
                    Some(CommonCause::new(*c).expect("valid coupling"))
                } else {
                    None
                };
            }
            Knob::Drift(s) => {
                circuit_cfg.device = if *s > 0.0 {
                    DeviceModel::drifting(0.5, *s, 0.2, 0.8).expect("valid drift")
                } else {
                    DeviceModel::fair()
                };
            }
        }
        let seed = SplitMix64::derive(cfg.seed, 100 + idx as u64);
        let mut circuit = BatchedLifGwCircuit::new(&gw.factors, &[seed], &circuit_cfg);
        let mut stream = || circuit.next_cuts().remove(0);
        let stats = sample_stats(&mut stream, &graph, cfg.sample_budget);
        RobustnessPoint {
            label: label.clone(),
            circuit_best: stats.best,
            software_best: software_stats.best,
            relative: stats.best as f64 / software_stats.best.max(1) as f64,
            mean_relative: stats.mean / software_stats.mean.max(1e-12),
        }
    });

    RobustnessResult {
        n: graph.n(),
        p,
        points,
    }
}

impl RobustnessResult {
    /// Renders the sweep as a table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(&[
            "imperfection",
            "circuit_best",
            "software_best",
            "best_relative",
            "mean_relative",
        ]);
        for pt in &self.points {
            t.push_row(vec![
                pt.label.clone(),
                pt.circuit_best.to_string(),
                pt.software_best.to_string(),
                fmt_f(pt.relative),
                fmt_f(pt.mean_relative),
            ]);
        }
        t
    }

    /// The point measured for a given label, if present.
    pub fn point(&self, label: &str) -> Option<&RobustnessPoint> {
        self.points.iter().find(|p| p.label == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExperimentScale, SuiteConfig};

    #[test]
    fn ideal_devices_match_software_and_labels_present() {
        let mut cfg = SuiteConfig::for_scale(ExperimentScale::Quick);
        cfg.sample_budget = 128;
        cfg.threads = 1;
        let grid = RobustnessGrid {
            biases: vec![0.5, 0.8],
            couplings: vec![0.0, 0.75],
            drift_sigmas: vec![],
        };
        let result = run_robustness(24, 0.3, &grid, &cfg, false);
        assert_eq!(result.points.len(), 4);
        let ideal = result.point("bias=0.5").unwrap();
        assert!(
            ideal.relative > 0.9,
            "ideal devices degraded: {}",
            ideal.relative
        );
        // The paper's robustness hypothesis: imperfections perturb the
        // realized covariance only mildly (threshold re-centering absorbs
        // bias exactly; the common-cause term is a weak rank-1 addition),
        // so the mean sample stays within a narrow band of the ideal.
        for pt in &result.points {
            assert!(
                (0.85..=1.15).contains(&pt.mean_relative),
                "{}: mean_relative {} outside the robustness band",
                pt.label,
                pt.mean_relative
            );
        }
        let t = result.to_table();
        assert_eq!(t.rows.len(), 4);
    }
}
