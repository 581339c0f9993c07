//! Table I: maximum cut values per circuit on the empirical graphs,
//! printed alongside the paper's reference values.
//!
//! On the two exact reconstructions (`hamming6-2`, `johnson16-2-4`)
//! absolute values are comparable with the paper; on the 14 stand-ins only
//! the *ordering* (Solver ≈ LIF-GW ≥ LIF-TR > Random) is expected to
//! transfer. Two of the originals are weighted graphs, flagged in the
//! output (see `snc-graph::datasets`).

use crate::config::SuiteConfig;
use crate::fig4::{run_fig4, Fig4Result};
use crate::report::Table;
use snc_devices::SplitMix64;
use snc_graph::{datasets::Provenance, EmpiricalDataset};
use snc_maxcut::{solve, CircuitFamily, SolveSpec};

/// One row of the reproduced Table I.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// The dataset.
    pub dataset: EmpiricalDataset,
    /// Measured best cut of the LIF-GW circuit.
    pub lif_gw: u64,
    /// Measured best cut of the LIF-TR circuit.
    pub lif_tr: u64,
    /// Measured best cut of the LIF-annealed companion family (LIF-GW
    /// substrate under the default σ cooling schedule).
    pub lif_annealed: u64,
    /// Measured best cut of the deterministic Hopfield baseline.
    pub hopfield: u64,
    /// Measured best cut of the software solver.
    pub solver: u64,
    /// Measured best cut of the random baseline.
    pub random: u64,
    /// The SDP upper bound.
    pub sdp_bound: f64,
}

/// The reproduced Table I.
#[derive(Clone, Debug)]
pub struct Table1Result {
    /// Rows in the paper's order.
    pub rows: Vec<Table1Row>,
}

/// Runs the Table-I experiment (shares all computation with Figure 4).
pub fn run_table1(datasets: &[EmpiricalDataset], cfg: &SuiteConfig, verbose: bool) -> Table1Result {
    let fig4 = run_fig4(datasets, cfg, verbose);
    Table1Result::from_fig4(&fig4, cfg)
}

impl Table1Result {
    /// Extracts final best values from Figure-4 traces, then runs the
    /// two companion families (LIF-annealed, Hopfield) on the same
    /// per-graph seed ladder to fill their columns — Figure 4 only
    /// sweeps the paper's four solvers.
    pub fn from_fig4(fig4: &Fig4Result, cfg: &SuiteConfig) -> Self {
        let rows = fig4
            .panels
            .iter()
            .enumerate()
            .map(|(idx, panel)| {
                let graph = panel.dataset.load().expect("dataset construction");
                // The same per-graph seed Figure 4 derives, so every
                // column of one row hangs off one master seed.
                let graph_seed = SplitMix64::derive(cfg.seed, 0xF164 ^ idx as u64);
                let family_best = |family: CircuitFamily| {
                    let spec = SolveSpec {
                        replicas: cfg.replicas,
                        sdp_rank: cfg.sdp_rank,
                        lif: cfg.lif,
                        ..SolveSpec::new(family, cfg.sample_budget, graph_seed)
                    };
                    solve(&graph, &spec)
                        .expect("companion family solve")
                        .best_value
                };
                Table1Row {
                    dataset: panel.dataset,
                    lif_gw: panel.traces.lif_gw.final_best(),
                    lif_tr: panel.traces.lif_tr.final_best(),
                    lif_annealed: family_best(CircuitFamily::LifAnnealed),
                    hopfield: family_best(CircuitFamily::Hopfield),
                    solver: panel.traces.solver.final_best(),
                    random: panel.traces.random.final_best(),
                    sdp_bound: panel.traces.sdp_bound,
                }
            })
            .collect();
        Self { rows }
    }

    /// Renders the measured-vs-paper table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(&[
            "graph",
            "provenance",
            "LIF-GW",
            "LIF-TR",
            "LIF-ANN",
            "Hopfield",
            "Solver",
            "Random",
            "paper LIF-GW",
            "paper LIF-TR",
            "paper Solver",
            "paper Random",
        ]);
        for row in &self.rows {
            let paper = row.dataset.paper_row();
            let provenance = match row.dataset.provenance() {
                Provenance::Exact => "exact".to_string(),
                Provenance::StandIn { family } => format!("stand-in:{family}"),
            };
            t.push_row(vec![
                row.dataset.name().to_string(),
                provenance,
                row.lif_gw.to_string(),
                row.lif_tr.to_string(),
                row.lif_annealed.to_string(),
                row.hopfield.to_string(),
                row.solver.to_string(),
                row.random.to_string(),
                paper.lif_gw.to_string(),
                paper.lif_tr.to_string(),
                paper.solver.to_string(),
                paper.random.to_string(),
            ]);
        }
        t
    }

    /// Checks the paper's qualitative ordering on every row:
    /// `LIF-GW` within `tolerance` of `Solver`, and `Solver > Random`.
    /// Returns the list of violations (empty = shape reproduced).
    pub fn ordering_violations(&self, tolerance: f64) -> Vec<String> {
        let mut violations = Vec::new();
        for row in &self.rows {
            let name = row.dataset.name();
            let s = row.solver as f64;
            if (row.lif_gw as f64) < s * (1.0 - tolerance) {
                violations.push(format!(
                    "{name}: LIF-GW {} below solver {} tolerance",
                    row.lif_gw, row.solver
                ));
            }
            if row.solver <= row.random && row.solver > 0 {
                violations.push(format!(
                    "{name}: solver {} not above random {}",
                    row.solver, row.random
                ));
            }
            if (row.solver as f64) > row.sdp_bound + 1e-6 {
                violations.push(format!(
                    "{name}: solver {} exceeds SDP bound {}",
                    row.solver, row.sdp_bound
                ));
            }
            // Every companion-family value is a real cut, so the SDP
            // bound caps it like everything else.
            for (label, value) in [
                ("lif-annealed", row.lif_annealed),
                ("hopfield", row.hopfield),
            ] {
                if (value as f64) > row.sdp_bound + 1e-6 {
                    violations.push(format!(
                        "{name}: {label} {value} exceeds SDP bound {}",
                        row.sdp_bound
                    ));
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExperimentScale, SuiteConfig};

    #[test]
    fn table1_small_subset_has_paper_ordering() {
        let mut cfg = SuiteConfig::for_scale(ExperimentScale::Quick);
        cfg.sample_budget = 256;
        cfg.threads = 1;
        let datasets = [EmpiricalDataset::SocDolphins, EmpiricalDataset::Enzymes8];
        let result = run_table1(&datasets, &cfg, false);
        assert_eq!(result.rows.len(), 2);
        let violations = result.ordering_violations(0.1);
        assert!(violations.is_empty(), "{violations:?}");
        let t = result.to_table();
        assert_eq!(t.rows.len(), 2);
        assert!(t.to_markdown().contains("soc-dolphins"));
    }

    #[test]
    fn table1_emits_the_companion_family_columns() {
        let mut cfg = SuiteConfig::for_scale(ExperimentScale::Quick);
        cfg.sample_budget = 64;
        cfg.threads = 1;
        let datasets = [EmpiricalDataset::RoadChesapeake];
        let result = run_table1(&datasets, &cfg, false);
        let row = &result.rows[0];
        // Both companions produce real cuts: positive and under the bound.
        assert!(row.lif_annealed > 0);
        assert!(row.hopfield > 0);
        assert!((row.lif_annealed as f64) <= row.sdp_bound + 1e-6);
        assert!((row.hopfield as f64) <= row.sdp_bound + 1e-6);
        let markdown = result.to_table().to_markdown();
        assert!(markdown.contains("LIF-ANN"));
        assert!(markdown.contains("Hopfield"));
    }

    #[test]
    fn table1_companion_columns_are_deterministic() {
        let mut cfg = SuiteConfig::for_scale(ExperimentScale::Quick);
        cfg.sample_budget = 64;
        cfg.threads = 1;
        let datasets = [EmpiricalDataset::SocDolphins];
        let a = run_table1(&datasets, &cfg, false);
        let b = run_table1(&datasets, &cfg, false);
        assert_eq!(a.rows[0].lif_annealed, b.rows[0].lif_annealed);
        assert_eq!(a.rows[0].hopfield, b.rows[0].hopfield);
    }
}
