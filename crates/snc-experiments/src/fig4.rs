//! Figure 4: best-cut-vs-samples curves on the 16 empirical graphs.
//!
//! "Maximum cut relative to solver as a function of the number of samples
//! for empirical graphs taken from the Network Repository. Each panel
//! represents a single graph, thus there are no error bars."

use crate::config::SuiteConfig;
use crate::report::{fmt_f, Table};
use crate::runner::JobRunner;
use crate::suite::{run_suite, SuiteTraces};
use snc_devices::SplitMix64;
use snc_graph::EmpiricalDataset;

/// One per-graph panel of Figure 4.
#[derive(Clone, Debug)]
pub struct GraphPanel {
    /// The dataset.
    pub dataset: EmpiricalDataset,
    /// The four solver traces.
    pub traces: SuiteTraces,
}

/// The complete Figure-4 result.
#[derive(Clone, Debug)]
pub struct Fig4Result {
    /// One panel per dataset, in Table-I order.
    pub panels: Vec<GraphPanel>,
}

/// Runs the Figure-4 experiment over the given datasets.
///
/// # Panics
///
/// Panics if a dataset fails to load or a solver fails.
pub fn run_fig4(datasets: &[EmpiricalDataset], cfg: &SuiteConfig, verbose: bool) -> Fig4Result {
    let mut runner = JobRunner::new(cfg.threads);
    if verbose {
        runner = runner.verbose();
    }
    let panels = runner.run(datasets.len(), "fig4", |idx| {
        let dataset = datasets[idx];
        let graph = dataset.load().expect("dataset construction");
        let graph_seed = SplitMix64::derive(cfg.seed, 0xF164 ^ idx as u64);
        let traces = run_suite(&graph, cfg, graph_seed).expect("suite solver failure");
        GraphPanel { dataset, traces }
    });
    Fig4Result { panels }
}

impl Fig4Result {
    /// Long-format table: `graph, solver, samples, relative_best`.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(&["graph", "solver", "samples", "relative_best"]);
        for panel in &self.panels {
            let reference = panel.traces.solver.final_best() as f64;
            for (name, trace) in panel.traces.named() {
                let rel = trace.relative_to(reference);
                for (cp, r) in trace.checkpoints.iter().zip(&rel) {
                    table.push_row(vec![
                        panel.dataset.name().to_string(),
                        name.to_string(),
                        cp.to_string(),
                        fmt_f(*r),
                    ]);
                }
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExperimentScale, SuiteConfig};

    #[test]
    fn fig4_on_two_small_datasets() {
        let mut cfg = SuiteConfig::for_scale(ExperimentScale::Quick);
        cfg.sample_budget = 64;
        cfg.threads = 1;
        let datasets = [
            EmpiricalDataset::SocDolphins,
            EmpiricalDataset::RoadChesapeake,
        ];
        let result = run_fig4(&datasets, &cfg, false);
        assert_eq!(result.panels.len(), 2);
        for panel in &result.panels {
            let s = panel.traces.solver.final_best();
            let r = panel.traces.random.final_best();
            assert!(s >= r, "{}: solver {s} < random {r}", panel.dataset.name());
            // LIF-GW within 15% of solver even at this tiny budget.
            let c = panel.traces.lif_gw.final_best() as f64;
            assert!(
                (c - s as f64).abs() / s.max(1) as f64 <= 0.15,
                "{}: lif_gw {c} vs solver {s}",
                panel.dataset.name()
            );
        }
        let table = result.to_table();
        assert!(!table.rows.is_empty());
    }
}
