//! A miniature Figure 3: the Erdős–Rényi sweep at reduced scale.
//!
//! Prints the best-so-far curve (relative to the software solver) for each
//! solver on a couple of `(n, p)` panels, showing the paper's
//! characteristic shapes: LIF-GW overlapping the solver from the first
//! samples, LIF-TR climbing as Oja's rule converges, random trailing.
//!
//! ```text
//! cargo run --release --example erdos_renyi_sweep
//! ```

use snc::snc_experiments::config::{ExperimentScale, SuiteConfig};
use snc::snc_experiments::fig3::run_fig3;

fn main() {
    let mut cfg = SuiteConfig::for_scale(ExperimentScale::Quick);
    cfg.sample_budget = 1024;
    cfg.threads = snc::snc_neuro::parallel::default_threads();

    let ns = [50usize, 100];
    let ps = [0.25f64, 0.5];
    println!(
        "mini Figure 3: n in {ns:?}, p in {ps:?}, 3 graphs per cell, {} samples per circuit\n",
        cfg.sample_budget
    );
    let result = run_fig3(&ns, &ps, 3, &cfg, false);

    for panel in &result.panels {
        println!("panel G({}, {}):", panel.n, panel.p);
        println!(
            "  {:>10} {:>9} {:>9} {:>9} {:>9}",
            "samples", "LIF-GW", "LIF-TR", "solver", "random"
        );
        let grid = &panel.curves[0].1.checkpoints;
        for (k, &cp) in grid.iter().enumerate() {
            let get = |key: &str| {
                panel
                    .curves
                    .iter()
                    .find(|(n, _)| *n == key)
                    .map(|(_, c)| c.mean[k])
                    .unwrap_or(0.0)
            };
            println!(
                "  {:>10} {:>9.4} {:>9.4} {:>9.4} {:>9.4}",
                cp,
                get("lif_gw"),
                get("lif_tr"),
                get("solver"),
                get("random")
            );
        }
        println!();
    }
    println!("(values are best cut relative to the software GW solver's final best,");
    println!(" mean over 3 graphs — compare with the panel shapes of the paper's Fig. 3)");
}
