//! Paper-fidelity gate: circuit quality on fixed CI-sized graphs at
//! serving budgets.
//!
//! The LIF-Trevisan check is the "quality unchanged" form: a change that
//! keeps the circuit's distribution but moves its bits (a reordered sum,
//! a closed-form update) must not lower the mean best cut over many
//! seeds. `LIF_TR_RECORD` holds the best cut each seed reached before
//! LIF-Trevisan's stage 1 moved to the one-product-per-update form, on a
//! graph and seed list fixed before that change ran. The gate allows the
//! mean to fall by at most 0.5% of the edge count.

use snc::snc_graph::generators::erdos_renyi::gnp;
use snc::snc_graph::Graph;
use snc::snc_maxcut::{solve, CircuitFamily, SolveSpec, SERVED_LIF};

/// Serving budget of the LIF-Trevisan check.
const BUDGET: u64 = 256;

/// Master seeds of the LIF-Trevisan check.
const SEEDS: std::ops::RangeInclusive<u64> = 1..=32;

/// The LIF-Trevisan check's graph: G(200, 0.05).
fn lif_tr_graph() -> Graph {
    gnp(200, 0.05, 0xF1DE).unwrap()
}

/// `(replicas, best cut per seed in SEEDS order)` recorded before the
/// closed-form stage 1.
const LIF_TR_RECORD: [(usize, [u64; 32]); 2] = [
    (
        1,
        [
            510, 525, 502, 520, 503, 502, 510, 516, 514, 506, 495, 519, 514, 504, 498, 512, 508,
            508, 511, 503, 520, 497, 499, 502, 498, 514, 500, 505, 523, 498, 494, 503,
        ],
    ),
    (
        8,
        [
            511, 507, 532, 510, 516, 520, 512, 513, 535, 521, 518, 518, 524, 524, 521, 520, 547,
            509, 521, 512, 531, 529, 526, 509, 513, 524, 518, 512, 515, 528, 505, 518,
        ],
    ),
];

/// The best cut of every seed at `replicas`, served LIF parameters.
fn lif_tr_best_cuts(graph: &Graph, replicas: usize) -> Vec<u64> {
    SEEDS
        .map(|seed| {
            let spec = SolveSpec {
                replicas,
                lif: SERVED_LIF,
                ..SolveSpec::new(CircuitFamily::LifTrevisan, BUDGET, seed)
            };
            solve(graph, &spec).unwrap().best_value
        })
        .collect()
}

fn mean(xs: &[u64]) -> f64 {
    xs.iter().sum::<u64>() as f64 / xs.len() as f64
}

#[test]
fn lif_trevisan_quality_unchanged() {
    let graph = lif_tr_graph();
    let m = graph.m() as f64;
    for (replicas, record) in LIF_TR_RECORD {
        let cuts = lif_tr_best_cuts(&graph, replicas);
        let equal = cuts.iter().zip(&record).filter(|(a, b)| a == b).count();
        let (now, then) = (mean(&cuts), mean(&record));
        eprintln!(
            "LIF-TR R={replicas}: mean best cut {now:.3} (recorded {then:.3}, m = {m}), \
             {equal}/{} seeds equal; cuts {cuts:?}",
            cuts.len()
        );
        assert!(
            now >= then - 0.005 * m,
            "LIF-TR R={replicas}: mean best cut {now:.3} fell below the record {then:.3} - 0.5% of m = {m}"
        );
    }
}
