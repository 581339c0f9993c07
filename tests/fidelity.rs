//! Paper-fidelity gate: circuit quality on fixed CI-sized graphs at
//! serving budgets.
//!
//! Both checks are the "quality unchanged" form: a change that keeps a
//! circuit's distribution but moves its bits (a reordered sum, a
//! closed-form update, a different `tanh`) must not lower the mean best
//! cut over many seeds. Each record holds the best cut every seed
//! reached before such a change, on graphs and seed lists fixed before
//! the change ran. The gate allows each mean to fall by at most 0.5% of
//! the edge count.

use snc::snc_graph::generators::erdos_renyi::gnp;
use snc::snc_graph::Graph;
use snc::snc_maxcut::{solve, CircuitFamily, SolveSpec, SERVED_LIF};

/// Master seeds of every check.
const SEEDS: std::ops::RangeInclusive<u64> = 1..=32;

/// `(replicas, best cut per seed in SEEDS order)`.
type Record = (usize, [u64; 32]);

/// G(n, p) with the checks' graph seed.
fn graph(n: usize, p: f64) -> Graph {
    gnp(n, p, 0xF1DE).unwrap()
}

/// Serving budget of the LIF-Trevisan check.
const LIF_TR_BUDGET: u64 = 256;

/// LIF-Trevisan on G(200, 0.05), recorded before the closed-form stage 1.
const LIF_TR_RECORD: [Record; 2] = [
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

/// Serving budgets of the Hopfield check's sparse and dense graphs.
const HOPFIELD_BUDGETS: [u64; 2] = [512, 128];

/// Hopfield on G(200, 0.05) and G(350, 0.1), recorded while the
/// activation was libm's `tanh`. Eleven dense R = 1 seeds end at cut 0:
/// their lane locks into the all-units-flip period-2 oscillation, whose
/// every readout puts all units on one side.
const HOPFIELD_RECORD: [[Record; 2]; 2] = [
    [
        (
            1,
            [
                688, 680, 691, 691, 684, 697, 679, 680, 679, 691, 686, 685, 693, 680, 691, 678,
                693, 684, 687, 692, 686, 683, 684, 686, 686, 685, 691, 674, 685, 679, 681, 690,
            ],
        ),
        (
            8,
            [
                692, 685, 697, 696, 693, 691, 694, 692, 691, 691, 696, 693, 699, 695, 691, 695,
                691, 695, 698, 696, 693, 696, 696, 696, 692, 694, 695, 694, 691, 696, 692, 694,
            ],
        ),
    ],
    [
        (
            1,
            [
                0, 3680, 0, 3670, 3652, 3659, 3664, 3625, 0, 3672, 3666, 3689, 3678, 3663, 3671, 0,
                3667, 3664, 3660, 0, 3630, 0, 3698, 0, 3657, 0, 3688, 0, 0, 0, 3661, 3676,
            ],
        ),
        (
            8,
            [
                3646, 3675, 3683, 3686, 3680, 3655, 3658, 3662, 3687, 3677, 3680, 3689, 3683, 3687,
                3683, 3694, 3681, 3687, 3672, 3686, 3688, 3669, 3686, 3665, 3689, 3670, 3674, 3669,
                3670, 3677, 3679, 3672,
            ],
        ),
    ],
];

/// The best cut of every seed at `replicas`, served parameters.
fn best_cuts(graph: &Graph, family: CircuitFamily, budget: u64, replicas: usize) -> Vec<u64> {
    SEEDS
        .map(|seed| {
            let spec = SolveSpec {
                replicas,
                lif: SERVED_LIF,
                ..SolveSpec::new(family, budget, seed)
            };
            solve(graph, &spec).unwrap().best_value
        })
        .collect()
}

fn mean(xs: &[u64]) -> f64 {
    xs.iter().sum::<u64>() as f64 / xs.len() as f64
}

/// Fails if a row's mean best cut fell more than 0.5% of `m` below its
/// record.
fn check(name: &str, graph: &Graph, family: CircuitFamily, budget: u64, records: &[Record]) {
    let m = graph.m() as f64;
    for &(replicas, record) in records {
        let cuts = best_cuts(graph, family, budget, replicas);
        let equal = cuts.iter().zip(&record).filter(|(a, b)| a == b).count();
        let (now, then) = (mean(&cuts), mean(&record));
        eprintln!(
            "{name} R={replicas}: mean best cut {now:.3} (recorded {then:.3}, m = {m}), \
             {equal}/{} seeds equal; cuts {cuts:?}",
            cuts.len()
        );
        assert!(
            now >= then - 0.005 * m,
            "{name} R={replicas}: mean best cut {now:.3} fell below the record {then:.3} - 0.5% of m = {m}"
        );
    }
}

#[test]
fn lif_trevisan_quality_unchanged() {
    check(
        "LIF-TR",
        &graph(200, 0.05),
        CircuitFamily::LifTrevisan,
        LIF_TR_BUDGET,
        &LIF_TR_RECORD,
    );
}

#[test]
fn hopfield_quality_unchanged() {
    let graphs = [graph(200, 0.05), graph(350, 0.1)];
    for ((g, budget), records) in graphs.iter().zip(HOPFIELD_BUDGETS).zip(&HOPFIELD_RECORD) {
        let name = format!("Hopfield G({}, m = {})", g.n(), g.m());
        check(&name, g, CircuitFamily::Hopfield, budget, records);
    }
}
