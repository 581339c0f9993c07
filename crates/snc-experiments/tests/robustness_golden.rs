//! Golden digests of the device-imperfection sweep (`run_robustness`).
//!
//! No other fixture reaches the non-fair device models: a biased pool, a
//! common-cause correlated pool and a drifting pool feed LIF-GW only
//! through this experiment. One point per knob on a small G(40, 0.2) at
//! `threads = 1` pins each point's `circuit_best`, `software_best` and
//! `mean_relative` bits, so a refactor of the device pools or of the
//! circuit that samples them must keep every digest. A change that is
//! *meant* to alter them regenerates the rows and says why; on a mismatch
//! the failure message prints every row in table syntax.

use snc_experiments::config::{ExperimentScale, SuiteConfig};
use snc_experiments::robustness::{run_robustness, RobustnessGrid, RobustnessPoint};

/// FNV-1a over little-endian 64-bit words.
fn digest(pt: &RobustnessPoint) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in [
        pt.circuit_best,
        pt.software_best,
        pt.mean_relative.to_bits(),
    ] {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

const EXPECTED: [(&str, u64); 3] = [
    ("bias=0.7", 0x1bb9_a0dd_37a0_2bb6),
    ("coupling=0.5", 0x932b_89f6_98e1_c15c),
    ("drift=0.05", 0x60f5_14bd_1495_c6d1),
];

#[test]
fn one_point_per_device_knob() {
    let mut cfg = SuiteConfig::for_scale(ExperimentScale::Quick);
    cfg.sample_budget = 200;
    cfg.threads = 1;
    let grid = RobustnessGrid {
        biases: vec![0.7],
        couplings: vec![0.5],
        drift_sigmas: vec![0.05],
    };
    let result = run_robustness(40, 0.2, &grid, &cfg, false);
    let got: Vec<(String, u64)> = result
        .points
        .iter()
        .map(|pt| (pt.label.clone(), digest(pt)))
        .collect();
    let expected: Vec<(String, u64)> = EXPECTED
        .iter()
        .map(|&(label, d)| (label.to_string(), d))
        .collect();
    let table: Vec<String> = got
        .iter()
        .map(|(label, d)| format!("    (\"{label}\", {d:#018x}),"))
        .collect();
    assert_eq!(
        got,
        expected,
        "robustness points moved:\n{}",
        table.join("\n")
    );
}
