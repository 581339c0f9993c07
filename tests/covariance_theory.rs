//! E4: the central §III.C claim, end to end — a device-driven LIF
//! population realizes membrane covariances proportional to the Gram
//! matrix of its weight vectors, for both circuits' weight structures.

use snc::snc_devices::{DeviceModel, PoolSpec};
use snc::snc_graph::generators::structured::{complete_bipartite, cycle};
use snc::snc_linalg::DMatrix;
use snc::snc_maxcut::{gw, GwConfig};
use snc::snc_neuro::theory;
use snc::snc_neuro::{BatchWeights, CscWeights, DenseWeights, LifParams, ReplicaBatch, Reset};

/// One device-driven LIF population (a one-seed batch) on `devices`
/// devices of `model`.
fn network<W: BatchWeights>(
    model: DeviceModel,
    devices: usize,
    seed: u64,
    weights: W,
    params: LifParams,
) -> ReplicaBatch<W> {
    let spec = PoolSpec::uniform(model, devices);
    ReplicaBatch::new(spec, &[seed], weights, params, Reset::None)
}

/// Measures the empirical covariance of a network's membranes.
fn empirical_covariance<W: BatchWeights>(
    net: &mut ReplicaBatch<W>,
    steps: usize,
    warmup: usize,
) -> DMatrix {
    let n = net.neurons();
    net.step_many(warmup as u64);
    let mut d = vec![0.0; n];
    let mut acc = DMatrix::zeros(n, n);
    for _ in 0..steps {
        net.step();
        net.centered_into(&mut d);
        for i in 0..n {
            for j in i..n {
                acc[(i, j)] += d[i] * d[j];
            }
        }
    }
    let inv = 1.0 / steps as f64;
    let mut cov = DMatrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            cov[(i, j)] = acc[(i, j)] * inv;
            cov[(j, i)] = cov[(i, j)];
        }
    }
    cov
}

fn max_relative_error(emp: &DMatrix, theory: &DMatrix) -> f64 {
    let scale = theory.frobenius().max(1e-12);
    emp.max_abs_diff(theory) / scale * (theory.rows() as f64).sqrt()
}

#[test]
fn lif_gw_covariance_matches_sdp_gram() {
    // Wire the LIF-GW circuit for a real graph and verify Cov(V) = κ·WWᵀ
    // where W is the SDP factor matrix.
    let graph = complete_bipartite(3, 3);
    let sol = gw::solve_gw(&graph, &GwConfig::default()).unwrap();
    let params = LifParams::default();
    let weights = DenseWeights::from_matrix_scaled(&sol.factors, 0.8);
    let theory_cov = theory::stationary_covariance(&params, &weights, 0.5);
    let mut net = network(DeviceModel::fair(), 4, 77, weights, params);
    let emp = empirical_covariance(&mut net, 300_000, 2_000);
    let err = max_relative_error(&emp, &theory_cov);
    assert!(err < 0.08, "relative covariance error {err}");
    // The bipartite SDP solution has strongly anticorrelated parts.
    assert!(theory_cov[(0, 3)] < 0.0);
}

#[test]
fn lif_trevisan_covariance_is_m_squared() {
    // The LIF-TR stage-1 covariance must be κ·M² for the Trevisan matrix M.
    let graph = cycle(6);
    let params = LifParams::default();
    let weights = CscWeights::trevisan(&graph, 1.0);
    let m = graph.trevisan_dense();
    let mut m2 = m.matmul(&m).unwrap();
    m2.scale(theory::kappa(&params, 0.5));
    // theory::stationary_covariance uses the Gram (W Wᵀ = M² since M
    // symmetric) — verify both agree with each other and with simulation.
    let theory_cov = theory::stationary_covariance(&params, &weights, 0.5);
    assert!(theory_cov.max_abs_diff(&m2) < 1e-10);

    let mut net = network(DeviceModel::fair(), 6, 13, weights, params);
    let emp = empirical_covariance(&mut net, 300_000, 2_000);
    let err = max_relative_error(&emp, &theory_cov);
    assert!(err < 0.08, "relative covariance error {err}");
}

#[test]
fn biased_devices_shift_means_as_predicted() {
    // With p ≠ 0.5 the stationary means move to R·p·Σw; the network
    // computes thresholds from the device pool's stationary_ps, so the
    // spike rate stays ≈ 1/2.
    let graph = cycle(5);
    let weights = CscWeights::trevisan(&graph, 1.0);
    let biased = DeviceModel::biased(0.8).unwrap();
    let mut net = network(biased, 5, 21, weights, LifParams::default());
    net.step_many(2_000);
    let mut spike_counts = [0u32; 5];
    let mut s = [false; 5];
    let samples = 20_000;
    for _ in 0..samples {
        net.step_many(10);
        net.spiked_into(0, &mut s);
        for (c, &b) in spike_counts.iter_mut().zip(&s) {
            *c += b as u32;
        }
    }
    for (i, &c) in spike_counts.iter().enumerate() {
        let rate = c as f64 / samples as f64;
        assert!((rate - 0.5).abs() < 0.06, "neuron {i} rate {rate}");
    }
}
