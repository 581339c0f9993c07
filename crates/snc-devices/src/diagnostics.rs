//! Bit-stream quality diagnostics.
//!
//! The paper argues that "the circuits described here provide a much needed
//! benchmark for device physicists" (§VI). This module supplies the
//! statistics one would use to qualify a stochastic device: empirical bias,
//! lag autocorrelation, a monobit (frequency) z-test, the Wald–Wolfowitz
//! runs test, and pairwise correlations across a pool.

/// Empirical frequency of `true` in a bit stream.
///
/// Returns 0.5 for an empty stream (the uninformative prior).
pub fn bias(bits: &[bool]) -> f64 {
    if bits.is_empty() {
        return 0.5;
    }
    bits.iter().filter(|&&b| b).count() as f64 / bits.len() as f64
}

/// Lag-`k` autocorrelation of a bit stream (Pearson, on {0,1} values).
///
/// Returns 0 when the stream is shorter than `k + 2` samples or has zero
/// variance.
pub fn autocorrelation(bits: &[bool], k: usize) -> f64 {
    let n = bits.len();
    if n < k + 2 {
        return 0.0;
    }
    let mean = bias(bits);
    let var = mean * (1.0 - mean);
    if var <= 0.0 {
        return 0.0;
    }
    let mut cov = 0.0;
    for i in 0..n - k {
        let a = bits[i] as u8 as f64 - mean;
        let b = bits[i + k] as u8 as f64 - mean;
        cov += a * b;
    }
    cov / ((n - k) as f64 * var)
}

/// Monobit (frequency) test z-score.
///
/// Under the fair-coin null hypothesis the returned statistic is standard
/// normal; |z| > 3 is strong evidence of bias.
pub fn monobit_z(bits: &[bool]) -> f64 {
    let n = bits.len();
    if n == 0 {
        return 0.0;
    }
    let ones = bits.iter().filter(|&&b| b).count() as f64;
    let zeros = n as f64 - ones;
    (ones - zeros) / (n as f64).sqrt()
}

/// Wald–Wolfowitz runs test z-score.
///
/// A *run* is a maximal block of equal consecutive bits. Too few runs means
/// positive serial correlation (sticky devices); too many means negative
/// serial correlation. Under the i.i.d. null the statistic is approximately
/// standard normal.
pub fn runs_z(bits: &[bool]) -> f64 {
    let n = bits.len();
    if n < 2 {
        return 0.0;
    }
    let n1 = bits.iter().filter(|&&b| b).count() as f64;
    let n0 = n as f64 - n1;
    if n1 == 0.0 || n0 == 0.0 {
        // Degenerate constant stream: report an extreme deficit of runs.
        return -(n as f64).sqrt();
    }
    let mut runs = 1.0;
    for w in bits.windows(2) {
        if w[0] != w[1] {
            runs += 1.0;
        }
    }
    let n_tot = n as f64;
    let expected = 2.0 * n0 * n1 / n_tot + 1.0;
    let var = 2.0 * n0 * n1 * (2.0 * n0 * n1 - n_tot) / (n_tot * n_tot * (n_tot - 1.0));
    if var <= 0.0 {
        return 0.0;
    }
    (runs - expected) / var.sqrt()
}

/// A one-stop summary of a single device's bit stream.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamReport {
    /// Number of samples analysed.
    pub samples: usize,
    /// Empirical P(1).
    pub bias: f64,
    /// Lag-1 autocorrelation.
    pub lag1: f64,
    /// Monobit z-score.
    pub monobit_z: f64,
    /// Runs-test z-score.
    pub runs_z: f64,
}

impl StreamReport {
    /// Computes all summary statistics for a bit stream.
    pub fn analyze(bits: &[bool]) -> Self {
        Self {
            samples: bits.len(),
            bias: bias(bits),
            lag1: autocorrelation(bits, 1),
            monobit_z: monobit_z(bits),
            runs_z: runs_z(bits),
        }
    }

    /// Whether the stream passes a loose "ideal fair coin" screen at the
    /// given z threshold (e.g. 4.0).
    pub fn passes_fair_screen(&self, z: f64) -> bool {
        self.monobit_z.abs() <= z && self.runs_z.abs() <= z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceModel;
    use crate::pool::{DevicePool, PoolSpec};
    use crate::rng::{Rng64, Xoshiro256pp};

    fn fair_stream(n: usize, seed: u64) -> Vec<bool> {
        let mut g = Xoshiro256pp::new(seed);
        (0..n).map(|_| g.next_bool(0.5)).collect()
    }

    #[test]
    fn bias_of_constant_streams() {
        assert_eq!(bias(&[true, true, true]), 1.0);
        assert_eq!(bias(&[false, false]), 0.0);
        assert_eq!(bias(&[]), 0.5);
    }

    #[test]
    fn fair_stream_passes_screen() {
        let bits = fair_stream(100_000, 8);
        let report = StreamReport::analyze(&bits);
        assert!(report.passes_fair_screen(4.0), "{report:?}");
        assert!(report.lag1.abs() < 0.02);
    }

    #[test]
    fn biased_stream_fails_monobit() {
        let mut g = Xoshiro256pp::new(9);
        let bits: Vec<bool> = (0..50_000).map(|_| g.next_bool(0.55)).collect();
        let report = StreamReport::analyze(&bits);
        assert!(report.monobit_z > 4.0, "z={}", report.monobit_z);
        assert!(!report.passes_fair_screen(4.0));
    }

    #[test]
    fn sticky_stream_fails_runs() {
        // Telegraph with slow switching: long runs, strongly negative runs z.
        let mut pool = DevicePool::new(
            PoolSpec::uniform(DeviceModel::telegraph(0.02, 0.02).unwrap(), 1),
            10,
        );
        let bits: Vec<bool> = (0..50_000).map(|_| pool.step().get(0)).collect();
        let report = StreamReport::analyze(&bits);
        assert!(report.runs_z < -4.0, "z={}", report.runs_z);
        assert!(report.lag1 > 0.9, "lag1={}", report.lag1);
    }

    #[test]
    fn alternating_stream_has_negative_lag1_and_positive_runs() {
        let bits: Vec<bool> = (0..10_000).map(|i| i % 2 == 0).collect();
        assert!(autocorrelation(&bits, 1) < -0.99);
        assert!(runs_z(&bits) > 4.0);
        // Lag 2 sees perfect agreement.
        assert!(autocorrelation(&bits, 2) > 0.99);
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        assert_eq!(autocorrelation(&[], 1), 0.0);
        assert_eq!(autocorrelation(&[true], 1), 0.0);
        assert_eq!(monobit_z(&[]), 0.0);
        assert_eq!(runs_z(&[]), 0.0);
        assert!(runs_z(&[true; 100]) < 0.0);
    }
}
