//! MAXDICUT via the Goemans–Williamson SDP (§VI extension).
//!
//! Given a directed graph, find `S ⊆ V` maximizing the number of arcs from
//! `S` to `V∖S`. Over `x ∈ {±1}` (`x = +1` ⇔ in `S`) the arc indicator is
//!
//! ```text
//! (1 + x_i)(1 − x_j)/4 = (1 + x_i − x_j − x_i x_j)/4
//! ```
//!
//! which relaxes (with the truth vector `v₀`) to the 0.796-approximation
//! SDP of Goemans–Williamson. Rounding is identical to MAX2SAT.

use snc_devices::{Rng64, Xoshiro256pp};
use snc_linalg::{sdp, GaussianSampler, LinalgError, SdpConfig};

/// A simple directed graph as an arc list.
#[derive(Clone, Debug, Default)]
pub struct DiGraph {
    /// Number of vertices.
    pub n: usize,
    /// Arcs `(tail, head)`.
    pub arcs: Vec<(u32, u32)>,
}

impl DiGraph {
    /// Builds a digraph, dropping self-loops.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn new(n: usize, arcs: &[(u32, u32)]) -> Self {
        let arcs: Vec<(u32, u32)> = arcs
            .iter()
            .copied()
            .inspect(|&(u, v)| {
                assert!((u as usize) < n && (v as usize) < n, "arc out of range");
            })
            .filter(|&(u, v)| u != v)
            .collect();
        Self { n, arcs }
    }

    /// A random digraph with `m` arcs (duplicates possible, as in random
    /// multigraph models; self-loops excluded).
    pub fn random(n: usize, m: usize, seed: u64) -> Self {
        let mut rng = Xoshiro256pp::new(seed);
        let mut arcs = Vec::with_capacity(m);
        while arcs.len() < m {
            let u = rng.next_index(n) as u32;
            let v = rng.next_index(n) as u32;
            if u != v {
                arcs.push((u, v));
            }
        }
        Self { n, arcs }
    }

    /// The directed cut value of a membership vector (`true` = in `S`).
    ///
    /// # Panics
    ///
    /// Panics if the membership length differs from `n`.
    pub fn dicut_value(&self, in_s: &[bool]) -> u64 {
        assert_eq!(in_s.len(), self.n);
        self.arcs
            .iter()
            .filter(|&&(u, v)| in_s[u as usize] && !in_s[v as usize])
            .count() as u64
    }

    /// Exact optimum by enumeration (`n ≤ 24`).
    ///
    /// # Panics
    ///
    /// Panics for more than 24 vertices.
    pub fn brute_force(&self) -> (Vec<bool>, u64) {
        assert!(self.n <= 24, "brute force limited to 24 vertices");
        let mut best = (vec![false; self.n], 0u64);
        for mask in 0u32..(1u32 << self.n) {
            let in_s: Vec<bool> = (0..self.n).map(|i| (mask >> i) & 1 == 1).collect();
            let v = self.dicut_value(&in_s);
            if v > best.1 {
                best = (in_s, v);
            }
        }
        best
    }
}

/// Result of the GW MAXDICUT pipeline.
#[derive(Clone, Debug)]
pub struct MaxDicutSolution {
    /// Membership vector of the best `S` found.
    pub in_s: Vec<bool>,
    /// Its directed cut value.
    pub value: u64,
    /// SDP upper bound on the optimum.
    pub sdp_bound: f64,
}

/// Solves MAXDICUT by the GW SDP + Gaussian rounding with `samples`
/// rounding draws.
///
/// # Errors
///
/// Propagates SDP solver errors.
pub fn solve_gw_maxdicut(
    g: &DiGraph,
    cfg: &SdpConfig,
    samples: usize,
    seed: u64,
) -> Result<MaxDicutSolution, LinalgError> {
    let n = g.n;
    let v0 = n as u32;
    let mut couplings: Vec<sdp::Coupling> = Vec::with_capacity(3 * g.arcs.len());
    let mut constant = 0.0;
    for &(i, j) in &g.arcs {
        // (1 + x_i − x_j − x_i x_j)/4: maximize ⇒ minimize
        // −(1/4)⟨v0,vi⟩ + (1/4)⟨v0,vj⟩ + (1/4)⟨vi,vj⟩.
        constant += 0.25;
        couplings.push(sdp::Coupling {
            i: v0,
            j: i,
            w: -0.25,
        });
        couplings.push(sdp::Coupling { i: v0, j, w: 0.25 });
        couplings.push(sdp::Coupling { i, j, w: 0.25 });
    }
    let sol = sdp::solve_weighted_sdp(n + 1, &couplings, cfg)?;
    let sdp_bound = constant - sol.energy;

    let mut gauss = GaussianSampler::new(seed);
    let mut gbuf = vec![0.0; sol.factors.cols()];
    let mut x = vec![0.0; n + 1];
    let mut best: Option<(Vec<bool>, u64)> = None;
    for _ in 0..samples.max(1) {
        gauss.fill(&mut gbuf);
        sol.factors.matvec_into(&gbuf, &mut x);
        let truth_side = x[n] > 0.0;
        let in_s: Vec<bool> = (0..n).map(|i| (x[i] > 0.0) == truth_side).collect();
        let value = g.dicut_value(&in_s);
        if best.as_ref().is_none_or(|(_, bv)| value > *bv) {
            best = Some((in_s, value));
        }
    }
    let (in_s, value) = best.expect("at least one sample");
    Ok(MaxDicutSolution {
        in_s,
        value,
        sdp_bound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SdpConfig {
        SdpConfig {
            rank: 4,
            max_iters: 3000,
            grad_tol: 1e-8,
            restarts: 2,
            seed: 9,
        }
    }

    #[test]
    fn dicut_value_semantics() {
        // Arcs 0→1, 1→0: S = {0} cuts exactly one.
        let g = DiGraph::new(2, &[(0, 1), (1, 0)]);
        assert_eq!(g.dicut_value(&[true, false]), 1);
        assert_eq!(g.dicut_value(&[false, true]), 1);
        assert_eq!(g.dicut_value(&[true, true]), 0);
        assert_eq!(g.dicut_value(&[false, false]), 0);
    }

    #[test]
    fn brute_force_star() {
        // All arcs out of vertex 0: S = {0} cuts all of them.
        let g = DiGraph::new(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let (in_s, v) = g.brute_force();
        assert_eq!(v, 4);
        assert!(in_s[0]);
        assert!(!in_s[1] && !in_s[2] && !in_s[3] && !in_s[4]);
    }

    #[test]
    fn self_loops_dropped() {
        let g = DiGraph::new(3, &[(0, 0), (0, 1)]);
        assert_eq!(g.arcs.len(), 1);
    }

    #[test]
    fn sdp_finds_star_optimum() {
        let g = DiGraph::new(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let sol = solve_gw_maxdicut(&g, &cfg(), 32, 1).unwrap();
        assert_eq!(sol.value, 4);
        assert!(sol.sdp_bound + 1e-6 >= 4.0);
    }

    #[test]
    fn achieves_796_ratio_on_random_instances() {
        for seed in 0..3u64 {
            let g = DiGraph::random(10, 25, seed);
            let (_, opt) = g.brute_force();
            if opt == 0 {
                continue;
            }
            let sol = solve_gw_maxdicut(&g, &cfg(), 64, seed).unwrap();
            let ratio = sol.value as f64 / opt as f64;
            assert!(ratio >= 0.796, "seed={seed}: ratio {ratio}");
            assert!(sol.sdp_bound + 1e-6 >= opt as f64);
        }
    }
}
