//! Continuous Hopfield–Tank relaxation dynamics.
//!
//! The deterministic counterpart of the stochastic device-driven
//! networks: `n` analog units with internal potentials `u_i`, outputs
//! `x_i = tanh(gain · u_i)`, coupled through a symmetric weight matrix
//! `W` and relaxed by forward-Euler integration of
//!
//! ```text
//! du_i/dt = −leak · u_i − Σ_j w_ij x_j
//! ```
//!
//! With anti-ferromagnetic couplings (`w_ij > 0` on graph edges) the
//! dynamics descend the Hopfield energy
//! `E = ½ Σ_ij w_ij x_i x_j + (leak/gain) Σ_i ∫₀^{x_i} atanh(s) ds`,
//! driving adjacent units to opposite signs — a sign-threshold readout
//! of the fixed point is a locally good MAXCUT partition (Hopfield &
//! Tank 1985; Cai et al. 2020 run the same descent on memristor
//! crossbars). No randomness enters after the seeded initial state, so
//! a trajectory is a pure function of `(couplings, params, seed)`.

use snc_devices::{Rng64, Xoshiro256pp};
use std::sync::Arc;

/// Parameters of the continuous Hopfield–Tank dynamics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HopfieldParams {
    /// Forward-Euler step size.
    pub dt: f64,
    /// Activation steepness: `x = tanh(gain · u)`.
    pub gain: f64,
    /// Leak rate of the internal potential.
    pub leak: f64,
    /// Half-width of the uniform random initial potentials.
    pub init_scale: f64,
}

impl Default for HopfieldParams {
    fn default() -> Self {
        Self {
            dt: 0.1,
            gain: 2.0,
            leak: 1.0,
            init_scale: 0.1,
        }
    }
}

/// Rows per slice of the [`HopfieldCouplings`] layout.
const SLICE: usize = 4;

/// A symmetric coupling list laid out for the Hopfield gather.
///
/// Rows are grouped in slices of four. A slice stores its rows' neighbor
/// lists side by side, entry `k` of lane `l` at `4k + l` from the slice
/// start, padded to the slice's longest row with zero couplings that point
/// at the padded row's own unit (phantom rows past `n` point at unit 0).
/// The gather then runs the four rows as independent accumulation chains
/// over one contiguous run of weights and targets.
///
/// Each row still sums its real couplings in the order they were listed,
/// and the padding only appends `0 · x = ±0.0` after them. That cannot
/// change the sum: it starts at +0.0, so it never holds −0.0, and adding
/// ±0.0 to any other value leaves it unchanged. The drives are therefore
/// bit-identical to a plain row-by-row (CSR) walk.
///
/// The layout depends only on the couplings, so replicas that differ only
/// in their seeds share one behind an [`Arc`].
#[derive(Clone, Debug, PartialEq)]
pub struct HopfieldCouplings {
    n: usize,
    /// Slice `s` occupies `offsets[s]..offsets[s + 1]` of `targets` and
    /// `weights`: `SLICE` lanes times the slice's padded width.
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<f64>,
}

impl HopfieldCouplings {
    /// Lays out an undirected coupling list over `n` units; each pair is
    /// applied in both directions.
    ///
    /// # Panics
    ///
    /// Panics if a coupling endpoint is out of range. Self-couplings are
    /// dropped (a unit does not drive itself).
    pub fn new(n: usize, couplings: &[(u32, u32, f64)]) -> Self {
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for &(i, j, w) in couplings {
            assert!(
                (i as usize) < n && (j as usize) < n,
                "coupling ({i},{j}) out of range for n={n}"
            );
            if i != j {
                rows[i as usize].push((j, w));
                rows[j as usize].push((i, w));
            }
        }
        let slices = n.div_ceil(SLICE);
        let mut offsets = Vec::with_capacity(slices + 1);
        offsets.push(0);
        let mut targets = Vec::new();
        let mut weights = Vec::new();
        for s in 0..slices {
            let lanes = s * SLICE..((s + 1) * SLICE).min(n);
            let width = rows[lanes].iter().map(Vec::len).max().unwrap_or(0);
            for k in 0..width {
                for l in 0..SLICE {
                    let i = s * SLICE + l;
                    let (t, w) = match rows.get(i).and_then(|row| row.get(k)) {
                        Some(&entry) => entry,
                        None if i < n => (i as u32, 0.0),
                        None => (0, 0.0),
                    };
                    targets.push(t);
                    weights.push(w);
                }
            }
            offsets.push(targets.len());
        }
        Self {
            n,
            offsets,
            targets,
            weights,
        }
    }

    /// The drive `Σ_j w_ij x_j` of the (up to) four rows of slice `s`.
    #[inline]
    fn slice_drive(&self, s: usize, x: &[f64]) -> [f64; SLICE] {
        let range = self.offsets[s]..self.offsets[s + 1];
        let mut acc = [0.0f64; SLICE];
        for (t, w) in self.targets[range.clone()]
            .chunks_exact(SLICE)
            .zip(self.weights[range].chunks_exact(SLICE))
        {
            for l in 0..SLICE {
                acc[l] += w[l] * x[t[l] as usize];
            }
        }
        acc
    }
}

/// A continuous Hopfield network over a symmetric coupling list.
///
/// The couplings live in a shared [`HopfieldCouplings`] slice layout; the
/// network owns only its state (potentials and activations) and a buffer
/// for the next step's potentials.
///
/// # Examples
///
/// ```
/// use snc_neuro::hopfield::{HopfieldNetwork, HopfieldParams};
///
/// // One anti-ferromagnetic pair: the two units relax to opposite signs.
/// let mut net = HopfieldNetwork::new(2, &[(0, 1, 1.0)], HopfieldParams::default(), 7);
/// net.step_many(200);
/// let x = net.activations();
/// assert!(x[0] * x[1] < 0.0, "units must split: {x:?}");
/// ```
#[derive(Clone, Debug)]
pub struct HopfieldNetwork {
    couplings: Arc<HopfieldCouplings>,
    params: HopfieldParams,
    u: Vec<f64>,
    x: Vec<f64>,
    steps: u64,
    /// The potentials the step in progress computes, kept apart from `u`
    /// so the output pass can see which of them moved.
    next: Vec<f64>,
    /// Set by the first step that moved no potential; every later step is
    /// then the identity (see [`step`](Self::step)).
    settled: bool,
}

impl HopfieldNetwork {
    /// Builds the network from an undirected coupling list (see
    /// [`HopfieldCouplings::new`]) and seeds the initial potentials
    /// uniformly in `[−init_scale, init_scale]`.
    ///
    /// # Panics
    ///
    /// Panics if a coupling endpoint is out of range. Self-couplings are
    /// dropped (a unit does not drive itself).
    pub fn new(n: usize, couplings: &[(u32, u32, f64)], params: HopfieldParams, seed: u64) -> Self {
        Self::with_couplings(Arc::new(HopfieldCouplings::new(n, couplings)), params, seed)
    }

    /// Builds the network on a shared coupling layout and seeds the
    /// initial potentials uniformly in `[−init_scale, init_scale]`.
    pub fn with_couplings(
        couplings: Arc<HopfieldCouplings>,
        params: HopfieldParams,
        seed: u64,
    ) -> Self {
        let mut rng = Xoshiro256pp::new(seed);
        let u: Vec<f64> = (0..couplings.n)
            .map(|_| (2.0 * rng.next_f64() - 1.0) * params.init_scale)
            .collect();
        let x: Vec<f64> = u.iter().map(|&ui| (params.gain * ui).tanh()).collect();
        Self {
            couplings,
            params,
            next: vec![0.0; u.len()],
            u,
            x,
            steps: 0,
            settled: false,
        }
    }

    /// Number of units.
    pub fn n(&self) -> usize {
        self.u.len()
    }

    /// Euler steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The unit outputs `x = tanh(gain · u)`.
    pub fn activations(&self) -> &[f64] {
        &self.x
    }

    /// The internal potentials `u`.
    pub fn potentials(&self) -> &[f64] {
        &self.u
    }

    /// One synchronous forward-Euler step: every drive is computed from
    /// the *current* outputs before any output moves. Each slice's next
    /// potentials are computed as soon as its drives are known; the
    /// outputs follow in a second pass, which also installs them.
    ///
    /// The step skips work that cannot change any bit. `x_i` is a pure
    /// function of `u_i`, so the second pass recomputes `tanh` only for
    /// the potentials whose bits this step moved. The Euler map is a pure
    /// function of `u`, so once a step moves no potential at all,
    /// `u_{t+1} == u_t` bit for bit and every later step is the identity:
    /// from then on a step only advances the step counter. A network that
    /// keeps moving, such as one caught in a period-2 oscillation, is
    /// integrated in full at every step.
    pub fn step(&mut self) {
        self.steps += 1;
        if self.settled {
            return;
        }
        let p = self.params;
        let n = self.u.len();
        for s in 0..n.div_ceil(SLICE) {
            let drive = self.couplings.slice_drive(s, &self.x);
            let rows = s * SLICE..((s + 1) * SLICE).min(n);
            for ((next, &u), &d) in self.next[rows.clone()]
                .iter_mut()
                .zip(&self.u[rows])
                .zip(&drive)
            {
                *next = u + p.dt * (-p.leak * u - d);
            }
        }
        // Indexing slices cut to `n` measured faster here than zipping
        // three iterators.
        let (x, next, u) = (&mut self.x[..n], &self.next[..n], &self.u[..n]);
        let mut moved = false;
        for i in 0..n {
            if next[i].to_bits() != u[i].to_bits() {
                x[i] = (p.gain * next[i]).tanh();
                moved = true;
            }
        }
        std::mem::swap(&mut self.u, &mut self.next);
        self.settled = !moved;
    }

    /// Advances `k` steps.
    pub fn step_many(&mut self, k: u64) {
        for _ in 0..k {
            self.step();
        }
    }

    /// The Hopfield energy
    /// `½ Σ_ij w_ij x_i x_j + (leak/gain) Σ_i ∫₀^{x_i} atanh(s) ds`,
    /// the Lyapunov function the continuous dynamics descend (for
    /// sufficiently small `dt`). The coupling sum walks the slice layout
    /// row by row, so it too equals the plain row-order sum bit for bit.
    pub fn energy(&self) -> f64 {
        let c = &*self.couplings;
        let mut coupling = 0.0;
        for (i, &xi) in self.x.iter().enumerate() {
            let (s, l) = (i / SLICE, i % SLICE);
            for k in (c.offsets[s] + l..c.offsets[s + 1]).step_by(SLICE) {
                coupling += c.weights[k] * xi * self.x[c.targets[k] as usize];
            }
        }
        let mut barrier = 0.0;
        for &xi in &self.x {
            // ∫₀^x atanh(s) ds = x·atanh(x) + ½·ln(1 − x²).
            let c = xi.clamp(-1.0 + 1e-15, 1.0 - 1e-15);
            barrier += c * c.atanh() + 0.5 * (1.0 - c * c).ln();
        }
        0.5 * coupling + (self.params.leak / self.params.gain) * barrier
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Vec<(u32, u32, f64)> {
        vec![(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = HopfieldNetwork::new(3, &triangle(), HopfieldParams::default(), 11);
        let mut b = HopfieldNetwork::new(3, &triangle(), HopfieldParams::default(), 11);
        a.step_many(50);
        b.step_many(50);
        assert_eq!(a.potentials(), b.potentials());
        assert_eq!(a.activations(), b.activations());
        let mut c = HopfieldNetwork::new(3, &triangle(), HopfieldParams::default(), 12);
        c.step_many(50);
        assert_ne!(a.potentials(), c.potentials(), "seed must matter");
    }

    #[test]
    fn initial_potentials_bounded_by_init_scale() {
        let params = HopfieldParams {
            init_scale: 0.25,
            ..HopfieldParams::default()
        };
        let net = HopfieldNetwork::new(64, &[], params, 3);
        assert!(net.potentials().iter().all(|u| u.abs() <= 0.25));
        assert!(net.potentials().iter().any(|u| u.abs() > 0.0));
        assert_eq!(net.steps(), 0);
    }

    #[test]
    fn antiferromagnetic_pair_relaxes_to_opposite_signs() {
        let mut net = HopfieldNetwork::new(2, &[(0, 1, 1.0)], HopfieldParams::default(), 5);
        net.step_many(300);
        let x = net.activations();
        assert!(x[0] * x[1] < -0.5, "strongly split: {x:?}");
    }

    #[test]
    fn update_is_synchronous() {
        // Hand-computed single step on the pair: du_i uses the *old* x_j.
        let params = HopfieldParams {
            dt: 0.5,
            gain: 1.0,
            leak: 1.0,
            init_scale: 0.1,
        };
        let mut net = HopfieldNetwork::new(2, &[(0, 1, 1.0)], params, 9);
        let u0 = net.potentials().to_vec();
        let x0 = net.activations().to_vec();
        net.step();
        for i in 0..2 {
            let expected = u0[i] + 0.5 * (-u0[i] - x0[1 - i]);
            assert!(
                (net.potentials()[i] - expected).abs() < 1e-15,
                "unit {i}: {} vs {expected}",
                net.potentials()[i]
            );
        }
    }

    #[test]
    fn energy_descends_under_small_steps() {
        let params = HopfieldParams {
            dt: 0.01,
            ..HopfieldParams::default()
        };
        let mut net = HopfieldNetwork::new(3, &triangle(), params, 21);
        let mut prev = net.energy();
        for step in 0..500 {
            net.step();
            let e = net.energy();
            assert!(e <= prev + 1e-9, "step {step}: energy rose {prev} → {e}");
            prev = e;
        }
    }

    /// The step before it skipped anything: the full gather, then `tanh`
    /// for every unit.
    fn reference_step(net: &mut HopfieldNetwork) {
        let p = net.params;
        let n = net.u.len();
        for s in 0..n.div_ceil(SLICE) {
            let drive = net.couplings.slice_drive(s, &net.x);
            let rows = s * SLICE..((s + 1) * SLICE).min(n);
            for (u, &d) in net.u[rows].iter_mut().zip(&drive) {
                *u += p.dt * (-p.leak * *u - d);
            }
        }
        for (x, &u) in net.x.iter_mut().zip(&net.u) {
            *x = (p.gain * u).tanh();
        }
        net.steps += 1;
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// What a lock-step run of the kernel against [`reference_step`] saw.
    struct Lockstep {
        /// The kernel after the run.
        net: HopfieldNetwork,
        /// The reference's potentials at the last three steps, oldest first.
        tail: [Vec<u64>; 3],
        /// The first step that left the reference's potentials unchanged.
        fixed_at: Option<u64>,
        /// The step after which the kernel first reported itself settled.
        settled_at: Option<u64>,
        /// Steps that moved some potentials but not all of them.
        partial: u64,
    }

    /// Runs `net` for `steps` steps beside a clone stepped by
    /// [`reference_step`], comparing `u`, `x` and energy bit for bit after
    /// every step.
    fn lockstep(mut net: HopfieldNetwork, steps: u64) -> Lockstep {
        let mut reference = net.clone();
        let n = net.n();
        let mut tail = [Vec::new(), Vec::new(), bits(reference.potentials())];
        let (mut fixed_at, mut settled_at, mut partial) = (None, None, 0);
        for t in 1..=steps {
            net.step();
            reference_step(&mut reference);
            assert_eq!(net.steps(), reference.steps());
            assert_eq!(
                bits(net.potentials()),
                bits(reference.potentials()),
                "u at {t}"
            );
            assert_eq!(
                bits(net.activations()),
                bits(reference.activations()),
                "x at {t}"
            );
            assert_eq!(
                net.energy().to_bits(),
                reference.energy().to_bits(),
                "energy at {t}"
            );
            let (before, after) = (&tail[2], bits(reference.potentials()));
            if fixed_at.is_none() && after == *before {
                fixed_at = Some(t);
            }
            if settled_at.is_none() && net.settled {
                settled_at = Some(t);
            }
            let moved = before.iter().zip(&after).filter(|(a, b)| a != b).count();
            if 0 < moved && moved < n {
                partial += 1;
            }
            tail.rotate_left(1);
            tail[2] = after;
        }
        Lockstep {
            net,
            tail,
            fixed_at,
            settled_at,
            partial,
        }
    }

    #[test]
    fn settles_bit_for_bit_and_keeps_counting() {
        let graph = snc_graph::generators::erdos_renyi::gnp(40, 0.1, 3).unwrap();
        let couplings: Vec<_> = graph.edges().map(|(i, j)| (i, j, 1.0)).collect();
        let net = HopfieldNetwork::new(40, &couplings, HopfieldParams::default(), 3);
        let run = lockstep(net, 600);
        assert!(
            run.partial > 0,
            "units stop one by one before the network does"
        );
        let fixed_at = run.fixed_at.expect("the trajectory reaches a fixed point");
        assert!(fixed_at < 500, "fixed point at step {fixed_at}");
        assert_eq!(run.settled_at, Some(fixed_at), "settles at its fixed point");

        let mut net = run.net;
        let (u, x) = (bits(net.potentials()), bits(net.activations()));
        net.step_many(1000);
        net.step();
        assert_eq!(net.steps(), 1601);
        assert_eq!(bits(net.potentials()), u);
        assert_eq!(bits(net.activations()), x);
    }

    #[test]
    fn period_two_oscillation_is_integrated_in_full() {
        // On K16 (λ_max = 15) the step is unstable along the all-ones mode:
        // every unit flips sign at every step.
        let couplings: Vec<_> = (0..16u32)
            .flat_map(|i| (i + 1..16).map(move |j| (i, j, 1.0)))
            .collect();
        let net = HopfieldNetwork::new(16, &couplings, HopfieldParams::default(), 3);
        let run = lockstep(net, 600);
        assert_eq!(run.fixed_at, None);
        assert_eq!(run.settled_at, None);
        let [two_back, one_back, last] = &run.tail;
        assert_eq!(two_back, last, "period 2");
        assert_ne!(one_back, last, "not a fixed point");
        assert_eq!(run.net.steps(), 600);
    }

    #[test]
    fn self_couplings_are_dropped_and_bad_endpoints_panic() {
        let net =
            HopfieldNetwork::new(2, &[(0, 0, 5.0), (0, 1, 1.0)], HopfieldParams::default(), 1);
        assert_eq!(net.n(), 2);
        // Only the (0,1) pair survives.
        assert_eq!(*net.couplings, HopfieldCouplings::new(2, &[(0, 1, 1.0)]));
        let bad = std::panic::catch_unwind(|| {
            HopfieldNetwork::new(2, &[(0, 7, 1.0)], HopfieldParams::default(), 1)
        });
        assert!(bad.is_err(), "out-of-range coupling must panic");
    }
}
