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
//!
//! One [`HopfieldNetwork`] relaxes `R` seeded copies of the circuit as
//! lanes over one coupling layout, the way a crossbar reads every unit
//! out of one fabric per step: each pass over the couplings feeds every
//! lane. Lane `r` is bit for bit the one-lane network with `seeds[r]`.

use crate::gather::{chunked, with_chunks, Chunked, SliceRows, LANES};
use snc_devices::{Rng64, Xoshiro256pp};
use snc_linalg::detmath::{tanh, tanh_lanes};

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

/// The matrix entries `(i, j, w_ij)` of an undirected coupling list: each
/// pair in both directions, in list order. Self-couplings are dropped (a
/// unit does not drive itself).
fn coupling_entries(couplings: &[(u32, u32, f64)]) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
    couplings
        .iter()
        .filter(|&&(i, j, _)| i != j)
        .flat_map(|&(i, j, w)| [(i, j, w), (j, i, w)])
}

/// The state of `W` lanes, neuron-major: `u[i][l]` is unit `i` of lane
/// `l`. Lanes past the network's last seed are phantom: their state is
/// `+0.0`, which the Euler map sends to `+0.0`, so they never move.
///
/// Three potential buffers hold `u_{t−1}`, `u_t` and the step in
/// progress. Once `u_{t+1} == u_{t−1}` bit for bit the chunk is in a
/// cycle of period at most two (see [`HopfieldNetwork::step`]), and
/// `prev`/`x_prev` hold the other phase.
#[derive(Clone, Debug)]
struct Chunk<const W: usize> {
    prev: Vec<[f64; W]>,
    u: Vec<[f64; W]>,
    next: Vec<[f64; W]>,
    /// `tanh(gain · u)`, plus the sentinel unit `n` that stays `+0.0`.
    x: Vec<[f64; W]>,
    /// In a cycle, the activations of `prev`; empty before.
    x_prev: Vec<[f64; W]>,
    cycling: bool,
}

impl<const W: usize> Chunk<W> {
    /// Seeds lane `l < seeds.len()` with `seeds[l]`; the rest are phantom.
    fn new(n: usize, p: &HopfieldParams, seeds: &[u64]) -> Self {
        let mut u = vec![[0.0; W]; n];
        let mut x = vec![[0.0; W]; n + 1];
        for (l, &seed) in seeds.iter().enumerate() {
            let mut rng = Xoshiro256pp::new(seed);
            for (ui, xi) in u.iter_mut().zip(&mut x) {
                ui[l] = (2.0 * rng.next_f64() - 1.0) * p.init_scale;
                xi[l] = tanh(p.gain * ui[l]);
            }
        }
        Self {
            prev: u.clone(),
            next: vec![[0.0; W]; n],
            u,
            x,
            x_prev: Vec::new(),
            cycling: false,
        }
    }

    /// Computes the next potentials of slice `s`'s rows.
    #[inline]
    fn integrate_slice(&mut self, c: &SliceRows, s: usize, p: &HopfieldParams) {
        let drive = c.slice_drive(s, &self.x);
        let rows = c.slice_rows(s);
        for ((next, u), d) in self.next[rows.clone()]
            .iter_mut()
            .zip(&self.u[rows])
            .zip(&drive)
        {
            for l in 0..W {
                next[l] = u[l] + p.dt * (-p.leak * u[l] - d[l]);
            }
        }
    }

    /// Installs the potentials [`integrate_slice`](Self::integrate_slice)
    /// computed and, if any moved, their activations, and enters the
    /// cycle if the step closed one.
    fn finish(&mut self, gain: f64) {
        let n = self.u.len();
        // Slices cut to `n` let the indexed loop run without bounds checks.
        let (next, u, prev) = (&self.next[..n], &self.u[..n], &self.prev[..n]);
        let (mut moved, mut period_two) = (false, true);
        for i in 0..n {
            for l in 0..W {
                let bits = next[i][l].to_bits();
                moved |= bits != u[i][l].to_bits();
                period_two &= bits == prev[i][l].to_bits();
            }
        }
        if moved {
            activate(self.x[..n].as_flattened_mut(), next.as_flattened(), gain);
        }
        // `prev` ← u_t, `u` ← u_{t+1}; u_{t−1}'s buffer is the next scratch.
        std::mem::swap(&mut self.prev, &mut self.u);
        std::mem::swap(&mut self.u, &mut self.next);
        if !moved || period_two {
            // The other phase is `prev`; the copy brings the sentinel.
            self.x_prev.clone_from(&self.x);
            activate(
                self.x_prev[..n].as_flattened_mut(),
                self.prev.as_flattened(),
                gain,
            );
            self.cycling = true;
        }
    }

    /// One step of a chunk in its cycle: the other phase.
    fn swap_phase(&mut self) {
        std::mem::swap(&mut self.u, &mut self.prev);
        std::mem::swap(&mut self.x, &mut self.x_prev);
    }
}

/// `x = tanh(gain · u)` over flat potentials, eight at a time.
fn activate(x: &mut [f64], u: &[f64], gain: f64) {
    let (x8, x_rest) = x.as_chunks_mut::<8>();
    let (u8, u_rest) = u.as_chunks::<8>();
    for (x, u) in x8.iter_mut().zip(u8) {
        *x = tanh_lanes(u.map(|u| gain * u));
    }
    for (x, &u) in x_rest.iter_mut().zip(u_rest) {
        *x = tanh(gain * u);
    }
}

/// One synchronous Euler step of every chunk: one pass over the slices
/// feeds every chunk still moving; a chunk in its cycle only swaps phase.
fn step_chunks<const W: usize>(chunks: &mut [Chunk<W>], c: &SliceRows, p: &HopfieldParams) {
    if chunks.iter().any(|chunk| !chunk.cycling) {
        for s in 0..c.slices() {
            for chunk in chunks.iter_mut().filter(|chunk| !chunk.cycling) {
                chunk.integrate_slice(c, s, p);
            }
        }
    }
    for chunk in chunks {
        if chunk.cycling {
            chunk.swap_phase();
        } else {
            chunk.finish(p.gain);
        }
    }
}

/// The lanes of a network in chunks (see [`Chunked`]).
type Chunks = Chunked<Chunk<1>, Chunk<2>, Chunk<4>, Chunk<LANES>>;

/// Lane `lane`'s potentials and activations in chunks of width `W`: flat
/// slices whose entries `l, l + W, l + 2W, …` are the lane's, and `l`.
fn lane_of<const W: usize>(chunks: &[Chunk<W>], lane: usize) -> (&[f64], &[f64], usize, usize) {
    let chunk = &chunks[lane / W];
    (chunk.u.as_flattened(), chunk.x.as_flattened(), lane % W, W)
}

/// `R` continuous Hopfield networks (lanes) over one symmetric coupling
/// list, each from its own seeded initial state.
///
/// The couplings live in the slice-gather layout LIF-Trevisan's stage 1
/// shares: rows in slices of four, padded to a sentinel unit, and every
/// pass over it feeds all lanes of a chunk. Lane `r` is bit for bit
/// the one-lane network seeded with `seeds[r]`.
///
/// # Examples
///
/// ```
/// use snc_neuro::hopfield::{HopfieldNetwork, HopfieldParams};
///
/// // One anti-ferromagnetic pair: the two units relax to opposite signs.
/// let mut net = HopfieldNetwork::new(2, &[(0, 1, 1.0)], HopfieldParams::default(), &[7]);
/// net.step_many(200);
/// let x: Vec<f64> = net.activations(0).collect();
/// assert!(x[0] * x[1] < 0.0, "units must split: {x:?}");
/// ```
#[derive(Clone, Debug)]
pub struct HopfieldNetwork {
    couplings: SliceRows,
    params: HopfieldParams,
    lanes: usize,
    steps: u64,
    chunks: Chunks,
}

impl HopfieldNetwork {
    /// Builds one lane per seed over an undirected coupling list (each
    /// pair applied in both directions) and seeds lane `r`'s initial
    /// potentials uniformly in `[−init_scale, init_scale]` from
    /// `seeds[r]`.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty or a coupling endpoint is out of range.
    /// Self-couplings are dropped (a unit does not drive itself).
    pub fn new(
        n: usize,
        couplings: &[(u32, u32, f64)],
        params: HopfieldParams,
        seeds: &[u64],
    ) -> Self {
        for &(i, j, _) in couplings {
            assert!(
                (i as usize) < n && (j as usize) < n,
                "coupling ({i},{j}) out of range for n={n}"
            );
        }
        let layout = SliceRows::new(n, || coupling_entries(couplings));
        Self::with_layout(layout, params, seeds)
    }

    fn with_layout(couplings: SliceRows, params: HopfieldParams, seeds: &[u64]) -> Self {
        fn split<const W: usize>(n: usize, p: &HopfieldParams, seeds: &[u64]) -> Vec<Chunk<W>> {
            seeds
                .chunks(W)
                .map(|lanes| Chunk::new(n, p, lanes))
                .collect()
        }
        assert!(!seeds.is_empty(), "at least one lane seed");
        let n = couplings.n;
        let chunks = chunked!(seeds.len(), split(n, &params, seeds));
        Self {
            couplings,
            params,
            lanes: seeds.len(),
            steps: 0,
            chunks,
        }
    }

    /// Number of units per lane.
    pub fn n(&self) -> usize {
        self.couplings.n
    }

    /// Number of lanes (seeds).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Euler steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Lane `lane`'s potentials and activations as [`lane_of`] gives them.
    fn lane(&self, lane: usize) -> (&[f64], &[f64], usize, usize) {
        assert!(lane < self.lanes, "lane {lane} of {}", self.lanes);
        with_chunks!(&self.chunks, chunks => lane_of(chunks, lane))
    }

    /// Lane `lane`'s unit outputs `x = tanh(gain · u)`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lanes()`.
    pub fn activations(&self, lane: usize) -> impl ExactSizeIterator<Item = f64> + '_ {
        let (_, x, l, stride) = self.lane(lane);
        x.iter().skip(l).step_by(stride).take(self.n()).copied()
    }

    /// Lane `lane`'s internal potentials `u`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lanes()`.
    pub fn potentials(&self, lane: usize) -> impl ExactSizeIterator<Item = f64> + '_ {
        let (u, _, l, stride) = self.lane(lane);
        u.iter().skip(l).step_by(stride).take(self.n()).copied()
    }

    /// Whether every lane is in a cycle of period at most two.
    fn cycling(&self) -> bool {
        with_chunks!(&self.chunks, chunks => chunks.iter().all(|chunk| chunk.cycling))
    }

    /// One synchronous forward-Euler step of every lane: every drive is
    /// computed from the *current* outputs before any output moves. Each
    /// slice's next potentials are computed as soon as its drives are
    /// known; the outputs follow in a second pass, which also installs
    /// them.
    ///
    /// The activation is [`snc_linalg::detmath::tanh`], whose bits do not
    /// depend on the CPU or its libm. The second pass applies it to a
    /// chunk's every potential, eight at a time, once any of them moved:
    /// `x_i` is a pure function of `u_i`, so that equals recomputing only
    /// the moved ones.
    ///
    /// The step skips work that cannot change any bit. The Euler map is a
    /// pure function of `u`, so once a chunk's step gives `u_{t+1} == u_{t−1}`
    /// bit for bit, its trajectory alternates between `u_t` and `u_{t+1}`
    /// forever (`u_{t+2} = F(u_{t+1}) = F(u_{t−1}) = u_t`); a fixed point,
    /// `u_{t+1} == u_t`, is the case where both phases are equal. From
    /// then on a step swaps the chunk's two phases and counts.
    pub fn step(&mut self) {
        self.steps += 1;
        let (c, p) = (&self.couplings, &self.params);
        with_chunks!(&mut self.chunks, chunks => step_chunks(chunks, c, p))
    }

    /// Advances `k` steps. Once every lane is in its cycle, the remaining
    /// steps cost one phase swap if their count is odd and none if even.
    pub fn step_many(&mut self, k: u64) {
        for done in 0..k {
            if self.cycling() {
                let rest = k - done;
                if rest % 2 == 1 {
                    self.step();
                }
                self.steps += rest - rest % 2;
                return;
            }
            self.step();
        }
    }

    /// Lane `lane`'s Hopfield energy
    /// `½ Σ_ij w_ij x_i x_j + (leak/gain) Σ_i ∫₀^{x_i} atanh(s) ds`,
    /// the Lyapunov function the continuous dynamics descend (for
    /// sufficiently small `dt`). The coupling sum walks the slice layout
    /// row by row, so it too equals the plain row-order sum bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lanes()`.
    pub fn energy(&self, lane: usize) -> f64 {
        let c = &self.couplings;
        let mut x: Vec<f64> = self.activations(lane).collect();
        x.push(0.0); // the sentinel unit
        let mut coupling = 0.0;
        for (i, &xi) in x[..c.n].iter().enumerate() {
            for (j, w) in c.row(i) {
                coupling += w * xi * x[j];
            }
        }
        let mut barrier = 0.0;
        for &xi in &x[..c.n] {
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

    fn bits(xs: impl Iterator<Item = f64>) -> Vec<u64> {
        xs.map(f64::to_bits).collect()
    }

    /// Lane `r`'s potentials, activations and energy, as bits.
    fn lane_bits(net: &HopfieldNetwork, r: usize) -> (Vec<u64>, Vec<u64>, u64) {
        (
            bits(net.potentials(r)),
            bits(net.activations(r)),
            net.energy(r).to_bits(),
        )
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = HopfieldNetwork::new(3, &triangle(), HopfieldParams::default(), &[11]);
        let mut b = HopfieldNetwork::new(3, &triangle(), HopfieldParams::default(), &[11]);
        a.step_many(50);
        b.step_many(50);
        assert_eq!(lane_bits(&a, 0), lane_bits(&b, 0));
        let mut c = HopfieldNetwork::new(3, &triangle(), HopfieldParams::default(), &[12]);
        c.step_many(50);
        assert_ne!(
            bits(a.potentials(0)),
            bits(c.potentials(0)),
            "seed must matter"
        );
    }

    #[test]
    fn initial_potentials_bounded_by_init_scale() {
        let params = HopfieldParams {
            init_scale: 0.25,
            ..HopfieldParams::default()
        };
        let net = HopfieldNetwork::new(64, &[], params, &[3]);
        assert!(net.potentials(0).all(|u| u.abs() <= 0.25));
        assert!(net.potentials(0).any(|u| u.abs() > 0.0));
        assert_eq!(net.steps(), 0);
    }

    #[test]
    fn antiferromagnetic_pair_relaxes_to_opposite_signs() {
        let mut net = HopfieldNetwork::new(2, &[(0, 1, 1.0)], HopfieldParams::default(), &[5]);
        net.step_many(300);
        let x: Vec<f64> = net.activations(0).collect();
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
        let mut net = HopfieldNetwork::new(2, &[(0, 1, 1.0)], params, &[9]);
        let u0: Vec<f64> = net.potentials(0).collect();
        let x0: Vec<f64> = net.activations(0).collect();
        net.step();
        let u1: Vec<f64> = net.potentials(0).collect();
        for i in 0..2 {
            let expected = u0[i] + 0.5 * (-u0[i] - x0[1 - i]);
            assert!(
                (u1[i] - expected).abs() < 1e-15,
                "unit {i}: {} vs {expected}",
                u1[i]
            );
        }
    }

    #[test]
    fn energy_descends_under_small_steps() {
        let params = HopfieldParams {
            dt: 0.01,
            ..HopfieldParams::default()
        };
        let mut net = HopfieldNetwork::new(3, &triangle(), params, &[21]);
        let mut prev = net.energy(0);
        for step in 0..500 {
            net.step();
            let e = net.energy(0);
            assert!(e <= prev + 1e-9, "step {step}: energy rose {prev} → {e}");
            prev = e;
        }
    }

    /// One lane stepped the plain way, independently of the slice layout:
    /// a row-by-row (CSR) gather in coupling-list order, then the scalar
    /// `tanh` for every unit.
    struct Reference {
        rows: Vec<Vec<(usize, f64)>>,
        params: HopfieldParams,
        u: Vec<f64>,
        x: Vec<f64>,
    }

    impl Reference {
        fn new(n: usize, couplings: &[(u32, u32, f64)], params: HopfieldParams, seed: u64) -> Self {
            let mut rows = vec![Vec::new(); n];
            for &(i, j, w) in couplings {
                if i != j {
                    rows[i as usize].push((j as usize, w));
                    rows[j as usize].push((i as usize, w));
                }
            }
            let mut rng = Xoshiro256pp::new(seed);
            let u: Vec<f64> = (0..n)
                .map(|_| (2.0 * rng.next_f64() - 1.0) * params.init_scale)
                .collect();
            let x = u.iter().map(|&ui| tanh(params.gain * ui)).collect();
            Self { rows, params, u, x }
        }

        fn step(&mut self) {
            let p = self.params;
            let drive: Vec<f64> = self
                .rows
                .iter()
                .map(|row| row.iter().fold(0.0, |acc, &(j, w)| acc + w * self.x[j]))
                .collect();
            for ((u, x), d) in self.u.iter_mut().zip(&mut self.x).zip(drive) {
                *u += p.dt * (-p.leak * *u - d);
                *x = tanh(p.gain * *u);
            }
        }

        fn energy(&self) -> f64 {
            let mut coupling = 0.0;
            for (row, &xi) in self.rows.iter().zip(&self.x) {
                for &(j, w) in row {
                    coupling += w * xi * self.x[j];
                }
            }
            let mut barrier = 0.0;
            for &xi in &self.x {
                let c = xi.clamp(-1.0 + 1e-15, 1.0 - 1e-15);
                barrier += c * c.atanh() + 0.5 * (1.0 - c * c).ln();
            }
            0.5 * coupling + (self.params.leak / self.params.gain) * barrier
        }
    }

    /// What a lock-step run of the kernel against one [`Reference`] per
    /// lane saw.
    struct Lockstep {
        /// The kernel after the run.
        net: HopfieldNetwork,
        /// Lane 0's reference potentials at the last three steps, oldest
        /// first.
        tail: [Vec<u64>; 3],
        /// The first step that left lane 0's reference potentials unchanged.
        fixed_at: Option<u64>,
        /// The first step `t` with `u_t == u_{t−2}` or `u_t == u_{t−1}` in
        /// every lane's reference.
        period_at: Option<u64>,
        /// The step after which the kernel first had every lane in a cycle.
        cycle_at: Option<u64>,
        /// Steps that moved some of lane 0's potentials but not all of them.
        partial: u64,
    }

    /// Runs `net` for `steps` steps beside one [`Reference`] per lane,
    /// comparing every lane's `u`, `x` and energy bit for bit after every
    /// step.
    fn lockstep(
        mut net: HopfieldNetwork,
        couplings: &[(u32, u32, f64)],
        seeds: &[u64],
        steps: u64,
    ) -> Lockstep {
        let (n, p) = (net.n(), net.params);
        let mut refs: Vec<Reference> = seeds
            .iter()
            .map(|&s| Reference::new(n, couplings, p, s))
            .collect();
        let mut tails: Vec<[Vec<u64>; 3]> = refs
            .iter()
            .map(|r| [Vec::new(), Vec::new(), bits(r.u.iter().copied())])
            .collect();
        let (mut fixed_at, mut period_at, mut cycle_at, mut partial) = (None, None, None, 0);
        for t in 1..=steps {
            net.step();
            assert_eq!(net.steps(), t);
            let mut closed = true;
            for (r, (reference, tail)) in refs.iter_mut().zip(&mut tails).enumerate() {
                reference.step();
                let after = bits(reference.u.iter().copied());
                assert_eq!(bits(net.potentials(r)), after, "lane {r}: u at {t}");
                assert_eq!(
                    bits(net.activations(r)),
                    bits(reference.x.iter().copied()),
                    "lane {r}: x at {t}"
                );
                assert_eq!(
                    net.energy(r).to_bits(),
                    reference.energy().to_bits(),
                    "lane {r}: energy at {t}"
                );
                closed &= after == tail[2] || after == tail[1];
                if r == 0 {
                    if fixed_at.is_none() && after == tail[2] {
                        fixed_at = Some(t);
                    }
                    let moved = tail[2].iter().zip(&after).filter(|(a, b)| a != b).count();
                    if 0 < moved && moved < n {
                        partial += 1;
                    }
                }
                tail.rotate_left(1);
                tail[2] = after;
            }
            if period_at.is_none() && closed {
                period_at = Some(t);
            }
            if cycle_at.is_none() && net.cycling() {
                cycle_at = Some(t);
            }
        }
        Lockstep {
            net,
            tail: tails.swap_remove(0),
            fixed_at,
            period_at,
            cycle_at,
            partial,
        }
    }

    fn unit_couplings(graph: &snc_graph::Graph) -> Vec<(u32, u32, f64)> {
        graph.edges().map(|(i, j)| (i, j, 1.0)).collect()
    }

    /// The complete graph K16 with unit couplings.
    fn k16() -> Vec<(u32, u32, f64)> {
        (0..16u32)
            .flat_map(|i| (i + 1..16).map(move |j| (i, j, 1.0)))
            .collect()
    }

    #[test]
    fn settles_bit_for_bit_and_keeps_counting() {
        let graph = snc_graph::generators::erdos_renyi::gnp(40, 0.1, 3).unwrap();
        let couplings = unit_couplings(&graph);
        let net = HopfieldNetwork::new(40, &couplings, HopfieldParams::default(), &[3]);
        let run = lockstep(net, &couplings, &[3], 2000);
        assert!(
            run.partial > 0,
            "units stop one by one before the network does"
        );
        let fixed_at = run.fixed_at.expect("the trajectory reaches a fixed point");
        assert!(fixed_at < 500, "fixed point at step {fixed_at}");
        assert_eq!(run.cycle_at, Some(fixed_at), "settles at its fixed point");
        assert_eq!(run.period_at, Some(fixed_at));

        let mut net = run.net;
        let (u, x, e) = lane_bits(&net, 0);
        net.step_many(1000);
        net.step();
        assert_eq!(net.steps(), 3001);
        assert_eq!(lane_bits(&net, 0), (u, x, e));
    }

    #[test]
    fn period_two_oscillation_is_skipped_bit_for_bit() {
        // On K16 (λ_max = 15) the step is unstable along the all-ones mode:
        // every unit flips sign at every step.
        let couplings = k16();
        let net = HopfieldNetwork::new(16, &couplings, HopfieldParams::default(), &[3]);
        let run = lockstep(net, &couplings, &[3], 2000);
        assert_eq!(run.fixed_at, None);
        let period_at = run.period_at.expect("the trajectory closes a 2-cycle");
        assert_eq!(run.cycle_at, Some(period_at), "skips from the cycle on");
        assert!(period_at < 1000, "2-cycle at step {period_at}");
        let [two_back, one_back, last] = &run.tail;
        assert_eq!(two_back, last, "period 2");
        assert_ne!(one_back, last, "not a fixed point");
        assert_eq!(run.net.steps(), 2000);

        // An odd jump lands on the other phase, an even one on this phase.
        let mut net = run.net;
        let here = lane_bits(&net, 0);
        net.step();
        let there = lane_bits(&net, 0);
        assert_ne!(here, there);
        net.step_many(1001);
        assert_eq!(lane_bits(&net, 0), here);
        net.step_many(1000);
        assert_eq!(lane_bits(&net, 0), here);
        assert_eq!(net.steps(), 4002);
    }

    #[test]
    fn wide_chunks_lockstep_with_the_reference() {
        // Nine lanes: one full chunk that closes its cycle and a second
        // chunk with one real lane and seven phantoms.
        let couplings = k16();
        let seeds: Vec<u64> = (1..=9).collect();
        let net = HopfieldNetwork::new(16, &couplings, HopfieldParams::default(), &seeds);
        let run = lockstep(net, &couplings, &seeds, 2000);
        assert!(run.cycle_at.is_some(), "every chunk closes its cycle");
        assert_eq!(run.cycle_at, run.period_at);
    }

    /// A graph on which some seeds settle at a fixed point and others lock
    /// into a period-2 oscillation, found by search: G(28, 0.7), seed 0.
    fn mixed_graph() -> Vec<(u32, u32, f64)> {
        unit_couplings(&snc_graph::generators::erdos_renyi::gnp(28, 0.7, 0).unwrap())
    }

    /// Whether the one-lane network of `seed` reaches a fixed point
    /// (`Some(true)`), a proper 2-cycle (`Some(false)`) or neither
    /// within `steps`.
    fn fate(couplings: &[(u32, u32, f64)], n: usize, seed: u64, steps: u64) -> Option<bool> {
        let mut net = HopfieldNetwork::new(n, couplings, HopfieldParams::default(), &[seed]);
        net.step_many(steps);
        if !net.cycling() {
            return None;
        }
        let here = bits(net.potentials(0));
        net.step();
        Some(here == bits(net.potentials(0)))
    }

    /// The potential and activation bits of every phantom lane.
    fn phantom_bits<const W: usize>(chunks: &[Chunk<W>], lanes: usize) -> Vec<u64> {
        let last = chunks.last().unwrap();
        (lanes - (chunks.len() - 1) * W..W)
            .flat_map(|l| last.u.iter().zip(&last.x).map(move |(u, x)| (u[l], x[l])))
            .flat_map(|(u, x)| [u.to_bits(), x.to_bits()])
            .collect()
    }

    #[test]
    fn lanes_match_one_seed_networks() {
        let couplings = mixed_graph();
        let n = 28;
        let seeds: Vec<u64> = (0..17u64).map(|r| 100 + r).collect();
        let fates: Vec<_> = seeds
            .iter()
            .map(|&s| fate(&couplings, n, s, 4000))
            .collect();
        assert!(fates.contains(&Some(true)), "a lane settles: {fates:?}");
        assert!(fates.contains(&Some(false)), "a lane oscillates: {fates:?}");
        let params = HopfieldParams::default();
        for lanes in [1, 2, 3, 8, 9, 17] {
            let seeds = &seeds[..lanes];
            let mut wide = HopfieldNetwork::new(n, &couplings, params, seeds);
            assert_eq!((wide.lanes(), wide.n()), (lanes, n));
            let mut ones: Vec<HopfieldNetwork> = seeds
                .iter()
                .map(|&s| HopfieldNetwork::new(n, &couplings, params, &[s]))
                .collect();
            // Single steps, short jumps and long ones past every cycle.
            for k in [1u64, 1, 7, 64, 3, 500, 1, 2000, 999] {
                wide.step_many(k);
                for (r, one) in ones.iter_mut().enumerate() {
                    one.step_many(k);
                    assert_eq!(
                        lane_bits(&wide, r),
                        lane_bits(one, 0),
                        "R={lanes} lane {r} at {}",
                        wide.steps()
                    );
                }
            }
            assert_eq!(wide.steps(), 3576);
            // Phantom lanes hold +0.0 and never move.
            let phantoms = with_chunks!(&wide.chunks, chunks => phantom_bits(chunks, lanes));
            assert!(phantoms.iter().all(|&b| b == 0), "R={lanes}");
            let width = [1, 2, 4, 4, 8, 8, 8, 8].get(lanes - 1).unwrap_or(&8);
            assert_eq!(
                phantoms.len(),
                2 * n * (lanes.div_ceil(*width) * width - lanes)
            );
        }
    }

    #[test]
    fn unit_stream_matches_weighted_gather() {
        let graph = snc_graph::generators::erdos_renyi::gnp(37, 0.3, 9).unwrap();
        let couplings = unit_couplings(&graph);
        let unit = SliceRows::new(37, || coupling_entries(&couplings));
        let weighted = SliceRows::with_stream(37, || coupling_entries(&couplings), false);
        assert!(unit.weights.is_empty() && !weighted.weights.is_empty());
        for i in 0..37 {
            assert!(unit.row(i).map(|e| e.0).eq(weighted.row(i).map(|e| e.0)));
        }
        let params = HopfieldParams::default();
        for seeds in [&[4u64][..], &[4, 5, 6, 7, 8, 9, 10, 11, 12, 13]] {
            let mut a = HopfieldNetwork::with_layout(unit.clone(), params, seeds);
            let mut b = HopfieldNetwork::with_layout(weighted.clone(), params, seeds);
            for t in 0..600 {
                a.step();
                b.step();
                for r in 0..seeds.len() {
                    assert_eq!(lane_bits(&a, r), lane_bits(&b, r), "lane {r} at {t}");
                }
            }
        }
    }

    #[test]
    fn self_couplings_are_dropped_and_bad_endpoints_panic() {
        let net = HopfieldNetwork::new(
            2,
            &[(0, 0, 5.0), (0, 1, 1.0)],
            HopfieldParams::default(),
            &[1],
        );
        assert_eq!(net.n(), 2);
        // Only the (0,1) pair survives, on the unit stream.
        let pair = [(0, 1, 1.0)];
        assert_eq!(net.couplings, SliceRows::new(2, || coupling_entries(&pair)));
        assert!(net.couplings.weights.is_empty());
        let bad = std::panic::catch_unwind(|| {
            HopfieldNetwork::new(2, &[(0, 7, 1.0)], HopfieldParams::default(), &[1])
        });
        assert!(bad.is_err(), "out-of-range coupling must panic");
    }
}
