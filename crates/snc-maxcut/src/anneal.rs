//! Simulated annealing: the Ising-machine baseline class.
//!
//! The paper positions its circuits against hardware Ising annealers
//! (\[10\], \[11\], \[30\] in its references), which solve MAXCUT by cooling an
//! Ising system whose couplings are the graph's adjacency. This module
//! provides the software version of that baseline: single-spin-flip
//! Metropolis with a geometric temperature schedule, operating directly on
//! cut values (`ΔE = −Δcut`), plus a best-of-restarts driver. It is useful
//! both as an additional comparison point for the experiment harness and
//! as the classical reference for "no conversion to an Ising model with
//! pairwise interactions is needed" claims.

use snc_devices::{Rng64, SplitMix64, Xoshiro256pp};
use snc_graph::{CutAssignment, Graph};

/// Configuration for the simulated annealer.
#[derive(Clone, Copy, Debug)]
pub struct AnnealConfig {
    /// Number of sweeps (each sweep proposes `n` single-vertex flips).
    pub sweeps: u64,
    /// Initial temperature (in cut-edge units).
    pub t_start: f64,
    /// Final temperature.
    pub t_end: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        Self {
            sweeps: 200,
            t_start: 2.0,
            t_end: 0.01,
            seed: 0xA22,
        }
    }
}

/// Runs single-flip Metropolis annealing from a random start.
///
/// Returns the best assignment *seen* (not merely the final state) and its
/// cut value. The proposal at temperature `T` accepts a flip with
/// probability `min(1, exp(Δcut / T))` — uphill moves in cut value are
/// always accepted.
pub fn simulated_annealing(graph: &Graph, cfg: &AnnealConfig) -> (CutAssignment, u64) {
    let n = graph.n();
    let mut rng = Xoshiro256pp::new(cfg.seed);
    let mut cut = CutAssignment::random(n, &mut rng);
    if n == 0 {
        return (cut, 0);
    }
    let mut value = cut.cut_value(graph) as i64;
    let mut best = cut.clone();
    let mut best_value = value;

    let sweeps = cfg.sweeps.max(1);
    // Geometric cooling from t_start to t_end across sweeps.
    let ratio = if cfg.t_start > 0.0 && cfg.t_end > 0.0 {
        (cfg.t_end / cfg.t_start).powf(1.0 / sweeps as f64)
    } else {
        1.0
    };
    let mut temperature = cfg.t_start.max(1e-12);

    for _ in 0..sweeps {
        for _ in 0..n {
            let v = rng.next_index(n);
            let delta = cut.flip_delta(graph, v);
            let accept = if delta >= 0 {
                true
            } else {
                rng.next_f64() < (delta as f64 / temperature).exp()
            };
            if accept {
                cut.flip(v);
                value += delta;
                if value > best_value {
                    best_value = value;
                    best = cut.clone();
                }
            }
        }
        temperature *= ratio;
    }
    (best, best_value as u64)
}

/// Parallel tempering (replica exchange) over a temperature ladder.
///
/// The enhancement of reference \[11\] of the paper ("Enhancing the Solution
/// Quality of Hardware Ising-Model Solver via Parallel Tempering"):
/// `replicas` Metropolis chains run at geometrically spaced temperatures;
/// after every sweep, adjacent-temperature replicas propose a state swap
/// accepted with probability `min(1, exp(Δβ·Δcut))` (cut-maximization
/// form). Hot chains explore, cold chains exploit, and swaps ferry good
/// solutions down the ladder.
#[derive(Clone, Copy, Debug)]
pub struct TemperingConfig {
    /// Number of replicas (temperature rungs).
    pub replicas: usize,
    /// Sweeps between exchange attempts.
    pub sweeps_per_exchange: u64,
    /// Number of exchange rounds.
    pub rounds: u64,
    /// Coldest temperature.
    pub t_cold: f64,
    /// Hottest temperature.
    pub t_hot: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TemperingConfig {
    fn default() -> Self {
        Self {
            replicas: 8,
            sweeps_per_exchange: 5,
            rounds: 40,
            t_cold: 0.05,
            t_hot: 4.0,
            seed: 0x7E47,
        }
    }
}

/// Runs parallel tempering and returns the best assignment seen anywhere
/// in the ladder.
pub fn parallel_tempering(graph: &Graph, cfg: &TemperingConfig) -> (CutAssignment, u64) {
    let n = graph.n();
    let replicas = cfg.replicas.max(2);
    let mut rng = Xoshiro256pp::new(cfg.seed);
    if n == 0 {
        return (CutAssignment::all_ones(0), 0);
    }
    // Geometric temperature ladder, hot to cold.
    let ratio = (cfg.t_cold / cfg.t_hot).powf(1.0 / (replicas - 1) as f64);
    let temperatures: Vec<f64> = (0..replicas)
        .map(|k| cfg.t_hot * ratio.powi(k as i32))
        .collect();

    let mut states: Vec<CutAssignment> = (0..replicas)
        .map(|_| CutAssignment::random(n, &mut rng))
        .collect();
    let mut values: Vec<i64> = states.iter().map(|c| c.cut_value(graph) as i64).collect();
    let mut chain_rngs: Vec<Xoshiro256pp> = (0..replicas)
        .map(|k| Xoshiro256pp::new(SplitMix64::derive(cfg.seed, k as u64 + 1)))
        .collect();

    let mut best_value = *values.iter().max().expect("non-empty ladder");
    let mut best = states[values
        .iter()
        .position(|&v| v == best_value)
        .expect("max exists")]
    .clone();

    for _round in 0..cfg.rounds.max(1) {
        // Metropolis sweeps within each replica.
        for (k, (state, value)) in states.iter_mut().zip(values.iter_mut()).enumerate() {
            let t = temperatures[k];
            let rng_k = &mut chain_rngs[k];
            for _ in 0..cfg.sweeps_per_exchange.max(1) {
                for _ in 0..n {
                    let v = rng_k.next_index(n);
                    let delta = state.flip_delta(graph, v);
                    if delta >= 0 || rng_k.next_f64() < (delta as f64 / t).exp() {
                        state.flip(v);
                        *value += delta;
                        if *value > best_value {
                            best_value = *value;
                            best = state.clone();
                        }
                    }
                }
            }
        }
        // Adjacent-pair exchanges (alternating parity keeps detailed
        // balance across rounds).
        for k in 0..replicas - 1 {
            let d_beta = 1.0 / temperatures[k + 1] - 1.0 / temperatures[k];
            let d_cut = (values[k + 1] - values[k]) as f64;
            // For cut maximization, energy = −cut: accept with
            // exp((β_hot − β_cold)·(cut_cold − cut_hot)) — equivalently:
            let accept = d_beta * (-d_cut);
            if accept >= 0.0 || rng.next_f64() < accept.exp() {
                states.swap(k, k + 1);
                values.swap(k, k + 1);
            }
        }
    }
    (best, best_value as u64)
}

/// The functional form of a [`CoolingSchedule`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleKind {
    /// `σ(t) = start · (end/start)^(t/(len−1))` — the geometric cooling
    /// the annealers above use for their temperature ladder.
    Geometric,
    /// `σ(t) = start + (end − start) · t/(len−1)` — linear interpolation.
    Linear,
}

impl ScheduleKind {
    /// The wire/CLI name of the kind.
    pub fn name(&self) -> &'static str {
        match self {
            ScheduleKind::Geometric => "geometric",
            ScheduleKind::Linear => "linear",
        }
    }

    /// Parses a wire/CLI name (`"geometric"` / `"linear"`).
    pub fn from_name(name: &str) -> Option<ScheduleKind> {
        [ScheduleKind::Geometric, ScheduleKind::Linear]
            .into_iter()
            .find(|k| k.name() == name)
    }
}

/// A rejected [`CoolingSchedule`] construction, with the reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleError(pub String);

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ScheduleError {}

/// A validated, monotone non-increasing cooling schedule `σ(t)` for the
/// annealed-noise circuit family: the same geometric law the Metropolis
/// annealers above cool their temperature with, plus a linear variant,
/// packaged as a reusable value the solve dispatch and the wire format
/// share.
///
/// Invariants enforced at construction: `start` and `end` are finite,
/// `start ≥ end`, both are `> 0` for geometric (the ratio is undefined
/// otherwise) and `≥ 0` for linear. [`CoolingSchedule::values`] is
/// therefore always monotone non-increasing with **exact** endpoints
/// (`values(len)[0] == start`, `values(len)[len-1] == end`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoolingSchedule {
    kind: ScheduleKind,
    start: f64,
    end: f64,
}

impl Default for CoolingSchedule {
    /// The workspace default for the annealed circuit: geometric cooling
    /// from 1.0 to 0.05 (relative noise units).
    fn default() -> Self {
        Self {
            kind: ScheduleKind::Geometric,
            start: 1.0,
            end: 0.05,
        }
    }
}

impl CoolingSchedule {
    /// Builds a validated schedule.
    ///
    /// # Errors
    ///
    /// Rejects non-finite values, `start < end` (heating is not a
    /// cooling schedule), non-positive geometric endpoints, and negative
    /// linear endpoints.
    pub fn new(kind: ScheduleKind, start: f64, end: f64) -> Result<Self, ScheduleError> {
        if !start.is_finite() || !end.is_finite() {
            return Err(ScheduleError(format!(
                "schedule endpoints must be finite (got start={start}, end={end})"
            )));
        }
        if start < end {
            return Err(ScheduleError(format!(
                "schedule must cool: start {start} < end {end}"
            )));
        }
        match kind {
            ScheduleKind::Geometric if start <= 0.0 || end <= 0.0 => {
                return Err(ScheduleError(format!(
                    "geometric schedule endpoints must be > 0 (got start={start}, end={end})"
                )))
            }
            ScheduleKind::Linear if end < 0.0 => {
                return Err(ScheduleError(format!(
                    "linear schedule endpoints must be ≥ 0 (got end={end})"
                )))
            }
            _ => {}
        }
        Ok(Self { kind, start, end })
    }

    /// A geometric schedule (`start`, `end` both > 0).
    ///
    /// # Errors
    ///
    /// Same validation as [`CoolingSchedule::new`].
    pub fn geometric(start: f64, end: f64) -> Result<Self, ScheduleError> {
        Self::new(ScheduleKind::Geometric, start, end)
    }

    /// A linear schedule.
    ///
    /// # Errors
    ///
    /// Same validation as [`CoolingSchedule::new`].
    pub fn linear(start: f64, end: f64) -> Result<Self, ScheduleError> {
        Self::new(ScheduleKind::Linear, start, end)
    }

    /// The constant schedule at `level` — the degenerate schedule under
    /// which the annealed circuit reproduces LIF-GW sampling bit for bit.
    ///
    /// # Errors
    ///
    /// Rejects non-finite or (for geometric semantics) non-positive
    /// levels.
    pub fn constant(level: f64) -> Result<Self, ScheduleError> {
        Self::new(ScheduleKind::Geometric, level, level)
    }

    /// The functional form.
    pub fn kind(&self) -> ScheduleKind {
        self.kind
    }

    /// σ at `t = 0`.
    pub fn start(&self) -> f64 {
        self.start
    }

    /// σ at `t = len − 1`.
    pub fn end(&self) -> f64 {
        self.end
    }

    /// Whether the schedule never actually cools (`start == end`).
    pub fn is_constant(&self) -> bool {
        self.start == self.end
    }

    /// σ at step `t` of a `len`-step schedule. Endpoints are exact by
    /// construction: `at(0, len) == start` and `at(len−1, len) == end`
    /// bit for bit (no `powf` round-off at the boundaries). A
    /// single-step schedule sits at `start`; `t` beyond the horizon
    /// clamps to `end`.
    pub fn at(&self, t: u64, len: u64) -> f64 {
        if len <= 1 || t == 0 || self.is_constant() {
            return self.start;
        }
        if t >= len - 1 {
            return self.end;
        }
        let frac = t as f64 / (len - 1) as f64;
        match self.kind {
            ScheduleKind::Geometric => self.start * (self.end / self.start).powf(frac),
            ScheduleKind::Linear => self.start + (self.end - self.start) * frac,
        }
    }

    /// The full `len`-value schedule `[σ(0), …, σ(len−1)]` — one value
    /// per sample, so `values(budget).len() == budget`. Monotone
    /// non-increasing by construction: each value is clamped to its
    /// predecessor, which squashes any last-ulp `powf` round-off without
    /// moving the exact endpoints (the true sequence already descends).
    pub fn values(&self, len: u64) -> Vec<f64> {
        let mut floor = f64::INFINITY;
        (0..len)
            .map(|t| {
                floor = floor.min(self.at(t, len));
                floor
            })
            .collect()
    }
}

/// Best of `restarts` independent annealing runs with derived seeds.
pub fn multistart_annealing(
    graph: &Graph,
    cfg: &AnnealConfig,
    restarts: usize,
) -> (CutAssignment, u64) {
    let mut best: Option<(CutAssignment, u64)> = None;
    for r in 0..restarts.max(1) {
        let run_cfg = AnnealConfig {
            seed: SplitMix64::derive(cfg.seed, r as u64),
            ..*cfg
        };
        let (cut, value) = simulated_annealing(graph, &run_cfg);
        if best.as_ref().is_none_or(|(_, bv)| value > *bv) {
            best = Some((cut, value));
        }
    }
    best.expect("at least one restart")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::brute_force;
    use snc_graph::generators::erdos_renyi::gnp;
    use snc_graph::generators::structured::{complete_bipartite, cycle, petersen};

    #[test]
    fn finds_optimum_on_small_structured_graphs() {
        for (g, opt) in [
            (petersen(), 12u64),
            (complete_bipartite(5, 5), 25),
            (cycle(11), 10),
        ] {
            let (cut, v) = simulated_annealing(&g, &AnnealConfig::default());
            assert_eq!(cut.cut_value(&g), v);
            assert!(v >= opt - 1, "got {v}, opt {opt}");
        }
    }

    #[test]
    fn matches_exact_on_random_graphs() {
        for seed in 0..4u64 {
            let g = gnp(16, 0.4, seed).unwrap();
            let (_, opt) = brute_force(&g);
            let cfg = AnnealConfig {
                seed,
                ..AnnealConfig::default()
            };
            let (_, v) = multistart_annealing(&g, &cfg, 4);
            assert!(v >= opt.saturating_sub(1), "seed={seed}: {v} vs opt {opt}");
        }
    }

    #[test]
    fn returned_best_is_best_seen() {
        let g = gnp(30, 0.3, 9).unwrap();
        let (cut, v) = simulated_annealing(&g, &AnnealConfig::default());
        assert_eq!(cut.cut_value(&g), v);
        assert!(v * 2 >= g.m() as u64, "below the random expectation");
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let g = gnp(20, 0.4, 2).unwrap();
        let a = simulated_annealing(&g, &AnnealConfig::default());
        let b = simulated_annealing(&g, &AnnealConfig::default());
        assert_eq!(a.1, b.1);
        assert_eq!(a.0, b.0);
    }

    #[test]
    fn zero_temperature_is_greedy_descent() {
        // t_start = t_end → constant temperature; tiny value ≈ pure hill
        // climbing, which still reaches a 1-opt-like state.
        let g = gnp(20, 0.4, 5).unwrap();
        let cfg = AnnealConfig {
            t_start: 1e-9,
            t_end: 1e-9,
            sweeps: 100,
            seed: 3,
        };
        let (cut, v) = simulated_annealing(&g, &cfg);
        assert_eq!(cut.cut_value(&g), v);
        assert!(2 * v >= g.m() as u64);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(0);
        assert_eq!(simulated_annealing(&g, &AnnealConfig::default()).1, 0);
        assert_eq!(parallel_tempering(&g, &TemperingConfig::default()).1, 0);
    }

    #[test]
    fn tempering_finds_optimum_on_small_graphs() {
        for (g, opt) in [
            (petersen(), 12u64),
            (complete_bipartite(4, 6), 24),
            (cycle(13), 12),
        ] {
            let (cut, v) = parallel_tempering(&g, &TemperingConfig::default());
            assert_eq!(cut.cut_value(&g), v);
            assert!(v >= opt - 1, "got {v}, opt {opt}");
        }
    }

    #[test]
    fn tempering_matches_exact_on_random_graphs() {
        for seed in 0..3u64 {
            let g = gnp(18, 0.35, seed).unwrap();
            let (_, opt) = brute_force(&g);
            let cfg = TemperingConfig {
                seed,
                ..TemperingConfig::default()
            };
            let (_, v) = parallel_tempering(&g, &cfg);
            assert!(v >= opt.saturating_sub(1), "seed={seed}: {v} vs {opt}");
        }
    }

    #[test]
    fn tempering_at_least_as_good_as_single_chain() {
        // With a matched total sweep budget, tempering should not lose to
        // a single annealing run (statistically; fixed seeds here).
        let g = gnp(40, 0.25, 4).unwrap();
        let t_cfg = TemperingConfig {
            replicas: 8,
            rounds: 25,
            ..TemperingConfig::default()
        };
        let (_, pt) = parallel_tempering(&g, &t_cfg);
        let a_cfg = AnnealConfig {
            sweeps: 200,
            ..AnnealConfig::default()
        };
        let (_, sa) = simulated_annealing(&g, &a_cfg);
        assert!(pt + 2 >= sa, "tempering {pt} far below annealing {sa}");
    }

    #[test]
    fn tempering_deterministic() {
        let g = gnp(20, 0.3, 8).unwrap();
        let a = parallel_tempering(&g, &TemperingConfig::default());
        let b = parallel_tempering(&g, &TemperingConfig::default());
        assert_eq!(a.1, b.1);
        assert_eq!(a.0, b.0);
    }

    // ------------------------------------------------------------------
    // CoolingSchedule (the annealed-circuit σ law)
    // ------------------------------------------------------------------

    #[test]
    fn schedule_kinds_roundtrip_names() {
        for kind in [ScheduleKind::Geometric, ScheduleKind::Linear] {
            assert_eq!(ScheduleKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(ScheduleKind::from_name("exponential"), None);
    }

    #[test]
    fn schedule_endpoints_are_exact_bit_for_bit() {
        for schedule in [
            CoolingSchedule::geometric(1.7, 0.003).unwrap(),
            CoolingSchedule::linear(2.5, 0.25).unwrap(),
        ] {
            for len in [2u64, 3, 7, 64, 1000] {
                let v = schedule.values(len);
                assert_eq!(v.len() as u64, len);
                assert_eq!(v[0].to_bits(), schedule.start().to_bits(), "len={len}");
                assert_eq!(
                    v[len as usize - 1].to_bits(),
                    schedule.end().to_bits(),
                    "len={len}"
                );
            }
        }
    }

    #[test]
    fn schedule_is_monotone_non_increasing() {
        for schedule in [
            CoolingSchedule::geometric(1.0, 0.01).unwrap(),
            CoolingSchedule::linear(3.0, 0.0).unwrap(),
            CoolingSchedule::constant(0.5).unwrap(),
        ] {
            for len in [1u64, 2, 17, 256] {
                let v = schedule.values(len);
                assert!(
                    v.windows(2).all(|w| w[0] >= w[1]),
                    "{schedule:?} len={len}: {v:?}"
                );
            }
        }
    }

    #[test]
    fn schedule_length_equals_budget() {
        let s = CoolingSchedule::default();
        for budget in [0u64, 1, 2, 100] {
            assert_eq!(s.values(budget).len() as u64, budget);
        }
        // One-step schedules sit at the start level (nothing to cool
        // across), and out-of-horizon queries clamp to the end level.
        assert_eq!(s.values(1), vec![s.start()]);
        assert_eq!(s.at(99, 10), s.end());
    }

    #[test]
    fn constant_schedule_never_cools() {
        let s = CoolingSchedule::constant(0.75).unwrap();
        assert!(s.is_constant());
        assert!(s.values(64).iter().all(|&v| v == 0.75));
        assert!(!CoolingSchedule::default().is_constant());
    }

    #[test]
    fn geometric_midpoint_is_the_geometric_mean() {
        // σ(mid) of a 3-point geometric schedule is √(start·end).
        let s = CoolingSchedule::geometric(4.0, 1.0).unwrap();
        let v = s.values(3);
        assert!((v[1] - 2.0).abs() < 1e-12, "{v:?}");
        let lin = CoolingSchedule::linear(4.0, 1.0).unwrap().values(3);
        assert!((lin[1] - 2.5).abs() < 1e-12, "{lin:?}");
    }

    #[test]
    fn schedule_rejects_degenerate_endpoints() {
        assert!(CoolingSchedule::geometric(f64::NAN, 0.1).is_err());
        assert!(CoolingSchedule::linear(1.0, f64::INFINITY).is_err());
        assert!(CoolingSchedule::geometric(0.1, 1.0).is_err(), "heating");
        assert!(CoolingSchedule::geometric(1.0, 0.0).is_err(), "zero ratio");
        assert!(CoolingSchedule::geometric(0.0, 0.0).is_err());
        assert!(CoolingSchedule::linear(1.0, -0.5).is_err(), "negative σ");
        assert!(CoolingSchedule::constant(-1.0).is_err());
        assert!(
            CoolingSchedule::linear(1.0, 0.0).is_ok(),
            "linear to zero is fine"
        );
        let e = CoolingSchedule::geometric(0.5, 1.5).unwrap_err();
        assert!(e.to_string().contains("must cool"), "{e}");
    }
}
