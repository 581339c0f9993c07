//! Request→circuit dispatch: one entry point that turns a *solve
//! request* — graph, circuit family, sample budget, replica width,
//! seed — into a finished MAXCUT answer with the best partition and its
//! best-so-far trace.
//!
//! This is the API a serving layer consumes (the `snc-server` crate
//! schedules [`solve`] calls onto a worker pool), and the experiment
//! harness shares its budget/seed arithmetic: [`replica_seeds`],
//! [`effective_replicas`], and [`replica_checkpoints`] are the exact
//! functions `snc_experiments::suite` splits figure budgets with, so a
//! service request reproduces the harness's traces bit for bit.
//!
//! ## Determinism contract
//!
//! [`solve`] is a pure function of `(graph, spec)`. The per-replica seed
//! ladder is rooted at `spec.seed` via `SplitMix64::derive` — the same
//! deterministic sub-stream derivation pinned throughout the workspace —
//! and the batched circuits guarantee replica `r`'s sample stream is
//! bit-for-bit the one-seed batch's with seed `seeds[r]`. Two calls
//! with identical inputs return identical outcomes, on any thread, at
//! any concurrency.

use crate::anneal::CoolingSchedule;
use crate::cache::SdpCache;
use crate::circuits::hopfield::{HopfieldCircuit, HopfieldConfig};
use crate::circuits::lif_annealed::{LifAnnealedCircuit, LifAnnealedConfig};
use crate::circuits::lif_gw::{LifGwCircuit, LifGwConfig};
use crate::circuits::lif_trevisan::{LifTrevisanCircuit, LifTrevisanConfig};
use crate::graph::{CutValue, MaxCutGraph};
use crate::gw::{solve_gw, GwConfig, GwSolution};
use crate::sampling::{blocked_bests, log2_checkpoints, BestTrace};
use snc_devices::SplitMix64;
use snc_graph::bitslice::LANES;
use snc_graph::{CutAssignment, Graph};
use snc_linalg::{LinalgError, SdpConfig};
use snc_neuro::{LifParams, TwoStageConfig};
use std::sync::Arc;
use std::time::Instant;

/// SDP rank of the offline factor computation (4 in the paper, §IV.A).
pub const SDP_RANK: usize = 4;

/// The membrane parameters `snc-server` solves with and the experiment
/// harness's presets run, so that a request carrying a figure's
/// per-graph seed reproduces that figure's trace bit for bit.
///
/// `Δt = τ/2` keeps the decorrelation interval at 10 steps, trading a
/// little sample independence for a 5× faster circuit than
/// [`LifParams::default`] (the paper's hardware argument makes
/// per-sample cost irrelevant there; in simulation we pay it).
pub const SERVED_LIF: LifParams = LifParams {
    r: 1.0,
    c: 1.0,
    dt: 0.5,
};

/// The circuit families a request can name: the paper's two circuits
/// (§IV) plus the annealed-noise and Hopfield companions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CircuitFamily {
    /// LIF-GW: SDP factors programmed into synapses, Gaussian sampling
    /// in the membrane covariance (Fig. 1).
    LifGw,
    /// LIF-Trevisan: fully online spectral circuit with a plastic
    /// readout (Fig. 2).
    LifTrevisan,
    /// Annealed LIF-GW: the same substrate with a σ cooling schedule on
    /// the readout — Gaussian exploration early, deterministic local
    /// refinement late.
    LifAnnealed,
    /// Hopfield–Tank: deterministic continuous relaxation with
    /// sign-threshold readout; replicas are seeded restarts.
    Hopfield,
}

impl CircuitFamily {
    /// Every family, the paper's two first.
    pub fn all() -> [CircuitFamily; 4] {
        [
            CircuitFamily::LifGw,
            CircuitFamily::LifTrevisan,
            CircuitFamily::LifAnnealed,
            CircuitFamily::Hopfield,
        ]
    }

    /// The wire/CLI name of the family.
    pub fn name(&self) -> &'static str {
        match self {
            CircuitFamily::LifGw => "lif-gw",
            CircuitFamily::LifTrevisan => "lif-trevisan",
            CircuitFamily::LifAnnealed => "lif-annealed",
            CircuitFamily::Hopfield => "hopfield",
        }
    }

    /// Parses a wire/CLI name (`"lif-gw"`, `"lif-trevisan"`,
    /// `"lif-annealed"`, `"hopfield"`).
    pub fn from_name(name: &str) -> Option<CircuitFamily> {
        CircuitFamily::all().into_iter().find(|f| f.name() == name)
    }
}

/// A fully specified solve request (everything [`solve`] depends on).
#[derive(Clone, Debug)]
pub struct SolveSpec {
    /// Which circuit family to sample.
    pub family: CircuitFamily,
    /// Total sample budget across replicas (≥ 1).
    pub budget: u64,
    /// Replica width: how many lock-stepped circuit copies share the
    /// budget (the `ReplicaBatch` width). Capped at the budget; see
    /// [`effective_replicas`].
    pub replicas: usize,
    /// Master seed; every RNG stream in the solve derives from it.
    pub seed: u64,
    /// SDP rank for LIF-GW's offline factor computation (4 in §IV.A).
    pub sdp_rank: usize,
    /// Membrane parameters for the circuit's LIF population.
    pub lif: LifParams,
    /// σ cooling schedule over each replica's sample horizon
    /// ([`CircuitFamily::LifAnnealed`] only; ignored elsewhere).
    pub schedule: CoolingSchedule,
    /// Euler steps per sample ([`CircuitFamily::Hopfield`] only;
    /// ignored elsewhere; clamped to ≥ 1).
    pub hopfield_steps: u64,
}

impl SolveSpec {
    /// A spec with the workspace defaults: one replica, [`SDP_RANK`],
    /// default LIF parameters, the default geometric cooling schedule,
    /// and 8 Euler steps per Hopfield sample.
    pub fn new(family: CircuitFamily, budget: u64, seed: u64) -> Self {
        Self {
            family,
            budget,
            replicas: 1,
            seed,
            sdp_rank: SDP_RANK,
            lif: LifParams::default(),
            schedule: CoolingSchedule::default(),
            hopfield_steps: 8,
        }
    }
}

/// Wall-clock microseconds spent in each stage of one solve call.
///
/// Purely observational: timings ride alongside the deterministic
/// answer (which remains a pure function of `(graph, spec)`) so a
/// serving layer can export per-stage latency histograms without
/// re-instrumenting the solver. Rendering layers must ignore these
/// fields — response bodies stay byte-identical across cache state.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// Time in the offline SDP stage, `Some` only when an SDP was
    /// actually solved this call — `None` for families with no offline
    /// stage *and* for cache hits, so a histogram of these values is a
    /// census of real SDP solves.
    pub sdp_us: Option<u64>,
    /// Gradient iterations of the SDP solved this call (`Some` exactly
    /// when `sdp_us` is).
    pub sdp_iterations: Option<u64>,
    /// Whether the SDP solved this call stopped at its iteration cap
    /// (`false` on cache hits and for families with no offline stage).
    pub sdp_capped: bool,
    /// Time from the end of the offline stage to the answer: building
    /// the circuit and its warm-up free-run, then sampling, scoring and
    /// trace merging.
    pub sampling_us: u64,
}

impl StageTimings {
    /// A call whose SDP took `us` (`None`: not solved this call) and
    /// `iterations`, and whose sampling began at `sampling_started`.
    fn sdp(us: Option<u64>, iterations: usize, capped: bool, sampling_started: Instant) -> Self {
        Self {
            sdp_us: us,
            sdp_iterations: us.map(|_| iterations as u64),
            sdp_capped: us.is_some() && capped,
            sampling_us: elapsed_us(sampling_started),
        }
    }

    /// A call with no offline stage.
    fn sampling_only(sampling_started: Instant) -> Self {
        Self::sdp(None, 0, false, sampling_started)
    }
}

/// Microseconds since `start`, saturating into `u64`.
fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// The answer to a solve request, with exact `u64` cut values on an
/// unweighted graph and `f64` ones on a weighted graph.
#[derive(Clone, Debug)]
pub struct SolveOutcome<V = u64> {
    /// Merged best-so-far trace on the total-samples checkpoint grid
    /// (per-replica log2 checkpoints × effective width).
    pub trace: BestTrace<V>,
    /// The best cut value over every sample of every replica (equal to
    /// `trace.final_best()`).
    pub best_value: V,
    /// A partition achieving `best_value` — the earliest such sample,
    /// ties broken by lowest replica index, so the argmax is as
    /// deterministic as the value.
    pub best_cut: CutAssignment,
    /// The SDP upper bound (LIF-GW and LIF-annealed; the other families
    /// do no offline work).
    pub sdp_bound: Option<f64>,
    /// Effective replica width after capping at the budget.
    pub replicas: usize,
    /// Total samples actually drawn: `⌊budget/R⌋·R ≤ budget`.
    pub samples: u64,
    /// Wall-clock stage breakdown for this call (observational only —
    /// not part of the deterministic answer).
    pub stages: StageTimings,
}

/// Errors a solve request can fail with.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// The sample budget was zero — there is nothing to sample and no
    /// partition to return.
    EmptyBudget,
    /// The graph has no vertices; the circuits have no population to
    /// build.
    EmptyGraph,
    /// The offline SDP stage failed (SDP-backed families only).
    Sdp(LinalgError),
    /// The requested family cannot run on a graph with negative edge
    /// weights (the LIF-Trevisan operator requires non-negative
    /// weights).
    NegativeWeights,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::EmptyBudget => f.write_str("sample budget must be ≥ 1"),
            SolveError::EmptyGraph => f.write_str("graph must have at least one vertex"),
            SolveError::Sdp(e) => write!(f, "SDP stage failed: {e}"),
            SolveError::NegativeWeights => {
                f.write_str("lif-trevisan requires non-negative edge weights")
            }
        }
    }
}

impl std::error::Error for SolveError {}

impl From<LinalgError> for SolveError {
    fn from(e: LinalgError) -> Self {
        SolveError::Sdp(e)
    }
}

/// Deterministic replica seed ladder rooted at `base`.
///
/// A single replica uses `base` itself, so `replicas == 1` consumes
/// exactly the seed stream a single-circuit run with seed `base` does and
/// reproduces its traces bit-for-bit.
pub fn replica_seeds(base: u64, replicas: usize) -> Vec<u64> {
    if replicas <= 1 {
        vec![base]
    } else {
        (0..replicas as u64)
            .map(|r| SplitMix64::derive(base, r))
            .collect()
    }
}

/// The effective batch width for a total budget: never more replicas
/// than samples, so the merged trace cannot exceed the budget.
pub fn effective_replicas(budget: u64, replicas: usize) -> usize {
    replicas.max(1).min(budget.max(1) as usize)
}

/// The per-replica checkpoint grid for a total budget split `replicas`
/// ways. When the budget is not divisible by the batch width the merged
/// circuit trace ends at `⌊budget/R⌋·R ≤ budget`; [`effective_replicas`]
/// guarantees at least one sample per replica without overshooting. A
/// zero budget draws zero circuit samples (empty grid).
pub fn replica_checkpoints(budget: u64, replicas: usize) -> Vec<u64> {
    log2_checkpoints(budget / effective_replicas(budget, replicas) as u64)
}

/// Runs the requested circuit on `graph` — unweighted or weighted — and
/// returns the best cut found within the budget, its partition, and the
/// merged best-so-far trace.
///
/// Seed ladder (shared with `snc_experiments::suite::run_suite`, so a
/// request with the harness's per-graph seed reproduces the harness's
/// circuit trace): slot 1 seeds the SDP (LIF-GW *and* LIF-annealed —
/// both program the same factors), slot 3 roots the LIF-GW replica
/// ladder, slot 4 LIF-Trevisan's, slot 6 LIF-annealed's, and slot 7
/// Hopfield's. On a weighted graph the SDP is the weighted one, the
/// Hopfield relaxation and the annealed feedback field read the
/// weighted couplings, and LIF-Trevisan runs the weighted Trevisan
/// operator; a unit-weight graph computes exactly the unweighted
/// numbers.
///
/// # Errors
///
/// Returns [`SolveError::EmptyBudget`] for a zero budget,
/// [`SolveError::EmptyGraph`] for a vertexless graph,
/// [`SolveError::NegativeWeights`] for LIF-Trevisan on a graph with
/// negative weights (the other three families accept signed weights),
/// and propagates SDP failures.
pub fn solve<G: MaxCutGraph>(
    graph: &G,
    spec: &SolveSpec,
) -> Result<SolveOutcome<G::Value>, SolveError> {
    solve_from(graph, spec, |seed| fresh_sdp(graph, spec.sdp_rank, seed))
}

/// [`solve`] on an unweighted graph with an optional [`SdpCache`]
/// consulted for the offline stage of LIF-GW and LIF-annealed.
///
/// Both SDP families look up `(graph fingerprint, derived sdp seed,
/// rank)` in the cache and reuse the stored factor/bound on a hit,
/// skipping the SDP entirely — they program the same slot-1 factor, so
/// LIF-GW followed by LIF-annealed on one graph and seed solves it once.
/// LIF-Trevisan and Hopfield do no offline work and bypass the cache
/// untouched. Because the cached factor is bit-identical to a
/// fresh solve's (the SDP is deterministic in its seed) and the sampling
/// RNG streams derive from separate seed slots, a warm call returns
/// bit-for-bit the outcome of a cold [`solve`] — the cache can change
/// latency, never answers.
///
/// # Errors
///
/// Same as [`solve`].
pub fn solve_with_cache(
    graph: &Graph,
    spec: &SolveSpec,
    cache: Option<&SdpCache>,
) -> Result<SolveOutcome, SolveError> {
    solve_from(graph, spec, |seed| match cache {
        Some(cache) => Ok(cache.get_or_solve_traced(graph, seed, spec.sdp_rank)?),
        None => fresh_sdp(graph, spec.sdp_rank, seed),
    })
}

/// The slot-1 SDP factor solved afresh (`true`: a real solve).
fn fresh_sdp(
    graph: &impl MaxCutGraph,
    rank: usize,
    seed: u64,
) -> Result<(Arc<GwSolution>, bool), SolveError> {
    let sdp = SdpConfig {
        rank,
        seed,
        ..SdpConfig::default()
    };
    Ok((Arc::new(solve_gw(graph, &GwConfig { sdp })?), true))
}

/// The solve body behind [`solve`] and [`solve_with_cache`].
/// `sdp_source` maps the derived slot-1 seed to the factor LIF-GW and
/// LIF-annealed share, and says whether it solved one (as opposed to
/// finding it cached), so the SDP time is reported only for real solves.
fn solve_from<G: MaxCutGraph>(
    graph: &G,
    spec: &SolveSpec,
    sdp_source: impl FnOnce(u64) -> Result<(Arc<GwSolution>, bool), SolveError>,
) -> Result<SolveOutcome<G::Value>, SolveError> {
    if spec.budget == 0 {
        return Err(SolveError::EmptyBudget);
    }
    if graph.n() == 0 {
        return Err(SolveError::EmptyGraph);
    }
    let replicas = effective_replicas(spec.budget, spec.replicas);
    let checkpoints = replica_checkpoints(spec.budget, spec.replicas);
    let sdp_factor = || {
        let started = Instant::now();
        let (gw, solved) = sdp_source(SplitMix64::derive(spec.seed, 1))?;
        Ok::<_, SolveError>((gw, solved.then(|| elapsed_us(started))))
    };
    match spec.family {
        CircuitFamily::LifGw => {
            let (gw, sdp_us) = sdp_factor()?;
            let started = Instant::now();
            let cfg = LifGwConfig {
                lif: spec.lif,
                ..LifGwConfig::default()
            };
            let seeds = replica_seeds(SplitMix64::derive(spec.seed, 3), replicas);
            let mut batch = LifGwCircuit::new(&gw.factors, &seeds, &cfg);
            let sdp = Some((&*gw, sdp_us));
            let next_lane = |lane, words: &mut [u64]| batch.next_lane(lane, words);
            Ok(drive(
                graph,
                &checkpoints,
                replicas,
                started,
                sdp,
                next_lane,
            ))
        }
        CircuitFamily::LifTrevisan => {
            let started = Instant::now();
            let cfg = LifTrevisanConfig {
                network: TwoStageConfig {
                    lif: spec.lif,
                    ..TwoStageConfig::default()
                },
                ..LifTrevisanConfig::default()
            };
            let seeds = replica_seeds(SplitMix64::derive(spec.seed, 4), replicas);
            let weights = graph.trevisan_weights(cfg.network.weight_scale)?;
            let mut batch = LifTrevisanCircuit::from_weights(weights, &seeds, &cfg);
            let next_lane = |lane, words: &mut [u64]| batch.next_lane(lane, words);
            Ok(drive(
                graph,
                &checkpoints,
                replicas,
                started,
                None,
                next_lane,
            ))
        }
        CircuitFamily::LifAnnealed => {
            // The cooling schedule acts on the readout only: the factor is
            // LIF-GW's, cache entry included.
            let (gw, sdp_us) = sdp_factor()?;
            let started = Instant::now();
            let cfg = LifAnnealedConfig {
                base: LifGwConfig {
                    lif: spec.lif,
                    ..LifGwConfig::default()
                },
                schedule: spec.schedule,
                ..LifAnnealedConfig::default()
            };
            let horizon = spec.budget / replicas as u64;
            let seeds = replica_seeds(SplitMix64::derive(spec.seed, 6), replicas);
            let mut batch = LifAnnealedCircuit::new(&gw.factors, graph, &seeds, &cfg, horizon);
            let sdp = Some((&*gw, sdp_us));
            let next_lane = |lane, words: &mut [u64]| batch.next_lane(lane, words);
            Ok(drive(
                graph,
                &checkpoints,
                replicas,
                started,
                sdp,
                next_lane,
            ))
        }
        CircuitFamily::Hopfield => {
            let started = Instant::now();
            let cfg = HopfieldConfig {
                steps_per_sample: spec.hopfield_steps,
                ..HopfieldConfig::default()
            };
            let seeds = replica_seeds(SplitMix64::derive(spec.seed, 7), replicas);
            let mut batch = HopfieldCircuit::new(graph, &seeds, &cfg);
            let next_lane = |lane, words: &mut [u64]| batch.next_lane(lane, words);
            Ok(drive(
                graph,
                &checkpoints,
                replicas,
                started,
                None,
                next_lane,
            ))
        }
    }
}

/// The argmax-tracking variant of the blocked checkpoint loop
/// ([`blocked_bests`]): draws up to 64 samples per replica at a time into
/// a bit-sliced block, scores the block with the graph's
/// [`MaxCutGraph::scorer`] (values identical to the circuits'
/// `best_traces` on unweighted graphs), merges per-replica bests at each
/// checkpoint (max over replicas, sample counts summed — the
/// `merge_traces` semantics), and keeps the earliest partition achieving
/// the global best, building it only when the champion changes. `sdp` is
/// the offline stage the circuit was built from and its solve time
/// (`None` when served from the cache); the sampling stage is timed from
/// `sampling_started`, taken before the circuit was built, so
/// construction and warm-up count as sampling.
fn drive<G: MaxCutGraph>(
    graph: &G,
    checkpoints: &[u64],
    replicas: usize,
    sampling_started: Instant,
    sdp: Option<(&GwSolution, Option<u64>)>,
    next_lane: impl FnMut(usize, &mut [u64]),
) -> SolveOutcome<G::Value> {
    assert!(!checkpoints.is_empty(), "budget ≥ 1 yields ≥ 1 checkpoint");
    let n = graph.n();
    // Champion: strictly-greater updates ⇒ earliest sample wins, ties
    // within a sample broken by replica index.
    let mut champion: Option<(G::Value, CutAssignment)> = None;
    let track_champion = |words: &[u64], len: usize, values: &[G::Value]| {
        for k in 0..len {
            for r in 0..replicas {
                let value = values[r * LANES + k];
                if champion.as_ref().is_none_or(|(best, _)| value > *best) {
                    let cut = CutAssignment::from_lane(&words[r * n..(r + 1) * n], k);
                    champion = Some((value, cut));
                }
            }
        }
    };
    let per_replica = blocked_bests(graph, checkpoints, replicas, next_lane, track_champion);
    let merged_best: Vec<G::Value> = (0..checkpoints.len())
        .map(|c| {
            per_replica
                .iter()
                .fold(G::Value::FLOOR, |a, bests| a.larger(bests[c]))
        })
        .collect();
    let (best_value, best_cut) = champion.expect("≥ 1 sample was drawn");
    let stages = match sdp {
        Some((gw, us)) => StageTimings::sdp(us, gw.iterations, gw.capped, sampling_started),
        None => StageTimings::sampling_only(sampling_started),
    };
    let checkpoints: Vec<u64> = checkpoints.iter().map(|&c| c * replicas as u64).collect();
    SolveOutcome {
        samples: checkpoints.last().copied().unwrap_or(0),
        trace: BestTrace {
            checkpoints,
            best: merged_best,
        },
        best_value,
        best_cut,
        sdp_bound: sdp.map(|(gw, _)| gw.sdp_bound),
        replicas,
        stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::merge_traces;
    use snc_graph::generators::erdos_renyi::gnp;
    use snc_graph::WeightedGraph;

    fn spec(family: CircuitFamily) -> SolveSpec {
        SolveSpec {
            budget: 64,
            replicas: 4,
            ..SolveSpec::new(family, 64, 0xBEEF)
        }
    }

    #[test]
    fn family_names_roundtrip() {
        for f in CircuitFamily::all() {
            assert_eq!(CircuitFamily::from_name(f.name()), Some(f));
        }
        assert_eq!(CircuitFamily::all().len(), 4);
        assert_eq!(
            CircuitFamily::from_name("lif-annealed"),
            Some(CircuitFamily::LifAnnealed)
        );
        assert_eq!(
            CircuitFamily::from_name("hopfield"),
            Some(CircuitFamily::Hopfield)
        );
        assert_eq!(CircuitFamily::from_name("gw"), None);
    }

    #[test]
    fn rejects_degenerate_requests() {
        let g = gnp(10, 0.5, 1).unwrap();
        let mut s = spec(CircuitFamily::LifGw);
        s.budget = 0;
        assert_eq!(solve(&g, &s).unwrap_err(), SolveError::EmptyBudget);
        let empty = Graph::empty(0);
        assert_eq!(
            solve(&empty, &spec(CircuitFamily::LifTrevisan)).unwrap_err(),
            SolveError::EmptyGraph
        );
    }

    #[test]
    fn outcome_is_internally_consistent() {
        let g = gnp(20, 0.4, 7).unwrap();
        for family in CircuitFamily::all() {
            let out = solve(&g, &spec(family)).unwrap();
            // The partition must achieve exactly the reported value …
            assert_eq!(out.best_cut.cut_value(&g), out.best_value, "{family:?}");
            // … which is the final trace value …
            assert_eq!(out.best_value, out.trace.final_best(), "{family:?}");
            // … and the merged grid covers the whole (divisible) budget.
            assert_eq!(out.samples, 64);
            assert_eq!(out.replicas, 4);
            assert_eq!(out.trace.checkpoints.last(), Some(&64));
            assert!(out.trace.best.windows(2).all(|w| w[0] <= w[1]));
            if matches!(family, CircuitFamily::LifGw | CircuitFamily::LifAnnealed) {
                let bound = out.sdp_bound.expect("SDP-backed families carry the bound");
                assert!(bound >= out.best_value as f64 - 1e-6, "{family:?}");
            } else {
                assert_eq!(out.sdp_bound, None, "{family:?}");
            }
        }
    }

    #[test]
    fn identical_requests_yield_identical_outcomes() {
        let g = gnp(18, 0.4, 3).unwrap();
        for family in CircuitFamily::all() {
            let a = solve(&g, &spec(family)).unwrap();
            let b = solve(&g, &spec(family)).unwrap();
            assert_eq!(a.trace, b.trace);
            assert_eq!(a.best_value, b.best_value);
            assert_eq!(a.best_cut, b.best_cut);
            assert_eq!(a.sdp_bound, b.sdp_bound);
        }
    }

    #[test]
    fn cached_solves_are_bit_identical_to_cold_solves() {
        let cache = SdpCache::new(8);
        for seed in [0u64, 0xBEEF, 71] {
            let g = gnp(16, 0.4, seed).unwrap();
            for family in CircuitFamily::all() {
                let mut s = spec(family);
                s.seed = seed;
                let cold = solve(&g, &s).unwrap();
                let miss = solve_with_cache(&g, &s, Some(&cache)).unwrap();
                let hit = solve_with_cache(&g, &s, Some(&cache)).unwrap();
                for warm in [&miss, &hit] {
                    assert_eq!(cold.trace, warm.trace, "{family:?} seed {seed}");
                    assert_eq!(cold.best_value, warm.best_value);
                    assert_eq!(cold.best_cut, warm.best_cut);
                    assert_eq!(cold.sdp_bound, warm.sdp_bound, "bound must be bit-equal");
                }
            }
        }
        let stats = cache.stats();
        // Per seed, LIF-GW misses then hits and LIF-annealed hits twice on
        // the same entry; LIF-Trevisan and Hopfield do no offline work.
        assert_eq!((stats.hits, stats.misses), (9, 3), "other families bypass");
    }

    #[test]
    fn distinct_request_seeds_use_distinct_sdp_entries() {
        // The cache key uses the *derived* SDP seed (slot 1), so two
        // requests differing only in the master seed must not share a
        // factor.
        let cache = SdpCache::new(8);
        let g = gnp(14, 0.5, 4).unwrap();
        let mut a = spec(CircuitFamily::LifGw);
        a.seed = 1;
        let mut b = a.clone();
        b.seed = 2;
        solve_with_cache(&g, &a, Some(&cache)).unwrap();
        solve_with_cache(&g, &b, Some(&cache)).unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn trace_matches_the_batched_steppers() {
        // solve() must report exactly the trace the batched circuits
        // produce with the same seed ladder — the argmax bookkeeping may
        // not perturb the numbers.
        let g = gnp(16, 0.5, 11).unwrap();
        let s = spec(CircuitFamily::LifTrevisan);
        let out = solve(&g, &s).unwrap();
        let replicas = effective_replicas(s.budget, s.replicas);
        let cp = replica_checkpoints(s.budget, s.replicas);
        let seeds = replica_seeds(SplitMix64::derive(s.seed, 4), replicas);
        let cfg = LifTrevisanConfig {
            network: TwoStageConfig {
                lif: s.lif,
                ..TwoStageConfig::default()
            },
            ..LifTrevisanConfig::default()
        };
        let mut batch = LifTrevisanCircuit::new(&g, &seeds, &cfg);
        let reference = merge_traces(&batch.best_traces(&g, &cp));
        assert_eq!(out.trace, reference);
    }

    #[test]
    fn replica_arithmetic_caps_and_splits() {
        assert_eq!(effective_replicas(1000, 16), 16);
        assert_eq!(replica_checkpoints(1000, 16).last(), Some(&62));
        assert_eq!(effective_replicas(4, 8), 4);
        assert_eq!(effective_replicas(0, 8), 1);
        assert_eq!(effective_replicas(64, 0), 1);
        assert!(replica_checkpoints(0, 8).is_empty());
        assert_eq!(replica_seeds(9, 1), vec![9]);
        let ladder = replica_seeds(9, 3);
        assert_eq!(ladder.len(), 3);
        assert_eq!(ladder[0], SplitMix64::derive(9, 0));
    }

    #[test]
    fn indivisible_budget_never_overshoots() {
        let g = gnp(12, 0.5, 2).unwrap();
        let mut s = spec(CircuitFamily::LifGw);
        s.budget = 10;
        s.replicas = 4;
        let out = solve(&g, &s).unwrap();
        assert_eq!(out.samples, 8); // 4 · ⌊10/4⌋
        assert_eq!(out.trace.checkpoints.last(), Some(&8));
        assert_eq!(out.best_cut.cut_value(&g), out.best_value);
    }

    #[test]
    fn annealed_reuses_the_lif_gw_sdp_cache_entry() {
        // LIF-GW then LIF-annealed on one graph and seed: one solve, one
        // hit, and only the solve reports SDP time and convergence.
        let cache = SdpCache::new(8);
        let g = gnp(14, 0.5, 6).unwrap();
        let s = spec(CircuitFamily::LifAnnealed);
        let gw = solve_with_cache(&g, &spec(CircuitFamily::LifGw), Some(&cache)).unwrap();
        let warm = solve_with_cache(&g, &s, Some(&cache)).unwrap();
        let cold = solve(&g, &s).unwrap();
        assert_eq!((cold.trace, cold.best_cut), (warm.trace, warm.best_cut));
        assert_eq!(cold.sdp_bound, warm.sdp_bound);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!(gw.stages.sdp_us.is_some() && gw.stages.sdp_iterations.is_some());
        assert!(warm.stages.sdp_us.is_none() && warm.stages.sdp_iterations.is_none());
        assert_eq!(cold.stages.sdp_iterations, gw.stages.sdp_iterations);
    }

    #[test]
    fn annealed_and_lif_gw_share_the_sdp_bound() {
        // Same master seed ⇒ same slot-1 SDP seed ⇒ bit-identical
        // factors and bound, even though the sampling ladders differ
        // (slot 6 vs slot 3).
        let g = gnp(16, 0.4, 12).unwrap();
        let gw = solve(&g, &spec(CircuitFamily::LifGw)).unwrap();
        let annealed = solve(&g, &spec(CircuitFamily::LifAnnealed)).unwrap();
        assert_eq!(
            gw.sdp_bound.unwrap().to_bits(),
            annealed.sdp_bound.unwrap().to_bits()
        );
    }

    #[test]
    fn cooling_schedule_changes_the_samples() {
        // A constant schedule keeps the readout pure LIF-GW; the default
        // geometric schedule departs from it once σ cools. Both are
        // deterministic, so inequality of the sample streams is a stable
        // fact of this seed, not a flake.
        let g = gnp(18, 0.4, 5).unwrap();
        let factors = solve_gw(&g, &GwConfig::default()).unwrap().factors;
        let cooled_cfg = LifAnnealedConfig::default();
        let constant_cfg = LifAnnealedConfig {
            schedule: CoolingSchedule::constant(1.0).unwrap(),
            ..LifAnnealedConfig::default()
        };
        let mut cooled = LifAnnealedCircuit::new(&factors, &g, &[9], &cooled_cfg, 32);
        let mut constant = LifAnnealedCircuit::new(&factors, &g, &[9], &constant_cfg, 32);
        let a: Vec<_> = (0..32).flat_map(|_| cooled.next_cuts()).collect();
        let b: Vec<_> = (0..32).flat_map(|_| constant.next_cuts()).collect();
        assert_ne!(a, b, "cooling must alter the sample stream");
    }

    #[test]
    fn weighted_outcome_is_internally_consistent() {
        let base = gnp(14, 0.5, 8).unwrap();
        let g = snc_graph::weighted::randomize_weights(
            &base,
            snc_graph::weighted::WeightDistribution::Uniform { lo: 0.5, hi: 2.0 },
            3,
        )
        .unwrap();
        for family in CircuitFamily::all() {
            let out = solve(&g, &spec(family)).unwrap();
            // The incremental tracker resyncs periodically, so the
            // reported value matches a scratch evaluation to rounding.
            let scratch = g.cut_value(&out.best_cut);
            assert!(
                (out.best_value - scratch).abs() <= 1e-9 * g.total_weight().max(1.0),
                "{family:?}: {} vs {scratch}",
                out.best_value
            );
            assert_eq!(out.best_value, out.trace.final_best(), "{family:?}");
            assert_eq!(out.samples, 64);
            assert_eq!(out.replicas, 4);
            assert!(out.trace.best.windows(2).all(|w| w[0] <= w[1]));
            if matches!(family, CircuitFamily::LifGw | CircuitFamily::LifAnnealed) {
                let bound = out.sdp_bound.expect("SDP-backed families carry the bound");
                assert!(bound >= out.best_value - 1e-6, "{family:?}");
            } else {
                assert_eq!(out.sdp_bound, None, "{family:?}");
            }
        }
    }

    #[test]
    fn weighted_solves_are_deterministic() {
        let base = gnp(12, 0.5, 9).unwrap();
        let g = snc_graph::weighted::randomize_weights(
            &base,
            snc_graph::weighted::WeightDistribution::Uniform { lo: 0.5, hi: 2.0 },
            7,
        )
        .unwrap();
        for family in CircuitFamily::all() {
            let a = solve(&g, &spec(family)).unwrap();
            let b = solve(&g, &spec(family)).unwrap();
            assert_eq!(a.trace, b.trace, "{family:?}");
            assert_eq!(a.best_cut, b.best_cut, "{family:?}");
            assert_eq!(a.best_value.to_bits(), b.best_value.to_bits(), "{family:?}");
        }
    }

    #[test]
    fn negative_weights_reject_trevisan_only() {
        let g = WeightedGraph::from_weighted_edges(4, &[(0, 1, 1.0), (1, 2, -0.5), (2, 3, 2.0)])
            .unwrap();
        assert_eq!(
            solve(&g, &spec(CircuitFamily::LifTrevisan)).unwrap_err(),
            SolveError::NegativeWeights
        );
        for family in [
            CircuitFamily::LifGw,
            CircuitFamily::LifAnnealed,
            CircuitFamily::Hopfield,
        ] {
            let out = solve(&g, &spec(family)).unwrap();
            assert!(out.best_value.is_finite(), "{family:?}");
        }
    }

    #[test]
    fn weighted_rejects_degenerate_requests() {
        let g = WeightedGraph::from_weighted_edges(3, &[(0, 1, 1.0)]).unwrap();
        let mut s = spec(CircuitFamily::Hopfield);
        s.budget = 0;
        assert_eq!(solve(&g, &s).unwrap_err(), SolveError::EmptyBudget);
        let empty = WeightedGraph::from_weighted_edges(0, &[]).unwrap();
        assert_eq!(
            solve(&empty, &spec(CircuitFamily::Hopfield)).unwrap_err(),
            SolveError::EmptyGraph
        );
    }

    #[test]
    fn unit_weighted_solves_match_unweighted() {
        // An unweighted graph is the unit-weight case of the weighted
        // problem: every family, at R = 1 and R = 8, computes the same
        // numbers through either cut-value type.
        let graphs = [
            gnp(30, 0.2, 1).unwrap(),
            gnp(45, 0.3, 2).unwrap(),
            snc_graph::EmpiricalDataset::RoadChesapeake.load().unwrap(),
        ];
        for base in &graphs {
            let g = WeightedGraph::from_graph(base);
            for family in CircuitFamily::all() {
                for replicas in [1, 8] {
                    let s = SolveSpec {
                        replicas,
                        ..SolveSpec::new(family, 64, 0x5EED)
                    };
                    let unweighted = solve(base, &s).unwrap();
                    let weighted = solve(&g, &s).unwrap();
                    let ctx = format!("{family:?} R={replicas} n={}", base.n());
                    assert_eq!(weighted.best_cut, unweighted.best_cut, "{ctx}");
                    assert_eq!(
                        weighted.best_value.to_bits(),
                        (unweighted.best_value as f64).to_bits(),
                        "{ctx}"
                    );
                    assert_eq!(weighted.trace.checkpoints, unweighted.trace.checkpoints);
                    let bits = |t: &[f64]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    let unit: Vec<f64> = unweighted.trace.best.iter().map(|&v| v as f64).collect();
                    assert_eq!(bits(&weighted.trace.best), bits(&unit), "{ctx}");
                    assert_eq!(
                        weighted.sdp_bound.map(f64::to_bits),
                        unweighted.sdp_bound.map(f64::to_bits),
                        "{ctx}"
                    );
                    assert_eq!(weighted.samples, unweighted.samples, "{ctx}");
                }
            }
        }
    }
}
