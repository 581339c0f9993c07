//! MAXCUT solvers and the paper's neuromorphic circuits.
//!
//! This crate is the primary contribution of the reproduction: it
//! implements every solver the paper evaluates, on a common sampling API.
//!
//! * [`random`] — the uniform random-cut baseline (red ✕ curves).
//! * [`gw`] — the software Goemans–Williamson pipeline: Burer–Monteiro SDP
//!   (rank 4, §IV.A) plus Gaussian/hyperplane rounding (green ▲ curves).
//! * [`trevisan`] — the Trevisan "simple spectral" algorithm: minimum
//!   eigenvector of `I + D^{-1/2} A D^{-1/2}`, sign-thresholded (§II.B).
//! * [`circuits`] — **LIF-GW** (Fig. 1) and **LIF-Trevisan** (Fig. 2), the
//!   neuromorphic circuits (blue ● and orange ■ curves), plus two
//!   companion families: **LIF-annealed** (the LIF-GW substrate under a σ
//!   cooling schedule) and **Hopfield** (deterministic continuous
//!   relaxation, the classical analog baseline). Each family has one
//!   implementation, batched over independent seeded replicas; a
//!   one-seed batch is the single circuit.
//! * [`exact`] — Gray-code brute force and branch-and-bound, for ground
//!   truth on small instances.
//! * [`anneal`] — simulated annealing, the software version of the
//!   hardware Ising-machine baseline class the paper positions against.
//! * [`graph`] — [`MaxCutGraph`], what the solve path reads of a graph:
//!   the sampling driver, traces, GW SDP, the Trevisan solver and all
//!   four circuit families run on unweighted (`u64` cuts) and weighted
//!   (`f64` cuts) graphs through one implementation (two Table-I networks
//!   are weighted).
//! * [`greedy`] — 1-opt local search, an additional classical baseline.
//! * [`sampling`] — the [`CutSampler`] trait and best-so-far traces at
//!   logarithmic checkpoints (the x-axis of Figs. 3–4).
//! * [`extensions`] — MAX2SAT and MAXDICUT via the same SDP + rounding
//!   machinery, the generalization sketched in the Discussion (§VI).
//! * [`cache`] — the deterministic [`SdpCache`]: memoized SDP
//!   factor/bound pairs keyed by `(graph fingerprint, sdp seed, rank)`,
//!   so repeated LIF-GW solves of one graph pay the offline stage once,
//!   and the generic cost-weighted [`ShardedLru`] behind it and
//!   `snc-server`'s response cache.
//! * [`mod@solve`] — request→circuit dispatch: one deterministic entry point
//!   turning (graph, family, budget, replicas, seed) into the best cut,
//!   its partition, and a merged trace — the unit of work the
//!   `snc-server` serving layer schedules.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod anneal;
pub mod cache;
pub mod circuits;
pub mod exact;
pub mod extensions;
pub mod graph;
pub mod greedy;
pub mod gw;
pub mod random;
pub mod sampling;
pub mod solve;
pub mod stats;
pub mod trevisan;
#[cfg(test)]
mod weighted;

pub use anneal::{CoolingSchedule, ScheduleError, ScheduleKind};
pub use cache::{CacheStats, SdpCache, ShardedLru};
pub use circuits::hopfield::{HopfieldCircuit, HopfieldConfig};
pub use circuits::lif_annealed::{LifAnnealedCircuit, LifAnnealedConfig};
pub use circuits::lif_gw::{LifGwCircuit, LifGwConfig};
pub use circuits::lif_trevisan::{LifTrevisanCircuit, LifTrevisanConfig};
pub use graph::MaxCutGraph;
pub use gw::{solve_gw, GwConfig, GwSampler, GwSolution};
pub use random::RandomCutSampler;
pub use sampling::{log2_checkpoints, merge_traces, sample_best_trace, BestTrace, CutSampler};
pub use solve::{
    solve, solve_with_cache, CircuitFamily, SolveError, SolveOutcome, SolveSpec, StageTimings,
    SDP_RANK, SERVED_LIF,
};
pub use trevisan::{solve_trevisan, SpectralRounding, TrevisanConfig, TrevisanSolution};
