//! Neuromorphic substrate: leaky integrate-and-fire neurons, synaptic
//! weights, plasticity, and device-driven network assemblies.
//!
//! This crate implements §III of the paper ("Neuromorphic Concepts"):
//!
//! * [`lif`] — the LIF neuron `C dV/dt = −V/R + I_tot`, discretized with
//!   the exact exponential-Euler update and read by a threshold with no
//!   reset.
//! * [`synapse`] — device→neuron weight matrices in dense column-major and
//!   sparse CSC forms; the dense `accumulate_words` kernel turns a
//!   bit-packed device state vector into synaptic currents.
//! * [`theory`] — closed-form stationary means and covariances of LIF
//!   membranes driven by Bernoulli devices (§III.C: "the LIF membrane
//!   covariances are a linear transformation of the covariances of the
//!   random device pool"), used for threshold placement and verified
//!   empirically in tests.
//! * [`plasticity`] — Oja's anti-Hebbian (minor component) rule, which
//!   drives the LIF-Trevisan circuit (§III.D), with a structure-of-arrays
//!   multi-replica pass (`update_replicas`) that updates R plastic
//!   vectors per traversal, bit-for-bit equal to the scalar updates.
//! * [`network`] — [`TwoStageNetwork`], the LIF-TR topology (a
//!   device-driven LIF population plus a plastic readout neuron) as R
//!   lock-stepped replicas. Stage 1 advances one plasticity interval per
//!   sparse product, on the slice gather Hopfield also runs.
//! * [`hopfield`] — deterministic continuous Hopfield–Tank relaxation
//!   (`du = −leak·u − W·tanh(gain·u)`), the classical analog-descent
//!   counterpart the annealed/Hopfield circuit families build on.
//! * [`parallel`] — the [`ReplicaBatch`] structure-of-arrays stepper
//!   (pool → dense weights → LIF population, the circuit motif of Fig. 1,
//!   as R lock-stepped replicas) the LIF-GW and LIF-annealed circuits
//!   build on.
//!
//! Every circuit has one implementation, batched over replicas.
//! Replicas are independent seeded copies: lane `r` of an `R`-wide batch
//! is bit for bit the one-seed batch with seed `seeds[r]`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod gather;
pub mod hopfield;
pub mod lif;
pub mod network;
pub mod parallel;
pub mod plasticity;
pub mod synapse;
pub mod theory;

pub use hopfield::{HopfieldNetwork, HopfieldParams};
pub use lif::LifParams;
pub use network::{TwoStageConfig, TwoStageNetwork};
pub use parallel::ReplicaBatch;
pub use plasticity::{LearningRate, OjaMinor};
pub use synapse::{CscWeights, DenseWeights, InputWeights};
