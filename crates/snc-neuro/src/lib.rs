//! Neuromorphic substrate: leaky integrate-and-fire neurons, synaptic
//! weights, plasticity, and device-driven network assemblies.
//!
//! This crate implements §III of the paper ("Neuromorphic Concepts"):
//!
//! * [`lif`] — the LIF neuron `C dV/dt = −V/R + I_tot`, discretized with
//!   either the exact exponential-Euler update or forward Euler.
//! * [`population`] — vectors of LIF neurons stepped in lock-step with
//!   threshold ("spike") readout and optional reset.
//! * [`synapse`] — device→neuron weight matrices in dense column-major and
//!   sparse CSC forms, with the `accumulate_active` kernel that turns a
//!   binary device state vector into synaptic currents (the hot loop of
//!   every circuit).
//! * [`theory`] — closed-form stationary means and covariances of LIF
//!   membranes driven by Bernoulli devices (§III.C: "the LIF membrane
//!   covariances are a linear transformation of the covariances of the
//!   random device pool"), used for threshold placement and verified
//!   empirically in tests.
//! * [`plasticity`] — Oja's anti-Hebbian (minor component) rule, which
//!   drives the LIF-Trevisan circuit (§III.D), with a structure-of-arrays
//!   multi-replica pass (`update_replicas`) that updates R plastic
//!   vectors per traversal, bit-for-bit equal to the scalar updates.
//! * [`network`] — [`BatchedTwoStageNetwork`], the LIF-TR topology (a
//!   device-driven LIF population plus a plastic readout neuron) as R
//!   lock-stepped replicas sharing each weight-matrix traversal.
//! * [`hopfield`] — deterministic continuous Hopfield–Tank relaxation
//!   (`du = −leak·u − W·tanh(gain·u)`), the classical analog-descent
//!   counterpart the annealed/Hopfield circuit families build on.
//! * [`parallel`] — the [`ReplicaBatch`] structure-of-arrays stepper
//!   (pool → weights → LIF population, the shared circuit motif of
//!   Figs. 1–2, as R lock-stepped replicas) every circuit builds on.
//!
//! Every circuit has one implementation, batched over replicas.
//! Replicas are independent seeded copies: lane `r` of an `R`-wide batch
//! is bit for bit the one-seed batch with seed `seeds[r]`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hopfield;
pub mod lif;
pub mod network;
pub mod parallel;
pub mod plasticity;
pub mod population;
pub mod synapse;
pub mod theory;

pub use hopfield::{HopfieldNetwork, HopfieldParams};
pub use lif::{Integrator, LifParams, Reset};
pub use network::{BatchedTwoStageNetwork, PlasticitySignal, TwoStageConfig};
pub use parallel::ReplicaBatch;
pub use plasticity::{LearningRate, OjaMinor};
pub use population::LifPopulation;
pub use synapse::{BatchWeights, CscWeights, DenseWeights, InputWeights};
