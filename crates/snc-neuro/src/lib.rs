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
//! * [`plasticity`] — Hebbian, Oja (principal component), and Oja
//!   anti-Hebbian (minor component) rules; the last one drives the
//!   LIF-Trevisan circuit (§III.D). Every rule also has a structure-of-
//!   arrays multi-replica pass (`update_replicas`) that updates R plastic
//!   vectors per traversal, bit-for-bit equal to the scalar updates.
//! * [`network`] — [`DeviceDrivenNetwork`] (pool → weights → LIF
//!   population, the shared circuit motif of Figs. 1–2),
//!   [`TwoStageNetwork`] (the LIF-TR topology with a plastic readout
//!   neuron), and [`BatchedTwoStageNetwork`] (R lock-stepped LIF-TR
//!   replicas sharing each weight-matrix traversal).
//! * [`hopfield`] — deterministic continuous Hopfield–Tank relaxation
//!   (`du = −leak·u − W·tanh(gain·u)`), the classical analog-descent
//!   counterpart the annealed/Hopfield circuit families build on.
//! * [`parallel`] — replica execution across threads with deterministic
//!   per-replica seeds, and the [`ReplicaBatch`] structure-of-arrays
//!   stepper the batched circuits build on.

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
pub use network::{
    BatchedTwoStageNetwork, DeviceDrivenNetwork, PlasticitySignal, TwoStageConfig, TwoStageNetwork,
};
pub use parallel::ReplicaBatch;
pub use plasticity::{Hebbian, LearningRate, OjaMinor, OjaPrincipal, PlasticityRule};
pub use population::LifPopulation;
pub use synapse::{BatchWeights, CscWeights, DenseWeights, InputWeights};
