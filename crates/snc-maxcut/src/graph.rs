//! What the solve path reads of a graph, for unweighted and weighted
//! graphs alike.
//!
//! The paper states MAXCUT for any adjacency matrix `A_ij` (§II.A), so
//! an unweighted graph is the unit-weight case of one problem.
//! [`MaxCutGraph`] is that problem as the solvers see it: a vertex
//! count, a coupling list, a total weight, and an incremental cut
//! evaluator. The sampling driver, the best-so-far traces, the GW SDP
//! and the Hopfield and LIF-annealed circuits are written once against
//! it and instantiated twice: exact `u64` cut counts on [`Graph`] and
//! `f64` cut weights on [`WeightedGraph`].

use crate::circuits::lif_trevisan::{BatchedLifTrevisanCircuit, LifTrevisanConfig};
use crate::sampling::CutSampler;
use crate::solve::SolveError;
use crate::weighted::WeightedLifTrevisanCircuit;
use snc_graph::{CutAssignment, CutTracker, Graph, WeightedCutTracker, WeightedGraph};

/// A cut value: an exact edge count (`u64`) or a cut weight (`f64`).
pub trait CutValue: Copy + PartialOrd + std::fmt::Debug {
    /// The best-so-far before the first sample: `0` for counts, `−∞`
    /// for weights (a signed weighted cut can be negative).
    const FLOOR: Self;
    /// The value a trace reports when it has none to report.
    const ZERO: Self;
    /// The larger of two values (`f64::max` for weights; named apart
    /// from `Ord::max` so both can be in scope).
    fn larger(self, other: Self) -> Self;
    /// Whether the value is finite (always, for counts).
    fn is_finite(self) -> bool;
}

impl CutValue for u64 {
    const FLOOR: Self = 0;
    const ZERO: Self = 0;
    fn larger(self, other: Self) -> Self {
        Ord::max(self, other)
    }
    fn is_finite(self) -> bool {
        true
    }
}

impl CutValue for f64 {
    const FLOOR: Self = f64::NEG_INFINITY;
    const ZERO: Self = 0.0;
    fn larger(self, other: Self) -> Self {
        f64::max(self, other)
    }
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
}

/// An incremental cut evaluator ([`CutTracker`], [`WeightedCutTracker`]):
/// moving to a new cut costs O(changed · degree), not O(m).
pub trait IncrementalCut {
    /// The cut-value type it maintains.
    type Value;
    /// The current cut's value.
    fn value(&self) -> Self::Value;
    /// Moves to `target` and returns its value.
    fn set_to(&mut self, target: &CutAssignment) -> Self::Value;
}

impl IncrementalCut for CutTracker<'_> {
    type Value = u64;
    fn value(&self) -> u64 {
        CutTracker::value(self)
    }
    fn set_to(&mut self, target: &CutAssignment) -> u64 {
        CutTracker::set_to(self, target)
    }
}

impl IncrementalCut for WeightedCutTracker<'_> {
    type Value = f64;
    fn value(&self) -> f64 {
        WeightedCutTracker::value(self)
    }
    fn set_to(&mut self, target: &CutAssignment) -> f64 {
        WeightedCutTracker::set_to(self, target)
    }
}

/// A MAXCUT instance: [`Graph`] (unit weights, exact `u64` cuts) or
/// [`WeightedGraph`] (`f64` cuts).
pub trait MaxCutGraph {
    /// The cut-value type.
    type Value: CutValue;
    /// The incremental evaluator of cuts on this graph.
    type Tracker<'g>: IncrementalCut<Value = Self::Value>
    where
        Self: 'g;

    /// Number of vertices.
    fn n(&self) -> usize;
    /// Number of edges.
    fn m(&self) -> usize;
    /// Every edge once as `(u, v, w)` with `u < v`; `w = 1` on an
    /// unweighted graph.
    fn couplings(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_;
    /// Sum of all edge weights (`m` on an unweighted graph).
    fn total_weight(&self) -> f64;
    /// A tracker seeded with `cut` (one scratch evaluation).
    fn tracker(&self, cut: CutAssignment) -> Self::Tracker<'_>;
    /// The LIF-Trevisan replicas for `seeds`, as a closure drawing one
    /// cut per replica per call.
    ///
    /// # Errors
    ///
    /// [`SolveError::NegativeWeights`] when the Trevisan operator is
    /// undefined on the graph.
    fn lif_trevisan(
        &self,
        seeds: &[u64],
        cfg: &LifTrevisanConfig,
    ) -> Result<impl FnMut() -> Vec<CutAssignment>, SolveError>;
}

impl MaxCutGraph for Graph {
    type Value = u64;
    type Tracker<'g> = CutTracker<'g>;

    fn n(&self) -> usize {
        Graph::n(self)
    }
    fn m(&self) -> usize {
        Graph::m(self)
    }
    fn couplings(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        self.edges().map(|(u, v)| (u, v, 1.0))
    }
    fn total_weight(&self) -> f64 {
        Graph::m(self) as f64
    }
    fn tracker(&self, cut: CutAssignment) -> CutTracker<'_> {
        CutTracker::new(self, cut)
    }
    /// All replicas on one [`BatchedLifTrevisanCircuit`].
    fn lif_trevisan(
        &self,
        seeds: &[u64],
        cfg: &LifTrevisanConfig,
    ) -> Result<impl FnMut() -> Vec<CutAssignment>, SolveError> {
        let mut batch = BatchedLifTrevisanCircuit::new(self, seeds, cfg);
        Ok(move || batch.next_cuts())
    }
}

impl MaxCutGraph for WeightedGraph {
    type Value = f64;
    type Tracker<'g> = WeightedCutTracker<'g>;

    fn n(&self) -> usize {
        WeightedGraph::n(self)
    }
    fn m(&self) -> usize {
        WeightedGraph::m(self)
    }
    fn couplings(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        self.edges()
    }
    fn total_weight(&self) -> f64 {
        WeightedGraph::total_weight(self)
    }
    fn tracker(&self, cut: CutAssignment) -> WeightedCutTracker<'_> {
        WeightedCutTracker::new(self, cut)
    }
    /// One sequential circuit per replica, after the non-negativity
    /// check: the batched network is built from unweighted graphs only.
    fn lif_trevisan(
        &self,
        seeds: &[u64],
        cfg: &LifTrevisanConfig,
    ) -> Result<impl FnMut() -> Vec<CutAssignment>, SolveError> {
        if !self.is_nonnegative() {
            return Err(SolveError::NegativeWeights);
        }
        let mut circuits: Vec<WeightedLifTrevisanCircuit> = seeds
            .iter()
            .map(|&s| WeightedLifTrevisanCircuit::new(self, s, cfg))
            .collect();
        Ok(move || circuits.iter_mut().map(CutSampler::next_cut).collect())
    }
}
