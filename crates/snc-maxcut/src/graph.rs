//! What the solve path reads of a graph, for unweighted and weighted
//! graphs alike.
//!
//! The paper states MAXCUT for any adjacency matrix `A_ij` (§II.A), so
//! an unweighted graph is the unit-weight case of one problem.
//! [`MaxCutGraph`] is that problem as the solvers see it: a vertex
//! count, a coupling list, a total weight, an incremental cut evaluator,
//! a block scorer and the LIF-Trevisan synaptic program. The sampling
//! driver, the best-so-far traces, the GW SDP and all four circuit
//! families are written once against it and instantiated twice: exact
//! `u64` cut counts on [`Graph`] and `f64` cut weights on
//! [`WeightedGraph`].

use crate::sampling::tracked_value;
use crate::solve::SolveError;
use snc_graph::bitslice::{BlockCutScorer, LANES};
use snc_graph::{CutAssignment, CutTracker, Graph, WeightedCutTracker, WeightedGraph};
use snc_neuro::CscWeights;

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

/// Scores one block per replica of up to 64 cuts each, held bit-sliced:
/// bit `k` of `words[r * n + i]` is vertex `i`'s side in replica `r`'s
/// cut `k` (`1` ⇒ `+1` side), the layout of [`snc_graph::bitslice`]. A
/// scorer serves the replicas' sample streams in order, so a stateful one
/// may diff each cut against the replica's previous one.
pub trait BlockScorer {
    /// The cut-value type it reports.
    type Value;
    /// Writes the value of replica `r`'s cut `k < len` into
    /// `out[r * LANES + k]` (`LANES` = 64).
    fn score(&mut self, words: &[u64], len: usize, out: &mut [Self::Value]);
}

/// The unweighted block scorer: one bit-sliced pass over the edges per
/// replica block, exact whatever the cuts.
impl BlockScorer for BlockCutScorer {
    type Value = u64;
    fn score(&mut self, words: &[u64], len: usize, out: &mut [u64]) {
        let n = self.n();
        for (r, lanes) in out.chunks_mut(LANES).enumerate() {
            self.cut_values(&words[r * n..(r + 1) * n], len, lanes);
        }
    }
}

/// The weighted block scorer: each replica's cuts in turn through its own
/// lazily seeded [`WeightedCutTracker`], the same `f64` operations in the
/// same order as scoring the stream one sample at a time.
#[derive(Clone, Debug)]
pub struct TrackedScorer<'g> {
    graph: &'g WeightedGraph,
    trackers: Vec<Option<WeightedCutTracker<'g>>>,
}

impl BlockScorer for TrackedScorer<'_> {
    type Value = f64;
    fn score(&mut self, words: &[u64], len: usize, out: &mut [f64]) {
        let n = self.graph.n();
        for (r, tracker) in self.trackers.iter_mut().enumerate() {
            let block = &words[r * n..(r + 1) * n];
            for (k, o) in out[r * LANES..r * LANES + len].iter_mut().enumerate() {
                *o = tracked_value(tracker, self.graph, &CutAssignment::from_lane(block, k));
            }
        }
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
    /// The block scorer the solve driver uses.
    type Scorer<'g>: BlockScorer<Value = Self::Value>
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
    /// A fresh block scorer for `replicas` sample streams.
    fn scorer(&self, replicas: usize) -> Self::Scorer<'_>;
    /// The LIF-Trevisan circuit's synaptic program on this graph: its
    /// Trevisan matrix `I + D^{-1/2} A D^{-1/2}` scaled by `scale`.
    ///
    /// # Errors
    ///
    /// [`SolveError::NegativeWeights`] when the Trevisan operator is
    /// undefined on the graph.
    fn trevisan_weights(&self, scale: f64) -> Result<CscWeights, SolveError>;
}

impl MaxCutGraph for Graph {
    type Value = u64;
    type Tracker<'g> = CutTracker<'g>;
    type Scorer<'g> = BlockCutScorer;

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
    fn scorer(&self, _replicas: usize) -> BlockCutScorer {
        BlockCutScorer::new(self)
    }
    fn trevisan_weights(&self, scale: f64) -> Result<CscWeights, SolveError> {
        Ok(CscWeights::trevisan(self, scale))
    }
}

impl MaxCutGraph for WeightedGraph {
    type Value = f64;
    type Tracker<'g> = WeightedCutTracker<'g>;
    type Scorer<'g> = TrackedScorer<'g>;

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
    fn scorer(&self, replicas: usize) -> TrackedScorer<'_> {
        TrackedScorer {
            graph: self,
            trackers: (0..replicas).map(|_| None).collect(),
        }
    }
    fn trevisan_weights(&self, scale: f64) -> Result<CscWeights, SolveError> {
        if !self.is_nonnegative() {
            return Err(SolveError::NegativeWeights);
        }
        Ok(CscWeights::trevisan_weighted(self, scale))
    }
}
