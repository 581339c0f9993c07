//! What the solve path reads of a graph, for unweighted and weighted
//! graphs alike.
//!
//! The paper states MAXCUT for any adjacency matrix `A_ij` (§II.A), so
//! an unweighted graph is the unit-weight case of one problem and both
//! are one type, [`Csr`]. [`MaxCutGraph`] is that problem as the solvers
//! see it: a vertex count, a coupling list, the CSR rows, a total weight,
//! an incremental cut evaluator, a block scorer and the LIF-Trevisan
//! synaptic program. The sampling driver, the best-so-far traces, the GW
//! SDP and all four circuit families are written once against it and
//! instantiated twice: exact `u64` cut counts on [`Graph`] and `f64` cut
//! weights on [`WeightedGraph`].

use crate::sampling::tracked_value;
use crate::solve::SolveError;
use snc_graph::bitslice::{BlockCutScorer, LANES};
use snc_graph::{Csr, CutAssignment, CutTracker, EdgeWeight, Graph, Unit, WeightedGraph};
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
/// lazily seeded [`CutTracker`], the same `f64` operations in the same
/// order as scoring the stream one sample at a time.
#[derive(Clone, Debug)]
pub struct TrackedScorer<'g> {
    graph: &'g WeightedGraph,
    trackers: Vec<Option<CutTracker<'g, f64>>>,
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

/// An edge weight the solve path runs on: it names the block scorer of
/// its graphs (bit-sliced exact counts for [`Unit`], tracked `f64` values
/// for `f64`).
pub trait SolveWeight: EdgeWeight<Cut: CutValue> {
    /// The block scorer the solve driver uses.
    type Scorer<'g>: BlockScorer<Value = Self::Cut>;
    /// A fresh block scorer for `replicas` sample streams on `graph`.
    fn scorer(graph: &Csr<Self>, replicas: usize) -> Self::Scorer<'_>;
}

impl SolveWeight for Unit {
    type Scorer<'g> = BlockCutScorer;
    fn scorer(graph: &Graph, _replicas: usize) -> BlockCutScorer {
        BlockCutScorer::new(graph)
    }
}

impl SolveWeight for f64 {
    type Scorer<'g> = TrackedScorer<'g>;
    fn scorer(graph: &WeightedGraph, replicas: usize) -> TrackedScorer<'_> {
        TrackedScorer {
            graph,
            trackers: (0..replicas).map(|_| None).collect(),
        }
    }
}

/// A MAXCUT instance: a [`Graph`] (unit weights, exact `u64` cuts) or a
/// [`WeightedGraph`] (`f64` cuts).
pub trait MaxCutGraph {
    /// The cut-value type.
    type Value: CutValue;
    /// The edge weight ([`Unit`] or `f64`); it names the block scorer.
    type Weight: SolveWeight<Cut = Self::Value>;

    /// Number of vertices.
    fn n(&self) -> usize;
    /// Number of edges.
    fn m(&self) -> usize;
    /// Every edge once as `(u, v, w)` with `u < v`; `w = 1` on an
    /// unweighted graph.
    fn couplings(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_;
    /// The CSR rows: `targets[offsets[i]..offsets[i + 1]]` is vertex `i`'s
    /// sorted neighbor list, and the iterator yields each target entry's
    /// weight in the same order (`1.0` on an unweighted graph).
    fn rows(&self) -> (&[usize], &[u32], impl Iterator<Item = f64> + '_);
    /// Sum of all edge weights (`m` on an unweighted graph).
    fn total_weight(&self) -> f64;
    /// An incremental cut evaluator seeded with `cut` (one scratch
    /// evaluation): moving it to a new cut costs O(changed · degree), not
    /// O(m).
    fn tracker(&self, cut: CutAssignment) -> CutTracker<'_, Self::Weight>;
    /// A fresh block scorer for `replicas` sample streams.
    fn scorer(&self, replicas: usize) -> <Self::Weight as SolveWeight>::Scorer<'_>;
    /// The LIF-Trevisan circuit's synaptic program on this graph: its
    /// Trevisan matrix `I + D^{-1/2} A D^{-1/2}` scaled by `scale`.
    ///
    /// # Errors
    ///
    /// [`SolveError::NegativeWeights`] when the Trevisan operator is
    /// undefined on the graph.
    fn trevisan_weights(&self, scale: f64) -> Result<CscWeights, SolveError>;
}

impl<W: SolveWeight> MaxCutGraph for Csr<W> {
    type Value = W::Cut;
    type Weight = W;

    fn n(&self) -> usize {
        Csr::n(self)
    }
    fn m(&self) -> usize {
        Csr::m(self)
    }
    fn couplings(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        Csr::couplings(self)
    }
    fn rows(&self) -> (&[usize], &[u32], impl Iterator<Item = f64> + '_) {
        let (offsets, targets, weights) = Csr::rows(self);
        (offsets, targets, weights.iter().map(|w| w.value()))
    }
    fn total_weight(&self) -> f64 {
        Csr::total_weight(self)
    }
    fn tracker(&self, cut: CutAssignment) -> CutTracker<'_, W> {
        CutTracker::new(self, cut)
    }
    fn scorer(&self, replicas: usize) -> W::Scorer<'_> {
        W::scorer(self, replicas)
    }
    fn trevisan_weights(&self, scale: f64) -> Result<CscWeights, SolveError> {
        if !self.is_nonnegative() {
            return Err(SolveError::NegativeWeights);
        }
        Ok(CscWeights::trevisan(self, scale))
    }
}
