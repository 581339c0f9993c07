//! Incremental cut-value maintenance.
//!
//! Evaluating a cut from scratch walks every edge (O(m)). Samplers whose
//! consecutive samples differ in few vertices — the LIF-Trevisan circuit's
//! slowly-evolving weight vector, local search, annealing — pay far less by
//! *maintaining* the value: flipping vertex `i` changes the cut by
//! `flip_delta(i) = (same-side neighbor weight) − (cross-side neighbor
//! weight)`, an O(deg i) update. [`CutTracker`] packages that bookkeeping
//! behind a "set the assignment to this target" API, diffing against the
//! previous assignment and applying one flip per changed vertex, with
//! exact integer arithmetic on an unweighted graph and `f64` on a weighted
//! one.
//!
//! Because a cut and its complement have equal value, the tracker flips
//! whichever side of the diff is smaller; the tracked assignment therefore
//! equals the target *up to global complementation* (see
//! [`CutTracker::assignment`]).

use crate::csr::{Csr, EdgeWeight, Unit};
use crate::cut::CutAssignment;

/// Maintains the cut value of an evolving assignment.
///
/// On an unweighted graph every update path — single flips or
/// whole-assignment diffs — produces exactly the value
/// [`CutAssignment::cut_value`] would compute from scratch; the arithmetic
/// is integer, so there is no drift. On a weighted graph updates
/// accumulate in `f64`, so the maintained value can drift from the scratch
/// evaluation by floating-point rounding of order `ε · Σ|w| · flips`; the
/// tracker resynchronizes from scratch every
/// [`CutTracker::RESYNC_INTERVAL`] flips to keep the drift bounded.
///
/// # Examples
///
/// ```
/// use snc_graph::{CutAssignment, CutTracker, Graph, WeightedGraph};
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
/// let start = CutAssignment::from_sides(vec![1, 1, -1, -1]);
/// let mut tracker = CutTracker::new(&g, start);
/// assert_eq!(tracker.value(), 1); // only edge (1,2) crosses
///
/// // O(deg) incremental flips instead of O(m) re-evaluations.
/// tracker.flip(2); // sides [1, 1, 1, -1]: only (2,3) crosses
/// assert_eq!(tracker.value(), 1);
/// tracker.flip(1); // sides [1, -1, 1, -1]: every edge crosses
/// assert_eq!(tracker.value(), 3);
///
/// // Whole-assignment updates diff against the previous sample.
/// let next = CutAssignment::from_sides(vec![1, -1, 1, 1]);
/// assert_eq!(tracker.set_to(&next), 2);
/// assert_eq!(tracker.value(), next.cut_value(&g));
///
/// // The same tracker on a weighted graph maintains the cut weight.
/// let g = WeightedGraph::from_weighted_edges(
///     3, &[(0, 1, 2.5), (1, 2, 4.0)]).unwrap();
/// let mut tracker = CutTracker::new(
///     &g, CutAssignment::from_sides(vec![1, -1, -1]));
/// assert_eq!(tracker.value(), 2.5);
/// tracker.flip(2); // sides [1, -1, 1]: both edges cross
/// assert_eq!(tracker.value(), 6.5);
/// ```
#[derive(Clone, Debug)]
pub struct CutTracker<'g, W = Unit>
where
    W: EdgeWeight,
{
    graph: &'g Csr<W>,
    assignment: CutAssignment,
    value: W::Cut,
    flips_since_resync: u64,
}

impl<'g, W: EdgeWeight> CutTracker<'g, W> {
    /// Flips between scratch resynchronizations of a maintained `f64`
    /// value (exact values never resync).
    pub const RESYNC_INTERVAL: u64 = 4096;

    /// Starts tracking `assignment`, computing its value once from scratch.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from `graph.n()`.
    pub fn new(graph: &'g Csr<W>, assignment: CutAssignment) -> Self {
        let value = graph.cut_value(&assignment);
        Self {
            graph,
            assignment,
            value,
            flips_since_resync: 0,
        }
    }

    /// The current cut value.
    pub fn value(&self) -> W::Cut {
        self.value
    }

    /// The tracked assignment.
    ///
    /// After [`CutTracker::set_to`] this equals the requested target *up
    /// to global complementation* (the tracker flips the smaller side of
    /// the diff; cut values are invariant under complementation).
    pub fn assignment(&self) -> &CutAssignment {
        &self.assignment
    }

    /// Flips vertex `i`, updating the value in O(deg i). Returns the new
    /// value.
    #[inline]
    pub fn flip(&mut self, i: usize) -> W::Cut {
        let delta = self.graph.flip_delta(&self.assignment, i);
        self.assignment.flip(i);
        self.value = W::shift(self.value, delta);
        if !W::EXACT {
            self.flips_since_resync += 1;
            if self.flips_since_resync >= Self::RESYNC_INTERVAL {
                self.value = self.graph.cut_value(&self.assignment);
                self.flips_since_resync = 0;
            }
        }
        self.value
    }

    /// Moves the tracked assignment to `target` (up to complementation)
    /// and returns `target`'s cut value.
    ///
    /// Counts the vertices whose side differs from `target`, then flips
    /// whichever of the differing/agreeing sets is smaller. Flipping
    /// vertex `j` never changes whether vertex `i ≠ j` differs, so the
    /// walk is order-independent. Cost is `Σ deg(i)` over the flipped
    /// vertices — at most one scratch evaluation, and far less when
    /// consecutive targets are similar.
    ///
    /// # Panics
    ///
    /// Panics if `target.len() != graph.n()`.
    pub fn set_to(&mut self, target: &CutAssignment) -> W::Cut {
        let n = self.graph.n();
        assert_eq!(target.len(), n, "assignment/graph size mismatch");
        let differs = |a: &CutAssignment, i: usize| a.side(i) != target.side(i);
        let differing = (0..n).filter(|&i| differs(&self.assignment, i)).count();
        let flip_agreeing = differing * 2 > n;
        for i in 0..n {
            if differs(&self.assignment, i) != flip_agreeing {
                self.flip(i);
            }
        }
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::WeightedGraph;
    use crate::generators::structured::{complete, cycle};
    use snc_devices::{Rng64, Xoshiro256pp};

    #[test]
    fn single_flips_match_scratch() {
        let g = complete(7);
        let mut rng = Xoshiro256pp::new(3);
        let mut tracker = CutTracker::new(&g, CutAssignment::random(7, &mut rng));
        for k in 0..200 {
            let i = rng.next_index(7);
            let v = tracker.flip(i);
            assert_eq!(v, tracker.assignment().cut_value(&g), "flip {k}");
        }
    }

    #[test]
    fn set_to_matches_scratch_and_uses_complement() {
        let g = cycle(10);
        let mut rng = Xoshiro256pp::new(9);
        let mut tracker = CutTracker::new(&g, CutAssignment::random(10, &mut rng));
        for _ in 0..100 {
            let target = CutAssignment::random(10, &mut rng);
            let v = tracker.set_to(&target);
            assert_eq!(v, target.cut_value(&g));
            // Tracked assignment equals target or its complement.
            let t = tracker.assignment();
            let eq = (0..10).all(|i| t.side(i) == target.side(i));
            let comp = (0..10).all(|i| t.side(i) == -target.side(i));
            assert!(eq || comp);
        }
        // Complement path: moving to the exact complement flips nothing
        // (zero work) and keeps the value.
        let before = tracker.value();
        let complement = tracker.assignment().complemented();
        assert_eq!(tracker.set_to(&complement), before);
    }

    #[test]
    fn weighted_tracker_matches_scratch() {
        let g = WeightedGraph::from_weighted_edges(
            5,
            &[
                (0, 1, 1.5),
                (1, 2, -2.0),
                (2, 3, 0.25),
                (3, 4, 10.0),
                (0, 4, 3.0),
                (1, 3, 0.5),
            ],
        )
        .unwrap();
        let mut rng = Xoshiro256pp::new(5);
        let mut tracker = CutTracker::new(&g, CutAssignment::random(5, &mut rng));
        for _ in 0..300 {
            let i = rng.next_index(5);
            let v = tracker.flip(i);
            let scratch = g.cut_value(tracker.assignment());
            assert!((v - scratch).abs() < 1e-9, "{v} vs {scratch}");
        }
    }

    #[test]
    fn weighted_set_to_matches_scratch() {
        let g = WeightedGraph::from_weighted_edges(
            8,
            &(0..8u32)
                .flat_map(|u| ((u + 1)..8).map(move |v| (u, v, ((u * 7 + v) % 5) as f64 - 1.0)))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let mut rng = Xoshiro256pp::new(23);
        let mut tracker = CutTracker::new(&g, CutAssignment::random(8, &mut rng));
        for _ in 0..100 {
            let target = CutAssignment::random(8, &mut rng);
            let v = tracker.set_to(&target);
            assert!((v - g.cut_value(&target)).abs() < 1e-9);
        }
    }
}
