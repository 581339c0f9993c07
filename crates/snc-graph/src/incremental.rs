//! Incremental cut-value maintenance.
//!
//! Evaluating a cut from scratch walks every edge (O(m)). Samplers whose
//! consecutive samples differ in few vertices — the LIF-Trevisan circuit's
//! slowly-evolving weight vector, local search, annealing — pay far less by
//! *maintaining* the value: flipping vertex `i` changes the cut by
//! `flip_delta(i) = (same-side neighbor weight) − (cross-side neighbor
//! weight)`, an O(deg i) update. [`CutTracker`] (unweighted, exact integer
//! arithmetic) and [`WeightedCutTracker`] (weighted, `f64`) package that
//! bookkeeping behind a "set the assignment to this target" API, diffing
//! against the previous assignment and applying one flip per changed
//! vertex.
//!
//! Because a cut and its complement have equal value, the trackers flip
//! whichever side of the diff is smaller; the tracked assignment therefore
//! equals the target *up to global complementation* (see
//! [`CutTracker::assignment`]).

use crate::csr::Graph;
use crate::cut::CutAssignment;
use crate::weighted::WeightedGraph;

/// The complement-aware diff walk shared by both trackers: counts the
/// vertices whose side differs from `target_side`, then flips whichever
/// of the differing/agreeing sets is smaller through `apply_flip`,
/// leaving `assignment` equal to the target or its complement (equal cut
/// value either way). `target_side` must not depend on `assignment` —
/// flipping vertex `j` never changes whether vertex `i ≠ j` differs, so
/// the walk is order-independent.
fn flip_smaller_side(
    assignment: &mut CutAssignment,
    target_side: impl Fn(usize) -> i8,
    mut apply_flip: impl FnMut(&mut CutAssignment, usize),
) {
    let n = assignment.len();
    let differing = (0..n)
        .filter(|&i| assignment.side(i) != target_side(i))
        .count();
    let flip_agreeing = differing * 2 > n;
    for i in 0..n {
        if (assignment.side(i) != target_side(i)) != flip_agreeing {
            apply_flip(assignment, i);
        }
    }
}

/// Maintains the cut value of an evolving assignment on an unweighted
/// graph with exact integer updates.
///
/// Every update path — single flips or whole-assignment diffs — produces
/// exactly the value [`CutAssignment::cut_value`] would compute from
/// scratch; the arithmetic is integer, so there is no drift.
///
/// # Examples
///
/// ```
/// use snc_graph::{CutAssignment, CutTracker, Graph};
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
/// ```
#[derive(Clone, Debug)]
pub struct CutTracker<'g> {
    graph: &'g Graph,
    assignment: CutAssignment,
    value: u64,
}

impl<'g> CutTracker<'g> {
    /// Starts tracking `assignment`, computing its value once from scratch.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from `graph.n()`.
    pub fn new(graph: &'g Graph, assignment: CutAssignment) -> Self {
        let value = assignment.cut_value(graph);
        Self {
            graph,
            assignment,
            value,
        }
    }

    /// The current cut value.
    pub fn value(&self) -> u64 {
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
    pub fn flip(&mut self, i: usize) -> u64 {
        Self::apply_flip(self.graph, &mut self.assignment, &mut self.value, i);
        self.value
    }

    fn apply_flip(graph: &Graph, assignment: &mut CutAssignment, value: &mut u64, i: usize) {
        let delta = assignment.flip_delta(graph, i);
        assignment.flip(i);
        *value = (*value as i64 + delta) as u64;
    }

    /// Moves the tracked assignment to `target` (up to complementation)
    /// and returns `target`'s cut value.
    ///
    /// Cost is `Σ deg(i)` over the vertices whose side differs (or over
    /// their complement, whichever set is smaller) — at most one scratch
    /// evaluation, and far less when consecutive targets are similar.
    ///
    /// # Panics
    ///
    /// Panics if `target.len() != graph.n()`.
    pub fn set_to(&mut self, target: &CutAssignment) -> u64 {
        assert_eq!(
            target.len(),
            self.graph.n(),
            "assignment/graph size mismatch"
        );
        self.advance(|i| target.side(i))
    }

    fn advance(&mut self, target_side: impl Fn(usize) -> i8) -> u64 {
        let CutTracker {
            graph,
            assignment,
            value,
        } = self;
        flip_smaller_side(assignment, target_side, |a, i| {
            Self::apply_flip(graph, a, value, i);
        });
        self.value
    }
}

/// Maintains the weighted cut value of an evolving assignment.
///
/// Updates accumulate in `f64`, so unlike [`CutTracker`] the maintained
/// value can drift from the scratch evaluation by floating-point rounding
/// of order `ε · Σ|w| · flips`. The tracker resynchronizes from scratch
/// every [`WeightedCutTracker::RESYNC_INTERVAL`] flips to keep the drift
/// bounded.
///
/// # Examples
///
/// ```
/// use snc_graph::{CutAssignment, WeightedCutTracker, WeightedGraph};
///
/// let g = WeightedGraph::from_weighted_edges(
///     3, &[(0, 1, 2.5), (1, 2, 4.0)]).unwrap();
/// let mut tracker = WeightedCutTracker::new(
///     &g, CutAssignment::from_sides(vec![1, -1, -1]));
/// assert_eq!(tracker.value(), 2.5);
/// tracker.flip(2); // vertex 2 joins +1... sides [1,-1,1]: both edges cross
/// assert_eq!(tracker.value(), 6.5);
/// ```
#[derive(Clone, Debug)]
pub struct WeightedCutTracker<'g> {
    graph: &'g WeightedGraph,
    assignment: CutAssignment,
    value: f64,
    flips_since_resync: u64,
}

impl<'g> WeightedCutTracker<'g> {
    /// Flips between scratch resynchronizations of the maintained value.
    pub const RESYNC_INTERVAL: u64 = 4096;

    /// Starts tracking `assignment`, computing its value once from scratch.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from `graph.n()`.
    pub fn new(graph: &'g WeightedGraph, assignment: CutAssignment) -> Self {
        let value = graph.cut_value(&assignment);
        Self {
            graph,
            assignment,
            value,
            flips_since_resync: 0,
        }
    }

    /// The current (maintained) weighted cut value.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The tracked assignment (up to global complementation after
    /// [`WeightedCutTracker::set_to`]).
    pub fn assignment(&self) -> &CutAssignment {
        &self.assignment
    }

    /// Flips vertex `i`, updating the value in O(deg i). Returns the new
    /// value.
    #[inline]
    pub fn flip(&mut self, i: usize) -> f64 {
        Self::apply_flip(
            self.graph,
            &mut self.assignment,
            &mut self.value,
            &mut self.flips_since_resync,
            i,
        );
        self.value
    }

    fn apply_flip(
        graph: &WeightedGraph,
        assignment: &mut CutAssignment,
        value: &mut f64,
        flips_since_resync: &mut u64,
        i: usize,
    ) {
        let delta = graph.flip_delta(assignment, i);
        assignment.flip(i);
        *value += delta;
        *flips_since_resync += 1;
        if *flips_since_resync >= Self::RESYNC_INTERVAL {
            *value = graph.cut_value(assignment);
            *flips_since_resync = 0;
        }
    }

    /// Moves the tracked assignment to `target` (up to complementation)
    /// and returns its weighted cut value.
    ///
    /// # Panics
    ///
    /// Panics if `target.len() != graph.n()`.
    pub fn set_to(&mut self, target: &CutAssignment) -> f64 {
        assert_eq!(
            target.len(),
            self.graph.n(),
            "assignment/graph size mismatch"
        );
        let WeightedCutTracker {
            graph,
            assignment,
            value,
            flips_since_resync,
        } = self;
        flip_smaller_side(
            assignment,
            |i| target.side(i),
            |a, i| {
                Self::apply_flip(graph, a, value, flips_since_resync, i);
            },
        );
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut tracker = WeightedCutTracker::new(&g, CutAssignment::random(5, &mut rng));
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
        let mut tracker = WeightedCutTracker::new(&g, CutAssignment::random(8, &mut rng));
        for _ in 0..100 {
            let target = CutAssignment::random(8, &mut rng);
            let v = tracker.set_to(&target);
            assert!((v - g.cut_value(&target)).abs() < 1e-9);
        }
    }
}
