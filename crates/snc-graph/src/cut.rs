//! Cut assignments and cut values.
//!
//! A cut partitions the vertex set into two classes, encoded as `±1` labels
//! exactly as in the paper's integer program (§II.A). The cut value of an
//! unweighted graph is the number of edges whose endpoints carry opposite
//! labels; on a weighted graph it is their total weight.

use crate::csr::{Csr, EdgeWeight};
use snc_devices::Rng64;

/// A two-coloring of the vertices; `+1` and `−1` are the two sides.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CutAssignment {
    sides: Vec<i8>,
}

impl CutAssignment {
    /// All vertices on the `+1` side.
    pub fn all_ones(n: usize) -> Self {
        Self { sides: vec![1; n] }
    }

    /// Builds an assignment from `±1` labels.
    ///
    /// # Panics
    ///
    /// Panics if any label is not `+1` or `−1`.
    pub fn from_sides(sides: Vec<i8>) -> Self {
        assert!(
            sides.iter().all(|&s| s == 1 || s == -1),
            "labels must be ±1"
        );
        Self { sides }
    }

    /// Thresholds real values by sign: positive ⇒ `+1`, else `−1`.
    ///
    /// This is the rounding used by both the Gaussian sampling step of GW
    /// (§II.A) and the spectral thresholding of Trevisan (§II.B); ties
    /// (zeros) land on the `−1` side, matching the paper's `u_i ≤ 0` rule.
    pub fn from_signs(values: &[f64]) -> Self {
        Self {
            sides: values
                .iter()
                .map(|&v| if v > 0.0 { 1 } else { -1 })
                .collect(),
        }
    }

    /// Lane `lane` of a bit-sliced block (see [`crate::bitslice`]): bit
    /// `lane` of `words[i]` set ⇒ `+1` side, clear ⇒ `−1` side.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    pub fn from_lane(words: &[u64], lane: usize) -> Self {
        assert!(lane < crate::bitslice::LANES, "lane out of range");
        Self {
            sides: words
                .iter()
                .map(|&w| if (w >> lane) & 1 == 1 { 1 } else { -1 })
                .collect(),
        }
    }

    /// A uniformly random assignment — the paper's "Random" baseline.
    pub fn random(n: usize, rng: &mut impl Rng64) -> Self {
        Self {
            sides: (0..n)
                .map(|_| if rng.next_bool(0.5) { 1 } else { -1 })
                .collect(),
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.sides.len()
    }

    /// Whether the assignment is empty.
    pub fn is_empty(&self) -> bool {
        self.sides.is_empty()
    }

    /// The side (`±1`) of vertex `i`.
    #[inline]
    pub fn side(&self, i: usize) -> i8 {
        self.sides[i]
    }

    /// The raw label slice.
    pub fn sides(&self) -> &[i8] {
        &self.sides
    }

    /// Flips vertex `i` to the other side.
    pub fn flip(&mut self, i: usize) {
        self.sides[i] = -self.sides[i];
    }

    /// The complementary assignment (all labels negated). Cut values are
    /// invariant under complementation.
    pub fn complemented(&self) -> Self {
        Self {
            sides: self.sides.iter().map(|&s| -s).collect(),
        }
    }

    /// The cut value on `graph`: the number of crossing edges on a
    /// [`Graph`](crate::Graph), their total weight on a
    /// [`WeightedGraph`](crate::WeightedGraph) ([`Csr::cut_value`]).
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from `graph.n()`.
    pub fn cut_value<W: EdgeWeight>(&self, graph: &Csr<W>) -> W::Cut {
        graph.cut_value(self)
    }

    /// Change in cut value if vertex `i` were flipped (positive = improves):
    /// `Δ = (same-side neighbor weight) − (cross-side neighbor weight)`
    /// ([`Csr::flip_delta`]).
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from `graph.n()`.
    pub fn flip_delta<W: EdgeWeight>(&self, graph: &Csr<W>, i: usize) -> W::Delta {
        graph.flip_delta(self, i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Graph;
    use snc_devices::Xoshiro256pp;

    fn path4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn trivial_cuts() {
        let g = path4();
        assert_eq!(CutAssignment::all_ones(4).cut_value(&g), 0);
        let alternating = CutAssignment::from_sides(vec![1, -1, 1, -1]);
        assert_eq!(alternating.cut_value(&g), 3); // bipartite max cut
    }

    #[test]
    fn complement_invariance() {
        let g = path4();
        let c = CutAssignment::from_sides(vec![1, 1, -1, 1]);
        assert_eq!(c.cut_value(&g), c.complemented().cut_value(&g));
    }

    #[test]
    fn sign_threshold_semantics() {
        let c = CutAssignment::from_signs(&[0.5, -0.1, 0.0, 2.0]);
        assert_eq!(c.sides(), &[1, -1, -1, 1]); // zero goes to −1 per paper
    }

    #[test]
    fn flip_and_delta_consistent() {
        let g = path4();
        let mut c = CutAssignment::from_sides(vec![1, 1, -1, -1]);
        let before = c.cut_value(&g) as i64;
        for i in 0..4 {
            let delta = c.flip_delta(&g, i);
            let mut c2 = c.clone();
            c2.flip(i);
            assert_eq!(c2.cut_value(&g) as i64, before + delta, "vertex {i}");
        }
        c.flip(1);
        assert_eq!(c.side(1), -1);
    }

    #[test]
    fn cut_bounded_by_m() {
        let g = path4();
        let mut rng = Xoshiro256pp::new(5);
        for _ in 0..50 {
            let c = CutAssignment::random(4, &mut rng);
            assert!(c.cut_value(&g) <= g.m() as u64);
        }
    }

    #[test]
    fn random_cut_is_roughly_balanced() {
        let mut rng = Xoshiro256pp::new(6);
        let c = CutAssignment::random(10_000, &mut rng);
        let pos = c.sides().iter().filter(|&&s| s == 1).count() as f64 / 10_000.0;
        assert!((pos - 0.5).abs() < 0.03);
    }

    #[test]
    #[should_panic(expected = "±1")]
    fn invalid_labels_rejected() {
        let _ = CutAssignment::from_sides(vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn size_mismatch_panics() {
        let g = path4();
        let _ = CutAssignment::all_ones(3).cut_value(&g);
    }
}
