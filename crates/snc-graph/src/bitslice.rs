//! Bit-sliced cut evaluation: the exact values of up to 64 cuts in one
//! pass over the edges.
//!
//! A block of cuts is stored vertex-major, one `u64` per vertex: bit `k`
//! of `words[i]` is vertex `i`'s side in cut `k` (`1` ⇒ `+1` side). An
//! edge `{u, v}` crosses cut `k` exactly when bit `k` of
//! `words[u] ^ words[v]` is set, so one XOR classifies the edge for all
//! 64 cuts at once. The per-cut counts are kept *bit-sliced* as well:
//! counter plane `p` holds bit `p` of every cut's count, and adding an
//! edge's crossing word is a binary increment carried from plane to plane.
//! Edges are first combined sixteen at a time by a carry-save adder tree
//! (Harley–Seal), so only one carry chain runs per sixteen edges. Every step
//! is integer, so each count is exactly [`CutAssignment::cut_value`] of
//! its cut.

use crate::csr::Graph;
#[cfg(doc)]
use crate::cut::CutAssignment;

/// Cuts per block: one per bit of a `u64`.
pub const LANES: usize = 64;

/// One carry-save adder over three words: per bit, the two-bit sum
/// `a + b + c` as `(high, low)`.
#[inline]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    ((a & b) | (u & c), u ^ c)
}

/// Bit-sliced per-lane counters: `planes[p]` holds bit `p` of each
/// lane's count, with `ones` … `eights` the carry-save remainders not yet
/// folded into the planes.
struct LaneCounter {
    planes: [u64; 64],
    /// Planes a count can reach: bits of the largest possible count.
    used: usize,
    ones: u64,
    twos: u64,
    fours: u64,
    eights: u64,
}

impl LaneCounter {
    /// A zero counter for lane counts up to `max`.
    fn new(max: u64) -> Self {
        Self {
            planes: [0; 64],
            used: (u64::BITS - max.leading_zeros()) as usize,
            ones: 0,
            twos: 0,
            fours: 0,
            eights: 0,
        }
    }

    /// Adds `x` (one bit per lane) at weight `2^plane`. The carry chain
    /// runs over every plane a count can reach, without an early exit:
    /// where it would stop varies from word to word, and a branch on it
    /// mispredicts.
    #[inline]
    fn ripple(&mut self, plane: usize, mut x: u64) {
        for p in &mut self.planes[plane.min(self.used)..self.used] {
            let carry = *p & x;
            *p ^= x;
            x = carry;
        }
        debug_assert_eq!(x, 0, "a lane count exceeded the edge count");
    }

    /// Adds sixteen crossing words (Harley–Seal): fifteen carry-save
    /// adders and one carry chain, from plane 4.
    #[inline]
    fn add16(&mut self, d: &[u64; 16]) {
        let (twos_a, ones) = csa(self.ones, d[0], d[1]);
        let (twos_b, ones) = csa(ones, d[2], d[3]);
        let (fours_a, twos) = csa(self.twos, twos_a, twos_b);
        let (twos_a, ones) = csa(ones, d[4], d[5]);
        let (twos_b, ones) = csa(ones, d[6], d[7]);
        let (fours_b, twos) = csa(twos, twos_a, twos_b);
        let (eights_a, fours) = csa(self.fours, fours_a, fours_b);
        let (twos_a, ones) = csa(ones, d[8], d[9]);
        let (twos_b, ones) = csa(ones, d[10], d[11]);
        let (fours_a, twos) = csa(twos, twos_a, twos_b);
        let (twos_a, ones) = csa(ones, d[12], d[13]);
        let (twos_b, ones) = csa(ones, d[14], d[15]);
        let (fours_b, twos) = csa(twos, twos_a, twos_b);
        let (eights_b, fours) = csa(fours, fours_a, fours_b);
        let (sixteens, eights) = csa(self.eights, eights_a, eights_b);
        self.ones = ones;
        self.twos = twos;
        self.fours = fours;
        self.eights = eights;
        self.ripple(4, sixteens);
    }

    /// Folds the carry-save remainders in and writes the counts of lanes
    /// `0..len` into `out`.
    fn finish(mut self, len: usize, out: &mut [u64]) {
        let rest = [self.ones, self.twos, self.fours, self.eights];
        for (plane, x) in rest.into_iter().enumerate() {
            self.ripple(plane, x);
        }
        for (k, o) in out[..len].iter_mut().enumerate() {
            *o = self.planes[..self.used]
                .iter()
                .enumerate()
                .map(|(p, &w)| ((w >> k) & 1) << p)
                .sum();
        }
    }
}

/// A graph's edges held for scoring blocks of cuts: the edge list in
/// the order [`Graph::edges`] yields it, each edge once as `(u, v)` with
/// `u < v`.
#[derive(Clone, Debug)]
pub struct BlockCutScorer {
    n: usize,
    edges: Vec<(u32, u32)>,
}

impl BlockCutScorer {
    /// Collects `graph`'s edges (one pass over the adjacency).
    pub fn new(graph: &Graph) -> Self {
        Self {
            n: graph.n(),
            edges: graph.edges().collect(),
        }
    }

    /// Number of vertices: the words per block.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Writes the cut values of the cuts in lanes `0..len` of `words`
    /// into `out[..len]`: bit `k` of `words[i]` is vertex `i`'s side in
    /// cut `k`. Bits at lanes `len..64` are ignored.
    ///
    /// One pass over the edges scores the whole block, so the cost per cut
    /// is about `m/8` word operations, whatever the cuts.
    ///
    /// # Examples
    ///
    /// ```
    /// use snc_graph::bitslice::BlockCutScorer;
    /// use snc_graph::{CutAssignment, Graph};
    ///
    /// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
    /// // Cut 0: sides [+, -, +] (both edges cross); cut 1: all on one side.
    /// let words = [0b01, 0b00, 0b01];
    /// let mut out = [0; 2];
    /// BlockCutScorer::new(&g).cut_values(&words, 2, &mut out);
    /// assert_eq!(out, [2, 0]);
    /// assert_eq!(CutAssignment::from_lane(&words, 0).cut_value(&g), 2);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` differs from the vertex count, `len > 64`
    /// or `out.len() < len`.
    pub fn cut_values(&self, words: &[u64], len: usize, out: &mut [u64]) {
        assert_eq!(words.len(), self.n, "block/graph size mismatch");
        assert!(len <= LANES, "a block holds at most {LANES} cuts");
        assert!(out.len() >= len, "output shorter than the block");
        let crossing = |&(u, v): &(u32, u32)| words[u as usize] ^ words[v as usize];
        let mut counter = LaneCounter::new(self.edges.len() as u64);
        let mut chunks = self.edges.chunks_exact(16);
        for chunk in &mut chunks {
            counter.add16(&std::array::from_fn(|i| crossing(&chunk[i])));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            counter.add16(&std::array::from_fn(|i| rest.get(i).map_or(0, crossing)));
        }
        counter.finish(len, out);
    }
}
