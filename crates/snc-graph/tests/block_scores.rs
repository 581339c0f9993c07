//! The bit-sliced block scorer against the scalar cut value.
//!
//! `BlockCutScorer::cut_values` must return, for every lane of every block length
//! `1..=64`, exactly `CutAssignment::cut_value` of that lane's cut, and
//! must ignore whatever the lanes past the block length hold. The shapes
//! cover single-vertex graphs, the 63/64/65 boundaries, graphs with
//! isolated vertices, and dense graphs whose counts carry into the top
//! counter planes.

use snc_devices::{Rng64, Xoshiro256pp};
use snc_graph::bitslice::{BlockCutScorer, LANES};
use snc_graph::generators::erdos_renyi::gnp;
use snc_graph::generators::structured::{complete, complete_bipartite};
use snc_graph::{CutAssignment, Graph};

/// Scores one block of 64 random lanes at every length `1..=64` and
/// checks each reported lane against a scratch evaluation.
fn assert_block_matches_scratch(graph: &Graph, words: &[u64], label: &str) {
    let reference: Vec<u64> = (0..LANES)
        .map(|k| CutAssignment::from_lane(words, k).cut_value(graph))
        .collect();
    let scorer = BlockCutScorer::new(graph);
    let mut out = [u64::MAX; LANES];
    for len in 1..=LANES {
        scorer.cut_values(words, len, &mut out);
        assert_eq!(out[..len], reference[..len], "{label}: len {len}");
    }
}

fn random_words(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = Xoshiro256pp::new(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

#[test]
fn block_scores_match_cut_value_on_sparse_graphs() {
    for n in [1, 63, 64, 65, 200] {
        // p = 0.02 leaves isolated vertices at every n here.
        let g = gnp(n, 0.02, n as u64).unwrap();
        if n > 1 {
            assert!(
                (0..n).any(|i| g.degree(i) == 0),
                "n={n} has an isolated vertex"
            );
        }
        for seed in 0..3 {
            assert_block_matches_scratch(&g, &random_words(n, seed), &format!("gnp n={n}"));
        }
        assert_block_matches_scratch(&g, &vec![0; n], &format!("gnp n={n} all -1"));
        assert_block_matches_scratch(&g, &vec![u64::MAX; n], &format!("gnp n={n} all +1"));
        let empty = Graph::empty(n);
        assert_block_matches_scratch(&empty, &random_words(n, 9), &format!("edgeless n={n}"));
    }
}

#[test]
fn block_scores_carry_into_the_top_planes_of_dense_graphs() {
    for n in [63, 64, 65, 200] {
        let k = complete(n);
        for seed in 0..2 {
            assert_block_matches_scratch(&k, &random_words(n, seed), &format!("K_{n}"));
        }
    }
    // Every edge of K_{100,100} crosses the bipartition, so that lane
    // counts m = 10,000 and sets the top plane, ⌈log2 m⌉ = 14.
    let (a, b) = (100, 100);
    let g = complete_bipartite(a, b);
    let mut words = random_words(a + b, 5);
    for (i, w) in words.iter_mut().enumerate() {
        let bit = 1u64 << 7;
        if i < a {
            *w |= bit;
        } else {
            *w &= !bit;
        }
    }
    assert_eq!(
        CutAssignment::from_lane(&words, 7).cut_value(&g),
        g.m() as u64
    );
    assert_block_matches_scratch(&g, &words, "K_{100,100}");
}
