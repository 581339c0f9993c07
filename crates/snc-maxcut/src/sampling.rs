//! The sampling API shared by every stochastic solver.
//!
//! The paper's figures plot "maximum cut weight relative to solver as a
//! function of the number of samples" — i.e. best-so-far curves recorded at
//! (log-spaced) sample counts up to 2^20. [`sample_best_trace`] produces
//! exactly that curve for any [`CutSampler`]; the batched circuits'
//! `best_traces` produce one per replica from bit-sliced sample blocks.

use crate::graph::{BlockScorer, CutValue, IncrementalCut, MaxCutGraph};
use snc_graph::bitslice::LANES;
use snc_graph::{CutAssignment, CutTracker, Graph};

/// A stochastic source of cut assignments for a fixed graph.
pub trait CutSampler {
    /// Draws the next cut sample.
    fn next_cut(&mut self) -> CutAssignment;
}

/// Any closure returning cuts is a sampler. This is how one sample
/// stream of a batched circuit is read: build a one-seed batch and take
/// its only cut per call.
///
/// ```
/// use snc_graph::generators::structured::cycle;
/// use snc_maxcut::{log2_checkpoints, sample_best_trace, BatchedHopfieldCircuit, HopfieldConfig};
///
/// let g = cycle(10);
/// let mut batch = BatchedHopfieldCircuit::new(&g, &[7], &HopfieldConfig::default());
/// let mut stream = || batch.next_cuts().remove(0);
/// let trace = sample_best_trace(&mut stream, &g, &log2_checkpoints(16));
/// assert_eq!(trace.final_best(), 10, "an even ring relaxes to its exact cut");
/// ```
impl<F: FnMut() -> CutAssignment> CutSampler for F {
    fn next_cut(&mut self) -> CutAssignment {
        self()
    }
}

/// Best-so-far cut values recorded at increasing sample-count checkpoints:
/// exact counts by default, `f64` weights on weighted graphs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BestTrace<V = u64> {
    /// Sample counts at which the best value was recorded (ascending).
    pub checkpoints: Vec<u64>,
    /// Best cut value seen within the first `checkpoints[k]` samples.
    pub best: Vec<V>,
}

impl<V: CutValue> BestTrace<V> {
    /// The final (overall best) cut value; zero for an empty trace.
    pub fn final_best(&self) -> V {
        self.best.last().copied().unwrap_or(V::ZERO)
    }
}

impl BestTrace {
    /// Best values as `f64` relative to a reference value (the paper
    /// normalizes by the software solver's best cut).
    pub fn relative_to(&self, reference: f64) -> Vec<f64> {
        self.best
            .iter()
            .map(|&b| {
                if reference > 0.0 {
                    b as f64 / reference
                } else {
                    1.0
                }
            })
            .collect()
    }
}

/// Folds one drawn cut into a lazily-initialized tracker, returning the
/// cut's value. The first call seeds the tracker (one scratch
/// evaluation); later calls diff incrementally.
pub(crate) fn tracked_value<'g, G: MaxCutGraph>(
    tracker: &mut Option<G::Tracker<'g>>,
    graph: &'g G,
    cut: &CutAssignment,
) -> G::Value {
    match tracker.as_mut() {
        Some(t) => t.set_to(cut),
        None => {
            let t = graph.tracker(cut.clone());
            let v = t.value();
            *tracker = Some(t);
            v
        }
    }
}

/// Sets bit `lane` of `words[i]` where `values[i] > 0`: the sign readout
/// of [`CutAssignment::from_signs`], written into a bit-sliced block
/// whose lane is clear.
pub(crate) fn set_lane_from_signs(words: &mut [u64], lane: usize, values: &[f64]) {
    for (w, &v) in words.iter_mut().zip(values) {
        *w |= u64::from(v > 0.0) << lane;
    }
}

/// One cut per replica from a single-lane block that `next_lane` fills
/// (`n` words per replica): the `next_cuts` of the batched circuits, on
/// their bit-sliced readout.
pub(crate) fn cuts_from_lane(
    n: usize,
    replicas: usize,
    next_lane: impl FnOnce(usize, &mut [u64]),
) -> Vec<CutAssignment> {
    let mut words = vec![0u64; n * replicas];
    next_lane(0, &mut words);
    (0..replicas)
        .map(|r| CutAssignment::from_lane(&words[r * n..(r + 1) * n], 0))
        .collect()
}

/// The blocked checkpoint loop of the solve driver and the batched
/// circuits' `best_traces`: draws samples up to the last checkpoint in
/// blocks of up to [`LANES`] per replica, scores each block with the
/// graph's [`MaxCutGraph::scorer`], and returns every replica's
/// best-so-far value at every checkpoint. A block may span checkpoints:
/// the bests are recorded in sample order within it.
///
/// `draw(lane, words)` advances every replica by one sample and sets
/// replica `r`'s cut into lane `lane` of `words[r * n..(r + 1) * n]`;
/// the block is zeroed before its first lane. After a block of `len`
/// samples is scored, `visit(words, len, values)` sees it in full, with
/// replica `r`'s value of the block's sample `k` at `values[r * LANES +
/// k]`, before the next block overwrites it.
///
/// # Panics
///
/// Panics if `checkpoints` is not strictly ascending.
pub(crate) fn blocked_bests<G: MaxCutGraph>(
    graph: &G,
    checkpoints: &[u64],
    replicas: usize,
    mut draw: impl FnMut(usize, &mut [u64]),
    mut visit: impl FnMut(&[u64], usize, &[G::Value]),
) -> Vec<Vec<G::Value>> {
    assert!(
        checkpoints.windows(2).all(|w| w[0] < w[1]),
        "checkpoints must be strictly ascending"
    );
    let mut scorer = graph.scorer(replicas);
    let mut words = vec![0u64; replicas * graph.n()];
    let mut values = vec![G::Value::FLOOR; replicas * LANES];
    let mut best = vec![G::Value::FLOOR; replicas];
    let mut out = vec![Vec::with_capacity(checkpoints.len()); replicas];
    let mut pending = checkpoints.iter().copied().peekable();
    let last = checkpoints.last().copied().unwrap_or(0);
    let mut drawn = 0u64;
    while drawn < last {
        let len = (last - drawn).min(LANES as u64) as usize;
        words.fill(0);
        for lane in 0..len {
            draw(lane, &mut words);
        }
        scorer.score(&words, len, &mut values);
        for k in 0..len {
            for (r, b) in best.iter_mut().enumerate() {
                *b = b.larger(values[r * LANES + k]);
            }
            drawn += 1;
            if pending.next_if_eq(&drawn).is_some() {
                for (trace, &b) in out.iter_mut().zip(&best) {
                    trace.push(b);
                }
            }
        }
        visit(&words, len, &values);
    }
    out
}

/// One best-so-far trace per replica on an unweighted graph, from the
/// blocked loop ([`blocked_bests`]): the shared engine of
/// `BatchedLifGwCircuit::best_traces` and
/// `BatchedLifTrevisanCircuit::best_traces`, so the circuits supply only
/// the advance-and-read step and the checkpoint semantics cannot drift
/// between circuit families.
///
/// # Panics
///
/// Panics if `checkpoints` is not strictly ascending.
pub(crate) fn batched_best_traces(
    graph: &Graph,
    checkpoints: &[u64],
    replicas: usize,
    draw: impl FnMut(usize, &mut [u64]),
) -> Vec<BestTrace> {
    blocked_bests(graph, checkpoints, replicas, draw, |_, _, _| {})
        .into_iter()
        .map(|best| BestTrace {
            checkpoints: checkpoints.to_vec(),
            best,
        })
        .collect()
}

/// Logarithmically spaced checkpoints `1, 2, 4, …` up to and including
/// `budget` (deduplicated; empty for zero budget).
pub fn log2_checkpoints(budget: u64) -> Vec<u64> {
    let mut cp = Vec::new();
    let mut c = 1u64;
    while c < budget {
        cp.push(c);
        c = c.saturating_mul(2);
    }
    if budget > 0 {
        cp.push(budget);
    }
    cp.dedup();
    cp
}

/// Draws samples up to the last checkpoint, recording the best-so-far cut
/// value at every checkpoint.
///
/// Cut values are maintained incrementally with the graph's tracker: each
/// sample is diffed against the previous one and updated flip-by-flip, so
/// samplers whose consecutive cuts differ in few vertices (LIF-Trevisan's
/// slowly-learning readout, annealing) pay O(changed · degree) per sample
/// instead of O(m). On an unweighted graph the tracker's integer
/// arithmetic is exact, so the recorded trace is identical to evaluating
/// every sample from scratch; a weighted tracker's `f64` can differ from
/// a scratch evaluation by rounding of order `ε·Σ|w|` between its
/// periodic resyncs (see [`snc_graph::WeightedCutTracker::RESYNC_INTERVAL`]).
///
/// # Panics
///
/// Panics if `checkpoints` is not strictly ascending.
pub fn sample_best_trace<G: MaxCutGraph>(
    sampler: &mut impl CutSampler,
    graph: &G,
    checkpoints: &[u64],
) -> BestTrace<G::Value> {
    assert!(
        checkpoints.windows(2).all(|w| w[0] < w[1]),
        "checkpoints must be strictly ascending"
    );
    let mut best = G::Value::FLOOR;
    let mut out = Vec::with_capacity(checkpoints.len());
    let mut drawn = 0u64;
    let mut tracker = None;
    for &cp in checkpoints {
        while drawn < cp {
            let cut = sampler.next_cut();
            // A cut and its complement are equivalent; both are covered by
            // the single evaluation.
            let value = tracked_value(&mut tracker, graph, &cut);
            best = best.larger(value);
            drawn += 1;
        }
        out.push(if best.is_finite() {
            best
        } else {
            G::Value::ZERO
        });
    }
    BestTrace {
        checkpoints: checkpoints.to_vec(),
        best: out,
    }
}

/// Summary statistics of a fixed-budget sampling run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampleStats {
    /// Best cut value seen.
    pub best: u64,
    /// Mean cut value across all samples.
    pub mean: f64,
    /// Number of samples drawn.
    pub count: u64,
}

/// Draws `budget` samples and returns best and mean cut values.
///
/// The *mean* is the sensitive statistic for distribution quality: a
/// sampler with a distorted covariance can still luck into good best-of-N
/// cuts while its average sample degrades.
pub fn sample_stats(sampler: &mut impl CutSampler, graph: &Graph, budget: u64) -> SampleStats {
    let mut best = 0u64;
    let mut total = 0.0f64;
    let mut tracker: Option<CutTracker<'_>> = None;
    for _ in 0..budget {
        let cut = sampler.next_cut();
        let value = tracked_value(&mut tracker, graph, &cut);
        best = best.max(value);
        total += value as f64;
    }
    SampleStats {
        best,
        mean: if budget > 0 {
            total / budget as f64
        } else {
            0.0
        },
        count: budget,
    }
}

/// Merges replica traces into a single "total samples" trace: at checkpoint
/// `k` the merged best is the max over replicas, and the merged sample
/// count is the sum.
///
/// # Panics
///
/// Panics if traces have mismatched checkpoint grids.
pub fn merge_traces(traces: &[BestTrace]) -> BestTrace {
    assert!(!traces.is_empty(), "cannot merge zero traces");
    let grid = &traces[0].checkpoints;
    for t in traces {
        assert_eq!(&t.checkpoints, grid, "checkpoint grids differ");
    }
    let checkpoints: Vec<u64> = grid.iter().map(|&c| c * traces.len() as u64).collect();
    let best: Vec<u64> = (0..grid.len())
        .map(|k| traces.iter().map(|t| t.best[k]).max().unwrap_or(0))
        .collect();
    BestTrace { checkpoints, best }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snc_devices::Xoshiro256pp;
    use snc_graph::generators::structured::cycle;

    struct CountingSampler {
        rng: Xoshiro256pp,
        n: usize,
        calls: u64,
    }

    impl CutSampler for CountingSampler {
        fn next_cut(&mut self) -> CutAssignment {
            self.calls += 1;
            CutAssignment::random(self.n, &mut self.rng)
        }
    }

    #[test]
    fn checkpoints_cover_budget() {
        assert_eq!(log2_checkpoints(8), vec![1, 2, 4, 8]);
        assert_eq!(log2_checkpoints(10), vec![1, 2, 4, 8, 10]);
        assert_eq!(log2_checkpoints(1), vec![1]);
        assert!(log2_checkpoints(0).is_empty());
    }

    #[test]
    fn trace_is_monotone_and_draws_exactly_budget() {
        let g = cycle(9);
        let mut s = CountingSampler {
            rng: Xoshiro256pp::new(1),
            n: 9,
            calls: 0,
        };
        let cp = log2_checkpoints(64);
        let trace = sample_best_trace(&mut s, &g, &cp);
        assert_eq!(s.calls, 64);
        assert!(trace.best.windows(2).all(|w| w[0] <= w[1]));
        assert!(trace.final_best() <= g.m() as u64);
        // C9 random cuts find at least something.
        assert!(trace.final_best() >= 6);
    }

    #[test]
    fn relative_normalization() {
        let t = BestTrace {
            checkpoints: vec![1, 2],
            best: vec![5, 10],
        };
        assert_eq!(t.relative_to(10.0), vec![0.5, 1.0]);
        assert_eq!(t.relative_to(0.0), vec![1.0, 1.0]);
    }

    #[test]
    fn merge_semantics() {
        let t1 = BestTrace {
            checkpoints: vec![1, 2],
            best: vec![3, 5],
        };
        let t2 = BestTrace {
            checkpoints: vec![1, 2],
            best: vec![4, 4],
        };
        let m = merge_traces(&[t1, t2]);
        assert_eq!(m.checkpoints, vec![2, 4]);
        assert_eq!(m.best, vec![4, 5]);
    }

    #[test]
    fn sample_stats_semantics() {
        let g = cycle(9);
        let mut s = CountingSampler {
            rng: Xoshiro256pp::new(2),
            n: 9,
            calls: 0,
        };
        let stats = sample_stats(&mut s, &g, 500);
        assert_eq!(stats.count, 500);
        assert!(stats.mean <= stats.best as f64);
        // Random cuts on C9 average m/2 = 4.5.
        assert!((stats.mean - 4.5).abs() < 0.5, "mean={}", stats.mean);
        let empty = sample_stats(&mut s, &g, 0);
        assert_eq!(empty.best, 0);
        assert_eq!(empty.mean, 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn bad_checkpoints_panic() {
        let g = cycle(5);
        let mut s = CountingSampler {
            rng: Xoshiro256pp::new(1),
            n: 5,
            calls: 0,
        };
        sample_best_trace(&mut s, &g, &[4, 2]);
    }
}
