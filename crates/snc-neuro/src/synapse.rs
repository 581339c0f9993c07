//! Device→neuron synaptic weight matrices.
//!
//! The circuits' hot loop is: read the binary device state vector
//! `s ∈ {0,1}^r`, form the synaptic current `I = W s`, step the membranes.
//!
//! * [`DenseWeights`] — for the LIF-GW circuit, whose weight matrix is the
//!   dense `n × r` SDP factor matrix (r = 4 in the paper). Weights are
//!   stored column-major: because `s` is binary, `W s` is a sum of the
//!   *active columns*, and the state arrives bit-packed
//!   ([`ActivityWords`]), so the column walk is a `trailing_zeros` word
//!   scan. At the paper's rank the batched kernel memoizes `W s` for all
//!   `2^r` patterns (`crate::parallel::ReplicaBatch` reads the rows in
//!   place).
//! * [`CscWeights`] — for the LIF-Trevisan circuit, whose weight matrix is
//!   the sparse `n × n` Trevisan matrix `I + D^{-1/2} A D^{-1/2}`. Its rows
//!   feed the slice gather that `crate::network::TwoStageNetwork`
//!   applies once per plasticity interval to every replica's discounted
//!   device windows.

use snc_devices::ActivityWords;
use snc_graph::{Csr, EdgeWeight};
use snc_linalg::DMatrix;

/// A device→neuron weight matrix.
pub trait InputWeights {
    /// Number of neurons (rows).
    fn neurons(&self) -> usize;
    /// Number of devices (columns).
    fn devices(&self) -> usize;
    /// Computes `out = W · x` for a real-valued vector `x` (used with the
    /// per-device stationary probabilities to place thresholds).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != devices()` or `out.len() != neurons()`.
    fn apply(&self, x: &[f64], out: &mut [f64]);
    /// The Gram matrix `W Wᵀ` (the covariance shape of the membranes).
    fn gram(&self) -> DMatrix;
}

/// Dense column-major weights.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseWeights {
    rows: usize,
    cols: usize,
    /// Column-major storage: column `α` occupies `data[α·rows .. (α+1)·rows]`.
    data: Vec<f64>,
}

impl DenseWeights {
    /// Builds from a row-major matrix (`n × r`, one row per neuron), e.g.
    /// the SDP factor matrix, with an overall scale applied.
    ///
    /// "The precise magnitudes of these weights are not critical; what
    /// matter are their relative values" (§IV.A) — `scale` models the
    /// hardware weight-range constraint.
    pub fn from_matrix_scaled(m: &DMatrix, scale: f64) -> Self {
        let rows = m.rows();
        let cols = m.cols();
        let mut data = vec![0.0; rows * cols];
        for i in 0..rows {
            let r = m.row(i);
            for (alpha, &w) in r.iter().enumerate() {
                data[alpha * rows + i] = w * scale;
            }
        }
        Self { rows, cols, data }
    }

    /// Builds from a closure over `(neuron, device)`.
    #[cfg(test)]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = vec![0.0; rows * cols];
        for alpha in 0..cols {
            for i in 0..rows {
                data[alpha * rows + i] = f(i, alpha);
            }
        }
        Self { rows, cols, data }
    }

    /// The weight from device `alpha` to neuron `i`.
    pub fn get(&self, i: usize, alpha: usize) -> f64 {
        self.data[alpha * self.rows + i]
    }

    /// Column `alpha` as a slice (all neurons' weights from one device).
    pub fn column(&self, alpha: usize) -> &[f64] {
        &self.data[alpha * self.rows..(alpha + 1) * self.rows]
    }

    /// Computes `out = W · s` for a bit-packed binary state vector `s`,
    /// accumulating active columns in ascending column order (the order is
    /// part of the contract: it makes the single and batched kernels
    /// bit-for-bit identical in floating point).
    ///
    /// # Panics
    ///
    /// Panics if `active.len() != devices()` or `out.len() != neurons()`.
    #[inline]
    pub fn accumulate_words(&self, active: &ActivityWords, out: &mut [f64]) {
        assert_eq!(active.len(), self.cols);
        assert_eq!(out.len(), self.rows);
        out.fill(0.0);
        for alpha in active.iter_active() {
            let col = self.column(alpha);
            for (o, &w) in out.iter_mut().zip(col) {
                *o += w;
            }
        }
    }
}

impl InputWeights for DenseWeights {
    fn neurons(&self) -> usize {
        self.rows
    }

    fn devices(&self) -> usize {
        self.cols
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(out.len(), self.rows);
        out.fill(0.0);
        for (alpha, &xa) in x.iter().enumerate() {
            if xa != 0.0 {
                let col = self.column(alpha);
                for (o, &w) in out.iter_mut().zip(col) {
                    *o += w * xa;
                }
            }
        }
    }

    fn gram(&self) -> DMatrix {
        // W Wᵀ from column-major storage: accumulate outer products of
        // columns' entries — equivalently convert to row-major and reuse.
        let row_major = DMatrix::from_fn(self.rows, self.cols, |i, a| self.get(i, a));
        row_major.gram_rows()
    }
}

/// Device counts up to this many columns get a precomputed pattern table
/// in [`DensePlan`]: one current row per possible activity pattern
/// (`2^cols × rows` doubles). The LIF-GW circuit runs at the paper's SDP
/// rank 4, well under the cap.
pub(crate) const DENSE_PATTERN_COLS: usize = 6;

/// Plan/scratch state for the batched dense kernel
/// ([`DenseWeights::accumulate_replicas`]).
///
/// With at most [`DENSE_PATTERN_COLS`] devices there are at most 64
/// possible activity patterns, so the plan memoizes `W · s` for every
/// pattern once (each entry computed with the exact ascending-column
/// addition order of the live kernel) and the per-step kernel degenerates
/// to a table row copy per replica. Above the cap the kernel falls back to
/// a column scan with the weight load amortized across replicas; one
/// replica runs [`DenseWeights::accumulate_words`] itself.
#[derive(Clone, Debug)]
pub(crate) struct DensePlan {
    /// `table[p * rows + i]` = current of neuron `i` under pattern `p`;
    /// empty when `cols > DENSE_PATTERN_COLS`.
    table: Vec<f64>,
    /// Scratch: indices of replicas with the current column active
    /// (scan mode).
    active: Vec<u32>,
}

/// The multi-replica (structure-of-arrays) kernel: the currents of `R`
/// replicas of one circuit in one traversal of the weight matrix, stored
/// replica-major (`out[r * neurons + i]`), each replica's additions in
/// ascending column order, so a batched current is bit-for-bit the
/// replica's [`DenseWeights::accumulate_words`].
impl DenseWeights {
    /// Builds the kernel plan (pattern table, scratch).
    pub(crate) fn batch_plan(&self) -> DensePlan {
        let table = if self.cols <= DENSE_PATTERN_COLS {
            let patterns = 1usize << self.cols;
            let mut table = vec![0.0; patterns * self.rows];
            let mut states = ActivityWords::zeros(self.cols);
            for p in 0..patterns {
                for alpha in 0..self.cols {
                    states.set(alpha, (p >> alpha) & 1 == 1);
                }
                let row = &mut table[p * self.rows..(p + 1) * self.rows];
                self.accumulate_words(&states, row);
            }
            table
        } else {
            Vec::new()
        };
        DensePlan {
            table,
            active: Vec::new(),
        }
    }

    /// Computes the batched currents `(W · s_r)_i` for replica states
    /// `s_r`, replica-major.
    ///
    /// # Panics
    ///
    /// Panics if any `states[r].len() != devices()` or
    /// `out.len() != neurons() * states.len()`.
    pub(crate) fn accumulate_replicas(
        &self,
        plan: &mut DensePlan,
        states: &[ActivityWords],
        out: &mut [f64],
    ) {
        let replicas = states.len();
        assert_eq!(out.len(), self.rows * replicas);
        for s in states {
            assert_eq!(s.len(), self.cols);
        }
        if !plan.table.is_empty() {
            // Pattern mode: each replica's current vector is a straight
            // copy of its pattern's memoized row.
            for (r, s) in states.iter().enumerate() {
                let p = s.words().first().copied().unwrap_or(0) as usize;
                let row = &plan.table[p * self.rows..(p + 1) * self.rows];
                out[r * self.rows..(r + 1) * self.rows].copy_from_slice(row);
            }
        } else if let [state] = states {
            // One replica: the scan below is the scalar kernel's
            // ascending-column walk, so run the scalar kernel itself.
            self.accumulate_words(state, out);
        } else {
            // Scan mode: walk each column once; for every replica with the
            // column active, add it as one contiguous vectorizable pass.
            out.fill(0.0);
            for alpha in 0..self.cols {
                plan.active.clear();
                for (r, s) in states.iter().enumerate() {
                    if s.get(alpha) {
                        plan.active.push(r as u32);
                    }
                }
                if plan.active.is_empty() {
                    continue;
                }
                let col = self.column(alpha);
                for &r in &plan.active {
                    let lane = &mut out[r as usize * self.rows..(r as usize + 1) * self.rows];
                    for (o, &w) in lane.iter_mut().zip(col) {
                        *o += w;
                    }
                }
            }
        }
    }

    /// The memoized current vector `W · s` for one packed state, if the
    /// plan keeps a pattern table; whether it does depends on the plan
    /// alone, never on the state's value.
    pub(crate) fn memoized_row<'p>(
        &self,
        plan: &'p DensePlan,
        state: &ActivityWords,
    ) -> Option<&'p [f64]> {
        if plan.table.is_empty() {
            return None;
        }
        let p = state.words().first().copied().unwrap_or(0) as usize;
        Some(&plan.table[p * self.rows..(p + 1) * self.rows])
    }
}

/// Sparse column-compressed weights.
#[derive(Clone, Debug, PartialEq)]
pub struct CscWeights {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CscWeights {
    /// Builds the LIF-Trevisan weight matrix for a graph: the `n × n`
    /// Trevisan matrix `I + D^{-1/2} A D^{-1/2}` (weighted degrees on a
    /// weighted graph), scaled by `scale` (§IV.B: "connection weights
    /// between the random devices and the LIF population … set
    /// proportional to the Trevisan matrix").
    ///
    /// Isolated vertices get only their diagonal entry.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is non-finite or the graph has a negative weight
    /// (the Trevisan matrix is only defined for non-negative weights).
    /// Every stored value then has magnitude ≤ `|scale|`, so the whole
    /// matrix is finite, the `CscWeights` invariant the slice gather
    /// relies on.
    pub fn trevisan<W: EdgeWeight>(graph: &Csr<W>, scale: f64) -> Self {
        assert!(
            scale.is_finite(),
            "weight scale must be finite, got {scale}"
        );
        assert!(
            graph.is_nonnegative(),
            "the Trevisan matrix requires non-negative weights"
        );
        let n = graph.n();
        let inv_sqrt = graph.inv_sqrt_degrees();
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut row_idx: Vec<u32> = Vec::with_capacity(2 * graph.m() + n);
        let mut values: Vec<f64> = Vec::with_capacity(2 * graph.m() + n);
        col_ptr.push(0);
        for j in 0..n {
            // Column j of the symmetric matrix: diagonal + neighbors.
            // Entries must be in increasing row order; neighbors are sorted
            // so merge the diagonal in place.
            let mut placed_diag = false;
            for (&i, &w) in graph.neighbors(j).iter().zip(graph.neighbor_weights(j)) {
                let i = i as usize;
                if !placed_diag && i > j {
                    row_idx.push(j as u32);
                    values.push(scale);
                    placed_diag = true;
                }
                row_idx.push(i as u32);
                values.push(scale * w.value() * inv_sqrt[i] * inv_sqrt[j]);
            }
            if !placed_diag {
                row_idx.push(j as u32);
                values.push(scale);
            }
            col_ptr.push(row_idx.len());
        }
        Self {
            rows: n,
            cols: n,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Builds from explicit triplets `(row, col, value)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or a value is non-finite.
    /// Finiteness is a `CscWeights` invariant: the slice gather multiplies
    /// every weight by every lane's device window and relies on `v · 0.0`
    /// adding nothing for a silent device, which `±inf`/`NaN` values would
    /// break (`inf · 0.0 = NaN`) — and non-finite synaptic weights are
    /// meaningless for the circuits anyway.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(u32, u32, f64)]) -> Self {
        let mut sorted: Vec<(u32, u32, f64)> = triplets
            .iter()
            .map(|&(i, j, v)| {
                assert!(
                    (i as usize) < rows && (j as usize) < cols,
                    "triplet out of range"
                );
                assert!(v.is_finite(), "synaptic weights must be finite, got {v}");
                (j, i, v)
            })
            .collect();
        sorted.sort_by_key(|&(j, i, _)| (j, i));
        let mut col_ptr = vec![0usize; cols + 1];
        let mut row_idx = Vec::with_capacity(sorted.len());
        let mut values = Vec::with_capacity(sorted.len());
        for &(j, i, v) in &sorted {
            col_ptr[j as usize + 1] += 1;
            row_idx.push(i);
            values.push(v);
        }
        for j in 0..cols {
            col_ptr[j + 1] += col_ptr[j];
        }
        Self {
            rows,
            cols,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// The stored entries `(row, column, value)`, column by column, so
    /// each row's entries come in ascending column order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        (0..self.cols).flat_map(move |j| {
            let range = self.col_ptr[j]..self.col_ptr[j + 1];
            self.row_idx[range.clone()]
                .iter()
                .zip(&self.values[range])
                .map(move |(&i, &v)| (i, j as u32, v))
        })
    }

    /// Densifies (tests and small systems only).
    pub fn to_dense(&self) -> DMatrix {
        let mut m = DMatrix::zeros(self.rows, self.cols);
        for j in 0..self.cols {
            for k in self.col_ptr[j]..self.col_ptr[j + 1] {
                m[(self.row_idx[k] as usize, j)] += self.values[k];
            }
        }
        m
    }
}

impl InputWeights for CscWeights {
    fn neurons(&self) -> usize {
        self.rows
    }

    fn devices(&self) -> usize {
        self.cols
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(out.len(), self.rows);
        out.fill(0.0);
        for (alpha, &xa) in x.iter().enumerate() {
            if xa != 0.0 {
                for k in self.col_ptr[alpha]..self.col_ptr[alpha + 1] {
                    out[self.row_idx[k] as usize] += self.values[k] * xa;
                }
            }
        }
    }

    fn gram(&self) -> DMatrix {
        self.to_dense().gram_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snc_graph::generators::structured::{complete, cycle};
    use snc_graph::Graph;

    #[test]
    fn dense_accumulate_matches_matvec() {
        let m = DMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let w = DenseWeights::from_matrix_scaled(&m, 1.0);
        assert_eq!(w.neurons(), 2);
        assert_eq!(w.devices(), 3);
        let mut out = vec![0.0; 2];
        w.accumulate_words(&ActivityWords::from_bools(&[true, false, true]), &mut out);
        assert_eq!(out, vec![4.0, 10.0]);
        w.accumulate_words(&ActivityWords::zeros(3), &mut out);
        assert_eq!(out, vec![0.0, 0.0]);
    }

    #[test]
    fn dense_scaling_and_access() {
        let m = DMatrix::from_rows(&[&[1.0, -1.0]]);
        let w = DenseWeights::from_matrix_scaled(&m, 2.5);
        assert_eq!(w.get(0, 0), 2.5);
        assert_eq!(w.get(0, 1), -2.5);
    }

    #[test]
    fn dense_gram_matches_dmatrix_gram() {
        let m = DMatrix::from_rows(&[&[1.0, 2.0], &[0.5, -1.0], &[0.0, 3.0]]);
        let w = DenseWeights::from_matrix_scaled(&m, 1.0);
        assert!(w.gram().max_abs_diff(&m.gram_rows()) < 1e-14);
    }

    #[test]
    fn trevisan_matches_dense_reference() {
        for g in [cycle(7), complete(5)] {
            let w = CscWeights::trevisan(&g, 1.0);
            let dense = g.trevisan_dense();
            assert!(
                w.to_dense().max_abs_diff(&dense) < 1e-14,
                "trevisan CSC mismatch"
            );
            assert_eq!(w.values.len(), 2 * g.m() + g.n());
        }
    }

    #[test]
    fn trevisan_scaled() {
        let g = cycle(5);
        let w = CscWeights::trevisan(&g, 0.5);
        let mut dense = g.trevisan_dense();
        dense.scale(0.5);
        assert!(w.to_dense().max_abs_diff(&dense) < 1e-14);
    }

    #[test]
    fn trevisan_isolated_vertex() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let w = CscWeights::trevisan(&g, 1.0);
        let d = w.to_dense();
        assert_eq!(d[(2, 2)], 1.0);
        assert_eq!(d[(2, 0)], 0.0);
    }

    #[test]
    fn csc_accumulate_matches_dense() {
        // The rows the gather reads, summed over the active devices, and
        // `apply` both give the dense product.
        let g = cycle(6);
        let w = CscWeights::trevisan(&g, 1.0);
        let dense = w.to_dense();
        let active = [true, false, true, true, false, true];
        let x: Vec<f64> = active.iter().map(|&b| b as u8 as f64).collect();
        let reference = dense.matvec(&x);
        let mut out = vec![0.0; 6];
        w.apply(&x, &mut out);
        let mut gathered = [0.0; 6];
        let mut last = [None; 6];
        for (i, j, v) in w.entries() {
            let i = i as usize;
            assert!(last[i] < Some(j), "row {i}: columns ascend");
            last[i] = Some(j);
            gathered[i] += v * x[j as usize];
        }
        for ((a, g), b) in out.iter().zip(&gathered).zip(&reference) {
            assert!((a - b).abs() < 1e-14);
            assert!((g - b).abs() < 1e-14);
        }
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn csc_rejects_non_finite_values() {
        let _ = CscWeights::from_triplets(2, 2, &[(0, 0, f64::INFINITY)]);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn trevisan_rejects_non_finite_scale() {
        let _ = CscWeights::trevisan(&cycle(4), f64::NAN);
    }

    #[test]
    fn csc_from_triplets() {
        let w = CscWeights::from_triplets(2, 3, &[(0, 0, 1.0), (1, 2, 5.0), (1, 0, -2.0)]);
        let d = w.to_dense();
        assert_eq!(d[(0, 0)], 1.0);
        assert_eq!(d[(1, 0)], -2.0);
        assert_eq!(d[(1, 2)], 5.0);
    }

    fn batch_matches_sequential(w: &DenseWeights, states: &[ActivityWords]) {
        let n = w.neurons();
        let replicas = states.len();
        let mut plan = w.batch_plan();
        let mut batched = vec![0.0; n * replicas];
        w.accumulate_replicas(&mut plan, states, &mut batched);
        let mut single = vec![0.0; n];
        for (r, s) in states.iter().enumerate() {
            w.accumulate_words(s, &mut single);
            for i in 0..n {
                assert_eq!(
                    single[i].to_bits(),
                    batched[r * n + i].to_bits(),
                    "replica {r} neuron {i}"
                );
            }
        }
    }

    fn replica_states(devices: usize, replicas: usize, salt: u64) -> Vec<ActivityWords> {
        (0..replicas)
            .map(|r| {
                let bits: Vec<bool> = (0..devices)
                    .map(|a| (a as u64 * 7 + r as u64 * 13 + salt).is_multiple_of(3))
                    .collect();
                ActivityWords::from_bools(&bits)
            })
            .collect()
    }

    #[test]
    fn dense_batch_pattern_mode_is_bit_exact() {
        // cols = 4 ≤ DENSE_PATTERN_COLS → memoized pattern-table path.
        let m = DMatrix::from_fn(11, 4, |i, a| (i * 4 + a) as f64 * 0.01 - 0.2);
        let w = DenseWeights::from_matrix_scaled(&m, 1.3);
        for salt in 0..4 {
            batch_matches_sequential(&w, &replica_states(4, 9, salt));
        }
    }

    #[test]
    fn dense_batch_scan_mode_is_bit_exact() {
        // cols = 9 > DENSE_PATTERN_COLS → amortized column-scan path.
        let m = DMatrix::from_fn(7, 9, |i, a| ((i + 2) * (a + 1)) as f64 * 0.003);
        let w = DenseWeights::from_matrix_scaled(&m, 1.0);
        assert!(w.batch_plan().table.is_empty());
        for salt in 0..4 {
            batch_matches_sequential(&w, &replica_states(9, 5, salt));
        }
    }
}
