//! Device→neuron synaptic weight matrices.
//!
//! The circuits' hot loop is: read the binary device state vector
//! `s ∈ {0,1}^r`, form the synaptic current `I = W s`, step the membranes.
//! Because `s` is binary, `W s` is a sum of the *active columns* of `W` —
//! so weights are stored column-major (dense) or CSC (sparse), making the
//! kernel a sequence of contiguous column accumulations. The state vector
//! arrives bit-packed ([`ActivityWords`], one bit per device), so the
//! column walk is a `trailing_zeros` word scan — no per-device branch.
//!
//! * [`DenseWeights`] — for the LIF-GW circuit, whose weight matrix is the
//!   dense `n × r` SDP factor matrix (r = 4 in the paper).
//! * [`CscWeights`] — for the LIF-Trevisan circuit, whose weight matrix is
//!   the sparse `n × n` Trevisan matrix `I + D^{-1/2} A D^{-1/2}`.
//!
//! Both kernels also come in a *multi-replica* structure-of-arrays form
//! ([`BatchWeights`]): `R` replicas of the same circuit are advanced with
//! a single traversal of the weight matrix, each weight load amortized
//! across replicas (see `crate::parallel::ReplicaBatch`).

use snc_devices::ActivityWords;
use snc_graph::Graph;
use snc_linalg::DMatrix;

/// A device→neuron weight matrix supporting the binary-input kernel.
pub trait InputWeights {
    /// Number of neurons (rows).
    fn neurons(&self) -> usize;
    /// Number of devices (columns).
    fn devices(&self) -> usize;
    /// Computes `out = W · s` for a bit-packed binary state vector `s`,
    /// accumulating active columns in ascending column order (the order is
    /// part of the contract: it makes packed, unpacked, and batched
    /// kernels bit-for-bit identical in floating point).
    ///
    /// # Panics
    ///
    /// Panics if `active.len() != devices()` or `out.len() != neurons()`.
    fn accumulate_words(&self, active: &ActivityWords, out: &mut [f64]);
    /// Computes `out = W · s` for a binary state vector given as bools.
    ///
    /// Convenience wrapper that packs and delegates to
    /// [`InputWeights::accumulate_words`]; it allocates, so hot paths
    /// should hold an [`ActivityWords`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `active.len() != devices()` or `out.len() != neurons()`.
    fn accumulate_active(&self, active: &[bool], out: &mut [f64]) {
        self.accumulate_words(&ActivityWords::from_bools(active), out);
    }
    /// Computes `out = W · x` for a real-valued vector `x` (used with the
    /// per-device stationary probabilities to place thresholds).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != devices()` or `out.len() != neurons()`.
    fn apply(&self, x: &[f64], out: &mut [f64]);
    /// Row sums `Σ_α W_iα` (needed for the analytic membrane means).
    fn row_sums(&self) -> Vec<f64>;
    /// The Gram matrix `W Wᵀ` (the covariance shape of the membranes).
    fn gram(&self) -> DMatrix;
}

/// Multi-replica (structure-of-arrays) extension of [`InputWeights`].
///
/// Computes the synaptic currents of `R` replicas of the same circuit in
/// one traversal of the weight matrix, so the matrix structure — column
/// masks, sparse indices, values — is read once per step (the CSC kernel:
/// once per 8-replica chunk) instead of once per replica.
///
/// The output layout is chosen by the weight type via
/// [`BatchWeights::INTERLEAVED`]:
///
/// * **Replica-major** (`INTERLEAVED == false`, the dense default):
///   `out[r * neurons + i]` is neuron `i`'s current in replica `r`. Each
///   replica's current vector is one contiguous slice — memcpy-able
///   pattern rows, branch-free membrane fusion.
/// * **Neuron-major / interleaved** (`INTERLEAVED == true`, the CSC
///   choice): `out[i * replicas + r]`. Each scattered sparse update lands
///   in one contiguous `R`-lane group (a cache line at R = 8), which is
///   what makes the shared sparse traversal profitable — the replica-major
///   scatter jumps `neurons`-strided lanes and loses its amortization win
///   to cache traffic.
///
/// Per `(neuron, replica)` pair the additions happen in ascending column
/// order — exactly the order [`InputWeights::accumulate_words`] uses — so
/// batched currents are bit-for-bit equal to stepping each replica alone
/// in either layout.
pub trait BatchWeights: InputWeights {
    /// Reusable precomputed state and scratch for the batched kernel.
    type Plan: Clone + std::fmt::Debug;
    /// Whether [`BatchWeights::accumulate_replicas`] writes neuron-major
    /// interleaved output (`out[i * replicas + r]`) instead of
    /// replica-major (`out[r * neurons + i]`). Steppers must keep their
    /// per-replica state in the same layout.
    const INTERLEAVED: bool = false;
    /// Builds the kernel plan (pattern tables, scratch buffers).
    fn batch_plan(&self) -> Self::Plan;
    /// Computes the batched currents `(W · s_r)_i` for replica states
    /// `s_r`, stored per [`BatchWeights::INTERLEAVED`].
    ///
    /// # Panics
    ///
    /// Panics if any `states[r].len() != devices()` or
    /// `out.len() != neurons() * states.len()`.
    fn accumulate_replicas(&self, plan: &mut Self::Plan, states: &[ActivityWords], out: &mut [f64]);
    /// The memoized current vector `W · s` for one packed state, if the
    /// plan precomputes per-pattern rows — lets steppers read currents in
    /// place instead of materializing them. Availability must not depend
    /// on the state's *value* (only on the plan), so callers may probe
    /// once and then rely on it for every replica. The default plan has no
    /// memoization.
    fn memoized_row<'p>(&self, plan: &'p Self::Plan, state: &ActivityWords) -> Option<&'p [f64]> {
        let _ = (plan, state);
        None
    }
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
}

impl InputWeights for DenseWeights {
    fn neurons(&self) -> usize {
        self.rows
    }

    fn devices(&self) -> usize {
        self.cols
    }

    #[inline]
    fn accumulate_words(&self, active: &ActivityWords, out: &mut [f64]) {
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

    fn row_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.rows];
        for alpha in 0..self.cols {
            for (s, &w) in sums.iter_mut().zip(self.column(alpha)) {
                *s += w;
            }
        }
        sums
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
pub const DENSE_PATTERN_COLS: usize = 6;

/// Plan/scratch state for the batched dense kernel.
///
/// With at most [`DENSE_PATTERN_COLS`] devices there are at most 64
/// possible activity patterns, so the plan memoizes `W · s` for every
/// pattern once (each entry computed with the exact ascending-column
/// addition order of the live kernel) and the per-step kernel degenerates
/// to a table row copy per replica. Above the cap the kernel falls back to
/// a column scan with the weight load amortized across replicas; one
/// replica runs [`InputWeights::accumulate_words`] itself.
#[derive(Clone, Debug)]
pub struct DensePlan {
    /// `table[p * rows + i]` = current of neuron `i` under pattern `p`;
    /// empty when `cols > DENSE_PATTERN_COLS`.
    table: Vec<f64>,
    /// Scratch: indices of replicas with the current column active
    /// (scan mode).
    active: Vec<u32>,
}

impl BatchWeights for DenseWeights {
    type Plan = DensePlan;

    fn batch_plan(&self) -> DensePlan {
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

    fn accumulate_replicas(&self, plan: &mut DensePlan, states: &[ActivityWords], out: &mut [f64]) {
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

    fn memoized_row<'p>(&self, plan: &'p DensePlan, state: &ActivityWords) -> Option<&'p [f64]> {
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
    /// Trevisan matrix `I + D^{-1/2} A D^{-1/2}`, scaled by `scale`
    /// (§IV.B: "connection weights between the random devices and the LIF
    /// population … set proportional to the Trevisan matrix").
    ///
    /// Isolated vertices get only their diagonal entry.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is non-finite (every stored value has magnitude
    /// ≤ `|scale|`, so a finite scale makes the whole matrix finite —
    /// the `CscWeights` invariant the batched kernel relies on).
    pub fn trevisan(graph: &Graph, scale: f64) -> Self {
        assert!(
            scale.is_finite(),
            "weight scale must be finite, got {scale}"
        );
        let n = graph.n();
        let inv_sqrt: Vec<f64> = (0..n)
            .map(|i| {
                let d = graph.degree(i);
                if d == 0 {
                    0.0
                } else {
                    1.0 / (d as f64).sqrt()
                }
            })
            .collect();
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut row_idx: Vec<u32> = Vec::with_capacity(2 * graph.m() + n);
        let mut values: Vec<f64> = Vec::with_capacity(2 * graph.m() + n);
        col_ptr.push(0);
        for j in 0..n {
            // Column j of the symmetric matrix: diagonal + neighbors.
            // Entries must be in increasing row order; neighbors are sorted
            // so merge the diagonal in place.
            let mut placed_diag = false;
            for &i in graph.neighbors(j) {
                let i = i as usize;
                if !placed_diag && i > j {
                    row_idx.push(j as u32);
                    values.push(scale);
                    placed_diag = true;
                }
                row_idx.push(i as u32);
                values.push(scale * inv_sqrt[i] * inv_sqrt[j]);
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

    /// Builds the weighted LIF-Trevisan weight matrix
    /// `I + D_w^{-1/2} A_w D_w^{-1/2}` for a weighted graph, scaled.
    ///
    /// # Panics
    ///
    /// Panics if the graph has negative weights (the weighted Trevisan
    /// matrix is only defined for non-negative weights).
    pub fn trevisan_weighted(graph: &snc_graph::WeightedGraph, scale: f64) -> Self {
        assert!(
            graph.is_nonnegative(),
            "weighted Trevisan matrix requires non-negative weights"
        );
        let n = graph.n();
        let inv_sqrt: Vec<f64> = (0..n)
            .map(|i| {
                let d = graph.weighted_degree(i);
                if d <= 0.0 {
                    0.0
                } else {
                    1.0 / d.sqrt()
                }
            })
            .collect();
        let mut triplets: Vec<(u32, u32, f64)> = Vec::with_capacity(2 * graph.m() + n);
        for j in 0..n {
            triplets.push((j as u32, j as u32, scale));
            for (&i, &w) in graph.neighbors(j).iter().zip(graph.neighbor_weights(j)) {
                triplets.push((i, j as u32, scale * w * inv_sqrt[i as usize] * inv_sqrt[j]));
            }
        }
        Self::from_triplets(n, n, &triplets)
    }

    /// Builds from explicit triplets `(row, col, value)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or a value is non-finite.
    /// Finiteness is a `CscWeights` invariant: the batched masked-FMA
    /// kernel relies on `v · 0.0` being a true no-op for silent
    /// replicas, which `±inf`/`NaN` values would break (`inf · 0.0 =
    /// NaN`) — and non-finite synaptic weights are meaningless for the
    /// circuits anyway.
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

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
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

    #[inline]
    fn accumulate_words(&self, active: &ActivityWords, out: &mut [f64]) {
        assert_eq!(active.len(), self.cols);
        assert_eq!(out.len(), self.rows);
        out.fill(0.0);
        for alpha in active.iter_active() {
            for k in self.col_ptr[alpha]..self.col_ptr[alpha + 1] {
                out[self.row_idx[k] as usize] += self.values[k];
            }
        }
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

    fn row_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.rows];
        for k in 0..self.values.len() {
            sums[self.row_idx[k] as usize] += self.values[k];
        }
        sums
    }

    fn gram(&self) -> DMatrix {
        self.to_dense().gram_rows()
    }
}

/// Plan/scratch state for the batched CSC kernel.
#[derive(Clone, Debug, Default)]
pub struct CscPlan {
    /// Scratch: per-replica column-activity selectors (1.0 = active,
    /// 0.0 = silent) for the branch-free masked accumulate.
    sel: Vec<f64>,
    /// Scratch: the replicas' state words for the current 64-column block.
    words: Vec<u64>,
}

impl BatchWeights for CscWeights {
    type Plan = CscPlan;

    /// Interleaved so each sparse row update touches one contiguous
    /// `R`-lane group (see the trait docs).
    const INTERLEAVED: bool = true;

    fn batch_plan(&self) -> CscPlan {
        CscPlan::default()
    }

    /// One replica delegates to [`InputWeights::accumulate_words`]. Two or
    /// more stage each column's replica activity as 0/1 selectors, then
    /// walk the column once per 8-replica chunk (selectors held in an
    /// `[f64; 8]`) and once more for the remaining replicas.
    fn accumulate_replicas(&self, plan: &mut CscPlan, states: &[ActivityWords], out: &mut [f64]) {
        let replicas = states.len();
        if let [state] = states {
            // One replica: the interleaved and replica-major layouts
            // coincide and the ascending-column walk is the batched
            // order, so the single-replica kernel is the batched kernel
            // without the block staging and the per-column lane loop.
            return self.accumulate_words(state, out);
        }
        assert_eq!(out.len(), self.rows * replicas);
        for s in states {
            assert_eq!(s.len(), self.cols);
        }
        plan.sel.resize(replicas, 0.0);
        plan.words.clear();
        out.fill(0.0);
        // Shared passes over the sparse structure: each (row index, value)
        // pair is loaded once per 8-replica chunk per step and applied to
        // the whole chunk, instead of being re-read once per replica. The
        // output is neuron-major interleaved, so a chunk's per-row updates
        // are one contiguous, vectorizable lane group; replica activity
        // enters as a 0/1 multiplier rather than a branch or an index list.
        //
        // Bit-exactness of the masked add: `v * 1.0 == v` exactly, and
        // `o += v * 0.0` adds ±0.0, which cannot change `o` — the
        // accumulator never holds −0.0 (it starts at +0.0, and IEEE-754
        // round-to-nearest addition only produces −0.0 from two negative
        // zeros), and `x + ±0.0 == x` for every other x. So silent
        // replicas' lanes are bit-identical to never being touched, which
        // keeps the batched kernel bit-for-bit equal to per-replica
        // `accumulate_words` in ascending column order. This needs every
        // `v` finite (`inf · 0.0 = NaN` would poison silent lanes) —
        // a `CscWeights` construction invariant, asserted there.
        //
        // Columns are visited in 64-wide word blocks: the replicas'
        // current state words are staged once per block, then each
        // column's activity is a shift-and-mask — no per-(column, replica)
        // bounds-checked bit lookups.
        for (block, base) in (0..self.cols).step_by(64).enumerate() {
            plan.words.clear();
            plan.words.extend(states.iter().map(|s| s.words()[block]));
            let cols_in_block = 64.min(self.cols - base);
            for bit in 0..cols_in_block {
                let mut any = 0u64;
                for (sel, &w) in plan.sel.iter_mut().zip(plan.words.iter()) {
                    let on = (w >> bit) & 1;
                    *sel = on as f64;
                    any |= on;
                }
                if any == 0 {
                    continue;
                }
                let alpha = base + bit;
                let range = self.col_ptr[alpha]..self.col_ptr[alpha + 1];
                let entries = || {
                    self.row_idx[range.clone()]
                        .iter()
                        .zip(&self.values[range.clone()])
                };
                // Fixed-width lanes compile to straight-line vector
                // updates. Every (row, replica) lane still adds its columns
                // in ascending order.
                let (sel8, sel_rest) = plan.sel.as_chunks::<8>();
                for (chunk, &sel) in sel8.iter().enumerate() {
                    let first = 8 * chunk;
                    for (&row, &v) in entries() {
                        let start = row as usize * replicas + first;
                        let lane: &mut [f64; 8] = (&mut out[start..start + 8])
                            .try_into()
                            .expect("an 8-lane chunk");
                        for (o, &s) in lane.iter_mut().zip(&sel) {
                            *o += v * s;
                        }
                    }
                }
                if !sel_rest.is_empty() {
                    let first = 8 * sel8.len();
                    for (&row, &v) in entries() {
                        let start = row as usize * replicas + first;
                        let lane = &mut out[start..start + sel_rest.len()];
                        for (o, &s) in lane.iter_mut().zip(sel_rest) {
                            *o += v * s;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snc_graph::generators::structured::{complete, cycle};

    #[test]
    fn dense_accumulate_matches_matvec() {
        let m = DMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let w = DenseWeights::from_matrix_scaled(&m, 1.0);
        assert_eq!(w.neurons(), 2);
        assert_eq!(w.devices(), 3);
        let mut out = vec![0.0; 2];
        w.accumulate_active(&[true, false, true], &mut out);
        assert_eq!(out, vec![4.0, 10.0]);
        w.accumulate_active(&[false, false, false], &mut out);
        assert_eq!(out, vec![0.0, 0.0]);
    }

    #[test]
    fn dense_scaling_and_access() {
        let m = DMatrix::from_rows(&[&[1.0, -1.0]]);
        let w = DenseWeights::from_matrix_scaled(&m, 2.5);
        assert_eq!(w.get(0, 0), 2.5);
        assert_eq!(w.get(0, 1), -2.5);
        assert_eq!(w.row_sums(), vec![0.0]);
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
            assert_eq!(w.nnz(), 2 * g.m() + g.n());
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
        let g = cycle(6);
        let w = CscWeights::trevisan(&g, 1.0);
        let dense = w.to_dense();
        let active = [true, false, true, true, false, true];
        let x: Vec<f64> = active.iter().map(|&b| b as u8 as f64).collect();
        let mut out = vec![0.0; 6];
        w.accumulate_active(&active, &mut out);
        let reference = dense.matvec(&x);
        for (a, b) in out.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-14);
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
        assert_eq!(w.row_sums(), vec![1.0, 3.0]);
    }

    #[test]
    fn packed_kernel_matches_bool_kernel() {
        // Packed word-scan accumulation is bit-for-bit equal to the
        // boolean path, dense and CSC, across activity patterns.
        let g = cycle(9);
        let csc = CscWeights::trevisan(&g, 0.7);
        let m = DMatrix::from_fn(9, 5, |i, a| (i as f64 - 3.0) * 0.31 + a as f64 * 0.17);
        let dense = DenseWeights::from_matrix_scaled(&m, 1.0);
        let mut out_bool = vec![0.0; 9];
        let mut out_packed = vec![0.0; 9];
        for pattern in 0u32..32 {
            let active9: Vec<bool> = (0..9).map(|i| (pattern >> (i % 5)) & 1 == 1).collect();
            csc.accumulate_active(&active9, &mut out_bool);
            csc.accumulate_words(&ActivityWords::from_bools(&active9), &mut out_packed);
            assert_eq!(out_bool, out_packed, "csc pattern {pattern}");
            let active5: Vec<bool> = (0..5).map(|a| (pattern >> a) & 1 == 1).collect();
            dense.accumulate_active(&active5, &mut out_bool);
            dense.accumulate_words(&ActivityWords::from_bools(&active5), &mut out_packed);
            assert_eq!(out_bool, out_packed, "dense pattern {pattern}");
        }
    }

    fn batch_matches_sequential<W: BatchWeights>(w: &W, states: &[ActivityWords]) {
        let n = w.neurons();
        let replicas = states.len();
        let mut plan = w.batch_plan();
        let mut batched = vec![0.0; n * replicas];
        w.accumulate_replicas(&mut plan, states, &mut batched);
        let mut single = vec![0.0; n];
        for (r, s) in states.iter().enumerate() {
            w.accumulate_words(s, &mut single);
            for i in 0..n {
                let k = if W::INTERLEAVED {
                    i * replicas + r
                } else {
                    r * n + i
                };
                assert_eq!(
                    single[i].to_bits(),
                    batched[k].to_bits(),
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

    #[test]
    fn csc_batch_is_bit_exact() {
        for g in [cycle(12), complete(6)] {
            let w = CscWeights::trevisan(&g, 0.9);
            // R = 1 takes the single-replica kernel; 3 is all remainder
            // lanes, 8 one full chunk, 11 a chunk plus a remainder.
            for replicas in [1, 3, 8, 11] {
                for salt in 0..4 {
                    batch_matches_sequential(&w, &replica_states(g.n(), replicas, salt));
                }
            }
        }
    }

    #[test]
    fn row_sums_agree_between_layouts() {
        let g = cycle(8);
        let csc = CscWeights::trevisan(&g, 1.0);
        let dense_m = g.trevisan_dense();
        let dense = DenseWeights::from_matrix_scaled(&dense_m, 1.0);
        let a = csc.row_sums();
        let b = dense.row_sums();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }
}
