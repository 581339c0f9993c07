//! The lane gather both sparse circuits run on.
//!
//! Hopfield's coupling list and LIF-Trevisan's stage-1 weights are square
//! sparse matrices applied to `R` lanes at once. Both lay their rows out
//! once in [`SliceRows`] and read them with [`SliceRows::slice_drive`]:
//! one pass over the rows feeds every lane of a chunk, the crossbar-style
//! read in which one fabric serves every unit. The lanes live in chunks of
//! 1, 2, 4 or [`LANES`] ([`Chunked`]), the narrowest width that holds a
//! circuit's lanes.

/// Rows per slice of the [`SliceRows`] layout.
pub(crate) const SLICE: usize = 4;

/// Lanes per chunk of a circuit with more than four lanes.
pub(crate) const LANES: usize = 8;

/// A square sparse matrix's rows laid out for the lane gather.
///
/// Rows are grouped in slices of four. A slice stores its rows' entry
/// lists side by side, entry `k` of row `l` at `4k + l` from the slice
/// start, padded to the slice's longest row with zero weights that point
/// at the sentinel column `n`, whose value is always `+0.0`. The gather
/// then runs the four rows as independent accumulation chains over one
/// contiguous run of weights and targets.
///
/// Each row still sums its entries in the order they were listed, and the
/// padding only appends `0 · (+0.0) = +0.0` after them. That cannot change
/// the sum: it starts at +0.0, so it never holds −0.0, and adding ±0.0 to
/// any other value leaves it unchanged. The gather is therefore
/// bit-identical to a plain row-by-row (CSR) walk.
///
/// When every weight is exactly `1.0` the layout keeps no weights and the
/// gather adds `x_t` itself (the unit stream): `1.0 · x == x`, and a
/// padding entry adds the sentinel's `+0.0`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct SliceRows {
    pub(crate) n: usize,
    /// Slice `s` occupies `offsets[s]..offsets[s + 1]` of `targets` and
    /// `weights`: `SLICE` rows times the slice's padded width.
    offsets: Vec<usize>,
    targets: Vec<u32>,
    /// Empty for the unit stream.
    pub(crate) weights: Vec<f64>,
}

impl SliceRows {
    /// Lays out the entries `(row, column, weight)` of an `n × n` matrix
    /// that `entries()` yields, each row's entries in the order the row
    /// sums them; rows may interleave. The unit stream is chosen when
    /// every weight is exactly `1.0`.
    ///
    /// # Panics
    ///
    /// Panics if a row or column is out of range.
    pub(crate) fn new<I>(n: usize, entries: impl Fn() -> I) -> Self
    where
        I: Iterator<Item = (u32, u32, f64)>,
    {
        let unit = entries().all(|(_, _, w)| w == 1.0);
        Self::with_stream(n, entries, unit)
    }

    /// [`new`](Self::new) with the stream chosen by the caller; `unit`
    /// requires every weight to be exactly `1.0`.
    pub(crate) fn with_stream<I>(n: usize, entries: impl Fn() -> I, unit: bool) -> Self
    where
        I: Iterator<Item = (u32, u32, f64)>,
    {
        let mut lens = vec![0usize; n];
        for (i, t, w) in entries() {
            assert!(
                (i as usize) < n && (t as usize) < n,
                "entry ({i},{t}) out of range for n={n}"
            );
            debug_assert!(!unit || w == 1.0, "unit stream with weight {w}");
            lens[i as usize] += 1;
        }
        // Slice `s` is `SLICE` rows wide and as long as its longest row.
        let mut offsets = Vec::with_capacity(n.div_ceil(SLICE) + 1);
        offsets.push(0);
        for slice in lens.chunks(SLICE) {
            let width = slice.iter().copied().max().unwrap_or(0);
            offsets.push(offsets[offsets.len() - 1] + SLICE * width);
        }
        let len = offsets[offsets.len() - 1];
        let mut targets = vec![n as u32; len];
        let mut weights = vec![0.0; if unit { 0 } else { len }];
        // Entry `k` of row `i` goes to `4k + i % 4` from its slice start.
        let mut next = vec![0usize; n];
        for (i, t, w) in entries() {
            let i = i as usize;
            let k = offsets[i / SLICE] + SLICE * next[i] + i % SLICE;
            next[i] += 1;
            targets[k] = t;
            if !unit {
                weights[k] = w;
            }
        }
        Self {
            n,
            offsets,
            targets,
            weights,
        }
    }

    /// Number of slices.
    pub(crate) fn slices(&self) -> usize {
        self.n.div_ceil(SLICE)
    }

    /// The rows of slice `s`.
    pub(crate) fn slice_rows(&self, s: usize) -> std::ops::Range<usize> {
        s * SLICE..((s + 1) * SLICE).min(self.n)
    }

    /// Row `i`'s layout entries `(column, weight)` in summation order,
    /// padding included.
    pub(crate) fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (s, l) = (i / SLICE, i % SLICE);
        (self.offsets[s] + l..self.offsets[s + 1])
            .step_by(SLICE)
            .map(|k| {
                let w = if self.weights.is_empty() {
                    1.0
                } else {
                    self.weights[k]
                };
                (self.targets[k] as usize, w)
            })
    }

    /// The drive `Σ_j w_ij x_j` of the (up to) four rows of slice `s`, in
    /// each of `W` lanes; `x` holds `n + 1` columns, the last the sentinel.
    #[inline]
    pub(crate) fn slice_drive<const W: usize>(
        &self,
        s: usize,
        x: &[[f64; W]],
    ) -> [[f64; W]; SLICE] {
        let range = self.offsets[s]..self.offsets[s + 1];
        let targets = self.targets[range.clone()].chunks_exact(SLICE);
        let mut acc = [[0.0f64; W]; SLICE];
        if self.weights.is_empty() {
            for t in targets {
                for l in 0..SLICE {
                    let xt = &x[t[l] as usize];
                    for j in 0..W {
                        acc[l][j] += xt[j];
                    }
                }
            }
        } else {
            for (t, w) in targets.zip(self.weights[range].chunks_exact(SLICE)) {
                for l in 0..SLICE {
                    let xt = &x[t[l] as usize];
                    for j in 0..W {
                        acc[l][j] += w[l] * xt[j];
                    }
                }
            }
        }
        acc
    }
}

/// A circuit's lanes in chunks of the narrowest width that holds them, up
/// to [`LANES`]: one lane runs the scalar kernel, two a pair, three or
/// four a quad, and more run in chunks of eight, the last one padded with
/// phantom lanes. The type parameters are the circuit's chunk type at
/// widths 1, 2, 4 and [`LANES`].
#[derive(Clone, Debug)]
pub(crate) enum Chunked<A, B, C, D> {
    One(Vec<A>),
    Two(Vec<B>),
    Four(Vec<C>),
    Eight(Vec<D>),
}

/// Builds a [`Chunked`] for `$lanes` lanes from `$split::<W>($args)`, a
/// function generic over the chunk width that returns the chunks.
macro_rules! chunked {
    ($lanes:expr, $split:ident($($arg:expr),* $(,)?)) => {
        match $lanes {
            1 => $crate::gather::Chunked::One($split::<1>($($arg),*)),
            2 => $crate::gather::Chunked::Two($split::<2>($($arg),*)),
            3 | 4 => $crate::gather::Chunked::Four($split::<4>($($arg),*)),
            _ => $crate::gather::Chunked::Eight($split::<{ $crate::gather::LANES }>($($arg),*)),
        }
    };
}

/// Evaluates `$body` with `$chunks` bound to a [`Chunked`]'s chunk slice,
/// whatever its width.
macro_rules! with_chunks {
    ($net:expr, $chunks:ident => $body:expr) => {
        match $net {
            $crate::gather::Chunked::One($chunks) => $body,
            $crate::gather::Chunked::Two($chunks) => $body,
            $crate::gather::Chunked::Four($chunks) => $body,
            $crate::gather::Chunked::Eight($chunks) => $body,
        }
    };
}

pub(crate) use {chunked, with_chunks};
