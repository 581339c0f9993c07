//! Graph substrate for the MAXCUT reproduction.
//!
//! Provides everything the paper's evaluation needs from graphs:
//!
//! * [`csr`] — one compact CSR representation of simple undirected graphs,
//!   generic over the edge weight: [`Graph`] (unit weights, exact `u64`
//!   cuts) and [`WeightedGraph`] (`f64` weights, two of the Table-I
//!   networks are weighted), plus matrix-free symmetric operators
//!   (normalized adjacency and the Trevisan matrix
//!   `I + D^{-1/2} A D^{-1/2}`) implementing `snc_linalg::LinOp`.
//! * [`cut`] — cut assignments (`±1` vertex labels), cut values, and
//!   incremental flip deltas.
//! * [`incremental`] — [`CutTracker`], a cut value maintained across
//!   flips and whole-assignment moves.
//! * [`bitslice`] — exact cut values of 64 cuts at once, from one pass
//!   over the edges.
//! * [`fingerprint`] — canonical order-independent 128-bit graph hashes,
//!   the cache keys of the solve/serving layers (always paired with a
//!   full-key comparison by consumers).
//! * [`generators`] — Erdős–Rényi (the Figure-3 workload), Chung–Lu,
//!   Watts–Strogatz, preferential attachment, random geometric, banded-mesh
//!   and classic structured graphs, along with *exact* reconstructions of
//!   the combinatorial DIMACS instances `hamming6-2` and `johnson16-2-4`.
//! * [`io`] — edge-list, DIMACS, and MatrixMarket readers/writers, so the
//!   original Network Repository files can be dropped in when available.
//! * [`datasets`] — the 16 empirical graphs of Figure 4 / Table I, as exact
//!   reconstructions or structure-matched synthetic stand-ins (see
//!   DESIGN.md, "Substitutions").
//! * [`stats`] — degree statistics, connectivity, clustering, used to
//!   sanity-check the stand-ins.
//! * [`weighted`] — random edge weights for the weighted stand-ins.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitslice;
pub mod csr;
pub mod cut;
pub mod datasets;
pub mod error;
pub mod fingerprint;
pub mod generators;
pub mod incremental;
pub mod io;
pub mod stats;
pub mod weighted;

pub use csr::{Csr, EdgeWeight, Graph, NormalizedAdjacency, TrevisanOperator, Unit, WeightedGraph};
pub use cut::CutAssignment;
pub use datasets::EmpiricalDataset;
pub use error::GraphError;
pub use fingerprint::GraphFingerprint;
pub use incremental::CutTracker;
