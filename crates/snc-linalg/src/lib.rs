//! Dense linear algebra substrate for the MAXCUT reproduction.
//!
//! The paper needs three pieces of numerical machinery:
//!
//! 1. **Goemans–Williamson SDP** (§II.A): solved here with a low-rank
//!    Burer–Monteiro factorization optimized by Riemannian projected
//!    gradient descent on a product of unit spheres ([`sdp`]). This plays
//!    the role of the generic PyManOpt solver in the paper, which optimizes
//!    the same manifold formulation. The rank is fixed (4 in the paper).
//! 2. **Minimum eigenvector of the Trevisan matrix** (§II.B): extreme
//!    eigenpairs via Lanczos with full reorthogonalization ([`eigen`]),
//!    a power-iteration spectral-norm bound for its shift, and dense
//!    Jacobi for testing and small systems.
//! 3. **Gaussian sampling with prescribed covariance** (§II.A, the
//!    Bertsimas–Ye rounding): [`gaussian`] provides a polar Box–Muller
//!    sampler and factor-based correlated sampling `x = W·g`.
//!
//! [`detmath`] holds elementary functions whose bits do not depend on the
//! platform libm or the CPU: the `tanh` Hopfield's activation runs on.
//!
//! All matrix storage is plain `Vec<f64>` row-major; operations follow the
//! HPC guidance of the workspace (preallocate, write into caller buffers in
//! hot paths, iterate rather than index).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cholesky;
pub mod dense;
pub mod detmath;
pub mod eigen;
pub mod error;
pub mod gaussian;
pub mod sdp;
pub mod vector;

pub use cholesky::Cholesky;
pub use dense::DMatrix;
pub use eigen::{EigenPair, LinOp, Which};
pub use error::LinalgError;
pub use gaussian::GaussianSampler;
pub use sdp::{solve_maxcut_sdp, SdpConfig, SdpSolution};
