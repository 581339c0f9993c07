//! Error types for linear-algebra operations.

use std::fmt;

/// Errors from decomposition, eigensolver, and SDP routines.
#[derive(Clone, Debug, PartialEq)]
pub enum LinalgError {
    /// Operand shapes are incompatible.
    DimensionMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Expected dimension.
        expected: usize,
        /// Actual dimension.
        actual: usize,
    },
    /// A matrix required to be positive definite was not.
    NotPositiveDefinite {
        /// Index of the first failing pivot.
        pivot: usize,
    },
    /// An iterative method did not reach the requested tolerance.
    NotConverged {
        /// Name of the method.
        method: &'static str,
        /// Iterations performed.
        iterations: usize,
        /// Residual at termination.
        residual: f64,
    },
    /// An argument was invalid (zero rank, empty matrix, …).
    InvalidArgument(&'static str),
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch {
                op,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "{op}: dimension mismatch (expected {expected}, got {actual})"
                )
            }
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            LinalgError::NotConverged {
                method,
                iterations,
                residual,
            } => {
                write!(f, "{method} did not converge after {iterations} iterations (residual {residual:.3e})")
            }
            LinalgError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = LinalgError::NotConverged {
            method: "lanczos",
            iterations: 10,
            residual: 1e-3,
        };
        let s = e.to_string();
        assert!(s.contains("lanczos") && s.contains("10"));
        assert!(LinalgError::NotPositiveDefinite { pivot: 2 }
            .to_string()
            .contains("pivot 2"));
    }
}
