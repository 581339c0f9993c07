//! Error types for graph construction and IO.

use std::fmt;

/// Errors from graph construction, generation, and file IO.
#[derive(Debug)]
pub enum GraphError {
    /// An edge referenced a vertex `>= n`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: u32,
        /// The number of vertices in the graph.
        n: usize,
    },
    /// A generator was called with inconsistent parameters.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Constraint that was violated.
        constraint: String,
    },
    /// A requested edge count cannot be realized on `n` vertices.
    InfeasibleEdgeCount {
        /// Requested number of edges.
        requested: usize,
        /// Maximum possible number of edges (`n·(n−1)/2`).
        max: usize,
    },
    /// A parse error in a graph file.
    Parse {
        /// Line number (1-based) where parsing failed.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// An underlying IO failure.
    Io(std::io::Error),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(
                    f,
                    "vertex {vertex} out of range for graph with {n} vertices"
                )
            }
            GraphError::InvalidParameter { name, constraint } => {
                write!(f, "invalid parameter `{name}`: {constraint}")
            }
            GraphError::InfeasibleEdgeCount { requested, max } => {
                write!(f, "cannot place {requested} edges (maximum is {max})")
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = GraphError::VertexOutOfRange { vertex: 9, n: 5 };
        assert!(e.to_string().contains("vertex 9"));
        let e = GraphError::Parse {
            line: 3,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("line 3"));
        let e = GraphError::InfeasibleEdgeCount {
            requested: 100,
            max: 10,
        };
        assert!(e.to_string().contains("100"));
    }
}
