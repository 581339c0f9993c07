//! MatrixMarket coordinate format (`.mtx`) — the distribution format of the
//! Network Repository \[26\], from which the paper's empirical graphs come.
//!
//! Supported header variants: `matrix coordinate {pattern|real|integer}
//! {symmetric|general}`. Entry values (for real/integer) are ignored: the
//! paper evaluates all graphs as unweighted. Diagonal entries are dropped.

use crate::csr::Graph;
use crate::error::GraphError;
use std::fmt::Write as _;

/// Parses a MatrixMarket coordinate file into an undirected graph.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] for malformed headers, non-square sizes,
/// or out-of-range entries.
pub fn parse(content: &str) -> Result<Graph, GraphError> {
    let mut lines = content.lines().enumerate();

    // Header line.
    let (_, header) = lines.next().ok_or_else(|| err(0, "empty file"))?;
    let header_l = header.to_ascii_lowercase();
    if !header_l.starts_with("%%matrixmarket") {
        return Err(err(0, "missing %%MatrixMarket header"));
    }
    if !header_l.contains("matrix") || !header_l.contains("coordinate") {
        return Err(err(0, "only `matrix coordinate` files are supported"));
    }
    if header_l.contains("complex") || header_l.contains("hermitian") {
        return Err(err(0, "complex matrices are not graphs"));
    }

    // Size line: first non-comment line.
    let mut size: Option<(usize, usize, usize)> = None;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (lineno, line) in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        match size {
            None => {
                let r: usize = next_int(&mut it, lineno, "rows")?;
                let c: usize = next_int(&mut it, lineno, "cols")?;
                let nnz: usize = next_int(&mut it, lineno, "nnz")?;
                if r != c {
                    return Err(err(
                        lineno,
                        &format!("adjacency matrix must be square, got {r}x{c}"),
                    ));
                }
                edges.reserve(nnz);
                size = Some((r, c, nnz));
            }
            Some((r, _, _)) => {
                let i: usize = next_int(&mut it, lineno, "row index")?;
                let j: usize = next_int(&mut it, lineno, "col index")?;
                if i == 0 || j == 0 || i > r || j > r {
                    return Err(err(
                        lineno,
                        "entry index out of range (MatrixMarket is 1-based)",
                    ));
                }
                if i != j {
                    edges.push(((i - 1) as u32, (j - 1) as u32));
                }
            }
        }
    }
    let (n, _, _) = size.ok_or_else(|| err(0, "missing size line"))?;
    Graph::from_edges(n, &edges)
}

/// Serializes a graph as a symmetric-pattern MatrixMarket file.
pub fn to_string(g: &Graph) -> String {
    let mut out = String::with_capacity(16 * g.m() + 128);
    let _ = writeln!(out, "%%MatrixMarket matrix coordinate pattern symmetric");
    let _ = writeln!(out, "% generated by snc-graph");
    let _ = writeln!(out, "{} {} {}", g.n(), g.n(), g.m());
    // Symmetric storage: lower triangle (row >= col), 1-based.
    for (u, v) in g.edges() {
        let _ = writeln!(out, "{} {}", v + 1, u + 1);
    }
    out
}

fn next_int<'a>(
    it: &mut impl Iterator<Item = &'a str>,
    lineno: usize,
    what: &str,
) -> Result<usize, GraphError> {
    it.next()
        .ok_or_else(|| err(lineno, &format!("missing {what}")))?
        .parse()
        .map_err(|_| err(lineno, &format!("{what} is not an integer")))
}

fn err(lineno: usize, message: &str) -> GraphError {
    GraphError::Parse {
        line: lineno + 1,
        message: message.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pattern_symmetric() {
        let s = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n";
        let g = parse(s).unwrap();
        assert_eq!((g.n(), g.m()), (3, 2));
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn parses_weighted_ignoring_values() {
        let s = "%%MatrixMarket matrix coordinate real symmetric\n% comment\n2 2 1\n2 1 3.75\n";
        let g = parse(s).unwrap();
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn drops_diagonal() {
        let s = "%%MatrixMarket matrix coordinate pattern general\n2 2 3\n1 1\n1 2\n2 1\n";
        let g = parse(s).unwrap();
        assert_eq!(g.m(), 1); // self-loop dropped, duplicate collapsed
    }

    #[test]
    fn error_cases() {
        assert!(parse("").is_err());
        assert!(parse("not a header\n2 2 0\n").is_err());
        assert!(parse("%%MatrixMarket matrix coordinate pattern symmetric\n2 3 0\n").is_err());
        assert!(parse("%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n0 1\n").is_err());
        assert!(parse("%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n5 1\n").is_err());
        assert!(parse("%%MatrixMarket matrix coordinate complex general\n2 2 0\n").is_err());
    }

    #[test]
    fn preserves_isolated_vertices_and_roundtrips() {
        let g = Graph::from_edges(6, &[(0, 1), (2, 3)]).unwrap();
        let g2 = parse(&to_string(&g)).unwrap();
        assert_eq!(g, g2);
        assert_eq!(g2.n(), 6);
    }
}
