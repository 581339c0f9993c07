//! DIMACS `p edge` format (the format of the `hamming` / `johnson` / `p-hat`
//! clique-benchmark instances referenced by Table I).
//!
//! ```text
//! c comment
//! p edge <n> <m>
//! e <u> <v>        (1-based)
//! ```

use crate::csr::Graph;
use crate::error::GraphError;
use std::fmt::Write as _;

/// Parses a DIMACS graph.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] on malformed content, including a missing
/// problem line or edges before it.
pub fn parse(content: &str) -> Result<Graph, GraphError> {
    let mut n: Option<usize> = None;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (lineno, line) in content.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('p') {
            let mut it = rest.split_whitespace();
            let kind = it
                .next()
                .ok_or_else(|| err(lineno, "missing problem kind"))?;
            if kind != "edge" && kind != "col" {
                return Err(err(lineno, &format!("unsupported problem kind `{kind}`")));
            }
            let nv: usize = it
                .next()
                .ok_or_else(|| err(lineno, "missing vertex count"))?
                .parse()
                .map_err(|_| err(lineno, "vertex count is not an integer"))?;
            let me: usize = it
                .next()
                .ok_or_else(|| err(lineno, "missing edge count"))?
                .parse()
                .map_err(|_| err(lineno, "edge count is not an integer"))?;
            edges.reserve(me);
            n = Some(nv);
        } else if let Some(rest) = line.strip_prefix('e') {
            if n.is_none() {
                return Err(err(lineno, "edge line before problem line"));
            }
            let mut it = rest.split_whitespace();
            let u: u32 = it
                .next()
                .ok_or_else(|| err(lineno, "missing endpoint"))?
                .parse()
                .map_err(|_| err(lineno, "endpoint is not an integer"))?;
            let v: u32 = it
                .next()
                .ok_or_else(|| err(lineno, "missing endpoint"))?
                .parse()
                .map_err(|_| err(lineno, "endpoint is not an integer"))?;
            if u == 0 || v == 0 {
                return Err(err(lineno, "DIMACS vertices are 1-based"));
            }
            edges.push((u - 1, v - 1));
        } else {
            return Err(err(lineno, &format!("unrecognized line `{line}`")));
        }
    }
    let n = n.ok_or_else(|| err(0, "missing problem line"))?;
    Graph::from_edges(n, &edges)
}

/// Serializes a graph in DIMACS `p edge` format.
pub fn to_string(g: &Graph) -> String {
    let mut out = String::with_capacity(16 * g.m() + 64);
    let _ = writeln!(out, "c generated by snc-graph");
    let _ = writeln!(out, "p edge {} {}", g.n(), g.m());
    for (u, v) in g.edges() {
        let _ = writeln!(out, "e {} {}", u + 1, v + 1);
    }
    out
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
    fn parses_basic() {
        let g = parse("c hello\np edge 3 2\ne 1 2\ne 2 3\n").unwrap();
        assert_eq!((g.n(), g.m()), (3, 2));
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn preserves_isolated_vertices() {
        let g = parse("p edge 5 1\ne 1 2\n").unwrap();
        assert_eq!(g.n(), 5);
        assert_eq!(g.degree(4), 0);
    }

    #[test]
    fn error_cases() {
        assert!(parse("e 1 2\n").is_err()); // edge before problem line
        assert!(parse("p edge 3 1\ne 0 1\n").is_err()); // 0-based id
        assert!(parse("p matrix 3 1\n").is_err()); // wrong kind
        assert!(parse("p edge 3 1\nx 1 2\n").is_err()); // junk line
        assert!(parse("").is_err()); // no problem line
    }

    #[test]
    fn roundtrip() {
        let g = crate::generators::structured::petersen();
        assert_eq!(parse(&to_string(&g)).unwrap(), g);
    }
}
