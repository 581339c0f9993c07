//! Plain edge-list format.
//!
//! One `u v` pair per line, whitespace separated; lines starting with `#`
//! or `%` are comments. Vertex ids may be 0- or 1-based; the parser infers
//! the vertex count from the maximum id and never renumbers, except that a
//! file whose minimum id is 1 is treated as 1-based and shifted down.

use crate::csr::Graph;
use crate::error::GraphError;
use std::fmt::Write as _;

/// The raw content of an edge-list file: id pairs as written, before
/// any graph is built.
///
/// Produced by [`scan`]; lets callers bound-check [`RawEdgeList::n`]
/// (e.g. a server admitting request bodies) *before* committing to the
/// CSR allocation that [`RawEdgeList::into_graph`] performs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawEdgeList {
    /// Edge id pairs in file order, unshifted.
    pub edges: Vec<(u64, u64)>,
    /// Vertex count pinned by an `# snc edge list:` header, if present.
    pub declared_n: Option<usize>,
    /// Smallest id referenced (`u64::MAX` when there are no edges).
    pub min_id: u64,
    /// Largest id referenced (0 when there are no edges).
    pub max_id: u64,
}

impl RawEdgeList {
    /// The 0/1-based indexing shift [`into_graph`](Self::into_graph)
    /// will apply: a declared header pins 0-based ids; otherwise files
    /// whose minimum id is 1 are treated as 1-based and shifted down.
    fn shift(&self) -> u64 {
        match self.declared_n {
            Some(_) => 0,
            None => u64::from(self.min_id >= 1),
        }
    }

    /// The vertex count the graph will have (before any allocation).
    pub fn n(&self) -> usize {
        if self.edges.is_empty() {
            return self.declared_n.unwrap_or(0);
        }
        self.declared_n
            .unwrap_or((self.max_id - self.shift()).saturating_add(1) as usize)
    }

    /// Builds the CSR graph (this is where allocation happens).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Parse`] for ids exceeding `u32` and
    /// propagates CSR construction errors.
    pub fn into_graph(self) -> Result<Graph, GraphError> {
        if self.edges.is_empty() {
            return Graph::from_edges(self.declared_n.unwrap_or(0), &[]);
        }
        let shift = self.shift();
        assemble(&self.edges, self.declared_n, shift, self.max_id)
    }
}

/// Parses an edge list from a string.
///
/// Files written by [`to_string`] carry a `# snc edge list: n=.. m=..`
/// header that pins the vertex count and 0-based indexing, making the
/// round trip exact even with isolated or unused low vertices. Foreign
/// files fall back to the 0/1-based inference heuristic.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] on malformed lines.
pub fn parse(content: &str) -> Result<Graph, GraphError> {
    scan(content)?.into_graph()
}

/// Tokenizes an edge-list file without building a graph — the
/// allocation-free front half of [`parse`].
///
/// # Errors
///
/// Returns [`GraphError::Parse`] on malformed lines.
pub fn scan(content: &str) -> Result<RawEdgeList, GraphError> {
    let mut edges: Vec<(u64, u64)> = Vec::new();
    let mut min_id = u64::MAX;
    let mut max_id = 0u64;
    let mut declared_n: Option<usize> = None;
    for (lineno, line) in content.lines().enumerate() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("# snc edge list:") {
            for token in rest.split_whitespace() {
                if let Some(n) = token.strip_prefix("n=") {
                    declared_n = n.parse().ok();
                }
            }
            continue;
        }
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let u: u64 = it
            .next()
            .ok_or_else(|| parse_err(lineno, "missing first endpoint"))?
            .parse()
            .map_err(|_| parse_err(lineno, "first endpoint is not an integer"))?;
        let v: u64 = it
            .next()
            .ok_or_else(|| parse_err(lineno, "missing second endpoint"))?
            .parse()
            .map_err(|_| parse_err(lineno, "second endpoint is not an integer"))?;
        // Extra columns (weights, timestamps) are ignored.
        min_id = min_id.min(u.min(v));
        max_id = max_id.max(u.max(v));
        edges.push((u, v));
    }
    Ok(RawEdgeList {
        edges,
        declared_n,
        min_id,
        max_id,
    })
}

/// Builds a graph from 0-based `(u, v)` id pairs, the form solve-request
/// bodies carry edges in (a JSON `[[u, v], …]` array). Unlike [`parse`],
/// no 1-based inference is applied: ids are taken as written. `declared_n`
/// pins the vertex count (allowing trailing isolated vertices); without
/// it the count is `max id + 1`.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] for ids that exceed `u32`, and
/// [`GraphError::VertexOutOfRange`] when a pair references a vertex
/// `≥ declared_n`.
pub fn from_pairs(pairs: &[(u64, u64)], declared_n: Option<usize>) -> Result<Graph, GraphError> {
    if pairs.is_empty() {
        return Graph::from_edges(declared_n.unwrap_or(0), &[]);
    }
    let max_id = pairs.iter().map(|&(u, v)| u.max(v)).max().unwrap_or(0);
    assemble(pairs, declared_n, 0, max_id)
}

/// Shared tail of [`parse`] and [`from_pairs`]: shift ids, bound-check
/// them against `u32`, and hand the edge list to the CSR builder.
fn assemble(
    edges: &[(u64, u64)],
    declared_n: Option<usize>,
    shift: u64,
    max_id: u64,
) -> Result<Graph, GraphError> {
    if max_id - shift > u64::from(u32::MAX) {
        return Err(GraphError::Parse {
            line: 0,
            message: format!("vertex id {max_id} exceeds the supported range (u32)"),
        });
    }
    let n = declared_n.unwrap_or((max_id - shift + 1) as usize);
    let shifted: Vec<(u32, u32)> = edges
        .iter()
        .map(|&(u, v)| ((u - shift) as u32, (v - shift) as u32))
        .collect();
    Graph::from_edges(n, &shifted)
}

/// Serializes a graph as a 0-based edge list with a header comment.
pub fn to_string(g: &Graph) -> String {
    let mut out = String::with_capacity(16 * g.m() + 64);
    // The header makes the round trip exact: it declares the vertex count
    // and marks the ids as 0-based (see `parse`).
    let _ = writeln!(out, "# snc edge list: n={} m={}", g.n(), g.m());
    for (u, v) in g.edges() {
        let _ = writeln!(out, "{u} {v}");
    }
    out
}

fn parse_err(lineno: usize, message: &str) -> GraphError {
    GraphError::Parse {
        line: lineno + 1,
        message: message.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_zero_based() {
        let g = parse("0 1\n1 2\n").unwrap();
        assert_eq!((g.n(), g.m()), (3, 2));
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn parses_one_based_with_shift() {
        let g = parse("1 2\n2 3\n").unwrap();
        assert_eq!((g.n(), g.m()), (3, 2));
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn comments_and_blank_lines() {
        let g = parse("# header\n% other comment\n\n0 1\n").unwrap();
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn extra_columns_ignored() {
        let g = parse("0 1 3.5\n1 2 0.1 extra\n").unwrap();
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn malformed_lines_error_with_line_number() {
        match parse("0 1\nbogus\n") {
            Err(GraphError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(parse("0\n").is_err());
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let g = parse("# nothing\n").unwrap();
        assert_eq!((g.n(), g.m()), (0, 0));
    }

    #[test]
    fn roundtrip() {
        let g = crate::generators::structured::grid2d(3, 3);
        let s = to_string(&g);
        let g2 = parse(&s).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn header_pins_indexing_and_isolated_vertices() {
        // Vertex 0 isolated, only edge (1,2): without the header this would
        // be misread as a 1-based file and shifted to (0,1).
        let g = Graph::from_edges(4, &[(1, 2)]).unwrap();
        let g2 = parse(&to_string(&g)).unwrap();
        assert_eq!(g, g2);
        assert_eq!(g2.n(), 4);
        assert!(g2.has_edge(1, 2));
        assert!(!g2.has_edge(0, 1));
    }

    #[test]
    fn scan_reports_n_without_building() {
        // Bound checks can run before the CSR allocation: one tiny line
        // naming a huge id reports the would-be n without allocating.
        let raw = scan("0 4294967294\n").unwrap();
        assert_eq!(raw.n(), 4_294_967_295);
        assert_eq!(raw.edges, vec![(0, 4294967294)]);
        // Header-pinned n is reported as declared.
        let raw = scan("# snc edge list: n=7 m=1\n1 2\n").unwrap();
        assert_eq!(raw.n(), 7);
        // 1-based inference matches what into_graph/parse build.
        let raw = scan("1 2\n2 3\n").unwrap();
        assert_eq!(raw.n(), 3);
        assert_eq!(
            raw.clone().into_graph().unwrap(),
            parse("1 2\n2 3\n").unwrap()
        );
        // Empty content.
        assert_eq!(scan("# c\n").unwrap().n(), 0);
    }

    #[test]
    fn from_pairs_is_zero_based_with_inferred_n() {
        // No 1-based inference: a minimum id of 1 leaves vertex 0 isolated.
        let g = from_pairs(&[(1, 2), (2, 3)], None).unwrap();
        assert_eq!((g.n(), g.m()), (4, 2));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn from_pairs_declared_n_allows_isolated_tail() {
        let g = from_pairs(&[(0, 1)], Some(5)).unwrap();
        assert_eq!((g.n(), g.m()), (5, 1));
        // Declared n still bound-checks.
        match from_pairs(&[(0, 7)], Some(3)) {
            Err(GraphError::VertexOutOfRange { vertex: 7, .. }) => {}
            other => panic!("expected out-of-range, got {other:?}"),
        }
    }

    #[test]
    fn from_pairs_rejects_oversized_ids_and_accepts_empty() {
        assert!(from_pairs(&[(0, u64::from(u32::MAX) + 1)], None).is_err());
        let g = from_pairs(&[], Some(3)).unwrap();
        assert_eq!((g.n(), g.m()), (3, 0));
        let g = from_pairs(&[], None).unwrap();
        assert_eq!((g.n(), g.m()), (0, 0));
    }

    #[test]
    fn header_with_zero_edges() {
        let g = Graph::empty(5);
        let g2 = parse(&to_string(&g)).unwrap();
        assert_eq!(g2.n(), 5);
        assert_eq!(g2.m(), 0);
    }
}
