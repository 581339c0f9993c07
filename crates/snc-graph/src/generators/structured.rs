//! Classic structured graphs with known maximum cuts.
//!
//! These are primarily test fixtures: bipartite families have `OPT = m`,
//! odd cycles have `OPT = m − 1`, complete graphs have
//! `OPT = ⌊n/2⌋·⌈n/2⌉` — exact values against which every solver in the
//! workspace is validated.

use crate::csr::Graph;

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut edges = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for u in 0..n as u32 {
        for v in u + 1..n as u32 {
            edges.push((u, v));
        }
    }
    Graph::from_edges(n, &edges).expect("complete graph construction is infallible")
}

/// The complete bipartite graph `K_{a,b}` (parts `0..a` and `a..a+b`).
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut edges = Vec::with_capacity(a * b);
    for u in 0..a as u32 {
        for v in 0..b as u32 {
            edges.push((u, a as u32 + v));
        }
    }
    Graph::from_edges(a + b, &edges).expect("bipartite construction is infallible")
}

/// The cycle `C_n` (empty for `n < 3`).
pub fn cycle(n: usize) -> Graph {
    if n < 3 {
        return Graph::empty(n);
    }
    let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
    Graph::from_edges(n, &edges).expect("cycle construction is infallible")
}

/// The path `P_n` with `n − 1` edges.
pub fn path(n: usize) -> Graph {
    let edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (i - 1, i)).collect();
    Graph::from_edges(n, &edges).expect("path construction is infallible")
}

/// The star `S_n`: center vertex 0 connected to `n − 1` leaves.
#[cfg(test)]
pub fn star(n: usize) -> Graph {
    let edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (0, i)).collect();
    Graph::from_edges(n, &edges).expect("star construction is infallible")
}

/// The `w × h` grid graph (vertices in row-major order).
#[cfg(test)]
pub fn grid2d(w: usize, h: usize) -> Graph {
    let mut edges = Vec::with_capacity(2 * w * h);
    let idx = |x: usize, y: usize| (y * w + x) as u32;
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                edges.push((idx(x, y), idx(x + 1, y)));
            }
            if y + 1 < h {
                edges.push((idx(x, y), idx(x, y + 1)));
            }
        }
    }
    Graph::from_edges(w * h, &edges).expect("grid construction is infallible")
}

/// The Petersen graph (10 vertices, 15 edges, 3-regular; `OPT = 12`).
pub fn petersen() -> Graph {
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(15);
    // Outer 5-cycle, inner 5-cycle with step 2, and spokes.
    for i in 0..5u32 {
        edges.push((i, (i + 1) % 5));
        edges.push((5 + i, 5 + (i + 2) % 5));
        edges.push((i, 5 + i));
    }
    Graph::from_edges(10, &edges).expect("petersen construction is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_counts() {
        let g = complete(6);
        assert_eq!((g.n(), g.m()), (6, 15));
        assert_eq!(g.max_degree(), 5);
        assert_eq!(complete(1).m(), 0);
        assert_eq!(complete(0).n(), 0);
    }

    #[test]
    fn bipartite_counts_and_structure() {
        let g = complete_bipartite(3, 4);
        assert_eq!((g.n(), g.m()), (7, 12));
        // No edge within either part.
        for u in 0..3 {
            for v in 0..3 {
                assert!(!g.has_edge(u, v));
            }
        }
        assert!(g.has_edge(0, 3));
    }

    #[test]
    fn cycles_and_paths() {
        assert_eq!(cycle(5).m(), 5);
        assert_eq!(cycle(2).m(), 0);
        assert_eq!(path(5).m(), 4);
        assert_eq!(path(1).m(), 0);
        assert_eq!(star(6).m(), 5);
        assert_eq!(star(6).degree(0), 5);
    }

    #[test]
    fn grid_counts() {
        // m = w(h−1) + h(w−1).
        let g = grid2d(3, 4);
        assert_eq!((g.n(), g.m()), (12, 3 * 3 + 4 * 2));
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 3));
        assert!(!g.has_edge(2, 3)); // row wrap must not exist
    }

    #[test]
    fn petersen_is_3_regular() {
        let g = petersen();
        assert_eq!((g.n(), g.m()), (10, 15));
        for i in 0..10 {
            assert_eq!(g.degree(i), 3);
        }
        // Girth 5: no triangles.
        for (u, v) in g.edges() {
            for &w in g.neighbors(u as usize) {
                if w != v {
                    assert!(!g.has_edge(w as usize, v as usize));
                }
            }
        }
    }
}
