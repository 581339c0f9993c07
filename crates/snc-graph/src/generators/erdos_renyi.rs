//! Erdős–Rényi random graphs.
//!
//! `G(n, p)` is the workload of the paper's Figure 3: n ∈ {50, 100, 200,
//! 350, 500}, p ∈ {0.1, 0.25, 0.5, 0.75}, ten graphs per combination.
//! Generation uses the Batagelj–Brandes geometric skipping method, which is
//! `O(n + m)` regardless of density.

use crate::csr::Graph;
use crate::error::GraphError;
use snc_devices::{Rng64, Xoshiro256pp};
use std::collections::HashSet;

/// Checks the edge probability [`gnp`] accepts, without generating
/// anything.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] unless `p ∈ [0, 1]`.
pub fn check_gnp_p(p: f64) -> Result<(), GraphError> {
    if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
        return Err(GraphError::InvalidParameter {
            name: "p",
            constraint: format!("must be in [0, 1], got {p}"),
        });
    }
    Ok(())
}

/// Samples `G(n, p)`: every unordered pair is an edge independently with
/// probability `p`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] unless `p ∈ [0, 1]`.
pub fn gnp(n: usize, p: f64, seed: u64) -> Result<Graph, GraphError> {
    check_gnp_p(p)?;
    if n == 0 || p == 0.0 {
        return Graph::from_edges(n, &[]);
    }
    if p >= 1.0 {
        return Ok(super::structured::complete(n));
    }
    let mut rng = Xoshiro256pp::new(seed);
    let mut edges: Vec<(u32, u32)> =
        Vec::with_capacity((p * (n * (n - 1) / 2) as f64) as usize + 16);
    // Batagelj–Brandes: walk the implicit list of pairs (v, w), w < v, with
    // geometrically distributed skips.
    let lp = (1.0 - p).ln();
    let mut v: i64 = 1;
    let mut w: i64 = -1;
    let n = n as i64;
    while v < n {
        let r = 1.0 - rng.next_f64(); // in (0, 1]
        w += 1 + (r.ln() / lp).floor() as i64;
        while w >= v && v < n {
            w -= v;
            v += 1;
        }
        if v < n {
            edges.push((w as u32, v as u32));
        }
    }
    Graph::from_edges(n as usize, &edges)
}

/// Samples `G(n, m)`: a graph drawn uniformly among those with exactly `m`
/// edges.
///
/// # Errors
///
/// Returns [`GraphError::InfeasibleEdgeCount`] if `m > n·(n−1)/2`.
pub fn gnm(n: usize, m: usize, seed: u64) -> Result<Graph, GraphError> {
    let max = n * n.saturating_sub(1) / 2;
    if m > max {
        return Err(GraphError::InfeasibleEdgeCount { requested: m, max });
    }
    let mut rng = Xoshiro256pp::new(seed);
    let mut chosen: HashSet<(u32, u32)> = HashSet::with_capacity(m * 2);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m);
    if m > max / 2 && max > 0 {
        // Dense regime: sample the complement instead, then invert.
        let excluded_count = max - m;
        let mut excluded: HashSet<(u32, u32)> = HashSet::with_capacity(excluded_count * 2);
        while excluded.len() < excluded_count {
            let u = rng.next_index(n) as u32;
            let v = rng.next_index(n) as u32;
            if u == v {
                continue;
            }
            excluded.insert((u.min(v), u.max(v)));
        }
        for u in 0..n as u32 {
            for v in u + 1..n as u32 {
                if !excluded.contains(&(u, v)) {
                    edges.push((u, v));
                }
            }
        }
    } else {
        while edges.len() < m {
            let u = rng.next_index(n) as u32;
            let v = rng.next_index(n) as u32;
            if u == v {
                continue;
            }
            let key = (u.min(v), u.max(v));
            if chosen.insert(key) {
                edges.push(key);
            }
        }
    }
    Graph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnp_edge_count_concentrates() {
        // E[m] = p · n(n−1)/2, sd = sqrt(p(1−p) pairs).
        for &(n, p) in &[(100usize, 0.1f64), (100, 0.5), (200, 0.25)] {
            let pairs = (n * (n - 1) / 2) as f64;
            let g = gnp(n, p, 42).unwrap();
            let expect = p * pairs;
            let sd = (p * (1.0 - p) * pairs).sqrt();
            assert!(
                ((g.m() as f64) - expect).abs() < 5.0 * sd,
                "n={n} p={p} m={} expect={expect}",
                g.m()
            );
        }
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(gnp(10, 0.0, 1).unwrap().m(), 0);
        assert_eq!(gnp(10, 1.0, 1).unwrap().m(), 45);
        assert_eq!(gnp(0, 0.5, 1).unwrap().n(), 0);
        assert!(gnp(10, 1.5, 1).is_err());
        assert!(gnp(10, f64::NAN, 1).is_err());
    }

    #[test]
    fn gnp_deterministic_and_seed_sensitive() {
        let a = gnp(50, 0.3, 7).unwrap();
        let b = gnp(50, 0.3, 7).unwrap();
        let c = gnp(50, 0.3, 8).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gnm_exact_count() {
        for &(n, m) in &[(30usize, 0usize), (30, 100), (30, 435), (30, 400)] {
            let g = gnm(n, m, 3).unwrap();
            assert_eq!(g.m(), m, "n={n} m={m}");
            assert_eq!(g.n(), n);
        }
    }

    #[test]
    fn gnm_infeasible() {
        assert!(gnm(5, 11, 1).is_err());
        assert!(gnm(1, 1, 1).is_err());
    }

    #[test]
    fn gnp_no_self_loops_or_duplicates() {
        let g = gnp(80, 0.4, 11).unwrap();
        for u in 0..g.n() {
            assert!(!g.has_edge(u, u));
            let nb = g.neighbors(u);
            for w in nb.windows(2) {
                assert!(w[0] < w[1], "duplicate neighbor");
            }
        }
    }

    #[test]
    fn paper_grid_parameters_generate() {
        // One small instance from each Figure-3 cell boundary.
        for &n in &[50usize, 100] {
            for &p in &[0.1, 0.25, 0.5, 0.75] {
                let g = gnp(n, p, 99).unwrap();
                assert_eq!(g.n(), n);
                assert!(g.m() > 0);
            }
        }
    }
}
