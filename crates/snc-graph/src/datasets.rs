//! The 16 empirical graphs of Figure 4 and Table I.
//!
//! The paper evaluates on graphs from the Network Repository \[26\], chosen
//! to match the benchmark set of Mirka & Williamson \[21\]. Two of them are
//! pure combinatorial objects and are **reconstructed exactly**
//! (`hamming6-2`, `johnson16-2-4`). The other fourteen are empirical
//! measurements we cannot redistribute; each is replaced by a
//! **structure-matched synthetic stand-in** with the same vertex and edge
//! counts, produced by a generator family appropriate to the graph's
//! provenance (see DESIGN.md, "Substitutions"). Users holding the original
//! `.mtx` files can load them via [`crate::io::load_graph`] and bypass the
//! stand-ins entirely.
//!
//! Each dataset carries the paper's Table-I reference values so experiment
//! reports can print paper-vs-measured side by side. Note that two of the
//! original graphs (`inf-USAir97`, `eco-stmarks`) are *weighted* networks,
//! so their paper cut values are weighted cuts; our unweighted stand-ins
//! reproduce ordering, not magnitude, there.

use crate::csr::Graph;
use crate::error::GraphError;
use crate::generators::{
    adjust_to_edge_count, banded, chung_lu, gnm, hamming_graph, kneser_graph, knn_graph,
    watts_strogatz,
};

/// The cut values reported in the paper's Table I for one graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaperRow {
    /// LIF-GW circuit best cut.
    pub lif_gw: u64,
    /// LIF-Trevisan circuit best cut.
    pub lif_tr: u64,
    /// Software SDP solver best cut.
    pub solver: u64,
    /// Random-assignment best cut.
    pub random: u64,
    /// Best cut reported by Mirka & Williamson \[21\] (rightmost column).
    pub mirka_williamson: u64,
}

/// How a dataset graph is produced in this reproduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Bit-for-bit reconstruction of the original combinatorial instance.
    Exact,
    /// Synthetic stand-in matching `(n, m)` and coarse structure.
    StandIn {
        /// The generator family used for the stand-in.
        family: &'static str,
    },
}

/// One of the 16 empirical graphs of Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names are the dataset names
pub enum EmpiricalDataset {
    Hamming62,
    SocDolphins,
    InfUsair97,
    RoadChesapeake,
    Johnson1624,
    PHat7001,
    IaInfectDublin,
    CaNetscience,
    Dwt209,
    Dwt503,
    IaInfectHyper,
    EmailEnronOnly,
    Erdos991,
    EcoStmarks,
    DD687,
    Enzymes8,
}

impl EmpiricalDataset {
    /// All 16 datasets in the paper's Table-I order.
    pub fn all() -> [EmpiricalDataset; 16] {
        use EmpiricalDataset::*;
        [
            Hamming62,
            SocDolphins,
            InfUsair97,
            RoadChesapeake,
            Johnson1624,
            PHat7001,
            IaInfectDublin,
            CaNetscience,
            Dwt209,
            Dwt503,
            IaInfectHyper,
            EmailEnronOnly,
            Erdos991,
            EcoStmarks,
            DD687,
            Enzymes8,
        ]
    }

    /// The Network Repository name of the graph.
    pub fn name(&self) -> &'static str {
        use EmpiricalDataset::*;
        match self {
            Hamming62 => "hamming6-2",
            SocDolphins => "soc-dolphins",
            InfUsair97 => "inf-USAir97",
            RoadChesapeake => "road-chesapeake",
            Johnson1624 => "johnson16-2-4",
            PHat7001 => "p-hat700-1",
            IaInfectDublin => "ia-infect-dublin",
            CaNetscience => "ca-netscience",
            Dwt209 => "dwt-209",
            Dwt503 => "dwt-503",
            IaInfectHyper => "ia-infect-hyper",
            EmailEnronOnly => "email-enron-only",
            Erdos991 => "Erdos991",
            EcoStmarks => "eco-stmarks",
            DD687 => "DD687",
            Enzymes8 => "ENZYMES8",
        }
    }

    /// Vertex and edge counts `(n, m)` of the graph (as recorded from the
    /// Network Repository; exact for the combinatorial instances).
    pub fn size(&self) -> (usize, usize) {
        use EmpiricalDataset::*;
        match self {
            Hamming62 => (64, 1824),
            SocDolphins => (62, 159),
            InfUsair97 => (332, 2126),
            RoadChesapeake => (39, 170),
            Johnson1624 => (120, 5460),
            PHat7001 => (700, 60999),
            IaInfectDublin => (410, 2765),
            CaNetscience => (379, 914),
            Dwt209 => (209, 767),
            Dwt503 => (503, 3265),
            IaInfectHyper => (113, 2196),
            EmailEnronOnly => (143, 623),
            Erdos991 => (492, 1417),
            EcoStmarks => (54, 353),
            DD687 => (725, 2600),
            Enzymes8 => (88, 133),
        }
    }

    /// How this reproduction obtains the graph.
    pub fn provenance(&self) -> Provenance {
        use EmpiricalDataset::*;
        match self {
            Hamming62 | Johnson1624 => Provenance::Exact,
            SocDolphins | IaInfectDublin | CaNetscience | IaInfectHyper | EmailEnronOnly
            | Erdos991 | InfUsair97 => Provenance::StandIn { family: "chung-lu" },
            RoadChesapeake => Provenance::StandIn {
                family: "watts-strogatz",
            },
            PHat7001 | EcoStmarks => Provenance::StandIn {
                family: "erdos-renyi",
            },
            Dwt209 | Dwt503 => Provenance::StandIn {
                family: "banded-mesh",
            },
            DD687 | Enzymes8 => Provenance::StandIn {
                family: "knn-geometric",
            },
        }
    }

    /// The paper's Table-I reference cut values for this graph.
    pub fn paper_row(&self) -> PaperRow {
        use EmpiricalDataset::*;
        let (lif_gw, lif_tr, solver, random, mw) = match self {
            Hamming62 => (992, 972, 992, 957, 992),
            SocDolphins => (122, 122, 122, 107, 121),
            InfUsair97 => (107, 97, 107, 89, 107),
            RoadChesapeake => (126, 125, 126, 120, 125),
            Johnson1624 => (3036, 2987, 3036, 2858, 3036),
            PHat7001 => (33350, 31369, 33351, 31002, 33050),
            IaInfectDublin => (1751, 1600, 1750, 1494, 1664),
            CaNetscience => (635, 579, 634, 522, 611),
            Dwt209 => (554, 534, 554, 441, 540),
            Dwt503 => (1937, 1740, 1937, 1493, 1921),
            IaInfectHyper => (1277, 1262, 1277, 1182, 1233),
            EmailEnronOnly => (425, 394, 425, 367, 413),
            Erdos991 => (1027, 920, 1027, 791, 934),
            EcoStmarks => (1765, 1764, 1765, 1747, 1190),
            DD687 => (1786, 1625, 1783, 1411, 1680),
            Enzymes8 => (126, 124, 126, 95, 126),
        };
        PaperRow {
            lif_gw,
            lif_tr,
            solver,
            random,
            mirka_williamson: mw,
        }
    }

    /// Builds the graph (exact reconstruction or deterministic stand-in).
    ///
    /// Stand-ins use a fixed internal seed per dataset, so every call
    /// returns the identical graph — "the" stand-in, stable across runs
    /// and machines.
    ///
    /// # Errors
    ///
    /// Construction is infallible for valid built-in parameters; errors
    /// indicate an internal inconsistency.
    pub fn load(&self) -> Result<Graph, GraphError> {
        use EmpiricalDataset::*;
        let (n, m) = self.size();
        let seed = self.stand_in_seed();
        let g = match self {
            Hamming62 => hamming_graph(6, 2)?,
            Johnson1624 => kneser_graph(16, 2)?,
            SocDolphins => chung_lu(n, m, 2.5, seed)?,
            InfUsair97 => chung_lu(n, m, 2.1, seed)?, // hub-heavy airline network
            IaInfectDublin => chung_lu(n, m, 2.6, seed)?,
            CaNetscience => chung_lu(n, m, 2.3, seed)?,
            IaInfectHyper => chung_lu(n, m, 2.8, seed)?, // dense contact net
            EmailEnronOnly => chung_lu(n, m, 2.4, seed)?,
            Erdos991 => chung_lu(n, m, 2.2, seed)?,
            RoadChesapeake => {
                let base = watts_strogatz(n, 8, 0.15, seed)?; // m = 156
                adjust_to_edge_count(&base, m, seed ^ 1)?
            }
            PHat7001 => gnm(n, m, seed)?,
            EcoStmarks => gnm(n, m, seed)?,
            Dwt209 | Dwt503 => {
                let b = crate::generators::mesh::bandwidth_for_edges(n, m);
                let base = banded(n, b, seed)?;
                adjust_to_edge_count(&base, m, seed ^ 1)?
            }
            DD687 => {
                let base = knn_graph(n, 5, seed)?;
                adjust_to_edge_count(&base, m, seed ^ 1)?
            }
            Enzymes8 => {
                let base = knn_graph(n, 3, seed)?;
                adjust_to_edge_count(&base, m, seed ^ 1)?
            }
        };
        debug_assert_eq!((g.n(), g.m()), (n, m), "{} size mismatch", self.name());
        Ok(g)
    }

    /// Builds the weighted form of the graph.
    ///
    /// For the two originally weighted networks this attaches synthetic
    /// weights whose scale is calibrated to the paper's cut magnitudes
    /// (`inf-USAir97` stores normalized traffic volumes ≲ 0.2, so cuts are
    /// small; `eco-stmarks` stores biomass flows with mean ≈ 8). All other
    /// datasets get unit weights.
    ///
    /// # Errors
    ///
    /// Propagates construction failures (none for built-in parameters).
    pub fn load_weighted(&self) -> Result<crate::WeightedGraph, GraphError> {
        use crate::weighted::{randomize_weights, WeightDistribution};
        use crate::WeightedGraph;
        let base = self.load()?;
        let seed = self.stand_in_seed() ^ 0x77E1;
        match self {
            EmpiricalDataset::InfUsair97 => randomize_weights(
                &base,
                WeightDistribution::Uniform {
                    lo: 0.0005,
                    hi: 0.2,
                },
                seed,
            ),
            EmpiricalDataset::EcoStmarks => {
                randomize_weights(&base, WeightDistribution::Exponential { mean: 8.0 }, seed)
            }
            _ => Ok(WeightedGraph::from_graph(&base)),
        }
    }

    /// The fixed stand-in seed (distinct per dataset, stable forever).
    fn stand_in_seed(&self) -> u64 {
        // FNV-1a over the dataset name: stable, human-independent.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.name().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn all_sizes_match_declared() {
        for ds in EmpiricalDataset::all() {
            let g = ds.load().unwrap();
            assert_eq!((g.n(), g.m()), ds.size(), "{}", ds.name());
        }
    }

    #[test]
    fn exact_instances_are_regular() {
        let h = EmpiricalDataset::Hamming62.load().unwrap();
        assert!(h.degrees().iter().all(|&d| d == 57));
        let j = EmpiricalDataset::Johnson1624.load().unwrap();
        assert!(j.degrees().iter().all(|&d| d == 91));
        assert_eq!(EmpiricalDataset::Hamming62.provenance(), Provenance::Exact);
    }

    #[test]
    fn loads_are_deterministic() {
        for ds in [
            EmpiricalDataset::SocDolphins,
            EmpiricalDataset::Dwt209,
            EmpiricalDataset::Enzymes8,
        ] {
            assert_eq!(ds.load().unwrap(), ds.load().unwrap(), "{}", ds.name());
        }
    }

    #[test]
    fn social_stand_ins_are_heavy_tailed() {
        let g = EmpiricalDataset::InfUsair97.load().unwrap();
        let s = stats::degree_stats(&g);
        assert!(s.max as f64 > 3.0 * s.median.max(1) as f64, "{s:?}");
    }

    #[test]
    fn mesh_stand_ins_are_narrow_banded() {
        let g = EmpiricalDataset::Dwt209.load().unwrap();
        let s = stats::degree_stats(&g);
        assert!(s.max <= 10, "{s:?}"); // meshes have bounded degree
    }

    #[test]
    fn paper_rows_are_internally_consistent() {
        for ds in EmpiricalDataset::all() {
            let row = ds.paper_row();
            // The solver never loses to the random baseline in Table I.
            assert!(row.solver >= row.random, "{}", ds.name());
            // LIF-GW tracks the solver within a couple of edges.
            let gap = row.solver.abs_diff(row.lif_gw);
            assert!(gap <= 3, "{}: gap {gap}", ds.name());
        }
    }

    #[test]
    fn weighted_loads_are_calibrated() {
        // USAir stand-in: small normalized weights.
        let usair = EmpiricalDataset::InfUsair97.load_weighted().unwrap();
        let mean_w = usair.total_weight() / usair.m() as f64;
        assert!(mean_w < 0.25, "mean weight {mean_w}");
        // eco-stmarks: heavy weights matching the paper's magnitudes.
        let eco = EmpiricalDataset::EcoStmarks.load_weighted().unwrap();
        assert!(eco.total_weight() > 1765.0, "total {}", eco.total_weight());
        // Unweighted datasets lift to unit weights.
        let dolphins = EmpiricalDataset::SocDolphins.load_weighted().unwrap();
        assert_eq!(dolphins.total_weight(), dolphins.m() as f64);
        // Deterministic.
        assert_eq!(
            EmpiricalDataset::EcoStmarks.load_weighted().unwrap(),
            EmpiricalDataset::EcoStmarks.load_weighted().unwrap()
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = EmpiricalDataset::all().iter().map(|d| d.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16);
    }
}
