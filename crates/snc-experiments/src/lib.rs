//! Experiment harness regenerating the paper's evaluation (§V).
//!
//! One module per paper artifact:
//!
//! * [`fig3`] — Erdős–Rényi sweep (Figure 3): best cut relative to the
//!   software solver vs. number of samples, mean ± SEM over graphs, for
//!   every (n, p) panel.
//! * [`fig4`] — the same curves on the 16 empirical graphs (Figure 4).
//! * [`table1`] — maximum cut values per circuit per empirical graph
//!   (Table I), printed next to the paper's reference values.
//! * [`robustness`] — the device-imperfection study the Discussion (§VI)
//!   sketches: biased, cross-correlated, and drifting devices.
//!
//! Shared machinery: [`suite`] (runs all four solvers on one graph,
//! scheduling the neuromorphic circuits as batched `ReplicaBatch` units —
//! threads × batch width), [`runner`] (the index-ordered `JobRunner`
//! on `std::thread::scope`), [`report`] (CSV/Markdown/JSON emission),
//! [`config`] (paper-exact and quick presets). [`json`] re-exports the
//! leaf `snc-json` crate, which the reports share with the server's wire
//! format.
//!
//! Binaries: `fig3`, `fig4`, `table1`, `robustness` — each accepts
//! `--quick`, `--paper`, `--samples N`, `--threads N`, `--seed N`,
//! `--out DIR`; the figure/table binaries also honor `--replicas N`
//! (`robustness` parses but ignores it — its mean statistic is defined
//! over one circuit's sample stream).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod fig3;
pub mod fig4;
pub mod report;
pub mod robustness;
pub mod runner;
pub mod suite;
pub mod table1;

pub use config::{ExperimentScale, SuiteConfig};
pub use runner::JobRunner;
/// The `snc-json` crate, kept at its old path for existing importers.
pub use snc_json as json;
pub use suite::{run_suite, SuiteTraces};
