//! Experiment configurations with paper-exact and quick presets.

use snc_neuro::LifParams;

/// Scale presets for the experiment binaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Minutes-scale smoke run (reduced grids and budgets).
    Quick,
    /// The default: full grids, moderate sample budgets.
    Standard,
    /// The paper's exact parameters (2^20 samples — hours of compute).
    Paper,
}

impl ExperimentScale {
    /// Sample budget per circuit per graph.
    pub fn sample_budget(&self) -> u64 {
        match self {
            ExperimentScale::Quick => 1 << 9,
            ExperimentScale::Standard => 1 << 12,
            ExperimentScale::Paper => 1 << 20, // §V: 2^20 cuts per circuit per graph
        }
    }

    /// Figure-3 vertex counts.
    pub fn fig3_ns(&self) -> Vec<usize> {
        match self {
            ExperimentScale::Quick => vec![50, 100],
            _ => vec![50, 100, 200, 350, 500],
        }
    }

    /// Figure-3 connection probabilities.
    pub fn fig3_ps(&self) -> Vec<f64> {
        match self {
            ExperimentScale::Quick => vec![0.25, 0.5],
            _ => vec![0.1, 0.25, 0.5, 0.75],
        }
    }

    /// Graphs per (n, p) cell (10 in the paper).
    pub fn graphs_per_cell(&self) -> usize {
        match self {
            ExperimentScale::Quick => 3,
            _ => 10,
        }
    }
}

/// Configuration shared by every experiment: solver settings and budgets.
#[derive(Clone, Debug)]
pub struct SuiteConfig {
    /// Per-circuit sample budget (total across replicas).
    pub sample_budget: u64,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for graph-level parallelism.
    pub threads: usize,
    /// Lock-stepped circuit replicas per neuromorphic solver (the
    /// `ReplicaBatch` width each worker schedules). `1` reproduces the
    /// paper's single-circuit traces bit-for-bit on the batched stepper;
    /// `R > 1` models R hardware circuits sampling concurrently: the
    /// sample budget is split across replicas and the per-replica
    /// best-so-far traces are merged into one total-samples trace.
    ///
    /// The width is capped at the sample budget, and when the budget is
    /// not divisible by the (effective) width the merged circuit traces
    /// end at `⌊budget/R⌋·R ≤ budget` total samples — never more than
    /// the software baselines' budget. Divisible budgets (the power-of-2
    /// presets with power-of-2 widths) are exact. The robustness study
    /// ignores this knob: its sensitive statistic is the per-sample mean
    /// of one circuit's stream.
    pub replicas: usize,
    /// SDP rank (4 in the paper, §IV.A).
    pub sdp_rank: usize,
    /// LIF parameters used by both circuits in the experiments
    /// ([`snc_maxcut::SERVED_LIF`] at every scale).
    pub lif: LifParams,
}

impl SuiteConfig {
    /// Builds the default configuration for a scale preset.
    pub fn for_scale(scale: ExperimentScale) -> Self {
        Self {
            sample_budget: scale.sample_budget(),
            seed: 0x5AC5,
            threads: snc_neuro::parallel::default_threads(),
            replicas: 1,
            sdp_rank: snc_maxcut::SDP_RANK,
            lif: snc_maxcut::SERVED_LIF,
        }
    }
}

/// Minimal CLI argument parsing shared by the experiment binaries.
///
/// Recognized flags: `--quick`, `--paper`, `--samples N`, `--threads N`,
/// `--replicas N`, `--seed N`, `--out DIR`. Unknown flags abort with a
/// usage message.
#[derive(Clone, Debug)]
pub struct CliArgs {
    /// Resolved suite configuration.
    pub suite: SuiteConfig,
    /// Scale preset chosen.
    pub scale: ExperimentScale,
    /// Output directory for CSV artifacts.
    pub out_dir: std::path::PathBuf,
}

impl CliArgs {
    /// Parses `std::env::args`-style arguments (excluding the program
    /// name).
    ///
    /// # Errors
    ///
    /// Returns a usage string on unknown or malformed flags.
    pub fn parse(args: &[String]) -> Result<CliArgs, String> {
        let mut scale = ExperimentScale::Standard;
        let mut samples: Option<u64> = None;
        let mut threads: Option<usize> = None;
        let mut replicas: Option<usize> = None;
        let mut seed: Option<u64> = None;
        let mut out_dir = std::path::PathBuf::from("results");
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => scale = ExperimentScale::Quick,
                "--paper" => scale = ExperimentScale::Paper,
                "--samples" => {
                    samples = Some(
                        it.next()
                            .ok_or("--samples needs a value")?
                            .parse()
                            .map_err(|_| "--samples must be an integer")?,
                    );
                }
                "--threads" => {
                    threads = Some(parse_positive(it.next(), "--threads")?);
                }
                "--replicas" => {
                    replicas = Some(parse_positive(it.next(), "--replicas")?);
                }
                "--seed" => {
                    seed = Some(
                        it.next()
                            .ok_or("--seed needs a value")?
                            .parse()
                            .map_err(|_| "--seed must be an integer")?,
                    );
                }
                "--out" => {
                    out_dir = it.next().ok_or("--out needs a directory")?.into();
                }
                other => {
                    return Err(format!(
                        "unknown flag `{other}`\nusage: [--quick|--paper] [--samples N] [--threads N] [--replicas N] [--seed N] [--out DIR]"
                    ));
                }
            }
        }
        let mut suite = SuiteConfig::for_scale(scale);
        if let Some(s) = samples {
            suite.sample_budget = s;
        }
        if let Some(t) = threads {
            suite.threads = t;
        }
        if let Some(r) = replicas {
            suite.replicas = r;
        }
        if let Some(s) = seed {
            suite.seed = s;
        }
        Ok(CliArgs {
            suite,
            scale,
            out_dir,
        })
    }
}

/// Parses a flag value that must be a strictly positive integer.
///
/// Zero workers or zero replicas has no meaningful semantics — silently
/// clamping to 1 (the old behavior) made `--replicas 0` look like a
/// request that was honored. The experiment binaries (fig3, fig4,
/// table1, robustness) reject 0 with this error; the serving binaries
/// have their own parser in `snc_server::cli`.
///
/// # Errors
///
/// Returns a usage string when the value is missing, non-integer, or 0.
pub fn parse_positive(value: Option<&String>, flag: &str) -> Result<usize, String> {
    let raw = value.ok_or(format!("{flag} needs a value"))?;
    let parsed: usize = raw
        .parse()
        .map_err(|_| format!("{flag} must be an integer"))?;
    if parsed == 0 {
        return Err(format!("{flag} must be ≥ 1 (got 0)"));
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn paper_scale_matches_section_v() {
        let s = ExperimentScale::Paper;
        assert_eq!(s.sample_budget(), 1 << 20);
        assert_eq!(s.fig3_ns(), vec![50, 100, 200, 350, 500]);
        assert_eq!(s.fig3_ps(), vec![0.1, 0.25, 0.5, 0.75]);
        assert_eq!(s.graphs_per_cell(), 10);
    }

    #[test]
    fn cli_defaults_and_overrides() {
        let a = CliArgs::parse(&strs(&[])).unwrap();
        assert_eq!(a.scale, ExperimentScale::Standard);
        assert_eq!(a.suite.replicas, 1);
        let a = CliArgs::parse(&strs(&["--quick", "--samples", "64", "--threads", "2"])).unwrap();
        assert_eq!(a.scale, ExperimentScale::Quick);
        assert_eq!(a.suite.sample_budget, 64);
        assert_eq!(a.suite.threads, 2);
        let a = CliArgs::parse(&strs(&["--out", "/tmp/x", "--seed", "9"])).unwrap();
        assert_eq!(a.out_dir, std::path::PathBuf::from("/tmp/x"));
        assert_eq!(a.suite.seed, 9);
        let a = CliArgs::parse(&strs(&["--replicas", "8"])).unwrap();
        assert_eq!(a.suite.replicas, 8);
    }

    #[test]
    fn cli_rejects_bad_flags() {
        assert!(CliArgs::parse(&strs(&["--bogus"])).is_err());
        assert!(CliArgs::parse(&strs(&["--samples"])).is_err());
        assert!(CliArgs::parse(&strs(&["--samples", "abc"])).is_err());
    }

    #[test]
    fn cli_rejects_zero_threads_and_replicas() {
        let err = CliArgs::parse(&strs(&["--replicas", "0"])).unwrap_err();
        assert!(err.contains("--replicas must be ≥ 1"), "got: {err}");
        let err = CliArgs::parse(&strs(&["--threads", "0"])).unwrap_err();
        assert!(err.contains("--threads must be ≥ 1"), "got: {err}");
        // Positive values still parse.
        assert_eq!(parse_positive(Some(&"3".to_string()), "--x"), Ok(3));
        assert!(parse_positive(None, "--x").is_err());
        assert!(parse_positive(Some(&"-1".to_string()), "--x").is_err());
    }

    #[test]
    fn experiment_lif_params_decorrelate_quickly() {
        let cfg = SuiteConfig::for_scale(ExperimentScale::Quick);
        assert_eq!(cfg.lif.decorrelation_steps(), 10);
        assert_eq!(cfg.sdp_rank, 4);
    }
}
