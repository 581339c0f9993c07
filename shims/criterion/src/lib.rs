//! Offline stand-in for the `criterion` benchmark harness.
//!
//! The build environment has no access to crates.io, so this shim provides
//! the subset of the Criterion API the `bench` crate uses: [`Criterion`]
//! with grouped and ungrouped targets, [`BenchmarkId`], [`Bencher::iter`],
//! and the [`criterion_group!`] / [`criterion_main!`] macros (both the
//! plain and the `name = …; config = …; targets = …` forms).
//!
//! Timing is intentionally simple — wall-clock mean over `sample_size`
//! batches after a warm-up period, printed with the per-batch min and max
//! as `time: [min mean max] ns/iter` — because the workspace's tier-1 gate
//! only requires `cargo bench --no-run` to compile; actually running
//! `cargo bench` still produces usable relative numbers, and the min/max
//! spread flags noisy runs (a wide spread means the mean is not
//! trustworthy and the run should be repeated; see `docs/BENCHMARKS.md`).
//! Statistical analysis (outlier rejection, regression detection,
//! confidence intervals) is deliberately out of scope; swap the real crate
//! back in via the workspace manifest when network access is available.
//! The divergences from real Criterion are catalogued in `shims/README.md`.
//!
//! **Ledger emission (shim extension).** When the `CRITERION_SHIM_JSON`
//! environment variable names a file, every benchmark additionally appends
//! one JSON object per line to it, in exactly the shape the
//! `docs/BENCHMARKS.md` results ledger's `benches` array uses:
//!
//! ```json
//! {"id": "group/name", "mean_ns": 1.0, "min_ns": 1.0, "max_ns": 1.0, "batches": 12}
//! ```
//!
//! so `results/BENCH_<PR>.json` can be assembled from a bench run without
//! hand-copying numbers (see the "Recording results" workflow there).
//! Real Criterion has its own machine-readable output formats; this one
//! exists only to feed the repository's ledger.

use std::fmt::Display;
use std::io::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifies one benchmark within a group, mirroring Criterion's type.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// A `function_name/parameter` id.
    pub fn new<P: Display>(function_name: &str, parameter: P) -> Self {
        Self {
            id: format!("{function_name}/{parameter}"),
        }
    }

    /// A parameter-only id (the group name supplies the function part).
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Conversion into a benchmark id, so targets accept `&str` or [`BenchmarkId`].
pub trait IntoBenchmarkId {
    /// Renders the id as the string Criterion would display.
    fn into_benchmark_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> String {
        self
    }
}

/// Per-benchmark timing summary across the measured batches.
///
/// `min`/`max` are per-batch means (ns per iteration within one batch), so
/// they bound the batch-to-batch spread, not single-iteration extremes.
/// A wide `[min, max]` interval relative to `mean` marks a noisy run whose
/// mean should not be compared across machines or commits.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SampleSummary {
    /// Mean wall-clock nanoseconds per iteration over all batches.
    pub mean_ns: f64,
    /// Fastest batch's mean nanoseconds per iteration.
    pub min_ns: f64,
    /// Slowest batch's mean nanoseconds per iteration.
    pub max_ns: f64,
    /// Number of timed batches contributing to the summary.
    pub batches: usize,
}

/// Passed to benchmark closures; [`Bencher::iter`] times the routine.
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    warm_up: Duration,
    measurement: Duration,
    /// Timing summary, filled in by `iter`.
    summary: SampleSummary,
}

impl Bencher {
    /// Times `routine`, first warming up, then measuring batches until the
    /// sample budget or measurement window is exhausted.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let warm_start = Instant::now();
        let mut batch = 1u64;
        // Warm up and discover a batch size that is not dominated by timer
        // overhead (~one batch per millisecond of runtime).
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let elapsed = t.elapsed();
            if warm_start.elapsed() >= self.warm_up {
                if elapsed < Duration::from_micros(100) && batch < (1 << 20) {
                    batch *= 2;
                    continue;
                }
                break;
            }
            if elapsed < Duration::from_micros(100) && batch < (1 << 20) {
                batch *= 2;
            }
        }
        let measure_start = Instant::now();
        let mut total = Duration::ZERO;
        let mut iters = 0u64;
        let mut min_ns = f64::INFINITY;
        let mut max_ns = 0.0f64;
        let mut batches = 0usize;
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let elapsed = t.elapsed();
            let batch_ns = elapsed.as_nanos() as f64 / batch as f64;
            min_ns = min_ns.min(batch_ns);
            max_ns = max_ns.max(batch_ns);
            batches += 1;
            total += elapsed;
            iters += batch;
            if measure_start.elapsed() >= self.measurement {
                break;
            }
        }
        self.summary = if iters == 0 {
            SampleSummary::default()
        } else {
            SampleSummary {
                mean_ns: total.as_nanos() as f64 / iters as f64,
                min_ns,
                max_ns,
                batches,
            }
        };
    }

    /// The timing summary of the most recent [`Bencher::iter`] call
    /// (shim extension; real Criterion reports through its own stats
    /// pipeline).
    pub fn summary(&self) -> SampleSummary {
        self.summary
    }
}

/// Top-level harness state, mirroring `criterion::Criterion`.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            sample_size: 10,
            warm_up: Duration::from_millis(100),
            measurement: Duration::from_secs(2),
        }
    }
}

impl Criterion {
    /// Sets the number of timed batches per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the warm-up duration before measurement starts.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up = d;
        self
    }

    /// Sets the measurement window budget.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement = d;
        self
    }

    fn run_one<F: FnMut(&mut Bencher)>(&self, id: &str, mut f: F) {
        let mut b = Bencher {
            samples: self.sample_size,
            warm_up: self.warm_up,
            measurement: self.measurement,
            summary: SampleSummary::default(),
        };
        f(&mut b);
        let s = b.summary;
        // Mirrors Criterion's `[low estimate high]` display; here the
        // bracket is the observed per-batch min/max, not a confidence
        // interval (see shims/README.md).
        println!(
            "{id:<50} time: [{:>12.1} {:>12.1} {:>12.1}] ns/iter ({} batches)",
            s.min_ns, s.mean_ns, s.max_ns, s.batches
        );
        if let Ok(path) = std::env::var("CRITERION_SHIM_JSON") {
            if !path.is_empty() {
                if let Err(e) = append_ledger_line(&path, id, &s) {
                    eprintln!("criterion-shim: cannot append to {path}: {e}");
                }
            }
        }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) {
        self.run_one(id, f);
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
        }
    }
}

/// Appends one ledger line (the `benches`-array entry shape of
/// `docs/BENCHMARKS.md`) for a finished benchmark. One `write_all` per
/// line, so concurrent processes appending to the same file do not
/// interleave within a line.
fn append_ledger_line(path: &str, id: &str, s: &SampleSummary) -> std::io::Result<()> {
    // JSON string escaping (RFC 8259): backslash-escape the quote and
    // backslash, \uXXXX-escape control characters.
    let mut escaped = String::with_capacity(id.len());
    for c in id.chars() {
        match c {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                escaped.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => escaped.push(c),
        }
    }
    let line = format!(
        "{{\"id\": \"{escaped}\", \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}, \"batches\": {}}}\n",
        s.mean_ns, s.min_ns, s.max_ns, s.batches
    );
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(line.as_bytes())
}

/// A named group of benchmarks sharing the parent [`Criterion`] config.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs a benchmark within the group.
    pub fn bench_function<I: IntoBenchmarkId, F: FnMut(&mut Bencher)>(&mut self, id: I, f: F) {
        let id = format!("{}/{}", self.name, id.into_benchmark_id());
        self.criterion.run_one(&id, f);
    }

    /// Runs a benchmark with a setup-owned input passed by reference.
    pub fn bench_with_input<I: IntoBenchmarkId, T: ?Sized, F: FnMut(&mut Bencher, &T)>(
        &mut self,
        id: I,
        input: &T,
        mut f: F,
    ) {
        let id = format!("{}/{}", self.name, id.into_benchmark_id());
        self.criterion.run_one(&id, |b| f(b, input));
    }

    /// Ends the group (a no-op in the shim; kept for API parity).
    pub fn finish(self) {}
}

/// Declares a group of benchmark targets, in either Criterion form.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        #[allow(missing_docs)]
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the benchmark `main` running each group in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_times_a_routine() {
        let mut c = Criterion::default()
            .sample_size(2)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        let mut ran = false;
        c.bench_function("smoke", |b| {
            b.iter(|| black_box(1 + 1));
            ran = true;
        });
        assert!(ran);
    }

    #[test]
    fn summary_orders_min_mean_max() {
        let mut c = Criterion::default()
            .sample_size(4)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(20));
        let mut summary = SampleSummary::default();
        c.bench_function("summary", |b| {
            b.iter(|| black_box((0..100u64).sum::<u64>()));
            summary = b.summary();
        });
        assert!(summary.batches >= 1);
        assert!(summary.min_ns > 0.0);
        assert!(summary.min_ns <= summary.mean_ns + 1e-9);
        assert!(summary.mean_ns <= summary.max_ns + 1e-9);
    }

    #[test]
    fn benchmark_ids_render() {
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
        assert_eq!(
            BenchmarkId::from_parameter("G(50,0.25)").to_string(),
            "G(50,0.25)"
        );
    }

    #[test]
    fn ledger_line_has_benches_array_shape() {
        let path = std::env::temp_dir().join(format!(
            "criterion_shim_ledger_{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let s = SampleSummary {
            mean_ns: 1234.56,
            min_ns: 1000.0,
            max_ns: 2000.25,
            batches: 12,
        };
        append_ledger_line(path.to_str().unwrap(), "group/na\"me", &s).unwrap();
        append_ledger_line(path.to_str().unwrap(), "group/tab\there", &s).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 2, "one line per bench");
        assert_eq!(
            lines[0],
            "{\"id\": \"group/na\\\"me\", \"mean_ns\": 1234.6, \"min_ns\": 1000.0, \"max_ns\": 2000.2, \"batches\": 12}"
        );
        // Control characters become RFC 8259 \uXXXX escapes, not Rust's
        // \u{X} debug form.
        assert!(
            lines[1].contains("\"id\": \"group/tab\\u0009here\""),
            "{}",
            lines[1]
        );
        std::fs::remove_file(&path).unwrap();
    }
}
