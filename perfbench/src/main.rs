//! `snc-perfbench`: the repository benchmark.
//!
//! ```text
//! snc-perfbench --workload NAME --seed N --seconds N --trace 0|1 --out-dir DIR
//! ```
//!
//! Starts fresh `snc-server` / `snc-router` processes (the binaries next
//! to this one), replays the workload's seeded request list from two
//! client threads, checks every response, and prints each metric with
//! its unit; the last line of standard output is the result object. With
//! `--trace 1` it reports the per-layer metrics instead (see `trace`).
//! `perfbench/run.py` builds everything and runs this.

mod bench;
mod check;
mod client;
mod fleet;
mod stats;
mod trace;
mod workloads;

use snc_experiments::json::Json;
use stats::quantile;
use std::path::PathBuf;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
}

const USAGE: &str =
    "usage: snc-perfbench --workload NAME --seed N --seconds N --trace 0|1 --out-dir DIR";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out_dir) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--out-dir" => out_dir = Some(PathBuf::from(&value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        out_dir: out_dir.ok_or_else(|| missing("--out-dir"))?,
    })
}

/// A named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The commit of a git checkout, read from `.git` without running git
/// (which would search parent directories when there is none).
fn git_commit() -> String {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn provenance(args: &Args, requests: usize) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::Obj(vec![
        ("workload".into(), Json::str(args.workload.clone())),
        ("seed".into(), Json::UInt(args.seed)),
        ("seconds".into(), Json::UInt(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("requests".into(), Json::UInt(requests as u64)),
        ("nproc".into(), Json::UInt(nproc)),
        ("cpu".into(), Json::str(cpu)),
        ("rustc".into(), Json::str(rustc)),
        ("commit".into(), Json::str(git_commit())),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("snc-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("snc-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs the benchmark; `Ok(false)` when a response or a path assertion
/// failed (the result is still printed, with `correct: false`).
fn run(args: &Args) -> Result<bool, String> {
    let plan = workloads::plan(&args.workload, args.seed, args.seconds)?;
    let provenance = provenance(args, plan.timed_requests());
    println!("provenance {}", provenance.render());

    let mut edge = None;
    let run = bench::run(&plan, |fleet| {
        if args.trace && plan.topology == fleet::Topology::Routed {
            edge = Some(trace::edge_probe(fleet, &plan)?);
        }
        Ok(())
    })?;
    let path = bench::assert_paths(&args.workload, &plan, &run.delta);
    let attempted = run.samples.len();
    let failed = run.failures.len();
    for failure in run.failures.iter().take(5) {
        eprintln!("failed: {failure}");
    }
    if let Err(e) = &path {
        eprintln!("path assertion failed: {e}");
    }

    // Printed for reading but kept out of the result object, whose
    // metrics must never read 0 and must be steady enough to bound.
    let error_rate = failed as f64 / attempted.max(1) as f64;
    let mut informational = vec![metric("error_rate", error_rate, "ratio")];
    let metrics = if args.trace {
        trace::per_layer(args, &plan, &run, edge)?
    } else {
        let e2e = bench::end_to_end(&run);
        // On warm-routed the 99th percentile jumped between ~0.25 and
        // ~0.9 ms from run to run (FINDINGS.md), beyond any bound.
        informational.push(metric(
            "latency_p99_ms",
            quantile(&e2e.latencies_ms, 0.99),
            "ms",
        ));
        vec![
            metric("throughput_rps", e2e.throughput_rps, "1/s"),
            metric("latency_p50_ms", quantile(&e2e.latencies_ms, 0.5), "ms"),
            metric("latency_p90_ms", quantile(&e2e.latencies_ms, 0.9), "ms"),
            metric("cut_fraction", e2e.cut_fraction, "ratio"),
            metric("peak_rss_mb", run.peak_rss_mb, "MB"),
            metric("setup_s", stats::median(&run.setup_s), "s"),
        ]
    };
    for m in metrics.iter().chain(&informational) {
        println!("{:<44} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let correct = failed == 0 && path.is_ok() && attempted > 0;
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::UInt(attempted as u64)),
        ("failed".into(), Json::UInt(failed as u64)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        let value = Json::Obj(vec![
                            ("value".into(), Json::Num(m.value)),
                            ("unit".into(), Json::str(m.unit)),
                        ]);
                        (m.name.clone(), value)
                    })
                    .collect(),
            ),
        ),
    ]);
    let record = Json::Obj(vec![
        ("provenance".into(), provenance),
        (
            "informational".into(),
            Json::Obj(
                informational
                    .iter()
                    .map(|m| (m.name.clone(), Json::Num(m.value)))
                    .collect(),
            ),
        ),
        (
            "setup_s_each".into(),
            Json::Arr(run.setup_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("result".into(), result.clone()),
    ]);
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let file = args.out_dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    std::fs::write(&file, record.render() + "\n")
        .map_err(|e| format!("{}: {e}", file.display()))?;
    println!("{}", result.render());
    Ok(correct)
}
