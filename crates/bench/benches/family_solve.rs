//! Family-dispatch bench: `solve()` throughput per circuit family.
//!
//! One group, four bars: the paper's two circuits (LIF-GW, LIF-TR) and
//! the PR-6 companions (LIF-annealed, Hopfield), all through the public
//! [`snc_maxcut::solve`] entry point on the smallest Figure-4 instance
//! (road-chesapeake, n = 39) at R = 8 replicas. This is the end-to-end
//! cost a `/solve` request pays past the wire layer, so the relative
//! bars show what each family adds on top of shared sampling
//! infrastructure: the SDP solve (GW and annealed), the cooling-schedule
//! bookkeeping (annealed), and the deterministic relaxation sweeps
//! (Hopfield).
//!
//! Before timing, a correctness gate re-solves every family and asserts
//! bit-identical outcomes, so a determinism regression fails the CI
//! smoke run loudly rather than producing fast wrong numbers.
//!
//! A second group, `solve_served_shape`, times the sampling stage at the
//! shape a cold `/solve` request has on the server: LIF-GW and
//! LIF-annealed on G(250, 0.05), budget 256, R = 1, with the server's LIF
//! parameters (Δt 0.5, 10 steps per sample, where the first group's
//! defaults take 50). The SDP is primed once through an [`SdpCache`], so
//! each iteration builds the circuit, warms it up, samples and scores,
//! and nothing else. Its gate asserts that the cached solve is
//! bit-identical to a cold one.
//!
//! A third group, `solve_hopfield_sparse`, times Hopfield on G(250, 0.05)
//! at budget 512 and R ∈ {1, 8}, the sparse slice of `cold-sampling`. At
//! R = 1 one relaxation runs 4,096 Euler steps, most of them past the
//! bitwise fixed point after which `HopfieldNetwork::step` only swaps
//! phases and counts; at R = 8 each replica runs 512 steps and has not
//! settled yet. A fourth, `solve_hopfield_dense`, times G(350, 0.1) at
//! budget 128 and R ∈ {1, 8}, the dense slice, where relaxations tend to
//! lock into a period-2 oscillation instead. Their gates assert that two
//! solves agree and that each outcome hits a pinned digest, so a faster
//! kernel cannot change a bit of the answer.
//!
//! Record results per `docs/BENCHMARKS.md`; set `CRITERION_SHIM_JSON` to
//! capture raw numbers.

use bench::{er_graph, fig4_smallest, BENCH_SAMPLES};
use criterion::{criterion_group, criterion_main, Criterion};
use snc_experiments::config::{ExperimentScale, SuiteConfig};
use snc_maxcut::{solve, solve_with_cache, CircuitFamily, SdpCache, SolveOutcome, SolveSpec};
use std::hint::black_box;
use std::time::Duration;

fn family_spec(family: CircuitFamily) -> SolveSpec {
    SolveSpec {
        replicas: 8,
        ..SolveSpec::new(family, BENCH_SAMPLES, 0xF164)
    }
}

fn solve_per_family(c: &mut Criterion) {
    let graph = fig4_smallest();

    // Loud correctness gate: every family is bit-for-bit deterministic.
    for family in CircuitFamily::all() {
        let spec = family_spec(family);
        let a = solve(&graph, &spec).expect("solve");
        let b = solve(&graph, &spec).expect("solve");
        assert_eq!(a.best_value, b.best_value, "{family:?} nondeterministic");
        assert_eq!(a.trace.best, b.trace.best, "{family:?} trace diverged");
    }

    let mut group = c.benchmark_group("solve_families_n39_R8");
    for family in CircuitFamily::all() {
        let spec = family_spec(family);
        group.bench_function(family.name(), |b| {
            b.iter(|| solve(black_box(&graph), black_box(&spec)).expect("solve"))
        });
    }
    group.finish();
}

/// A cold `/solve` request's spec on the server: its LIF parameters
/// (the experiment harness's standard scale), budget 256, one replica.
fn served_spec(family: CircuitFamily) -> SolveSpec {
    SolveSpec {
        lif: SuiteConfig::for_scale(ExperimentScale::Standard).lif,
        ..SolveSpec::new(family, 256, 0x5E7E)
    }
}

fn solve_served_shape(c: &mut Criterion) {
    let graph = er_graph(250, 0.05);
    let cache = SdpCache::new(4);
    let families = [CircuitFamily::LifGw, CircuitFamily::LifAnnealed];

    // Loud correctness gate, which also primes the cache: a cached solve
    // is bit-for-bit the cold one.
    for family in families {
        let spec = served_spec(family);
        let cold = solve(&graph, &spec).expect("solve");
        let warm = solve_with_cache(&graph, &spec, Some(&cache)).expect("solve");
        assert_eq!(cold.best_value, warm.best_value, "{family:?} best diverged");
        assert_eq!(
            cold.best_cut, warm.best_cut,
            "{family:?} partition diverged"
        );
        assert_eq!(cold.trace, warm.trace, "{family:?} trace diverged");
    }

    let mut group = c.benchmark_group("solve_served_shape_n250_R1");
    for family in families {
        let spec = served_spec(family);
        group.bench_function(family.name(), |b| {
            b.iter(|| {
                solve_with_cache(black_box(&graph), black_box(&spec), Some(&cache)).expect("solve")
            })
        });
    }
    group.finish();
}

/// Hopfield at `budget`, `replicas` wide.
fn hopfield_spec(budget: u64, replicas: usize) -> SolveSpec {
    SolveSpec {
        replicas,
        ..SolveSpec::new(CircuitFamily::Hopfield, budget, 0x40F1)
    }
}

/// FNV-1a over the outcome's best value, best cut and merged trace.
fn outcome_digest(out: &SolveOutcome) -> u64 {
    let words = [out.best_value, out.samples]
        .into_iter()
        .chain(out.best_cut.sides().iter().map(|&s| s as u64))
        .chain(out.trace.checkpoints.iter().copied())
        .chain(out.trace.best.iter().copied());
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Times Hopfield solves of `graph` at `budget` for each `(replicas,
/// digest)` width in group `name`, after gating every width on its pinned
/// digest.
fn hopfield_group(
    c: &mut Criterion,
    name: &str,
    graph: &snc_graph::Graph,
    budget: u64,
    widths: [(usize, u64); 2],
) {
    // Loud correctness gate: solves are deterministic and bit-identical to
    // the pinned outcomes.
    for (replicas, want) in widths {
        let spec = hopfield_spec(budget, replicas);
        let a = solve(graph, &spec).expect("solve");
        let b = solve(graph, &spec).expect("solve");
        let got = outcome_digest(&a);
        assert_eq!(got, outcome_digest(&b), "R={replicas} nondeterministic");
        assert_eq!(got, want, "R={replicas} outcome moved: digest {got:#018x}");
    }

    let mut group = c.benchmark_group(name);
    for (replicas, _) in widths {
        let spec = hopfield_spec(budget, replicas);
        group.bench_function(format!("R{replicas}"), |b| {
            b.iter(|| solve(black_box(graph), black_box(&spec)).expect("solve"))
        });
    }
    group.finish();
}

fn solve_hopfield_sparse(c: &mut Criterion) {
    let widths = [
        (1usize, 0xe6f6_fa1a_d5d7_1510u64),
        (8, 0x4605_0f35_e4e6_8301),
    ];
    hopfield_group(
        c,
        "solve_hopfield_sparse_n250",
        &er_graph(250, 0.05),
        512,
        widths,
    );
}

fn solve_hopfield_dense(c: &mut Criterion) {
    let widths = [
        (1usize, 0xb392_8654_de16_a393u64),
        (8, 0x8ec5_9307_3d38_f54d),
    ];
    hopfield_group(
        c,
        "solve_hopfield_dense_n350",
        &er_graph(350, 0.1),
        128,
        widths,
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(12)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    targets = solve_per_family, solve_served_shape, solve_hopfield_sparse, solve_hopfield_dense
}
criterion_main!(benches);
