//! Hot-path bench: one R-wide batch vs R one-seed batches.
//!
//! Every circuit has one implementation, batched over replicas; a
//! one-seed batch is one circuit. The batched-stepping rework claims ≥2×
//! single-core throughput for R independent replicas sampled as one
//! R-wide batch instead of as R one-seed batches, at R ≥ 8 on a
//! paper-scale Figure-4 graph. This bench measures that claim for
//! **both** paper circuits on the smallest Fig.-4 instance
//! (road-chesapeake, n = 39): LIF-GW (`LifGwCircuit`) and
//! LIF-Trevisan with its batched SoA Oja plasticity pass
//! (`LifTrevisanCircuit`). It also times the packed dense synaptic
//! kernel in isolation and LIF-Trevisan's interval update (one gather per
//! plasticity interval for every lane) at paper scale (G(500, 0.1), the
//! largest Fig.-3 corner). Before any timing it asserts that every lane's trace
//! is bit-for-bit the one-seed batch's, so a correctness regression in
//! the hot path fails the CI smoke run loudly rather than producing fast
//! wrong numbers.
//!
//! A width sweep (`width_sweep_*` groups) then times both per-replica
//! families, LIF-Trevisan and Hopfield, as one R-wide batch vs R one-seed
//! batches at R ∈ {2, 3, 8}, with one circuit (R = 1) as the baseline, on
//! G(200, 0.05) and G(350, 0.1) — the sparse and dense slices of the
//! `cold-sampling` workload — after asserting that every lane's cuts
//! (and LIF-Trevisan readout weights) are bit-identical to the one-seed
//! batch's.
//!
//! Record results per `docs/BENCHMARKS.md` (methodology, shim caveats,
//! and the `results/BENCH_*.json` ledger); set `CRITERION_SHIM_JSON` to
//! capture the raw numbers without hand-copying.

use bench::{er_graph, fig4_smallest, paper_scale_er, sdp_factors};
use criterion::{criterion_group, criterion_main, Criterion};
use snc_devices::{DeviceModel, DevicePool, PoolSpec};
use snc_graph::{CutAssignment, Graph};
use snc_maxcut::{
    log2_checkpoints, BestTrace, HopfieldCircuit, HopfieldConfig, LifGwCircuit, LifGwConfig,
    LifTrevisanCircuit, LifTrevisanConfig,
};
use snc_neuro::{DenseWeights, TwoStageConfig, TwoStageNetwork};
use std::hint::black_box;
use std::time::Duration;

/// Sample budget per replica: enough steps (64 × 50 decorrelation steps)
/// that stepping dominates setup, small enough for a CI smoke run.
const SAMPLES: u64 = 64;

fn replica_seeds(r: usize) -> Vec<u64> {
    (0..r as u64).map(|i| 0xF164 + i * 31).collect()
}

/// One trace per seed, each from its own one-seed batch, run one after
/// the other: the reference an R-wide batch's traces must equal.
fn one_seed_traces(seeds: &[u64], trace: impl Fn(&[u64]) -> Vec<BestTrace>) -> Vec<BestTrace> {
    seeds.iter().map(|&s| trace(&[s]).remove(0)).collect()
}

fn sequential_vs_batched(c: &mut Criterion) {
    let graph = fig4_smallest();
    let factors = sdp_factors(&graph);
    let cfg = LifGwConfig::default();
    let cp = log2_checkpoints(SAMPLES);
    let traces = |seeds: &[u64]| LifGwCircuit::new(&factors, seeds, &cfg).best_traces(&graph, &cp);

    // Loud correctness gate: every lane == its one-seed batch, bit for bit.
    for r in [8usize, 16] {
        let seeds = replica_seeds(r);
        assert_eq!(
            traces(&seeds),
            one_seed_traces(&seeds, traces),
            "batched traces diverged from one-seed batches at R={r}"
        );
    }

    let mut group = c.benchmark_group("lif_gw_best_traces_n39");
    for r in [8usize, 16] {
        let seeds = replica_seeds(r);
        group.bench_function(format!("one_seed_R{r}"), |b| {
            b.iter(|| one_seed_traces(&seeds, traces))
        });
        group.bench_function(format!("batched_R{r}"), |b| b.iter(|| traces(&seeds)));
    }
    group.finish();
}

/// LIF-Trevisan: R one-seed batches vs one R-wide batched two-stage
/// network (shared slice gather + SoA plasticity). Sample budget SAMPLES
/// per replica; each LIF-TR sample is one plasticity update = 10 time
/// steps at the default `plasticity_interval`.
fn lif_tr_sequential_vs_batched(c: &mut Criterion) {
    let graph = fig4_smallest();
    let cfg = LifTrevisanConfig::default();
    let cp = log2_checkpoints(SAMPLES);
    let traces =
        |seeds: &[u64]| LifTrevisanCircuit::new(&graph, seeds, &cfg).best_traces(&graph, &cp);

    // Loud correctness gate: every lane == its one-seed batch, bit for bit.
    for r in [8usize, 16] {
        let seeds = replica_seeds(r);
        assert_eq!(
            traces(&seeds),
            one_seed_traces(&seeds, traces),
            "batched LIF-TR traces diverged from one-seed batches at R={r}"
        );
    }

    let mut group = c.benchmark_group("lif_tr_best_traces_n39");
    for r in [8usize, 16] {
        let seeds = replica_seeds(r);
        group.bench_function(format!("one_seed_R{r}"), |b| {
            b.iter(|| one_seed_traces(&seeds, traces))
        });
        group.bench_function(format!("batched_R{r}"), |b| b.iter(|| traces(&seeds)));
    }
    group.finish();
}

/// LIF-Trevisan's interval kernel at paper scale: one plasticity update
/// (one plasticity interval of stage 1, one gather over G(500, 0.1)'s
/// Trevisan matrix, then the Oja pass) of an R-wide batch vs R one-seed
/// batches, on the largest Fig.-3 corner.
fn interval_update_paper_scale(c: &mut Criterion) {
    let graph = paper_scale_er();
    let cfg = TwoStageConfig::default();
    const R: usize = 8;
    let seeds = replica_seeds(R);
    let batch = || TwoStageNetwork::new(&graph, &seeds, cfg);
    let ones = || -> Vec<TwoStageNetwork> {
        seeds
            .iter()
            .map(|&s| TwoStageNetwork::new(&graph, &[s], cfg))
            .collect()
    };

    // Correctness gate: every lane == its one-seed network, bit for bit.
    let (mut wide, mut one) = (batch(), ones());
    wide.run_updates(4);
    for (r, net) in one.iter_mut().enumerate() {
        net.run_updates(4);
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(wide.readout_weights(r)),
            bits(net.readout_weights(0)),
            "interval update diverged at replica {r}"
        );
    }

    let mut group = c.benchmark_group("interval_update_n500");
    group.bench_function(format!("per_replica_R{R}"), |b| {
        b.iter(|| {
            for net in one.iter_mut() {
                black_box(net.update());
            }
        })
    });
    group.bench_function(format!("shared_R{R}"), |b| {
        b.iter(|| black_box(wide.update().len()))
    });
    group.finish();
}

/// Samples drawn per replica in one width-sweep iteration.
const SWEEP_SAMPLES: usize = 16;

/// Replica widths of the sweep: the server default, the narrowest
/// batched width, a width that leaves phantom lanes in Hopfield's lane
/// chunks, and the `cold-sampling` batched width.
const SWEEP_WIDTHS: [usize; 4] = [1, 2, 3, 8];

/// The sweep's graphs: `cold-sampling`'s sparse and dense slices.
fn sweep_graphs() -> [(&'static str, Graph); 2] {
    [
        ("g200_p005", er_graph(200, 0.05)),
        ("g350_p01", er_graph(350, 0.1)),
    ]
}

/// One one-seed batch per seed.
fn ones<C>(seeds: &[u64], build: impl Fn(&[u64]) -> C) -> Vec<C> {
    seeds.iter().map(|&s| build(&[s])).collect()
}

/// Draws `SWEEP_SAMPLES` cuts from each one-seed batch in turn.
fn one_seed_cuts<C>(
    ones: &mut [C],
    mut next: impl FnMut(&mut C) -> Vec<CutAssignment>,
) -> Vec<Vec<CutAssignment>> {
    ones.iter_mut()
        .map(|c| (0..SWEEP_SAMPLES).map(|_| next(c).remove(0)).collect())
        .collect()
}

/// Draws `SWEEP_SAMPLES` rounds of cuts from a batched circuit, regrouped
/// per replica.
fn batched_cuts(
    replicas: usize,
    mut next: impl FnMut() -> Vec<CutAssignment>,
) -> Vec<Vec<CutAssignment>> {
    let mut per_replica = vec![Vec::with_capacity(SWEEP_SAMPLES); replicas];
    for _ in 0..SWEEP_SAMPLES {
        for (r, cut) in next().into_iter().enumerate() {
            per_replica[r].push(cut);
        }
    }
    per_replica
}

/// LIF-Trevisan and Hopfield, one R-wide batch vs R one-seed batches, per
/// graph and width.
fn width_sweep(c: &mut Criterion) {
    let tr_cfg = LifTrevisanConfig::default();
    let hf_cfg = HopfieldConfig::default();
    for (name, graph) in sweep_graphs() {
        let graph = &graph;
        let tr = |seeds: &[u64]| LifTrevisanCircuit::new(graph, seeds, &tr_cfg);
        let hf = |seeds: &[u64]| HopfieldCircuit::new(graph, seeds, &hf_cfg);
        // Loud correctness gate before any timing: same cuts and, for
        // LIF-Trevisan, same final readout weights, bit for bit.
        for r in SWEEP_WIDTHS {
            let seeds = replica_seeds(r);
            let mut one_tr: Vec<LifTrevisanCircuit> = ones(&seeds, tr);
            let mut batch = tr(&seeds);
            assert_eq!(
                batched_cuts(r, || batch.next_cuts()),
                one_seed_cuts(&mut one_tr, LifTrevisanCircuit::next_cuts),
                "LIF-TR {name} R={r}: cuts diverged"
            );
            for (i, one) in one_tr.iter().enumerate() {
                let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(batch.readout_weights(i)),
                    bits(one.readout_weights(0)),
                    "LIF-TR {name} R={r} replica {i}: readout weights diverged"
                );
            }

            let mut one_hf: Vec<HopfieldCircuit> = ones(&seeds, hf);
            let mut batch = hf(&seeds);
            assert_eq!(
                batched_cuts(r, || batch.next_cuts()),
                one_seed_cuts(&mut one_hf, HopfieldCircuit::next_cuts),
                "Hopfield {name} R={r}: cuts diverged"
            );
        }

        let mut group = c.benchmark_group(&format!("width_sweep_lif_tr_{name}"));
        for r in SWEEP_WIDTHS {
            let seeds = replica_seeds(r);
            // At R = 1 both arms would run one one-seed batch; `batched_R1`
            // is the single-circuit baseline.
            if r > 1 {
                group.bench_function(format!("one_seed_R{r}"), |b| {
                    b.iter(|| {
                        let mut one_tr = ones(&seeds, tr);
                        one_seed_cuts(&mut one_tr, LifTrevisanCircuit::next_cuts)
                    })
                });
            }
            group.bench_function(format!("batched_R{r}"), |b| {
                b.iter(|| {
                    let mut batch = tr(&seeds);
                    batched_cuts(r, || batch.next_cuts())
                })
            });
        }
        group.finish();

        let mut group = c.benchmark_group(&format!("width_sweep_hopfield_{name}"));
        for r in SWEEP_WIDTHS {
            let seeds = replica_seeds(r);
            // At R = 1 both arms would run one one-seed batch; `batched_R1`
            // is the single-circuit baseline.
            if r > 1 {
                group.bench_function(format!("one_seed_R{r}"), |b| {
                    b.iter(|| {
                        let mut one_hf = ones(&seeds, hf);
                        one_seed_cuts(&mut one_hf, HopfieldCircuit::next_cuts)
                    })
                });
            }
            group.bench_function(format!("batched_R{r}"), |b| {
                b.iter(|| {
                    let mut batch = hf(&seeds);
                    batched_cuts(r, || batch.next_cuts())
                })
            });
        }
        group.finish();
    }
}

/// The pre-packing dense kernel, verbatim: branch per device on a bool
/// slice, accumulate active columns. Kept here as the honest baseline for
/// the packed-kernel claim.
fn dense_accumulate_legacy(w: &DenseWeights, active: &[bool], out: &mut [f64]) {
    out.fill(0.0);
    for (alpha, &on) in active.iter().enumerate() {
        if on {
            for (o, &v) in out.iter_mut().zip(w.column(alpha)) {
                *o += v;
            }
        }
    }
}

fn packed_kernels(c: &mut Criterion) {
    let graph = fig4_smallest();
    let factors = sdp_factors(&graph);
    let dense = DenseWeights::from_matrix_scaled(&factors, 1.0);
    let n = graph.n();

    let mut pool = DevicePool::new(PoolSpec::uniform(DeviceModel::fair(), 4), 7);
    let active4 = pool.step().clone();
    let mut pool_n = DevicePool::new(PoolSpec::uniform(DeviceModel::fair(), n), 8);
    let bools4 = active4.to_bools();
    let mut out = vec![0.0; n];

    let mut group = c.benchmark_group("synaptic_kernel_n39");
    group.bench_function("dense_packed", |b| {
        b.iter(|| dense.accumulate_words(black_box(&active4), &mut out))
    });
    group.bench_function("dense_legacy_bools", |b| {
        b.iter(|| dense_accumulate_legacy(&dense, black_box(&bools4), &mut out))
    });
    // Pool stepping emits packed words directly; time the readout too.
    group.bench_function("pool_step_packed", |b| {
        b.iter(|| black_box(pool_n.step().words()[0]))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(12)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    targets = sequential_vs_batched, lif_tr_sequential_vs_batched,
        interval_update_paper_scale, packed_kernels, width_sweep
}
criterion_main!(benches);
