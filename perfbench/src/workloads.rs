//! The four workloads: each is a fixed request list generated from the
//! workload seed, sized by the run length, replayed to completion.

use crate::fleet::Topology;
use snc_devices::{Rng64, SplitMix64};
use snc_maxcut::CircuitFamily;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["cold-sdp", "cold-sampling", "warm-routed", "churn-routed"];

/// Graphs per second of run length on `cold-sdp` (two requests each).
const COLD_SDP_GRAPHS_PER_S: f64 = 14.5;
/// Requests per second of run length on `cold-sampling`.
const COLD_SAMPLING_REQUESTS_PER_S: f64 = 65.0;
/// Requests per second of run length on `warm-routed`.
const WARM_REQUESTS_PER_S: f64 = 14_000.0;
/// Requests per second of run length on `churn-routed`.
const CHURN_REQUESTS_PER_S: f64 = 40.0;
/// Distinct requests in the routed workloads' working set.
const WORKING_SET: usize = 64;
/// Seeds the fixed graph pool every workload draws from.
const GRAPH_POOL_SEED: u64 = 0x5d9_2023;

/// One solve request and what the output check needs to know about it.
#[derive(Clone, Debug)]
pub struct Request {
    pub family: CircuitFamily,
    pub n: usize,
    pub p: f64,
    pub graph_seed: u64,
    pub budget: u64,
    /// `None` leaves the server default (R = 1).
    pub replicas: Option<usize>,
    pub seed: u64,
}

impl Request {
    pub fn body(&self) -> String {
        let replicas = self
            .replicas
            .map_or(String::new(), |r| format!(",\"replicas\":{r}"));
        format!(
            "{{\"graph\":{{\"gnp\":{{\"n\":{},\"p\":{},\"seed\":{}}}}},\"circuit\":\"{}\",\"budget\":{}{replicas},\"seed\":{}}}",
            self.n,
            self.p,
            self.graph_seed,
            self.family.name(),
            self.budget,
            self.seed
        )
    }
}

/// Everything one run of a workload sends.
pub struct Plan {
    pub topology: Topology,
    /// Extra `snc-server` flags for every backend.
    pub backend_flags: &'static [&'static str],
    /// Every timed request opens its own connection and closes it.
    pub fresh_connections: bool,
    /// The distinct timed requests.
    pub requests: Vec<Request>,
    /// Per-client replay order, as indices into `requests`.
    pub lanes: [Vec<usize>; 2],
    /// Requests sent during set-up to fill the service's caches.
    pub prime: Vec<Request>,
    /// The timed requests are the primed ones (served from the response
    /// cache).
    pub warm: bool,
    /// Distinct graphs among the timed requests.
    pub graphs: usize,
    /// Set-ups per run: `setup_s` is their median, so cheap set-ups are
    /// repeated more to steady it.
    pub setups: usize,
}

impl Plan {
    pub fn timed_requests(&self) -> usize {
        self.lanes.iter().map(Vec::len).sum()
    }
}

/// Builds a workload's plan. The same `(name, seed, seconds)` always
/// gives the same plan; the request count depends on `seconds` only.
///
/// Graphs come from a fixed pool, one per size stratum; the workload seed
/// draws the solver seeds, the order, and which client sends each
/// request. With seeded graphs, which graphs happened to drive the SDP to
/// its iteration cap moved a run's total work, and the mean cut fraction
/// of a 64-graph working set, by several percent from seed to seed.
pub fn plan(name: &str, seed: u64, seconds: u64) -> Result<Plan, String> {
    let mut pool = SplitMix64::new(GRAPH_POOL_SEED);
    let mut rng = SplitMix64::new(SplitMix64::derive(seed, 0x5eed));
    let scaled = |per_second: f64| (per_second * seconds as f64).round() as usize;
    match name {
        "cold-sdp" => Ok(cold_sdp(
            &mut pool,
            &mut rng,
            scaled(COLD_SDP_GRAPHS_PER_S).max(2),
        )),
        "cold-sampling" => Ok(cold_sampling(
            &mut pool,
            &mut rng,
            scaled(COLD_SAMPLING_REQUESTS_PER_S).max(12),
        )),
        "warm-routed" => Ok(routed(
            &mut pool,
            &mut rng,
            scaled(WARM_REQUESTS_PER_S).max(2),
            false,
        )),
        "churn-routed" => Ok(routed(
            &mut pool,
            &mut rng,
            scaled(CHURN_REQUESTS_PER_S).max(2),
            true,
        )),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

/// A seed that survives any JSON reader's integer range.
fn wire_seed(rng: &mut SplitMix64) -> u64 {
    rng.next_u64() >> 12
}

/// `count` sizes spread evenly over `lo..=hi`, one draw per equal-width
/// stratum. Stratifying keeps the size mix — and so the work of a run —
/// nearly the same from run to run.
fn spread(rng: &mut SplitMix64, count: usize, lo: usize, hi: usize) -> Vec<usize> {
    let width = (hi - lo + 1) as f64 / count as f64;
    (0..count)
        .map(|i| (lo + ((i as f64 + rng.next_f64()) * width) as usize).min(hi))
        .collect()
}

/// Deals `0..count` alternately onto the two clients.
fn deal(count: usize) -> [Vec<usize>; 2] {
    [
        (0..count).step_by(2).collect(),
        (1..count).step_by(2).collect(),
    ]
}

/// `cold-sdp`: distinct sparse graphs, each sent as LIF-GW and then as
/// LIF-annealed with the same seed and budget — the SDP dominates.
///
/// The solver seeds come from the pool too (the SDP's start, and so its
/// iteration count, derives from them), so every run solves the same
/// SDPs; the workload seed draws the order and the client of each graph.
/// With seeded solver seeds, which few solves ran to the iteration cap —
/// the requests that make up the latency tail — changed from run to run.
fn cold_sdp(pool: &mut SplitMix64, rng: &mut SplitMix64, graphs: usize) -> Plan {
    let mut instances: Vec<(usize, u64, u64)> = spread(pool, graphs, 100, 300)
        .into_iter()
        .map(|n| (n, wire_seed(pool), wire_seed(pool)))
        .collect();
    rng.shuffle(&mut instances);
    let mut requests = Vec::with_capacity(2 * graphs);
    for (n, graph_seed, seed) in instances {
        for family in [CircuitFamily::LifGw, CircuitFamily::LifAnnealed] {
            requests.push(Request {
                family,
                n,
                p: 0.05,
                graph_seed,
                budget: 256,
                replicas: None,
                seed,
            });
        }
    }
    // Graph g goes to client g % 2, which sends its pair back to back.
    let mut lanes = [Vec::new(), Vec::new()];
    for g in 0..graphs {
        lanes[g % 2].extend([2 * g, 2 * g + 1]);
    }
    Plan {
        topology: Topology::Direct,
        backend_flags: &[],
        fresh_connections: false,
        requests,
        lanes,
        prime: Vec::new(),
        warm: false,
        graphs,
        // A set-up is one process spawn (a few ms, jittery).
        setups: 15,
    }
}

/// `cold-sampling`: circuit sampling with no SDP in the timed phase.
/// LIF-Trevisan and Hopfield on fresh graphs (a sparse slice and a dense
/// one), LIF-GW on graphs whose SDP set-up primed with another budget;
/// replica width alternates between 1 and 8 within each slice.
fn cold_sampling(pool: &mut SplitMix64, rng: &mut SplitMix64, count: usize) -> Plan {
    // (family, p, n range, budget, share of the requests in twelfths)
    let groups = [
        (CircuitFamily::LifTrevisan, 0.05, (100, 300), 384, 3),
        (CircuitFamily::LifTrevisan, 0.1, (300, 400), 128, 2),
        (CircuitFamily::Hopfield, 0.05, (100, 300), 512, 3),
        (CircuitFamily::Hopfield, 0.1, (300, 400), 128, 3),
        (CircuitFamily::LifGw, 0.05, (100, 200), 4096, 1),
    ];
    let mut requests = Vec::with_capacity(count);
    for (family, p, (lo, hi), budget, twelfths) in groups {
        let group = count * twelfths / 12;
        for (i, n) in spread(pool, group, lo, hi).into_iter().enumerate() {
            let replicas = Some(if i % 2 == 0 { 1 } else { 8 });
            let (graph_seed, seed) = (wire_seed(pool), wire_seed(rng));
            requests.push(Request {
                family,
                n,
                p,
                graph_seed,
                budget,
                replicas,
                seed,
            });
        }
    }
    rng.shuffle(&mut requests);
    // The LIF-GW requests' SDP factors are primed with budget 1: the SDP
    // cache (keyed by graph, seed and rank) then hits in the timed phase
    // while the response cache (keyed by the whole request) misses.
    let prime = requests
        .iter()
        .filter(|r| r.family == CircuitFamily::LifGw)
        .map(|r| Request {
            budget: 1,
            replicas: None,
            ..r.clone()
        })
        .collect();
    let graphs = requests.len();
    let lanes = deal(requests.len());
    // Room for every primed factor: the default 128-entry cache would evict
    // some before the timed phase reaches them.
    let backend_flags = &["--sdp-cache-entries", "1024"];
    Plan {
        topology: Topology::Direct,
        backend_flags,
        fresh_connections: false,
        requests,
        lanes,
        prime,
        warm: false,
        graphs,
        // Each set-up solves every primed SDP (about 2 s).
        setups: 3,
    }
}

/// `warm-routed` / `churn-routed`: a small working set of all four
/// families, primed into the backends' response caches in set-up, then
/// replayed in a seeded order — on two persistent connections, or on a
/// fresh connection per request.
fn routed(
    pool: &mut SplitMix64,
    rng: &mut SplitMix64,
    count: usize,
    fresh_connections: bool,
) -> Plan {
    let families = CircuitFamily::all();
    let requests: Vec<Request> = spread(pool, WORKING_SET, 24, 56)
        .into_iter()
        .enumerate()
        .map(|(i, n)| Request {
            family: families[i % families.len()],
            n,
            p: 0.2,
            graph_seed: wire_seed(pool),
            budget: 64,
            replicas: None,
            seed: wire_seed(rng),
        })
        .collect();
    // Each client replays whole seeded permutations of the working set.
    let lanes = [0, 1].map(|_| {
        let mut lane = Vec::with_capacity(count / 2 + WORKING_SET);
        while lane.len() < count / 2 {
            let mut order: Vec<usize> = (0..WORKING_SET).collect();
            rng.shuffle(&mut order);
            lane.extend(order);
        }
        lane.truncate(count / 2);
        lane
    });
    Plan {
        topology: Topology::Routed,
        backend_flags: &[],
        fresh_connections,
        prime: requests.clone(),
        graphs: requests.len(),
        requests,
        lanes,
        warm: true,
        setups: 5,
    }
}
