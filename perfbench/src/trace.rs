//! The traced run: per-layer metrics.
//!
//! The end-to-end numbers come from untraced runs only. A traced run
//! runs the same workload and then measures each layer from outside the
//! program:
//!
//! * counts (cache hits, SDP solves, pool reuse) are deltas of `/healthz`
//!   and `/metrics` over the timed phase;
//! * an edge probe times one warm request on persistent, fresh and direct
//!   connections (the workload's own fleet when it is routed, otherwise a
//!   router + two backends started for the probe);
//! * an in-process replay sends a sample of the workload's requests
//!   through each layer's public functions in the order the service runs
//!   them — http parse → wire parse → key → ring → response-cache lookup →
//!   solve (SDP, sampling) → render — recording one span per call, and
//!   asserts each rendered body is byte-identical to the service's;
//! * circuit and SDP probes time `solve_with_cache` per family and width
//!   and `solve_maxcut_sdp` per graph.
//!
//! Spans are kept in memory and written to `spans-<workload>-seed<N>.jsonl`
//! in the output directory when the run ends.

use crate::bench::{fleet_ring, owner, Run};
use crate::client::{post, Conn};
use crate::fleet::{Fleet, Topology};
use crate::stats::{mean, median, ratio};
use crate::workloads::{Plan, Request};
use crate::{metric, Args, Metric};
use snc_devices::SplitMix64;
use snc_experiments::json::Json;
use snc_linalg::{solve_maxcut_sdp, SdpConfig};
use snc_maxcut::{solve_with_cache, CircuitFamily, SdpCache, SolveSpec};
use snc_router::HashRing;
use snc_server::http::RequestParser;
use snc_server::wire::{self, RequestDefaults, Workload};
use snc_server::{ResponseCache, ResponseKey, ServerConfig};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Requests of a cold workload replayed in process.
const COLD_REPLAY: usize = 24;
/// Rounds over a warm workload's working set (its layers take µs).
const WARM_ROUNDS: usize = 20;
/// Requests per edge-probe mode, and fresh connections per request.
const EDGE_SAMPLES: usize = 200;
const EDGE_FRESH: usize = 12;
/// Requests an edge probe uses.
const EDGE_REQUESTS: usize = 8;
/// Budget of the circuit probe's solves.
const PROBE_BUDGET: u64 = 256;
/// Span names of the edge's and the backend's parse → key steps.
const EDGE_FRONT: [&str; 3] = ["router.http.parse", "router.wire.parse", "router.wire.key"];
const SERVER_FRONT: [&str; 3] = ["server.http.parse", "server.wire.parse", "server.wire.key"];

/// One layer call.
struct Span {
    name: &'static str,
    /// Index of the request in the plan.
    req: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans of one run, kept in memory. A disabled tracer runs the same
/// calls without timing or recording them.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            enabled,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a top-level span of request `req`.
    fn span<T>(&mut self, name: &'static str, req: usize, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            req,
            parent: None,
            start_ns,
            end_ns,
        });
        out
    }

    /// A child span whose duration the callee measured itself.
    fn child(&mut self, name: &'static str, parent: usize, start_ns: u64, micros: u64) {
        let req = self.spans[parent].req;
        let end_ns = start_ns + micros * 1000;
        self.spans.push(Span {
            name,
            req,
            parent: Some(parent),
            start_ns,
            end_ns,
        });
    }

    /// Self time of every span, µs: duration minus what its children cover.
    fn self_us(&self) -> Vec<f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e3)
            .collect()
    }

    fn write(&self, path: &std::path::Path) -> Result<(), String> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, |p| Json::UInt(p as u64));
            let line = Json::Obj(vec![
                ("id".into(), Json::UInt(id as u64)),
                ("request".into(), Json::UInt(s.req as u64)),
                ("name".into(), Json::str(s.name)),
                ("parent".into(), parent),
                ("start_ns".into(), Json::UInt(s.start_ns)),
                ("end_ns".into(), Json::UInt(s.end_ns)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// What the edge probe measured.
pub struct EdgeProbe {
    accept_wait_ms: f64,
    hop_us: f64,
    /// Pool reuse over the probe (used when the workload has no router).
    reuse_ratio: f64,
}

fn timed_call(conn: &mut Conn, bytes: &[u8]) -> Result<f64, String> {
    let started = Instant::now();
    let response = conn.call(bytes).map_err(|e| format!("edge probe: {e}"))?;
    if response.status != 200 {
        return Err(format!("edge probe answered {}", response.status));
    }
    Ok(started.elapsed().as_secs_f64() * 1e6)
}

/// Times warm requests routed on a persistent connection, routed on a
/// fresh connection each, and sent straight to the owning backend.
/// `requests` must already be in the owning backends' response caches.
pub fn edge_probe(fleet: &Fleet, plan: &Plan) -> Result<EdgeProbe, String> {
    let requests: Vec<&Request> = plan.requests.iter().take(EDGE_REQUESTS).collect();
    probe_fleet(fleet, &requests)
}

fn probe_fleet(fleet: &Fleet, requests: &[&Request]) -> Result<EdgeProbe, String> {
    let ring = fleet_ring();
    let io = |e: std::io::Error| format!("edge probe: {e}");
    let before = fleet.counters()?;
    let keep_alive: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| post("/solve", &r.body(), false))
        .collect();
    let close: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| post("/solve", &r.body(), true))
        .collect();
    let owners = requests
        .iter()
        .map(|r| owner(&ring, r))
        .collect::<Result<Vec<_>, _>>()?;
    let mut routed = Conn::connect(fleet.entry()).map_err(io)?;
    let mut direct = fleet
        .backends
        .iter()
        .map(|b| Conn::connect(b.addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(io)?;
    let (mut persistent, mut straight, mut fresh) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..EDGE_SAMPLES {
        let k = i % requests.len();
        persistent.push(timed_call(&mut routed, &keep_alive[k])?);
        straight.push(timed_call(&mut direct[owners[k]], &keep_alive[k])?);
    }
    for i in 0..EDGE_FRESH * requests.len().min(2) {
        let k = i % requests.len();
        let mut conn = Conn::connect(fleet.entry()).map_err(io)?;
        fresh.push(timed_call(&mut conn, &close[k])?);
    }
    let delta = fleet.counters()?.since(&before);
    Ok(EdgeProbe {
        accept_wait_ms: (median(&fresh) - median(&persistent)) / 1e3,
        hop_us: median(&persistent) - median(&straight),
        reuse_ratio: ratio(
            delta.pool_reused as f64,
            (delta.pool_reused + delta.pool_created) as f64,
        ),
    })
}

/// For a workload without a router: a router + two backends started for
/// the probe, primed with the workload's first requests.
fn probe_with_own_fleet(plan: &Plan) -> Result<EdgeProbe, String> {
    let fleet = Fleet::start(Topology::Routed, &[]);
    let requests: Vec<&Request> = plan.requests.iter().take(EDGE_REQUESTS).collect();
    let mut conn = Conn::connect(fleet.entry()).map_err(|e| format!("edge probe: {e}"))?;
    for r in &requests {
        timed_call(&mut conn, &post("/solve", &r.body(), false))?;
    }
    probe_fleet(&fleet, &requests)
}

/// The in-process service: its caches and parse defaults.
struct Service {
    defaults: RequestDefaults,
    max_body: usize,
    responses: ResponseCache,
    sdp: SdpCache,
    ring: HashRing,
    routed: bool,
}

impl Service {
    fn new(routed: bool) -> Service {
        let cfg = ServerConfig::default();
        Service {
            defaults: cfg.request_defaults(),
            max_body: cfg.max_body_bytes,
            responses: ResponseCache::new(cfg.response_cache_bytes),
            sdp: SdpCache::new(cfg.sdp_cache_entries),
            ring: fleet_ring(),
            routed,
        }
    }

    /// http parse → wire parse → key, one span each under `names`.
    fn parse_and_key(
        &self,
        t: &mut Tracer,
        names: [&'static str; 3],
        req: usize,
        bytes: &[u8],
    ) -> Result<(Workload, ResponseKey), String> {
        let request = t.span(names[0], req, || {
            let mut parser = RequestParser::new(self.max_body);
            parser.push(bytes);
            parser.next_request()
        });
        let request = request
            .map_err(|e| format!("http parse: {e:?}"))?
            .ok_or("http parse: incomplete request")?;
        let workload = t.span(names[1], req, || {
            wire::parse_request(&request.body, &self.defaults)
        });
        let workload = workload.map_err(|e| e.0)?;
        let key = t.span(names[2], req, || wire::response_key(&workload));
        Ok((workload, key))
    }

    /// The backend's front layers: parse, key, response-cache lookup.
    fn front(
        &self,
        t: &mut Tracer,
        req: usize,
        bytes: &[u8],
    ) -> Result<(Workload, ResponseKey, Option<Arc<String>>), String> {
        let (workload, key) = self.parse_and_key(t, SERVER_FRONT, req, bytes)?;
        let hit = t.span("server.cache.get", req, || self.responses.get(&key));
        Ok((workload, key, hit))
    }

    /// One request through every layer, in service order; returns the
    /// body it answers with.
    fn serve(&self, t: &mut Tracer, req: usize, bytes: &[u8]) -> Result<String, String> {
        if self.routed {
            // The edge parses and fingerprints the request to route it.
            let (_, key) = self.parse_and_key(t, EDGE_FRONT, req, bytes)?;
            t.span("router.ring.route", req, || {
                self.ring.route(key.payload_fold(), |_| true)
            });
        }
        let (workload, key, hit) = self.front(t, req, bytes)?;
        if let Some(hit) = hit {
            return Ok(String::clone(&hit));
        }
        let Workload::MaxCut(job) = &workload else {
            return Err("benchmark requests are unweighted MAXCUT".into());
        };
        let start_ns = t.now();
        let outcome = t.span("maxcut.solve", req, || {
            solve_with_cache(&job.graph, &job.spec, Some(&self.sdp))
        });
        let outcome = outcome.map_err(|e| e.to_string())?;
        // Both stages run inside the one call; their split is the
        // solver's own StageTimings.
        let solve = t.spans.len() - 1;
        if let Some(sdp_us) = outcome.stages.sdp_us {
            t.child("linalg.sdp", solve, start_ns, sdp_us);
        }
        let sampling_us = outcome.stages.sampling_us;
        let sampling_start = t.spans[solve].end_ns.saturating_sub(sampling_us * 1000);
        t.child("maxcut.circuits.sample", solve, sampling_start, sampling_us);
        let body = t.span("server.wire.render", req, || {
            wire::solve_response(job, &outcome).render()
        });
        t.span("server.cache.insert", req, || {
            self.responses.insert(key, body.clone())
        });
        Ok(body)
    }
}

/// Median self time (µs) of the spans called `name`.
fn layer_us(t: &Tracer, self_us: &[f64], name: &str) -> f64 {
    let values: Vec<f64> = t
        .spans
        .iter()
        .zip(self_us)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &v)| v)
        .collect();
    median(&values)
}

/// The `SdpConfig` a request's SDP runs with.
fn sdp_config(req: &Request) -> SdpConfig {
    SdpConfig {
        rank: 4,
        seed: SplitMix64::derive(req.seed, 1),
        ..SdpConfig::default()
    }
}

/// Runs the traced measurements and returns every per-layer metric.
pub fn per_layer(
    args: &Args,
    plan: &Plan,
    run: &Run,
    edge: Option<EdgeProbe>,
) -> Result<Vec<Metric>, String> {
    let routed = plan.topology == Topology::Routed;
    let edge = match edge {
        Some(edge) => edge,
        None => probe_with_own_fleet(plan)?,
    };
    let delta = &run.delta;
    let service = Service::new(routed);
    let mut t = Tracer::new(true);

    // In-process state matching the fleet's at the start of the timed
    // phase: primed SDP factors, or a response cache filled by rendering
    // each working-set request once (asserted equal to the service's).
    let sample: Vec<usize> = if plan.warm {
        (0..plan.requests.len()).collect()
    } else {
        (0..plan.requests.len().min(COLD_REPLAY)).collect()
    };
    for r in &plan.prime {
        service
            .sdp
            .get_or_solve(&gnp_of(r)?, SplitMix64::derive(r.seed, 1), 4)
            .map_err(|e| e.to_string())?;
    }
    let wire_bytes: Vec<Vec<u8>> = plan
        .requests
        .iter()
        .map(|r| post("/solve", &r.body(), false))
        .collect();
    let service_body = |req: usize| -> Option<&[u8]> {
        match &run.reference {
            Some(reference) => Some(&reference[req]),
            None => run
                .samples
                .iter()
                .find(|s| s.req == req)
                .and_then(|s| s.result.as_ref().ok()?.as_deref()),
        }
    };
    // Each (request, round) owns the spans its replay recorded.
    let mut replays: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
    let mut mismatches = Vec::new();
    let rounds = if plan.warm { 1 + WARM_ROUNDS } else { 1 };
    for round in 0..rounds {
        for &req in &sample {
            let first = t.spans.len();
            let body = service.serve(&mut t, req, &wire_bytes[req])?;
            if service_body(req).is_some_and(|expected| expected != body.as_bytes()) {
                mismatches.push(req);
            }
            // A warm workload's first round fills the in-process cache;
            // only the later, cache-hit rounds match its timed phase.
            if round > 0 || !plan.warm {
                replays.push((req, first..t.spans.len()));
            }
        }
    }
    if !mismatches.is_empty() {
        return Err(format!(
            "in-process replay differs from the service on requests {mismatches:?}"
        ));
    }
    let self_us = t.self_us();

    // Attribution: the sampled requests' span time against their
    // client-observed latency in the timed phase.
    let mut latency: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for s in &run.samples {
        latency.entry(s.req).or_default().push(s.latency_us);
    }
    let mut attributed: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (req, range) in &replays {
        attributed
            .entry(*req)
            .or_default()
            .push(self_us[range.clone()].iter().sum());
    }
    let (mut covered, mut observed) = (0.0, 0.0);
    for (req, spans) in &attributed {
        if let Some(l) = latency.get(req) {
            covered += median(spans);
            observed += median(l);
        }
    }
    let unattributed_share = 1.0 - ratio(covered, observed);

    // Tracing overhead: the backend's front layers with and without span
    // records, as a share of the client-observed latency of the same
    // requests.
    let mut front_us = [Vec::new(), Vec::new()];
    let mut tracers = [Tracer::new(false), Tracer::new(true)];
    for _ in 0..5 {
        for (tracer, times) in tracers.iter_mut().zip(&mut front_us) {
            let started = Instant::now();
            for &req in &sample {
                std::hint::black_box(service.front(tracer, req, &wire_bytes[req])?);
            }
            times.push(started.elapsed().as_secs_f64() * 1e6);
        }
    }
    let overhead_share = ratio(median(&front_us[1]) - median(&front_us[0]), observed);

    // SDP probe: every distinct SDP-family graph in the sample.
    let mut sdp_ms = Vec::new();
    let mut iterations = Vec::new();
    let mut seen = HashSet::new();
    for &req in &sample {
        let r = &plan.requests[req];
        if !matches!(r.family, CircuitFamily::LifGw | CircuitFamily::LifAnnealed)
            || !seen.insert((r.n, r.graph_seed, r.seed))
        {
            continue;
        }
        let graph = gnp_of(r)?;
        let edges: Vec<(u32, u32)> = graph.edges().collect();
        let solution = t.span("linalg.sdp.probe", req, || {
            solve_maxcut_sdp(graph.n(), &edges, &sdp_config(r))
        });
        let span = t.spans.last().expect("just pushed");
        sdp_ms.push((span.end_ns - span.start_ns) as f64 / 1e6);
        iterations.push(solution.map_err(|e| e.to_string())?.iterations as f64);
    }
    let cap = SdpConfig::default();
    let cap = (cap.max_iters * cap.restarts) as f64;
    let capped_share = ratio(
        iterations.iter().filter(|&&i| i >= cap).count() as f64,
        iterations.len() as f64,
    );

    // Circuit probe: each family at each width on the workload's smallest
    // and largest graph, SDP factors primed.
    let smallest = plan
        .requests
        .iter()
        .min_by_key(|r| (r.n, (r.p * 1e6) as u64))
        .expect("plans are non-empty");
    let largest = plan
        .requests
        .iter()
        .max_by_key(|r| (r.n, (r.p * 1e6) as u64))
        .expect("plans are non-empty");
    let families = CircuitFamily::all();
    let mut sample_ms = vec![[Vec::new(), Vec::new()]; families.len()];
    let mut family_cut = vec![Vec::new(); families.len()];
    let cache = SdpCache::new(8);
    for r in [smallest, largest] {
        let graph = gnp_of(r)?;
        cache
            .get_or_solve(&graph, SplitMix64::derive(r.seed, 1), 4)
            .map_err(|e| e.to_string())?;
        for (f, family) in families.into_iter().enumerate() {
            for (w, width) in [1, 8].into_iter().enumerate() {
                let spec = SolveSpec {
                    replicas: width,
                    sdp_rank: 4,
                    lif: service.defaults.lif,
                    ..SolveSpec::new(family, PROBE_BUDGET, r.seed)
                };
                let started = Instant::now();
                let outcome =
                    solve_with_cache(&graph, &spec, Some(&cache)).map_err(|e| e.to_string())?;
                sample_ms[f][w].push(started.elapsed().as_secs_f64() * 1e3);
                family_cut[f].push(outcome.best_value as f64 / graph.m() as f64);
            }
        }
    }

    // Per-request quality from the timed phase.
    let to_best: Vec<f64> = run
        .checked
        .iter()
        .flatten()
        .map(|c| c.samples_to_best as f64)
        .collect();
    // Transport: client latency minus the answering process's elapsed time.
    let transport: Vec<f64> = run
        .samples
        .iter()
        .filter_map(|s| Some(s.latency_us - s.elapsed_us? as f64))
        .collect();
    let queue_wait_ms = if routed || delta.solver_runs == 0 {
        0.0
    } else {
        let elapsed: f64 = run
            .samples
            .iter()
            .filter_map(|s| s.elapsed_us)
            .map(|e| e as f64)
            .sum();
        (elapsed - delta.solver_total_us) / delta.solver_runs as f64 / 1e3
    };
    let reuse_ratio = if routed {
        ratio(
            delta.pool_reused as f64,
            (delta.pool_reused + delta.pool_created) as f64,
        )
    } else {
        edge.reuse_ratio
    };

    let mut metrics = vec![
        metric("router.proxy.accept_wait_ms", edge.accept_wait_ms, "ms"),
        metric("router.proxy.hop_us", edge.hop_us, "us"),
        metric(
            "router.ring.route_us",
            route_us(&service, plan, &sample)?,
            "us",
        ),
        metric("router.pool.reuse_ratio", reuse_ratio, "ratio"),
        metric(
            "server.http.parse_us",
            layer_us(&t, &self_us, "server.http.parse"),
            "us",
        ),
        metric(
            "server.wire.parse_us",
            layer_us(&t, &self_us, "server.wire.parse"),
            "us",
        ),
        metric(
            "server.wire.key_us",
            layer_us(&t, &self_us, "server.wire.key"),
            "us",
        ),
        metric(
            "server.wire.render_us",
            layer_us(&t, &self_us, "server.wire.render"),
            "us",
        ),
        metric(
            "server.cache.get_us",
            layer_us(&t, &self_us, "server.cache.get"),
            "us",
        ),
        metric(
            "server.cache.hit_ratio",
            ratio(
                delta.response_hits as f64,
                (delta.response_hits + delta.response_misses) as f64,
            ),
            "ratio",
        ),
        metric("server.event.transport_us", median(&transport), "us"),
        metric("server.event.queue_wait_ms", queue_wait_ms, "ms"),
        metric("linalg.sdp.solve_ms", median(&sdp_ms), "ms"),
        metric("linalg.sdp.iterations", mean(&iterations), "count"),
        metric("linalg.sdp.capped_share", capped_share, "ratio"),
        metric("maxcut.cache.sdp_solves", delta.sdp_solves as f64, "count"),
        metric(
            "maxcut.cache.sdp_hit_ratio",
            ratio(
                delta.sdp_hits as f64,
                (delta.sdp_hits + delta.sdp_misses) as f64,
            ),
            "ratio",
        ),
    ];
    for (family, by_width) in families.iter().zip(&sample_ms) {
        for (width, values) in [1, 8].iter().zip(by_width) {
            metrics.push(metric(
                format!("maxcut.circuits.{}.r{width}.sample_ms", family.name()),
                median(values),
                "ms",
            ));
        }
    }
    for (family, values) in families.iter().zip(&family_cut) {
        metrics.push(metric(
            format!("maxcut.circuits.{}.cut_fraction", family.name()),
            mean(values),
            "ratio",
        ));
    }
    metrics.push(metric(
        "maxcut.solve.samples_to_best",
        mean(&to_best),
        "count",
    ));
    metrics.push(metric("unattributed_share", unattributed_share, "ratio"));
    metrics.push(metric("trace.overhead_share", overhead_share, "ratio"));

    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    t.write(
        &args
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed)),
    )?;
    Ok(metrics)
}

/// Mean µs of one `HashRing::route(payload_fold)` over the sampled
/// requests' keys (timed in a loop: one call takes well under a µs, so
/// a span per call would mostly time the clock).
fn route_us(service: &Service, plan: &Plan, sample: &[usize]) -> Result<f64, String> {
    const REPS: usize = 2000;
    let keys = sample
        .iter()
        .map(|&req| {
            let body = plan.requests[req].body();
            wire::parse_request(body.as_bytes(), &service.defaults)
                .map(|w| wire::response_key(&w))
                .map_err(|e| e.0)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let started = Instant::now();
    for _ in 0..REPS {
        for key in &keys {
            std::hint::black_box(
                service
                    .ring
                    .route(std::hint::black_box(key).payload_fold(), |_| true),
            );
        }
    }
    Ok(started.elapsed().as_secs_f64() * 1e6 / (REPS * keys.len()) as f64)
}

fn gnp_of(r: &Request) -> Result<snc_graph::Graph, String> {
    snc_graph::generators::erdos_renyi::gnp(r.n, r.p, r.graph_seed).map_err(|e| e.to_string())
}
