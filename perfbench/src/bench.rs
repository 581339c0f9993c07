//! One run of a workload: set-up, the timed phase, the output check and
//! the path assertions.

use crate::check::{check, Checked, Graphs};
use crate::client::{fetch_ok, get, post, Conn};
use crate::fleet::{Counters, Fleet};
use crate::stats::mean;
use crate::workloads::{Plan, Request};
use snc_maxcut::CircuitFamily;
use snc_router::{HashRing, DEFAULT_VNODES};
use snc_server::{wire, ServerConfig};
use std::time::Instant;

/// A primed fleet and the clients' persistent connections (none when
/// every timed request opens its own).
pub struct Ready {
    pub fleet: Fleet,
    pub conns: Vec<Conn>,
}

/// One timed request as the client saw it.
pub struct Sample {
    pub req: usize,
    pub latency_us: f64,
    /// The answering process's `x-snc-elapsed-us`.
    pub elapsed_us: Option<u64>,
    /// The body (kept only when it is checked after the phase), or why
    /// the request failed.
    pub result: Result<Option<Vec<u8>>, String>,
}

/// What a whole run measured.
pub struct Run {
    pub setup_s: Vec<f64>,
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    /// Fleet counters over the timed phase.
    pub delta: Counters,
    pub peak_rss_mb: f64,
    /// For warm workloads: each request's body fetched straight from the
    /// backend that owns it.
    pub reference: Option<Vec<Vec<u8>>>,
    /// Per-sample output check (`None` for a failed request).
    pub checked: Vec<Option<Checked>>,
    /// Every failure, in sample order.
    pub failures: Vec<String>,
}

/// Spawns the fleet, admits the clients' connections and primes the
/// caches.
fn set_up(plan: &Plan) -> Result<Ready, String> {
    let fleet = Fleet::start(plan.topology, plan.backend_flags);
    let entry = fleet.entry();
    let mut conns = Vec::with_capacity(2);
    for _ in 0..2 {
        let mut conn = Conn::connect(entry).map_err(|e| format!("connect {entry}: {e}"))?;
        let status = conn
            .call(&get("/healthz"))
            .map_err(|e| format!("admission: {e}"))?
            .status;
        if status != 200 {
            return Err(format!("admission /healthz answered {status}"));
        }
        conns.push(conn);
    }
    let bodies: Vec<Vec<u8>> = plan
        .prime
        .iter()
        .map(|r| post("/solve", &r.body(), false))
        .collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(lane, conn)| {
                let bodies = &bodies;
                s.spawn(move || -> Result<(), String> {
                    for body in bodies.iter().skip(lane).step_by(2) {
                        let response = conn.call(body).map_err(|e| format!("priming: {e}"))?;
                        if response.status != 200 {
                            return Err(format!("priming answered {}", response.status));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("priming thread panicked"))
    })?;
    if plan.fresh_connections {
        conns.clear();
    }
    Ok(Ready { fleet, conns })
}

/// Sets up `plan.setups` times, tearing down all but the last fleet,
/// which serves the timed phase.
fn set_up_repeatedly(plan: &Plan) -> Result<(Vec<f64>, Ready), String> {
    let mut times = Vec::with_capacity(plan.setups);
    let mut ready = None;
    for _ in 0..plan.setups {
        drop(ready.take());
        let started = Instant::now();
        ready = Some(set_up(plan)?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((times, ready.expect("at least one set-up")))
}

/// The router's ring as the benchmark's fleets configure it: two equal
/// backends at the default virtual-node count.
pub fn fleet_ring() -> HashRing {
    HashRing::new(&[1, 1], DEFAULT_VNODES)
}

/// The backend index the router sends `req` to.
pub fn owner(ring: &HashRing, req: &Request) -> Result<usize, String> {
    let defaults = ServerConfig::default().request_defaults();
    let workload = wire::parse_request(req.body().as_bytes(), &defaults).map_err(|e| e.0)?;
    ring.route(wire::response_key(&workload).payload_fold(), |_| true)
        .ok_or_else(|| "ring routed nowhere".to_string())
}

/// Each request's body fetched directly from its owning backend (a
/// response-cache hit once primed).
fn fetch_reference(plan: &Plan, fleet: &Fleet) -> Result<Vec<Vec<u8>>, String> {
    let ring = fleet_ring();
    plan.requests
        .iter()
        .map(|req| {
            let backend = &fleet.backends[owner(&ring, req)?];
            fetch_ok(backend.addr(), &post("/solve", &req.body(), false))
        })
        .collect()
}

/// Replays one client's lane: on its persistent connection, or on a
/// fresh connection per request when `conn` is `None`.
fn drive_lane(
    lane: &[usize],
    wire_bytes: &[Vec<u8>],
    mut conn: Option<Conn>,
    entry: std::net::SocketAddr,
    reference: Option<&[Vec<u8>]>,
) -> Vec<Sample> {
    let persistent = conn.is_some();
    let mut samples = Vec::with_capacity(lane.len());
    for &req in lane {
        let started = Instant::now();
        let response = match conn.as_mut() {
            Some(c) => c.call(&wire_bytes[req]),
            None => Conn::connect(entry).and_then(|mut c| c.call(&wire_bytes[req])),
        };
        let latency_us = started.elapsed().as_secs_f64() * 1e6;
        let (elapsed_us, result) = match response {
            Err(e) => {
                if persistent {
                    conn = Conn::connect(entry).ok();
                }
                (None, Err(format!("transport: {e}")))
            }
            Ok(r) if r.status != 200 => (
                r.elapsed_us,
                Err(format!(
                    "status {}: {}",
                    r.status,
                    String::from_utf8_lossy(&r.body)
                )),
            ),
            Ok(r) => match reference {
                Some(reference) if r.body != reference[req] => (
                    r.elapsed_us,
                    Err("body differs from the owning backend's".to_string()),
                ),
                Some(_) => (r.elapsed_us, Ok(None)),
                None => (r.elapsed_us, Ok(Some(r.body))),
            },
        };
        samples.push(Sample {
            req,
            latency_us,
            elapsed_us,
            result,
        });
    }
    samples
}

/// Sets up, runs the timed phase, and checks every output. The fleet is
/// handed to `with_fleet` before it is torn down.
pub fn run(
    plan: &Plan,
    with_fleet: impl FnOnce(&Fleet) -> Result<(), String>,
) -> Result<Run, String> {
    let (setup_s, ready) = set_up_repeatedly(plan)?;
    let Ready { fleet, conns } = ready;
    let reference = if plan.warm {
        Some(fetch_reference(plan, &fleet)?)
    } else {
        None
    };
    let entry = fleet.entry();
    let wire_bytes: Vec<Vec<u8>> = plan
        .requests
        .iter()
        .map(|r| post("/solve", &r.body(), plan.fresh_connections))
        .collect();

    let before = fleet.counters()?;
    let mut conns = conns.into_iter().map(Some).collect::<Vec<_>>();
    conns.resize_with(2, || None);
    let started = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let workers: Vec<_> = plan
            .lanes
            .iter()
            .zip(conns)
            .map(|(lane, conn)| {
                let (wire_bytes, reference) = (&wire_bytes, reference.as_deref());
                s.spawn(move || drive_lane(lane, wire_bytes, conn, entry, reference))
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let delta = fleet.counters()?.since(&before);
    let peak_rss_mb = fleet.peak_rss_mb()?;
    with_fleet(&fleet)?;
    drop(fleet);

    let mut graphs = Graphs::default();
    let reference_checks = match &reference {
        Some(bodies) => Some(
            bodies
                .iter()
                .zip(&plan.requests)
                .map(|(body, req)| check(body, req, &mut graphs))
                .collect::<Result<Vec<_>, String>>()
                .map_err(|e| format!("reference body: {e}"))?,
        ),
        None => None,
    };
    let mut failures = Vec::new();
    let checked = samples
        .iter()
        .map(|sample| {
            let req = &plan.requests[sample.req];
            let outcome = match (&sample.result, &reference_checks) {
                (Err(e), _) => Err(e.clone()),
                (Ok(_), Some(checks)) => Ok(checks[sample.req]),
                (Ok(Some(body)), None) => check(body, req, &mut graphs),
                (Ok(None), None) => Err("body was not kept".to_string()),
            };
            outcome
                .map_err(|e| failures.push(format!("{} n={}: {e}", req.family.name(), req.n)))
                .ok()
        })
        .collect();
    Ok(Run {
        setup_s,
        samples,
        wall_s,
        delta,
        peak_rss_mb,
        reference,
        checked,
        failures,
    })
}

/// Checks that the timed phase took the path its workload exists to
/// measure; a wrong path is an error, never a number.
pub fn assert_paths(name: &str, plan: &Plan, delta: &Counters) -> Result<(), String> {
    let timed = plan.timed_requests() as u64;
    let fail = |what: String| Err(format!("{name}: {what} ({delta:?})"));
    if plan.warm {
        if delta.response_hits != timed || delta.response_misses != 0 {
            return fail(format!(
                "expected all {timed} timed requests to hit the response cache"
            ));
        }
        if delta.sdp_solves != 0 {
            return fail("expected no SDP solve".into());
        }
        return Ok(());
    }
    if delta.response_hits != 0 {
        return fail("expected no response-cache hit".into());
    }
    match name {
        "cold-sdp" => {
            // Two solves per graph today (LIF-annealed re-solves the SDP
            // that LIF-GW cached); one once both share the cache. Any
            // other count means some requests skipped or repeated it.
            let graphs = plan.graphs as u64;
            if delta.sdp_solves != 2 * graphs && delta.sdp_solves != graphs {
                return fail(format!(
                    "expected 1 or 2 SDP solves per graph over {graphs} graphs"
                ));
            }
        }
        "cold-sampling" => {
            let gw = plan
                .requests
                .iter()
                .filter(|r| r.family == CircuitFamily::LifGw)
                .count() as u64;
            if delta.sdp_solves != 0 || delta.sdp_misses != 0 || delta.sdp_hits != gw {
                return fail(format!(
                    "expected all {gw} LIF-GW requests to hit the SDP cache and no SDP solve"
                ));
            }
        }
        _ => {}
    }
    Ok(())
}

/// The run's end-to-end numbers besides `setup_s`.
pub struct EndToEnd {
    pub throughput_rps: f64,
    pub latencies_ms: Vec<f64>,
    pub cut_fraction: f64,
}

pub fn end_to_end(run: &Run) -> EndToEnd {
    let ok = run.checked.iter().filter(|c| c.is_some()).count();
    let latencies_ms = run
        .samples
        .iter()
        .zip(&run.checked)
        .filter(|(_, c)| c.is_some())
        .map(|(s, _)| s.latency_us / 1e3)
        .collect();
    let fractions: Vec<f64> = run
        .checked
        .iter()
        .flatten()
        .map(|c| c.cut_fraction)
        .collect();
    EndToEnd {
        throughput_rps: ok as f64 / run.wall_s,
        latencies_ms,
        cut_fraction: mean(&fractions),
    }
}
