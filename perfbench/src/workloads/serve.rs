//! `serve_hot` and `serve_cold`: the serving daemon, spawned in-process
//! (`Daemon::spawn`) and driven over loopback TCP.
//!
//! * `serve_hot` is a closed loop: one pipelined connection keeps a fixed
//!   window of requests outstanding. Requests are a seeded mix over three
//!   keys warmed during set-up — mostly a 1024-node `MULTITREE-HIER` torus
//!   on the flow engine over a payload ladder, a few cycle-engine runs on a
//!   4×4 torus, and a few runtime-only faults (flaps, degrades). Every
//!   request hits the cache.
//! * `serve_cold` starts from the same warmed daemon and sends, on one
//!   synchronous connection, requests whose keys were never seen: each
//!   round walks a menu of topology families, sizes up to 1024 nodes and
//!   algorithm families in a seeded order, minting fresh keys with a
//!   full-rate link-rate override. Some are fault deltas (a whole cable
//!   dies) that take the repair path. The cache budget is small, so
//!   inserts evict.
//!
//! The traced run replays the same stream in-process: it times `serde_json`
//! parse of the request line, `ServeState::handle`, encode of the response
//! line, then `ScheduleCache::resolve` on a second state followed by the
//! engine run on `entry.prepared()`, whose simulated fields must equal the
//! handled response. For every miss it also times `TopologySpec::build`,
//! `AlgorithmSpec::build`, `verify_schedule` and `PreparedData::compute`
//! on the same spec.

use super::{
    layer_metrics, round_order, timed_setup, traced_passes, Budget, Fnv, OpResult, Rng, TracedRun,
    UntracedRun,
};
use crate::machine::nproc;
use crate::stats::{median, Outcome};
use crate::trace::{self, Tracer};
use mt_netsim::cycle::CycleEngine;
use mt_netsim::flow::FlowEngine;
use mt_netsim::{EngineReport, FaultEvent, FaultPlan, FaultedRun, NoopObserver, SimScratch};
use mt_serve::{
    AlgorithmSpec, CacheOutcome, Client, Daemon, EngineSpec, FaultKey, Request, Response,
    RunRequest, ScheduleKey, ServeConfig, ServeState, StatsResponse,
};
use mt_topology::{LinkId, TopologySpec};
use multitree::verify::verify_schedule;
use multitree::PreparedData;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Instant;

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Warm keys, one pipelined connection in a closed loop.
    Hot,
    /// Never-seen keys, one synchronous connection.
    Cold,
}

/// Requests the `serve_hot` connection keeps outstanding. One pipelined
/// connection rather than one per core: with `nproc` = 2 it measured about
/// 3x steadier from run to run, with the daemon's two workers still busy
/// and its batching engaged.
const HOT_WINDOW: usize = 8;

/// Payload ladder of the hot flow-engine requests.
const HOT_PAYLOADS: [u64; 4] = [256 << 10, 1 << 20, 4 << 20, 16 << 20];

/// Cache budget of `serve_cold`: a few 1024-node entries, so inserts evict.
const COLD_CACHE_BYTES: usize = 16 << 20;

/// Payload ladder of the cold requests.
const COLD_PAYLOADS: [u64; 3] = [256 << 10, 1 << 20, 4 << 20];

/// Completions per throughput window of `serve_hot`, which has no rounds.
const HOT_WINDOW_OPS: usize = 1000;

/// Ops `serve_hot`'s traced run replays.
const HOT_TRACE_OPS: usize = 2000;

fn torus(rows: usize, cols: usize) -> TopologySpec {
    TopologySpec::Torus { rows, cols }
}

/// The `serve_cold` menu: `(topology, algorithm, permanent link death)`.
/// On a 2-vCPU host seven entries take 8–25 ms per op, the two fat trees
/// about 30 ms, five 45–90 ms and three about 140 ms. With 17 entries the
/// median op falls among the two fat trees, whose costs overlap, instead
/// of in a gap between groups, where it would jump from run to run.
fn cold_menu() -> Vec<(TopologySpec, AlgorithmSpec, bool)> {
    use AlgorithmSpec::*;
    vec![
        (torus(32, 32), Hierarchical, false),
        (
            TopologySpec::Mesh { rows: 32, cols: 32 },
            Hierarchical,
            false,
        ),
        (torus(16, 16), Hierarchical, false),
        (
            TopologySpec::Torus3d { x: 8, y: 8, z: 8 },
            Hierarchical,
            false,
        ),
        (torus(8, 8), MultiTree, false),
        (torus(8, 16), MultiTree, false),
        (
            TopologySpec::FatTree {
                leaves: 8,
                spines: 8,
                nodes_per_leaf: 8,
            },
            MultiTree,
            false,
        ),
        (
            TopologySpec::FatTreeOversubscribed { k: 8, ratio: 4 },
            MultiTreeBandwidthAware,
            false,
        ),
        (TopologySpec::Dragonfly { a: 4, p: 2 }, MultiTree, false),
        (torus(8, 8), Ring, false),
        (torus(32, 32), DbTree, false),
        (torus(8, 8), Ring2D, false),
        (TopologySpec::Hypercube { dim: 8 }, HalvingDoubling, false),
        (torus(32, 32), Hierarchical, true),
        (torus(8, 8), MultiTree, true),
        (torus(8, 16), MultiTree, true),
        (torus(16, 16), DbTree, true),
    ]
}

impl Mode {
    /// Ops per round (1: `serve_hot` has no rounds).
    pub fn round(self) -> usize {
        match self {
            Mode::Hot => 1,
            Mode::Cold => cold_menu().len(),
        }
    }

    fn trace_ops(self) -> usize {
        match self {
            Mode::Hot => HOT_TRACE_OPS,
            Mode::Cold => 2 * self.round(),
        }
    }

    fn config(self) -> ServeConfig {
        let workers = nproc();
        match self {
            Mode::Hot => ServeConfig {
                workers,
                ..ServeConfig::default()
            },
            Mode::Cold => ServeConfig {
                workers,
                cache_bytes: COLD_CACHE_BYTES,
                ..ServeConfig::default()
            },
        }
    }

    fn window(self) -> usize {
        match self {
            Mode::Hot => HOT_WINDOW,
            Mode::Cold => 1,
        }
    }

    /// The `index`-th request of the stream for `seed`.
    pub fn request(self, seed: u64, index: usize) -> RunRequest {
        match self {
            Mode::Hot => hot_request(seed, index),
            Mode::Cold => cold_request(seed, index),
        }
    }

    /// One request per hot key, sent during set-up. Both workloads start
    /// from the same warmed daemon: `serve_hot` then reads these keys,
    /// `serve_cold` inserts new ones and evicts them.
    fn warm_requests(self) -> Vec<RunRequest> {
        hot_keys()
            .into_iter()
            .map(|(topology, algorithm, engine)| RunRequest {
                topology,
                algorithm,
                payload_bytes: 64 << 10,
                engine,
                faults: None,
            })
            .collect()
    }
}

/// The hot keys: the main 1024-node flow key, a 256-node flow key and a
/// 16-node cycle-engine key.
fn hot_keys() -> [(TopologySpec, AlgorithmSpec, EngineSpec); 3] {
    [
        (torus(32, 32), AlgorithmSpec::Hierarchical, EngineSpec::Flow),
        (torus(16, 16), AlgorithmSpec::Hierarchical, EngineSpec::Flow),
        (torus(4, 4), AlgorithmSpec::MultiTree, EngineSpec::Cycle),
    ]
}

fn hot_request(seed: u64, index: usize) -> RunRequest {
    let mut rng = Rng::at(seed, 0x4077, index as u64);
    let [main, side, cycle] = hot_keys();
    let draw = rng.unit();
    let (key, payload_bytes, faults) = if draw < 0.80 {
        (main, HOT_PAYLOADS[rng.below(HOT_PAYLOADS.len())], None)
    } else if draw < 0.89 {
        (side, HOT_PAYLOADS[rng.below(HOT_PAYLOADS.len())], None)
    } else if draw < 0.92 {
        (cycle, [16 << 10, 32 << 10][rng.below(2)], None)
    } else {
        // runtime-only: the cached healthy schedule serves it
        let link = LinkId::new(rng.below(64));
        let event = if rng.below(2) == 0 {
            FaultEvent::LinkFlap {
                link,
                from_ns: 0.0,
                to_ns: [5_000.0, 10_000.0, 20_000.0][rng.below(3)],
            }
        } else {
            FaultEvent::LinkDegrade {
                link,
                at_ns: 0.0,
                factor: [2.0, 4.0][rng.below(2)],
            }
        };
        let plan = FaultPlan {
            events: vec![event],
            ..FaultPlan::default()
        };
        (main, 1 << 20, Some(plan))
    };
    let (topology, algorithm, engine) = key;
    RunRequest {
        topology,
        algorithm,
        payload_bytes,
        engine,
        faults,
    }
}

fn cold_request(seed: u64, index: usize) -> RunRequest {
    let menu = cold_menu();
    let round = index / menu.len();
    let (base, algorithm, dies) =
        menu[round_order(seed, round, menu.len())[index % menu.len()]].clone();
    let mut rng = Rng::at(seed, 0xC01D, index as u64);
    // a full-rate override (k/k == 1) builds the identical machine under
    // a key no earlier request used
    let k = u32::try_from(round + 2).expect("fewer than 2^32 rounds");
    let rates = vec![(rng.below(64), k, k)];
    // a whole cable dies (both directions), which every torus survives
    let faults = dies.then(|| FaultPlan {
        events: cable(&base, rng.below(1 << 16))
            .into_iter()
            .map(|link| FaultEvent::LinkDown { link, at_ns: 0.0 })
            .collect(),
        ..FaultPlan::default()
    });
    let topology = TopologySpec::WithLinkRates {
        base: Box::new(base),
        rates,
    };
    RunRequest {
        topology,
        algorithm,
        payload_bytes: COLD_PAYLOADS[rng.below(COLD_PAYLOADS.len())],
        engine: EngineSpec::Flow,
        faults,
    }
}

/// The cable (a link and its reverse links) numbered `pick` modulo the
/// link count of `spec`'s topology.
fn cable(spec: &TopologySpec, pick: usize) -> Vec<LinkId> {
    let topo = spec.build().expect("menu topologies build");
    let link = LinkId::new(pick % topo.num_links());
    let l = topo.link(link);
    let mut cable = vec![link];
    cable.extend(
        topo.out_links(l.dst)
            .iter()
            .copied()
            .filter(|&r| topo.link(r).dst == l.src),
    );
    cable
}

/// The simulated fields of a run, as the daemon reports them.
#[derive(Debug, Clone, PartialEq)]
struct Simulated {
    key: String,
    completion_ns: f64,
    delivered: u64,
    messages: u64,
    flits_sent: u64,
    stalled: bool,
}

impl Simulated {
    fn digest(&self) -> u64 {
        Fnv::default()
            .bytes(self.key.as_bytes())
            .word(self.completion_ns.to_bits())
            .word(self.delivered)
            .word(self.messages)
            .word(self.flits_sent)
            .word(u64::from(self.stalled))
            .finish()
    }
}

/// Checks one response: a verified schedule that delivered every message.
fn check(response: &Response) -> (Outcome, Option<Simulated>) {
    let r = match response {
        Response::Run(r) => r,
        Response::Error(e) => return (Outcome::Refused(e.detail.clone()), None),
        other => return (Outcome::Wrong(format!("unexpected {other:?}")), None),
    };
    let sim = Simulated {
        key: r.key.clone(),
        completion_ns: r.completion_ns,
        delivered: r.delivered,
        messages: r.messages,
        flits_sent: r.flits_sent,
        stalled: r.stalled,
    };
    let outcome = if !r.verified {
        Outcome::Wrong(format!("key {} served unverified", r.key))
    } else if r.delivered != r.messages || r.stalled {
        Outcome::Wrong(format!(
            "key {} delivered {} of {} messages",
            r.key, r.delivered, r.messages
        ))
    } else if !(r.completion_ns.is_finite() && r.completion_ns > 0.0) {
        Outcome::Wrong(format!("key {} completion {}", r.key, r.completion_ns))
    } else {
        Outcome::Ok
    };
    (outcome, Some(sim))
}

fn digest_of(sim: Option<&Simulated>) -> u64 {
    sim.map_or(0, Simulated::digest)
}

/// A running daemon and its client connection (closed before it).
struct Setup {
    client: Client,
    daemon: Daemon,
}

impl Setup {
    /// Spawns the daemon, connects, and warms every hot key.
    fn new(mode: Mode) -> Result<Self, String> {
        let daemon = Daemon::spawn("127.0.0.1:0", mode.config()).map_err(|e| e.to_string())?;
        let mut client = Client::connect(daemon.addr()).map_err(|e| e.to_string())?;
        match client.request(&Request::Ping) {
            Ok(Response::Pong) => {}
            other => return Err(format!("ping: {other:?}")),
        }
        for warm in mode.warm_requests() {
            let response = client
                .request(&Request::Run(warm))
                .map_err(|e| e.to_string())?;
            if check(&response).0 != Outcome::Ok {
                return Err(format!("warm-up: {response:?}"));
            }
        }
        Ok(Setup { client, daemon })
    }
}

/// Drives the daemon with `mode`'s closed loop until `budget` is spent:
/// the connection keeps `mode.window()` requests in flight, and a time
/// budget finishes the round in progress. Returns the ops in stream order,
/// the wall seconds, and completion rates per round (per
/// [`HOT_WINDOW_OPS`] for `serve_hot`).
fn closed_loop(
    mode: Mode,
    seed: u64,
    client: &mut Client,
    budget: Budget,
) -> (Vec<OpResult>, f64, Vec<f64>) {
    let round = mode.round();
    let started = Instant::now();
    let mut next = 0;
    let mut inflight: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut ops = Vec::new();
    let mut finished = Vec::new();
    let mut exhausted = false;
    loop {
        while !exhausted && inflight.len() < mode.window() {
            exhausted = match budget {
                Budget::Ops(n) => next >= n,
                Budget::Seconds(s) => next % round == 0 && started.elapsed().as_secs_f64() >= s,
            };
            if exhausted {
                break;
            }
            let request = Request::Run(mode.request(seed, next));
            let sent = Instant::now();
            if client.send(&request).is_err() {
                exhausted = true;
                break;
            }
            inflight.push_back((next, sent));
            next += 1;
        }
        let Some((index, sent)) = inflight.pop_front() else {
            break;
        };
        let (outcome, sim) = match client.recv() {
            Ok(response) => check(&response),
            Err(e) => (Outcome::Refused(format!("connection: {e}")), None),
        };
        ops.push(OpResult {
            index,
            latency_ns: u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX),
            outcome,
            digest: digest_of(sim.as_ref()),
        });
        finished.push(started.elapsed().as_secs_f64());
    }
    let chunk = if round > 1 { round } else { HOT_WINDOW_OPS };
    let mut rates = Vec::new();
    let mut prev = 0.0;
    for c in finished.chunks_exact(chunk) {
        let end = c[chunk - 1];
        rates.push(chunk as f64 / (end - prev));
        prev = end;
    }
    (ops, started.elapsed().as_secs_f64(), rates)
}

/// A failed set-up as a single refused op, so the run reports it.
fn setup_failure(detail: String) -> Vec<OpResult> {
    vec![OpResult {
        index: 0,
        latency_ns: 0,
        outcome: Outcome::Refused(format!("set-up: {detail}")),
        digest: 0,
    }]
}

/// Runs the workload with tracing off.
pub fn run(mode: Mode, seed: u64, budget: Budget) -> UntracedRun {
    let (setup, setup_s) = timed_setup(|| Setup::new(mode));
    let (ops, elapsed_s, window_rates) = match setup {
        Ok(mut s) => closed_loop(mode, seed, &mut s.client, budget),
        Err(e) => (setup_failure(e), 0.0, Vec::new()),
    };
    UntracedRun {
        setup_s,
        ops,
        elapsed_s,
        window_rates,
        headlines: BTreeMap::new(),
        digest_ops: budget.trace_ops(mode.trace_ops()),
    }
}

/// Daemon counter deltas over a window, as per-layer metrics.
fn stats_metrics(before: &StatsResponse, after: &StatsResponse) -> BTreeMap<&'static str, f64> {
    let d = |f: fn(&StatsResponse) -> u64| (f(after) - f(before)) as f64;
    let lookups = d(|s| s.hits) + d(|s| s.misses) + d(|s| s.coalesced);
    let batches = d(|s| s.batches);
    BTreeMap::from([
        (
            "serve.cache.hit_ratio",
            if lookups > 0.0 {
                d(|s| s.hits) / lookups
            } else {
                0.0
            },
        ),
        ("serve.cache.evictions", d(|s| s.evictions)),
        (
            "serve.cache.repairs",
            d(|s| s.repairs_incremental)
                + d(|s| s.repairs_full_rebuild)
                + d(|s| s.repairs_survivor),
        ),
        (
            "serve.batch.mean_occupancy",
            if batches > 0.0 {
                d(|s| s.batched_runs) / batches
            } else {
                0.0
            },
        ),
        ("serve.errors", d(|s| s.errors)),
    ])
}

/// Strips permanent deaths from a request plan, as the daemon does before
/// execution: they are baked into the cached schedule.
fn runtime_only(plan: &FaultPlan) -> Option<FaultPlan> {
    let events: Vec<FaultEvent> = plan
        .events
        .iter()
        .filter(|e| {
            matches!(
                e,
                FaultEvent::LinkFlap { .. } | FaultEvent::LinkDegrade { .. }
            )
        })
        .cloned()
        .collect();
    (!events.is_empty()).then_some(FaultPlan {
        events,
        detect_window_ns: plan.detect_window_ns,
    })
}

/// In-process replay state: the state `handle` serves from, and a second
/// state whose cache the layer-by-layer path resolves against.
struct Replay {
    state: ServeState,
    shadow: ServeState,
    scratch: SimScratch,
    prepared: BTreeSet<String>,
}

impl Replay {
    fn new(mode: Mode) -> Self {
        let mut replay = Replay {
            state: ServeState::new(mode.config()),
            shadow: ServeState::new(mode.config()),
            scratch: SimScratch::new(),
            prepared: BTreeSet::new(),
        };
        for warm in mode.warm_requests() {
            let request = Request::Run(warm);
            replay.state.handle(&request, &mut replay.scratch);
            replay.shadow.handle(&request, &mut replay.scratch);
        }
        replay
    }

    /// One traced op: the daemon's own path, then the layer-by-layer path
    /// whose simulated fields must match it.
    fn op(&mut self, tracer: &mut Tracer, index: usize, run: RunRequest) -> (Outcome, u64) {
        let line = serde_json::to_string(&Request::Run(run)).expect("requests encode");
        let root = tracer.begin(trace::OP, index as u64);
        let parsed = tracer.leaf("serve.parse", || serde_json::from_str::<Request>(&line));
        let Ok(request) = parsed else {
            tracer.end(root);
            return (Outcome::Wrong("request line does not parse".into()), 0);
        };
        let response = tracer.leaf("serve.handle", || {
            self.state.handle(&request, &mut self.scratch)
        });
        let encoded = tracer.leaf("serve.encode", || serde_json::to_string(&response));
        let layered = match &request {
            Request::Run(run) => self.layered(tracer, run),
            _ => Err("not a run".into()),
        };
        tracer.end(root);

        let (outcome, sim) = check(&response);
        let outcome = match (outcome, encoded, layered) {
            (_, Err(e), _) => Outcome::Wrong(format!("response does not encode: {e}")),
            (Outcome::Ok, Ok(_), Ok(l)) if Some(&l) != sim.as_ref() => {
                Outcome::Wrong(format!("layer-by-layer {l:?} differs from handled {sim:?}"))
            }
            (Outcome::Ok, Ok(_), Err(e)) => Outcome::Wrong(format!("layer-by-layer: {e}")),
            (o, _, _) => o,
        };
        (outcome, digest_of(sim.as_ref()))
    }

    /// Cache resolve and engine run on the shadow state, plus the compile
    /// layers on a miss.
    fn layered(&mut self, tracer: &mut Tracer, run: &RunRequest) -> Result<Simulated, String> {
        let spec = run.topology.canonicalized();
        let fault_key = run.faults.as_ref().map(FaultKey::of).unwrap_or_default();
        let key = ScheduleKey::with_fault_key(&spec, run.algorithm, fault_key.clone());
        let (entry, outcome) = tracer.leaf("serve.resolve", || {
            self.shadow
                .cache
                .resolve(&spec, run.algorithm, fault_key.clone())
        })?;
        let prep = entry.prepared();
        let network = self.shadow.config.network;
        let scratch = &mut self.scratch;
        let plan = run.faults.as_ref().and_then(runtime_only);
        let payload = run.payload_bytes;
        let flow = FlowEngine::new(network);
        let cycle = CycleEngine::new(network);
        let mut obs = NoopObserver;
        let (report, delivered, messages, stalled) = match (run.engine, &plan) {
            (EngineSpec::Flow, None) => tracer
                .leaf("netsim.flow", || {
                    flow.run_prepared_with(&prep, payload, scratch, &mut obs)
                })
                .map(healthy),
            (EngineSpec::Cycle, None) => tracer
                .leaf("netsim.cycle", || {
                    cycle.run_prepared_with(&prep, payload, scratch, &mut obs)
                })
                .map(healthy),
            (EngineSpec::Flow, Some(p)) => tracer
                .leaf("netsim.flow", || {
                    flow.run_prepared_faulted_with(&prep, payload, scratch, p, &mut obs)
                })
                .map(faulted),
            (EngineSpec::Cycle, Some(p)) => tracer
                .leaf("netsim.cycle", || {
                    cycle.run_prepared_faulted_with(&prep, payload, scratch, p, &mut obs)
                })
                .map(faulted),
        }
        .map_err(|e| e.to_string())?;
        match run.engine {
            EngineSpec::Flow => tracer.count("netsim.flow.events", prep.num_events() as u64),
            EngineSpec::Cycle => tracer.count("netsim.cycle.flits", report.sim.flits_sent),
        }
        if outcome != CacheOutcome::Hit {
            self.compile_layers(tracer, &spec, run.algorithm, &fault_key)?;
            self.prepared.insert(key.canonical().to_string());
        }
        Ok(Simulated {
            key: key.digest(),
            completion_ns: report.sim.completion_ns,
            delivered,
            messages,
            flits_sent: report.sim.flits_sent,
            stalled,
        })
    }

    /// The compile of a miss, one public call per layer.
    fn compile_layers(
        &self,
        tracer: &mut Tracer,
        spec: &TopologySpec,
        algorithm: AlgorithmSpec,
        faults: &FaultKey,
    ) -> Result<(), String> {
        let dead: Vec<LinkId> = faults.dead_links.iter().map(|&l| LinkId::new(l)).collect();
        let topo = tracer.leaf("topology.build", || {
            spec.build().map(|t| {
                if dead.is_empty() {
                    t
                } else {
                    t.without_links(&dead)
                }
            })
        });
        let topo = topo.map_err(|e| e.to_string())?;
        let schedule = tracer.leaf("core.construct", || algorithm.build(&topo));
        let schedule = schedule.map_err(|e| e.to_string())?;
        tracer.count("core.construct.events", schedule.events().len() as u64);
        tracer
            .leaf("core.verify", || verify_schedule(&schedule))
            .map_err(|e| e.to_string())?;
        tracer.count("core.verify.events", schedule.events().len() as u64);
        tracer
            .leaf("core.prepare", || PreparedData::compute(&schedule, &topo))
            .map_err(|e| e.to_string())?;
        Ok(())
    }
}

/// A healthy run's report as `(report, delivered, messages, stalled)`.
fn healthy(report: EngineReport) -> (EngineReport, u64, u64, bool) {
    let m = report.sim.messages as u64;
    (report, m, m, false)
}

/// A faulted run's report as `(report, delivered, messages, stalled)`.
fn faulted(run: FaultedRun) -> (EngineReport, u64, u64, bool) {
    let f = &run.faults;
    let (delivered, total, stalled) = (f.delivered as u64, f.total as u64, f.stalled);
    (run.report, delivered, total, stalled)
}

/// Runs the stream's traced op set once through the daemon, then replays
/// it traced in-process until the budget is spent.
pub fn run_traced(mode: Mode, seed: u64, budget: Budget) -> TracedRun {
    let span_cost = trace::span_cost_ns();
    let n = budget.trace_ops(mode.trace_ops());
    let (reference, mut measured) = match Setup::new(mode) {
        Ok(mut s) => {
            let before = s.daemon.stats();
            let (ops, _, _) = closed_loop(mode, seed, &mut s.client, Budget::Ops(n));
            let measured = stats_metrics(&before, &s.daemon.stats());
            (ops, measured)
        }
        Err(e) => (setup_failure(e), BTreeMap::new()),
    };

    let mut hot = (mode == Mode::Hot).then(|| Replay::new(mode));
    let round_trips = reference.clone();
    traced_passes(budget, reference, || {
        let mut cold;
        let replay = match hot.as_mut() {
            Some(r) => r,
            None => {
                // every cold pass starts from empty caches
                cold = Replay::new(mode);
                &mut cold
            }
        };
        replay.prepared.clear();
        let mut tracer = Tracer::new();
        let ops: Vec<OpResult> = (0..n)
            .map(|i| {
                let t = Instant::now();
                let (outcome, digest) = replay.op(&mut tracer, i, mode.request(seed, i));
                OpResult {
                    index: i,
                    latency_ns: u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    outcome,
                    digest,
                }
            })
            .collect();
        tracer.count("core.prepare.distinct", replay.prepared.len() as u64);
        measured.insert("serve.wait_ms", median_wait_ms(&round_trips, &tracer));
        measured.insert("serve.miss_coverage", miss_coverage(&tracer));
        let layers = layer_metrics(&tracer, span_cost, &measured);
        (ops, layers, tracer)
    })
}

/// Median over ops of the daemon round trip minus the in-process service
/// time (parse + handle + encode) of the same op.
fn median_wait_ms(reference: &[OpResult], tracer: &Tracer) -> f64 {
    let mut service: BTreeMap<u64, u64> = BTreeMap::new();
    for s in tracer.spans() {
        if matches!(s.name, "serve.parse" | "serve.handle" | "serve.encode") {
            *service.entry(s.op).or_insert(0) += s.duration_ns();
        }
    }
    let waits: Vec<f64> = reference
        .iter()
        .filter_map(|r| {
            let served = service.get(&(r.index as u64))?;
            Some((r.latency_ns as f64 - *served as f64) / 1e6)
        })
        .collect();
    median(&waits)
}

/// How much of the handle time of missing ops the replayed compile
/// layers cover (0 when nothing missed).
fn miss_coverage(tracer: &Tracer) -> f64 {
    const COMPILE: [&str; 4] = [
        "topology.build",
        "core.construct",
        "core.verify",
        "core.prepare",
    ];
    let spans = tracer.spans();
    let missed: BTreeSet<u64> = spans
        .iter()
        .filter(|s| COMPILE.contains(&s.name))
        .map(|s| s.op)
        .collect();
    let sum = |pred: &dyn Fn(&trace::Span) -> bool| {
        spans
            .iter()
            .filter(|s| missed.contains(&s.op) && pred(s))
            .map(|s| s.duration_ns() as f64)
            .sum::<f64>()
    };
    let handle = sum(&|s| s.name == "serve.handle");
    if handle > 0.0 {
        sum(&|s| COMPILE.contains(&s.name)) / handle
    } else {
        0.0
    }
}
