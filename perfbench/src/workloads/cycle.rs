//! `cycle_fig9`: the paper's Fig. 9a on the flit-level cycle engine.
//!
//! An 8×8 torus runs RING, DBTREE, 2D-RING and MULTITREE under both
//! packet-based and message-based flow control (MULTITREE with
//! message-based flow control is the paper's MULTITREEMSG) at three size
//! classes. Each schedule is prepared once during set-up and every run
//! reuses one `SimScratch`; one op is one collective run. A round is the
//! whole menu in a seeded order, each size jittered by up to 1/16 of its
//! class.

use super::{
    layer_metrics, round_order, run_sequential, timed_setup, traced_passes, Budget, Fnv, OpResult,
    Rng, TracedRun, UntracedRun,
};
use crate::stats::Outcome;
use crate::trace::{self, Tracer};
use mt_netsim::cycle::CycleEngine;
use mt_netsim::{EngineReport, NetworkConfig, NoopObserver, SimScratch};
use mt_topology::Topology;
use multitree::algorithms::{AllReduce, DbTree, MultiTree, Ring, Ring2D};
use multitree::{CommSchedule, PreparedData, PreparedSchedule};
use std::collections::BTreeMap;

/// Schedules of the menu, in legend order.
const ALGORITHMS: [&str; 4] = ["RING", "DBTREE", "2D-RING", "MULTITREE"];

/// Size classes in KiB.
const SIZES_KIB: [u64; 3] = [16, 32, 64];

/// Ops in one round: every schedule × flow control × size class.
pub const ROUND: usize = ALGORITHMS.len() * 2 * SIZES_KIB.len();

/// Ops a traced run replays.
const TRACE_OPS: usize = ROUND;

/// One collective run of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Index into [`ALGORITHMS`].
    pub algorithm: usize,
    /// Message-based (co-designed) rather than packet-based flow control.
    pub message_based: bool,
    /// Index into [`SIZES_KIB`].
    pub class: usize,
    /// All-reduce payload.
    pub bytes: u64,
}

impl Op {
    /// The paper's legend label (`…MSG` = message-based flow control).
    pub fn label(&self) -> String {
        let suffix = if self.message_based { "MSG" } else { "" };
        format!("{}{suffix}", ALGORITHMS[self.algorithm])
    }
}

/// The `index`-th op of the stream for `seed`.
pub fn op(seed: u64, index: usize) -> Op {
    let round = index / ROUND;
    let slot = round_order(seed, round, ROUND)[index % ROUND];
    let class = slot % SIZES_KIB.len();
    let message_based = (slot / SIZES_KIB.len()) % 2 == 1;
    let algorithm = slot / (SIZES_KIB.len() * 2);
    let kib = SIZES_KIB[class];
    let mut rng = Rng::at(seed, 0xC1C1, index as u64);
    let jitter = rng.below((kib / 8 + 1) as usize) as u64;
    Op {
        algorithm,
        message_based,
        class,
        bytes: (kib - kib / 16 + jitter) << 10,
    }
}

/// The prepared schedules every op runs.
struct Setup {
    topo: Topology,
    schedules: Vec<(CommSchedule, PreparedData)>,
    scratch: SimScratch,
}

impl Setup {
    /// Builds and prepares every schedule of the menu.
    fn new() -> Self {
        let topo = Topology::torus(8, 8);
        let schedules = ALGORITHMS
            .iter()
            .map(|name| {
                let schedule = match *name {
                    "RING" => Ring.build(&topo),
                    "DBTREE" => DbTree::default().build(&topo),
                    "2D-RING" => Ring2D.build(&topo),
                    _ => MultiTree::default().build(&topo),
                }
                .expect("the Fig. 9a schedules build on an 8x8 torus");
                let data = PreparedData::compute(&schedule, &topo)
                    .expect("a freshly built schedule prepares");
                (schedule, data)
            })
            .collect();
        Setup {
            topo,
            schedules,
            scratch: SimScratch::new(),
        }
    }

    /// Runs one op; returns the engine report and the schedule's size.
    fn execute(&mut self, op: &Op) -> (Result<EngineReport, String>, usize) {
        let (schedule, data) = &self.schedules[op.algorithm];
        let prep = PreparedSchedule::from_parts(schedule, &self.topo, data);
        let cfg = if op.message_based {
            NetworkConfig::paper_message_based()
        } else {
            NetworkConfig::paper_default()
        };
        let report = CycleEngine::new(cfg)
            .run_prepared_with(&prep, op.bytes, &mut self.scratch, &mut NoopObserver)
            .map_err(|e| e.to_string());
        (report, prep.num_events())
    }
}

/// Checks a run and digests its simulated fields.
fn check(op: &Op, report: Result<EngineReport, String>, messages: usize) -> (Outcome, u64) {
    let r = match report {
        Ok(r) => r,
        Err(e) => return (Outcome::Refused(e), 0),
    };
    let digest = Fnv::default()
        .word(r.sim.completion_ns.to_bits())
        .word(r.sim.flits_sent)
        .word(r.sim.head_flits)
        .word(r.sim.messages as u64)
        .word(r.cycles().unwrap_or(0))
        .finish();
    let outcome = if r.sim.messages != messages {
        Outcome::Wrong(format!(
            "{} delivered {} of {messages} messages",
            op.label(),
            r.sim.messages
        ))
    } else if !(r.sim.completion_ns.is_finite() && r.sim.completion_ns > 0.0) {
        Outcome::Wrong(format!("{} completion {}", op.label(), r.sim.completion_ns))
    } else {
        Outcome::Ok
    };
    (outcome, digest)
}

/// Fig. 9a headline: simulated MULTITREEMSG bandwidth (GB/s) at the
/// largest size class of the seed's first round.
fn headline(seed: u64, setup: &mut Setup) -> f64 {
    let op = (0..ROUND)
        .map(|i| op(seed, i))
        .find(|o| o.label() == "MULTITREEMSG" && o.class == SIZES_KIB.len() - 1)
        .expect("every round holds every menu entry");
    setup.execute(&op).0.map_or(0.0, |r| r.sim.algbw_gbps())
}

fn untraced(seed: u64, setup: &mut Setup, budget: Budget) -> (Vec<OpResult>, f64, Vec<f64>) {
    run_sequential(budget, ROUND, |i| {
        let op = op(seed, i);
        let (report, messages) = setup.execute(&op);
        check(&op, report, messages)
    })
}

/// Runs the workload with tracing off.
pub fn run(seed: u64, budget: Budget) -> UntracedRun {
    let (mut setup, setup_s) = timed_setup(Setup::new);
    let (ops, elapsed_s, window_rates) = untraced(seed, &mut setup, budget);
    let headlines = BTreeMap::from([("sim.allreduce_gbps", headline(seed, &mut setup))]);
    UntracedRun {
        setup_s,
        ops,
        elapsed_s,
        window_rates,
        headlines,
        digest_ops: budget.trace_ops(TRACE_OPS),
    }
}

/// Runs the untraced reference pass, then traced passes of the same ops.
pub fn run_traced(seed: u64, budget: Budget) -> TracedRun {
    let span_cost = trace::span_cost_ns();
    let mut setup = Setup::new();
    let n = budget.trace_ops(TRACE_OPS);
    let (reference, _, _) = untraced(seed, &mut setup, Budget::Ops(n));
    let measured = BTreeMap::from([("sim.allreduce_gbps", headline(seed, &mut setup))]);
    traced_passes(budget, reference, || {
        let mut tracer = Tracer::new();
        let (ops, _, _) = run_sequential(Budget::Ops(n), ROUND, |i| {
            let op = op(seed, i);
            let root = tracer.begin(trace::OP, i as u64);
            let (report, messages) = tracer.leaf("netsim.cycle", || setup.execute(&op));
            if let Ok(r) = &report {
                tracer.count("netsim.cycle.flits", r.sim.flits_sent);
            }
            tracer.end(root);
            check(&op, report, messages)
        });
        let layers = layer_metrics(&tracer, span_cost, &measured);
        (ops, layers, tracer)
    })
}
