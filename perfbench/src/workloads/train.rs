//! `train_overlap`: the paper's Fig. 11b layer-wise overlapped training.
//!
//! Every model of `mt_accel::models::all()` × {RING, DBTREE, 2D-RING,
//! MULTITREE, MULTITREEMSG} on an 8×8 torus, each with per-layer
//! all-reduce (`simulate_overlapped`) and with gradient fusion at two
//! bucket sizes (`simulate_overlapped_bucketed`, each size jittered by up
//! to 1/16 per op). One op is one simulated training iteration; a round
//! is the whole menu in a seeded order.
//!
//! The traced run replays the library's public calls —
//! `Accelerator::model_timing`, `Algorithm::build`, then
//! `PreparedSchedule::new` and `FlowEngine::run_prepared_with` on every
//! bucket flush — and requires its report to equal the library's exactly.

use super::{
    layer_metrics, round_order, run_sequential, timed_setup, traced_passes, Budget, Fnv, OpResult,
    Rng, TracedRun, UntracedRun,
};
use crate::stats::Outcome;
use crate::trace::{self, Tracer};
use mt_accel::{models, Accelerator, Model};
use mt_netsim::flow::FlowEngine;
use mt_netsim::{NoopObserver, SimScratch};
use mt_topology::Topology;
use mt_trainsim::{simulate_overlapped, simulate_overlapped_bucketed, OverlapReport, SystemConfig};
use multitree::algorithms::{Algorithm, AllReduce, DbTree, MultiTree, Ring, Ring2D};
use multitree::{AlgorithmError, PreparedSchedule};
use std::collections::{BTreeMap, BTreeSet};

/// Legend labels of the algorithms, in Fig. 11b order.
const ALGORITHMS: [&str; 5] = ["RING", "DBTREE", "2D-RING", "MULTITREE", "MULTITREEMSG"];

/// Fusion bucket centres in bytes; `None` is per-layer all-reduce.
const BUCKETS: [Option<u64>; 3] = [None, Some(4 << 20), Some(25 << 20)];

/// Models in `models::all()`.
const MODELS: usize = 7;

/// Ops in one round: every model × algorithm × bucket mode.
pub const ROUND: usize = MODELS * ALGORITHMS.len() * BUCKETS.len();

/// Ops a traced run replays.
const TRACE_OPS: usize = ROUND;

/// One simulated training iteration of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Index into `models::all()`.
    pub model: usize,
    /// Index into [`ALGORITHMS`].
    pub algorithm: usize,
    /// Fusion bucket in bytes; `None` is per-layer all-reduce.
    pub bucket: Option<u64>,
}

/// The `index`-th op of the stream for `seed`.
pub fn op(seed: u64, index: usize) -> Op {
    let slot = round_order(seed, index / ROUND, ROUND)[index % ROUND];
    let bucket = BUCKETS[slot % BUCKETS.len()].map(|centre| {
        let step = centre / 16;
        let mut rng = Rng::at(seed, 0x7A17, index as u64);
        centre - step + rng.below(2 * step as usize + 1) as u64
    });
    Op {
        model: (slot / BUCKETS.len()) % MODELS,
        algorithm: slot / (BUCKETS.len() * MODELS),
        bucket,
    }
}

/// Models, machine and configurations every op uses.
struct Setup {
    topo: Topology,
    models: Vec<Model>,
    algorithms: Vec<(Algorithm, SystemConfig)>,
}

impl Setup {
    /// Builds the models, the 8×8 torus and the five configurations.
    fn new() -> Self {
        let models = models::all();
        assert_eq!(models.len(), MODELS, "Fig. 11b covers every model");
        let pkt = SystemConfig::paper_default();
        let msg = SystemConfig::paper_message_based();
        Setup {
            topo: Topology::torus(8, 8),
            models,
            algorithms: vec![
                (Algorithm::Ring(Ring), pkt),
                (Algorithm::DbTree(DbTree::default()), pkt),
                (Algorithm::Ring2D(Ring2D), pkt),
                (Algorithm::MultiTree(MultiTree::default()), pkt),
                (Algorithm::MultiTree(MultiTree::default()), msg),
            ],
        }
    }

    /// The library call one op makes.
    fn simulate(&self, op: &Op) -> Result<OverlapReport, AlgorithmError> {
        let (algorithm, cfg) = &self.algorithms[op.algorithm];
        let model = &self.models[op.model];
        match op.bucket {
            None => simulate_overlapped(&self.topo, model, algorithm, cfg),
            Some(b) => simulate_overlapped_bucketed(&self.topo, model, algorithm, cfg, b),
        }
    }

    /// `simulate_overlapped_bucketed`'s public calls, one span each.
    fn replay(
        &self,
        op: &Op,
        tracer: &mut Tracer,
        scratch: &mut SimScratch,
        prepared: &mut BTreeSet<&'static str>,
    ) -> Result<OverlapReport, AlgorithmError> {
        let (algorithm, cfg) = &self.algorithms[op.algorithm];
        let model = &self.models[op.model];
        let bucket_bytes = op.bucket.unwrap_or(1);
        let acc = Accelerator::new(cfg.accelerator);
        let timing = tracer.leaf("accel.timing", || {
            acc.model_timing(model, cfg.per_node_batch)
        });
        let schedule = tracer.leaf("core.construct", || algorithm.build(&self.topo))?;
        tracer.count("core.construct.events", schedule.events().len() as u64);
        let engine = FlowEngine::new(cfg.network);

        let fwd_ns = acc.cycles_to_ns(timing.fwd_cycles);
        let mut clock = fwd_ns;
        let mut network_free = fwd_ns;
        let mut comm_total = 0.0;
        let mut last_ar_finish = fwd_ns;
        let mut bucket = 0u64;
        let mut flush = |bucket: &mut u64, clock: f64| -> Result<(), AlgorithmError> {
            if *bucket == 0 {
                return Ok(());
            }
            let prep = tracer.leaf("core.prepare", || {
                PreparedSchedule::new(&schedule, &self.topo)
            })?;
            prepared.insert(algorithm.name());
            let ar = tracer.leaf("netsim.flow", || {
                engine.run_prepared_with(&prep, *bucket, scratch, &mut NoopObserver)
            })?;
            tracer.count("netsim.flow.events", prep.num_events() as u64);
            let start = clock.max(network_free);
            let finish = start + ar.sim.completion_ns;
            comm_total += ar.sim.completion_ns;
            network_free = finish;
            last_ar_finish = finish;
            *bucket = 0;
            Ok(())
        };
        for lt in timing.layers.iter().rev() {
            clock += acc.cycles_to_ns(lt.bwd_cycles);
            bucket += cfg.scaled_grad_bytes(lt.grad_bytes);
            if bucket >= bucket_bytes {
                flush(&mut bucket, clock)?;
            }
        }
        flush(&mut bucket, clock)?;
        let compute_ns = acc.cycles_to_ns(timing.fwd_cycles + timing.bwd_cycles);
        let total_ns = clock.max(last_ar_finish);
        let exposed = total_ns - compute_ns;
        Ok(OverlapReport {
            model: model.name.clone(),
            algorithm: algorithm.name().to_string(),
            compute_ns,
            comm_total_ns: comm_total,
            overlap_ns: (comm_total - exposed).max(0.0),
            total_ns,
        })
    }

    /// Checks a library report and digests its simulated fields.
    fn check(&self, op: &Op, report: Result<OverlapReport, AlgorithmError>) -> (Outcome, u64) {
        let r = match report {
            Ok(r) => r,
            Err(e) => return (Outcome::Refused(e.to_string()), 0),
        };
        let digest = Fnv::default()
            .bytes(r.model.as_bytes())
            .bytes(r.algorithm.as_bytes())
            .word(r.compute_ns.to_bits())
            .word(r.comm_total_ns.to_bits())
            .word(r.overlap_ns.to_bits())
            .word(r.total_ns.to_bits())
            .finish();
        let sane = [r.compute_ns, r.comm_total_ns, r.overlap_ns, r.total_ns]
            .iter()
            .all(|v| v.is_finite() && *v >= 0.0)
            && r.compute_ns > 0.0
            && r.comm_total_ns > 0.0
            && r.total_ns >= r.compute_ns;
        let outcome = if r.model != self.models[op.model].name {
            Outcome::Wrong(format!("report for model {}", r.model))
        } else if !sane {
            Outcome::Wrong(format!("inconsistent report {r:?}"))
        } else {
            Outcome::Ok
        };
        (outcome, digest)
    }

    /// Fig. 11b headline: simulated Transformer iteration time with
    /// per-layer all-reduce, RING ÷ MULTITREEMSG.
    fn headline(&self) -> f64 {
        let transformer = self
            .models
            .iter()
            .position(|m| m.name == "Transformer")
            .expect("models::all() includes the Transformer");
        let total = |algorithm| {
            self.simulate(&Op {
                model: transformer,
                algorithm,
                bucket: None,
            })
            .map_or(f64::NAN, |r| r.total_ns)
        };
        total(0) / total(ALGORITHMS.len() - 1)
    }
}

fn untraced(seed: u64, setup: &Setup, budget: Budget) -> (Vec<OpResult>, f64, Vec<f64>) {
    run_sequential(budget, ROUND, |i| {
        let op = op(seed, i);
        setup.check(&op, setup.simulate(&op))
    })
}

/// Runs the workload with tracing off.
pub fn run(seed: u64, budget: Budget) -> UntracedRun {
    let (setup, setup_s) = timed_setup(Setup::new);
    let (ops, elapsed_s, window_rates) = untraced(seed, &setup, budget);
    UntracedRun {
        setup_s,
        ops,
        elapsed_s,
        window_rates,
        headlines: BTreeMap::from([("sim.train_speedup", setup.headline())]),
        digest_ops: budget.trace_ops(TRACE_OPS),
    }
}

/// Runs the untraced reference pass, then traced replays of the same ops.
pub fn run_traced(seed: u64, budget: Budget) -> TracedRun {
    let span_cost = trace::span_cost_ns();
    let setup = Setup::new();
    let n = budget.trace_ops(TRACE_OPS);
    let (reference, _, _) = untraced(seed, &setup, Budget::Ops(n));
    let measured = BTreeMap::from([("sim.train_speedup", setup.headline())]);
    let mut scratch = SimScratch::new();
    traced_passes(budget, reference, || {
        let mut tracer = Tracer::new();
        let mut prepared = BTreeSet::new();
        let (ops, _, _) = run_sequential(Budget::Ops(n), ROUND, |i| {
            let op = op(seed, i);
            let root = tracer.begin(trace::OP, i as u64);
            let overlap = tracer.begin("trainsim.overlap", i as u64);
            let replayed = setup.replay(&op, &mut tracer, &mut scratch, &mut prepared);
            tracer.end(overlap);
            let library = tracer.leaf("trainsim.reference", || setup.simulate(&op));
            tracer.end(root);
            match (replayed, library) {
                (Ok(a), Ok(b)) if a == b => setup.check(&op, Ok(b)),
                (Err(_), Err(e)) => setup.check(&op, Err(e)),
                (a, b) => (
                    Outcome::Wrong(format!("replay {a:?} differs from library {b:?}")),
                    0,
                ),
            }
        });
        tracer.count("core.prepare.distinct", prepared.len() as u64);
        let layers = layer_metrics(&tracer, span_cost, &measured);
        (ops, layers, tracer)
    })
}
