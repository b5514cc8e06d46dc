//! Layer-wise overlapped training (paper Fig. 11b): each layer's gradient
//! all-reduce is queued as soon as its backward pass completes, so
//! communication overlaps with the back-propagation of earlier layers
//! (§V-B, following ASTRA-sim-style layer-wise all-reduce).

use crate::config::SystemConfig;
use multitree::algorithms::{Algorithm, AllReduce};
use multitree::{AlgorithmError, PreparedSchedule};
use mt_accel::Accelerator;
use mt_netsim::{flow::FlowEngine, NoopObserver, SimScratch};
use mt_topology::Topology;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::{Entry, HashMap};

/// Timing breakdown of one overlapped training iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverlapReport {
    /// Workload name.
    pub model: String,
    /// All-reduce algorithm used.
    pub algorithm: String,
    /// Total compute time (forward + backward), ns.
    pub compute_ns: f64,
    /// Total communication time summed over per-layer all-reduces, ns.
    pub comm_total_ns: f64,
    /// Communication hidden under compute, ns.
    pub overlap_ns: f64,
    /// Iteration time (end of last all-reduce or last backward), ns.
    pub total_ns: f64,
}

impl OverlapReport {
    /// Communication left exposed after overlapping.
    pub fn exposed_comm_ns(&self) -> f64 {
        self.total_ns - self.compute_ns
    }
}

/// Simulates one training iteration with layer-wise all-reduce.
///
/// Back-propagation visits layers in reverse; when layer `i`'s backward
/// GEMMs finish, its gradient chunk enters the all-reduce queue. The
/// network serves queued all-reduces in FIFO order (they share the same
/// links, so concurrent collectives would interleave rather than help).
///
/// The schedule is built and prepared once per call, and each distinct
/// all-reduce payload is simulated once; see
/// [`simulate_overlapped_bucketed`].
///
/// # Errors
///
/// Propagates schedule-construction errors, [`PreparedSchedule::new`]
/// validation errors, and [`AlgorithmError::MalformedSchedule`] if an
/// all-reduce deadlocks in simulation.
pub fn simulate_overlapped(
    topo: &Topology,
    model: &mt_accel::Model,
    algorithm: &Algorithm,
    cfg: &SystemConfig,
) -> Result<OverlapReport, AlgorithmError> {
    simulate_overlapped_bucketed(topo, model, algorithm, cfg, 1)
}

/// [`simulate_overlapped`] with Horovod-style gradient fusion: completed
/// layers' gradients accumulate into a bucket and one all-reduce fires
/// whenever the bucket reaches `bucket_bytes` (or back-propagation
/// finishes). Bucketing amortizes per-collective latency at the cost of
/// delaying the first bytes — the classic fusion-size trade-off.
///
/// The schedule is built and prepared once per call and runs on one
/// reused [`SimScratch`]. Each distinct flush payload is simulated once:
/// a flow-engine run is a pure function of `(prepared schedule,
/// payload)`, so a repeated payload reuses the earlier completion time,
/// bit for bit. Every flush still occupies the network and counts
/// towards `comm_total_ns` on its own.
///
/// # Errors
///
/// Propagates schedule-construction errors, [`PreparedSchedule::new`]
/// validation errors, and [`AlgorithmError::MalformedSchedule`] if an
/// all-reduce deadlocks in simulation.
///
/// # Panics
///
/// Panics if `bucket_bytes == 0`.
pub fn simulate_overlapped_bucketed(
    topo: &Topology,
    model: &mt_accel::Model,
    algorithm: &Algorithm,
    cfg: &SystemConfig,
    bucket_bytes: u64,
) -> Result<OverlapReport, AlgorithmError> {
    assert!(bucket_bytes >= 1, "bucket size must be positive");
    let acc = Accelerator::new(cfg.accelerator);
    let timing = acc.model_timing(model, cfg.per_node_batch);
    let schedule = algorithm.build(topo)?;
    let prep = PreparedSchedule::new(&schedule, topo)?;
    let engine = FlowEngine::new(cfg.network);
    let mut scratch = SimScratch::new();
    // payload -> all-reduce completion time, ns
    let mut completions: HashMap<u64, f64> = HashMap::new();

    let fwd_ns = acc.cycles_to_ns(timing.fwd_cycles);
    let mut clock = fwd_ns; // backward starts after forward
    let mut network_free = fwd_ns;
    let mut comm_total = 0.0;
    let mut last_ar_finish = fwd_ns;
    let mut bucket = 0u64;

    let mut flush = |bucket: &mut u64, clock: f64| -> Result<(), AlgorithmError> {
        if *bucket == 0 {
            return Ok(());
        }
        let completion_ns = match completions.entry(*bucket) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let ar =
                    engine.run_prepared_with(&prep, *bucket, &mut scratch, &mut NoopObserver)?;
                *e.insert(ar.sim.completion_ns)
            }
        };
        let start = clock.max(network_free);
        let finish = start + completion_ns;
        comm_total += completion_ns;
        network_free = finish;
        last_ar_finish = finish;
        *bucket = 0;
        Ok(())
    };

    // backward pass visits layers in reverse order
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iteration::simulate_iteration;
    use multitree::algorithms::{MultiTree, Ring};
    use mt_accel::models;

    fn topo() -> Topology {
        Topology::torus(4, 4)
    }

    #[test]
    fn overlap_never_exceeds_non_overlapped_total() {
        let cfg = SystemConfig::paper_default();
        for model in [models::resnet50(), models::ncf()] {
            for algo in [
                Algorithm::Ring(Ring),
                Algorithm::MultiTree(MultiTree::default()),
            ] {
                let non = simulate_iteration(&topo(), &model, &algo, &cfg).unwrap();
                let ovl = simulate_overlapped(&topo(), &model, &algo, &cfg).unwrap();
                // Layer-wise all-reduce pays extra per-layer latency but
                // hides it behind compute; the end-to-end iteration must
                // not be slower than compute+comm by more than the added
                // per-layer overhead, and for compute-heavy CNNs it must
                // strictly win.
                assert!(
                    ovl.total_ns <= non.total_ns() * 1.25,
                    "{} {}: overlapped {} vs non {}",
                    model.name,
                    algo.name(),
                    ovl.total_ns,
                    non.total_ns()
                );
            }
        }
    }

    #[test]
    fn cnns_hide_most_communication() {
        let cfg = SystemConfig::paper_default();
        let ovl = simulate_overlapped(
            &topo(),
            &models::faster_rcnn(),
            &Algorithm::MultiTree(MultiTree::default()),
            &cfg,
        )
        .unwrap();
        assert!(
            ovl.overlap_ns > 0.5 * ovl.comm_total_ns,
            "overlap {} of comm {}",
            ovl.overlap_ns,
            ovl.comm_total_ns
        );
    }

    #[test]
    fn communication_bound_models_stay_bound() {
        let cfg = SystemConfig::paper_default();
        let ovl = simulate_overlapped(
            &topo(),
            &models::ncf(),
            &Algorithm::Ring(Ring),
            &cfg,
        )
        .unwrap();
        // computation can only hide a sliver of NCF's communication
        assert!(ovl.exposed_comm_ns() > 0.5 * ovl.comm_total_ns);
    }

    #[test]
    fn bucketing_interpolates_between_extremes() {
        // bucket = whole model == non-overlapped; bucket = 1 byte ==
        // per-layer; mid-size buckets land between or better
        let cfg = SystemConfig::paper_default();
        let algo = Algorithm::Ring(Ring);
        let m = models::resnet50();
        let per_layer =
            simulate_overlapped_bucketed(&topo(), &m, &algo, &cfg, 1).unwrap();
        let whole = simulate_overlapped_bucketed(&topo(), &m, &algo, &cfg, u64::MAX).unwrap();
        let non = simulate_iteration(&topo(), &m, &algo, &cfg).unwrap();
        // whole-model bucket equals the non-overlapped iteration to
        // within the single all-reduce start offset
        assert!((whole.total_ns - non.total_ns()).abs() / non.total_ns() < 0.01);
        let mid = simulate_overlapped_bucketed(&topo(), &m, &algo, &cfg, 4 << 20).unwrap();
        assert!(mid.total_ns <= whole.total_ns * 1.01);
        assert!(mid.total_ns <= per_layer.total_ns * 1.10);
    }

    #[test]
    fn repeated_payloads_count_once_per_flush() {
        // Per-layer Transformer: 31 flushes over only 3 distinct sizes
        // (embedding, attention, FFN), so most flushes reuse an earlier
        // payload's completion and must still be charged each time.
        let cfg = SystemConfig::paper_default();
        let model = models::transformer();
        let algo = Algorithm::MultiTree(MultiTree::default());
        let t = topo();
        let timing = Accelerator::new(cfg.accelerator).model_timing(&model, cfg.per_node_batch);
        let payloads: Vec<u64> = timing
            .layers
            .iter()
            .rev()
            .map(|lt| cfg.scaled_grad_bytes(lt.grad_bytes))
            .filter(|&b| b > 0)
            .collect();
        let mut distinct = payloads.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!((payloads.len(), distinct.len()), (31, 3));

        let schedule = algo.build(&t).unwrap();
        let prep = PreparedSchedule::new(&schedule, &t).unwrap();
        let engine = FlowEngine::new(cfg.network);
        let expected = payloads.iter().fold(0.0, |sum, &b| {
            let ar = engine
                .run_prepared_with(&prep, b, &mut SimScratch::new(), &mut NoopObserver)
                .unwrap();
            sum + ar.sim.completion_ns
        });
        let ovl = simulate_overlapped(&t, &model, &algo, &cfg).unwrap();
        assert_eq!(ovl.comm_total_ns.to_bits(), expected.to_bits());
    }

    #[test]
    fn compute_is_algorithm_independent() {
        let cfg = SystemConfig::paper_default();
        let a = simulate_overlapped(&topo(), &models::alexnet(), &Algorithm::Ring(Ring), &cfg)
            .unwrap();
        let b = simulate_overlapped(
            &topo(),
            &models::alexnet(),
            &Algorithm::MultiTree(MultiTree::default()),
            &cfg,
        )
        .unwrap();
        assert_eq!(a.compute_ns, b.compute_ns);
        assert!(b.total_ns <= a.total_ns);
    }
}
