//! Differential test of the overlapped-training simulator.
//!
//! `simulate_overlapped_bucketed` prepares its schedule once per call and
//! simulates each distinct flush payload once. The oracle below is the
//! straightforward per-flush shape: every flush calls `Engine::run`,
//! which re-validates, re-routes and re-simulates from scratch. The two
//! must agree bit for bit on every `OverlapReport` field.

use mt_accel::{models, Accelerator, Layer, Model};
use mt_netsim::{flow::FlowEngine, Engine};
use mt_topology::Topology;
use mt_trainsim::{simulate_overlapped_bucketed, OverlapReport, SystemConfig};
use multitree::algorithms::{Algorithm, AllReduce, DbTree, MultiTree, Ring, Ring2D};
use multitree::AlgorithmError;
use proptest::prelude::*;

/// One `Engine::run` per bucket flush, folded on the same FIFO timeline.
fn per_flush_oracle(
    topo: &Topology,
    model: &Model,
    algorithm: &Algorithm,
    cfg: &SystemConfig,
    bucket_bytes: u64,
) -> Result<OverlapReport, AlgorithmError> {
    let acc = Accelerator::new(cfg.accelerator);
    let timing = acc.model_timing(model, cfg.per_node_batch);
    let schedule = algorithm.build(topo)?;
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
        let ar = engine.run(topo, &schedule, *bucket)?;
        let start = clock.max(network_free);
        let finish = start + ar.completion_ns;
        comm_total += ar.completion_ns;
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

/// The paper's Fig. 11b algorithms: the four schedules under packet-based
/// flow control, plus MULTITREE under message-based flow control.
fn algorithms() -> Vec<(Algorithm, SystemConfig)> {
    let pkt = SystemConfig::paper_default();
    let msg = SystemConfig::paper_message_based();
    vec![
        (Algorithm::Ring(Ring), pkt),
        (Algorithm::DbTree(DbTree::default()), pkt),
        (Algorithm::Ring2D(Ring2D), pkt),
        (Algorithm::MultiTree(MultiTree::default()), pkt),
        (Algorithm::MultiTree(MultiTree::default()), msg),
    ]
}

/// Twelve layers cycling through four gradient sizes 256 B apart: exact
/// repeats next to near-duplicates, which a lossy payload key would merge.
fn near_duplicate_payloads() -> Model {
    let layers = (0..12)
        .map(|i| Layer::dense(format!("fc{i}"), 1, (64 << 10) + 64 * (i % 4)))
        .collect();
    Model::new("NearDuplicates", layers)
}

fn assert_bit_identical(
    topo: &Topology,
    model: &Model,
    algorithm: &Algorithm,
    cfg: &SystemConfig,
    bucket_bytes: u64,
) {
    let got = simulate_overlapped_bucketed(topo, model, algorithm, cfg, bucket_bytes).unwrap();
    let want = per_flush_oracle(topo, model, algorithm, cfg, bucket_bytes).unwrap();
    let ctx = format!("{} {} bucket {bucket_bytes}", model.name, algorithm.name());
    assert_eq!(got.model, want.model, "{ctx}");
    assert_eq!(got.algorithm, want.algorithm, "{ctx}");
    for (field, g, w) in [
        ("compute_ns", got.compute_ns, want.compute_ns),
        ("comm_total_ns", got.comm_total_ns, want.comm_total_ns),
        ("overlap_ns", got.overlap_ns, want.overlap_ns),
        ("total_ns", got.total_ns, want.total_ns),
    ] {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: {field} {g} vs {w}");
    }
}

#[test]
fn matches_per_flush_oracle_on_every_model_algorithm_and_bucket() {
    let topo = Topology::torus(4, 4);
    let buckets = [1, 64 << 10, 4 << 20, 25 << 20, u64::MAX];
    for model in models::all().into_iter().chain([near_duplicate_payloads()]) {
        for (algorithm, cfg) in &algorithms() {
            for bucket in buckets {
                assert_bit_identical(&topo, &model, algorithm, cfg, bucket);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matches_per_flush_oracle_at_any_bucket_size(
        model in 0usize..4,
        algorithm in 0usize..5,
        mantissa in 1u64..1024,
        shift in 0u32..20,
    ) {
        // Small and large models, the Transformer's repeated per-layer
        // payloads and near-duplicate ones; buckets from 1 B to ~512 MiB.
        let model = match model {
            0 => models::alexnet(),
            1 => models::ncf(),
            2 => models::transformer(),
            _ => near_duplicate_payloads(),
        };
        let (algorithm, cfg) = &algorithms()[algorithm];
        let topo = Topology::torus(4, 4);
        assert_bit_identical(&topo, &model, algorithm, cfg, mantissa << shift);
    }
}
