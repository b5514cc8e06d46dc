//! Experiment suites shared by the harness binaries and the integration
//! tests: each function regenerates the data series of one figure.

use crate::parallel::run_indexed;
use multitree::algorithms::{Algorithm, AllReduce, DbTree, Hdrm, MultiTree, Ring, Ring2D};
use multitree::PreparedSchedule;
use mt_netsim::{
    cycle::CycleEngine, flow::FlowEngine, EngineReport, NetworkConfig, NoopObserver, SimScratch,
};
use mt_topology::Topology;
use serde::Serialize;

/// Which engine simulates the transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Fast flow-level engine (default for the paper-scale sweeps).
    Flow,
    /// Flit-level cycle engine (validation; slower).
    Cycle,
}

impl std::str::FromStr for EngineKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "flow" => Ok(EngineKind::Flow),
            "cycle" => Ok(EngineKind::Cycle),
            other => Err(format!("unknown engine '{other}' (flow|cycle)")),
        }
    }
}

/// Runs a prepared schedule on the chosen engine, reusing `scratch`
/// across calls.
pub fn run_engine(
    kind: EngineKind,
    cfg: NetworkConfig,
    prep: &PreparedSchedule<'_>,
    bytes: u64,
    scratch: &mut SimScratch,
) -> EngineReport {
    match kind {
        EngineKind::Flow => FlowEngine::new(cfg)
            .run_prepared_with(prep, bytes, scratch, &mut NoopObserver)
            .expect("flow engine"),
        EngineKind::Cycle => CycleEngine::new(cfg)
            .run_prepared_with(prep, bytes, scratch, &mut NoopObserver)
            .expect("cycle engine"),
    }
}

/// The four network families of Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoFamily {
    /// Fig. 9a: 4x4 and 8x8 Torus.
    Torus,
    /// Fig. 9b: 4x4 and 8x8 Mesh.
    Mesh,
    /// Fig. 9c: 16-node DGX-2-like and 64-node 8-ary 2-level Fat-Tree.
    FatTree,
    /// Fig. 9d: 32-node 4x8 and 64-node 4x16 BiGraph.
    BiGraph,
}

impl std::str::FromStr for TopoFamily {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "torus" => Ok(TopoFamily::Torus),
            "mesh" => Ok(TopoFamily::Mesh),
            "fattree" => Ok(TopoFamily::FatTree),
            "bigraph" => Ok(TopoFamily::BiGraph),
            other => Err(format!(
                "unknown topology family '{other}' (torus|mesh|fattree|bigraph)"
            )),
        }
    }
}

/// The two network instances of each Fig. 9 subfigure.
pub fn fig9_networks(family: TopoFamily) -> Vec<(String, Topology)> {
    match family {
        TopoFamily::Torus => vec![
            ("4x4 Torus".into(), Topology::torus(4, 4)),
            ("8x8 Torus".into(), Topology::torus(8, 8)),
        ],
        TopoFamily::Mesh => vec![
            ("4x4 Mesh".into(), Topology::mesh(4, 4)),
            ("8x8 Mesh".into(), Topology::mesh(8, 8)),
        ],
        TopoFamily::FatTree => vec![
            ("16-node Fat-Tree (DGX-2-like)".into(), Topology::dgx2_like_16()),
            ("64-node 8-ary Fat-Tree".into(), Topology::fat_tree_64()),
        ],
        TopoFamily::BiGraph => vec![
            ("32-node 4x8 BiGraph".into(), Topology::bigraph_32()),
            ("64-node 4x16 BiGraph".into(), Topology::bigraph_64()),
        ],
    }
}

/// One evaluated configuration: algorithm plus the flow-control mode it
/// runs with (`MULTITREEMSG` = MultiTree + message-based flow control).
#[derive(Debug, Clone)]
pub struct AlgoConfig {
    /// Display name as used in the paper's legends.
    pub label: &'static str,
    /// Schedule-construction algorithm.
    pub algorithm: Algorithm,
    /// Network configuration (flow-control mode).
    pub network: NetworkConfig,
}

/// The algorithms the paper evaluates on `topo`, in legend order:
/// RING, DBTREE, then topology-specific baselines, MULTITREE and
/// MULTITREEMSG.
pub fn paper_algorithms(topo: &Topology) -> Vec<AlgoConfig> {
    let pkt = NetworkConfig::paper_default();
    let msg = NetworkConfig::paper_message_based();
    let mut out = vec![
        AlgoConfig {
            label: "RING",
            algorithm: Algorithm::Ring(Ring),
            network: pkt,
        },
        AlgoConfig {
            label: "DBTREE",
            algorithm: Algorithm::DbTree(DbTree::default()),
            network: pkt,
        },
    ];
    if Ring2D::supports(topo) {
        out.push(AlgoConfig {
            label: "2D-RING",
            algorithm: Algorithm::Ring2D(Ring2D),
            network: pkt,
        });
    }
    if Hdrm::supports(topo) {
        out.push(AlgoConfig {
            label: "HDRM",
            algorithm: Algorithm::Hdrm(Hdrm),
            network: pkt,
        });
    }
    out.push(AlgoConfig {
        label: "MULTITREE",
        algorithm: Algorithm::MultiTree(MultiTree::default()),
        network: pkt,
    });
    out.push(AlgoConfig {
        label: "MULTITREEMSG",
        algorithm: Algorithm::MultiTree(MultiTree::default()),
        network: msg,
    });
    out
}

/// One Fig. 9 data point.
#[derive(Debug, Clone, Serialize)]
pub struct BandwidthPoint {
    /// Network label.
    pub network: String,
    /// Algorithm label.
    pub algorithm: String,
    /// All-reduce payload bytes.
    pub bytes: u64,
    /// Completion time in ns.
    pub completion_ns: f64,
    /// Algorithmic bandwidth in GB/s (the figure's y-axis).
    pub gbps: f64,
}

/// Sweeps all paper algorithms over `sizes` bytes on every network of a
/// family (one Fig. 9 subfigure). Equivalent to
/// [`bandwidth_sweep_parallel`] with one thread.
pub fn bandwidth_sweep(
    family: TopoFamily,
    sizes: &[u64],
    engine: EngineKind,
) -> Vec<BandwidthPoint> {
    bandwidth_sweep_parallel(family, sizes, engine, 1)
}

/// [`bandwidth_sweep`] fanned out over `threads` workers.
///
/// The sweep decomposes into independent `(network, algorithm)` units;
/// each unit builds and prepares its schedule once, then runs every
/// payload size serially on one thread with a reused scratch. Results
/// come back in the serial loop order, so the output is byte-identical
/// for any thread count.
pub fn bandwidth_sweep_parallel(
    family: TopoFamily,
    sizes: &[u64],
    engine: EngineKind,
    threads: usize,
) -> Vec<BandwidthPoint> {
    let units: Vec<(String, Topology, AlgoConfig)> = fig9_networks(family)
        .into_iter()
        .flat_map(|(net_label, topo)| {
            paper_algorithms(&topo)
                .into_iter()
                .map(move |ac| (net_label.clone(), topo.clone(), ac))
                .collect::<Vec<_>>()
        })
        .collect();
    run_indexed(units, threads, |(net_label, topo, ac)| {
        let schedule = ac
            .algorithm
            .build(topo)
            .expect("paper algorithms support their topologies");
        let prep = PreparedSchedule::new(&schedule, topo).expect("schedules validate");
        let mut scratch = SimScratch::new();
        sizes
            .iter()
            .map(|&bytes| {
                let report = run_engine(engine, ac.network, &prep, bytes, &mut scratch);
                BandwidthPoint {
                    network: net_label.clone(),
                    algorithm: ac.label.to_string(),
                    bytes,
                    completion_ns: report.completion_ns,
                    gbps: report.algbw_gbps(),
                }
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// The Fig. 10 torus ladder: 16, 32, 64, 128, 256 nodes.
pub fn scalability_tori() -> Vec<(usize, Topology)> {
    scalability_tori_to(256)
}

/// The Fig. 10 torus ladder extended past the paper's 256-node ceiling:
/// rungs double up to `max_nodes` (512 and 1024 use 16×32 and 32×32
/// tori; 4096 and 16384 use 64×64 and 128×128, the hierarchical
/// composition's territory). `max_nodes = 256` reproduces the paper
/// ladder exactly.
pub fn scalability_tori_to(max_nodes: usize) -> Vec<(usize, Topology)> {
    let ladder = [
        (16, (4, 4)),
        (32, (4, 8)),
        (64, (8, 8)),
        (128, (8, 16)),
        (256, (16, 16)),
        (512, (16, 32)),
        (1024, (32, 32)),
        (4096, (64, 64)),
        (16384, (128, 128)),
    ];
    ladder
        .iter()
        .filter(|(n, _)| *n <= max_nodes.max(16))
        .map(|&(n, (a, b))| (n, Topology::torus(a, b)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_parsing() {
        assert_eq!("torus".parse::<TopoFamily>().unwrap(), TopoFamily::Torus);
        assert!("nope".parse::<TopoFamily>().is_err());
        assert_eq!("cycle".parse::<EngineKind>().unwrap(), EngineKind::Cycle);
    }

    #[test]
    fn algorithm_sets_match_paper_legends() {
        let torus = Topology::torus(4, 4);
        let labels: Vec<_> = paper_algorithms(&torus).iter().map(|a| a.label).collect();
        assert_eq!(
            labels,
            vec!["RING", "DBTREE", "2D-RING", "MULTITREE", "MULTITREEMSG"]
        );
        let bg = Topology::bigraph_32();
        let labels: Vec<_> = paper_algorithms(&bg).iter().map(|a| a.label).collect();
        assert_eq!(
            labels,
            vec!["RING", "DBTREE", "HDRM", "MULTITREE", "MULTITREEMSG"]
        );
    }

    #[test]
    fn small_sweep_produces_sane_bandwidths() {
        let pts = bandwidth_sweep(TopoFamily::Torus, &[1 << 20], EngineKind::Flow);
        // 2 networks x 5 algorithms
        assert_eq!(pts.len(), 10);
        for p in &pts {
            assert!(p.gbps > 0.1 && p.gbps < 16.0 * 64.0, "{p:?}");
        }
    }

    #[test]
    fn scalability_ladder() {
        let tori = scalability_tori();
        assert_eq!(tori.len(), 5);
        for (n, t) in tori {
            assert_eq!(t.num_nodes(), n);
        }
        let kilo = scalability_tori_to(1024);
        assert_eq!(kilo.len(), 7);
        assert_eq!(kilo[5].0, 512);
        assert_eq!(kilo[6].0, 1024);
        for (n, t) in kilo {
            assert_eq!(t.num_nodes(), n);
        }
        let hier = scalability_tori_to(16384);
        assert_eq!(hier.len(), 9);
        assert_eq!(hier[7].0, 4096);
        assert_eq!(hier[8].0, 16384);
        for (n, t) in hier {
            assert_eq!(t.num_nodes(), n);
        }
        // the default ladder is the 256-capped ladder, rung for rung
        assert_eq!(
            scalability_tori_to(256).len(),
            scalability_tori().len()
        );
    }
}
