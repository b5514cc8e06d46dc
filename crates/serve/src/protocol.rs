//! The NDJSON wire protocol.
//!
//! One request per line, one response per line, per-connection response
//! order matching request order. Every type is serde-stable through the
//! workspace's offline shim: enums are externally tagged (a unit variant
//! is a bare string, a data variant a single-key map), so a run request
//! looks like
//!
//! ```json
//! {"Run":{"topology":{"Torus":{"rows":4,"cols":4}},"algorithm":"MultiTree",
//!  "payload_bytes":1048576,"engine":"Flow","faults":null}}
//! ```
//!
//! Payload size and engine choice are deliberately *not* part of the
//! schedule cache key ([`crate::key::ScheduleKey`]): a compiled schedule
//! is payload-independent (wire framing is recomputed on every run) and
//! both engines execute the same prepared artifact, so varying either
//! still hits.

use multitree::algorithms::{
    Algorithm, AllReduce, Blink, DbTree, HalvingDoubling, Hdrm, HierarchicalMultiTree, MultiTree,
    Ring, Ring2D,
};
use multitree::{AlgorithmError, CommSchedule};
use mt_netsim::FaultPlan;
use mt_topology::{Topology, TopologySpec};
use serde::{Deserialize, Serialize};

/// Which all-reduce construction a request asks for.
///
/// The flat MultiTree variants keep their construction `Forest`
/// (`multitree::algorithms::Forest`) alongside the cached schedule, which
/// is what lets a later fault delta go through incremental repair instead
/// of a cold recompile; the other algorithms are rebuilt from scratch on
/// the degraded topology, exactly like the `fault_sweep` baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AlgorithmSpec {
    /// Ring all-reduce (Baidu).
    Ring,
    /// Double binary tree (Sanders / NCCL).
    DbTree,
    /// 2D-Ring (Ying et al.), Torus/Mesh only.
    Ring2D,
    /// Halving-doubling (MPICH), power-of-two node counts.
    HalvingDoubling,
    /// Halving-doubling with EFLOPS rank mapping, BiGraph only.
    Hdrm,
    /// Blink-style single-root packed trees.
    Blink,
    /// The paper's MultiTree.
    MultiTree,
    /// MultiTree with bandwidth-aware slot accrual (§VII-B).
    MultiTreeBandwidthAware,
    /// Hierarchical (pod-composed) MultiTree for large fabrics.
    Hierarchical,
    /// Hierarchical MultiTree with bandwidth-aware pod trees and reps.
    HierarchicalBandwidthAware,
}

impl AlgorithmSpec {
    /// Stable name used in cache keys and responses.
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmSpec::Ring => "RING",
            AlgorithmSpec::DbTree => "DBTREE",
            AlgorithmSpec::Ring2D => "2DRING",
            AlgorithmSpec::HalvingDoubling => "HD",
            AlgorithmSpec::Hdrm => "HDRM",
            AlgorithmSpec::Blink => "BLINK",
            AlgorithmSpec::MultiTree => "MULTITREE",
            AlgorithmSpec::MultiTreeBandwidthAware => "MULTITREE-BW",
            AlgorithmSpec::Hierarchical => "MULTITREE-HIER",
            AlgorithmSpec::HierarchicalBandwidthAware => "MULTITREE-HIER-BW",
        }
    }

    /// The flat-MultiTree builder behind this spec, if it has one — the
    /// family whose cached forests support incremental repair.
    pub fn multitree(self) -> Option<MultiTree> {
        match self {
            AlgorithmSpec::MultiTree => Some(MultiTree::default()),
            AlgorithmSpec::MultiTreeBandwidthAware => Some(MultiTree::bandwidth_aware()),
            _ => None,
        }
    }

    /// Builds the schedule on `topo`.
    ///
    /// # Errors
    ///
    /// Whatever the underlying construction returns — unsupported
    /// topology family, non-power-of-two node count, etc.
    pub fn build(self, topo: &Topology) -> Result<CommSchedule, AlgorithmError> {
        match self {
            AlgorithmSpec::Ring => Ring.build(topo),
            AlgorithmSpec::DbTree => DbTree::default().build(topo),
            AlgorithmSpec::Ring2D => Ring2D.build(topo),
            AlgorithmSpec::HalvingDoubling => HalvingDoubling.build(topo),
            AlgorithmSpec::Hdrm => Hdrm.build(topo),
            AlgorithmSpec::Blink => Blink::default().build(topo),
            AlgorithmSpec::MultiTree => MultiTree::default().build(topo),
            AlgorithmSpec::MultiTreeBandwidthAware => MultiTree::bandwidth_aware().build(topo),
            AlgorithmSpec::Hierarchical => HierarchicalMultiTree::default().build(topo),
            AlgorithmSpec::HierarchicalBandwidthAware => {
                HierarchicalMultiTree::bandwidth_aware().build(topo)
            }
        }
    }

    /// The equivalent [`Algorithm`] enum value, when one exists (the
    /// hierarchical variants are builders, not `Algorithm` members).
    pub fn algorithm(self) -> Option<Algorithm> {
        match self {
            AlgorithmSpec::Ring => Some(Algorithm::Ring(Ring)),
            AlgorithmSpec::DbTree => Some(Algorithm::DbTree(DbTree::default())),
            AlgorithmSpec::Ring2D => Some(Algorithm::Ring2D(Ring2D)),
            AlgorithmSpec::HalvingDoubling => Some(Algorithm::HalvingDoubling(HalvingDoubling)),
            AlgorithmSpec::Hdrm => Some(Algorithm::Hdrm(Hdrm)),
            AlgorithmSpec::Blink => Some(Algorithm::Blink(Blink::default())),
            AlgorithmSpec::MultiTree => Some(Algorithm::MultiTree(MultiTree::default())),
            AlgorithmSpec::MultiTreeBandwidthAware => {
                Some(Algorithm::MultiTree(MultiTree::bandwidth_aware()))
            }
            _ => None,
        }
    }
}

/// Which simulation engine executes the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineSpec {
    /// Fast flow-level engine (FIFO whole-message serialization).
    Flow,
    /// Cycle-level VC router model.
    Cycle,
}

/// One simulation request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRequest {
    /// The machine to simulate on.
    pub topology: TopologySpec,
    /// The collective construction.
    pub algorithm: AlgorithmSpec,
    /// All-reduce payload in bytes.
    pub payload_bytes: u64,
    /// Which engine executes the prepared schedule.
    pub engine: EngineSpec,
    /// Optional fault state. Permanent link/node deaths become part of
    /// the cache key (a delta routes through incremental repair);
    /// flaps, degrades and the detect window are applied at execution
    /// time against the cached schedule.
    pub faults: Option<FaultPlan>,
}

/// A client message: one per NDJSON line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Execute a run (the workhorse).
    Run(RunRequest),
    /// Snapshot the daemon's cache/served counters.
    Stats,
    /// Liveness probe.
    Ping,
}

/// The result of one successful run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResponse {
    /// Short digest of the schedule cache key this run resolved to.
    pub key: String,
    /// How the schedule was obtained: `"compiled"`, `"cached"`,
    /// `"repaired:incremental"`, `"repaired:full-rebuild"`,
    /// `"repaired:survivor-subset"`, or `"cached-repair"` for a hit on
    /// a previously repaired key.
    pub provenance: String,
    /// True if the served schedule passed verification when compiled or
    /// repaired (always true for responses the daemon emits; carried
    /// explicitly so soak tests can assert it per response).
    pub verified: bool,
    /// Simulated completion time.
    pub completion_ns: f64,
    /// Messages delivered / in the schedule.
    pub delivered: u64,
    /// Total messages in the schedule.
    pub messages: u64,
    /// Flits injected.
    pub flits_sent: u64,
    /// True if the run stalled under faults (watchdog fired).
    pub stalled: bool,
    /// Occupancy of the coalesced batch this run executed in (≥ 1; the
    /// number of same-key runs that shared one cache resolve and one
    /// prepared-data borrow). Like `provenance`, this is scheduling
    /// provenance, not a simulated quantity: it depends on queue timing,
    /// worker count and `max_batch`, so determinism diffs must compare
    /// the simulated fields only.
    pub batch: u64,
}

/// Daemon counters at a point in time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsResponse {
    /// Run requests answered from a ready cache entry.
    pub hits: u64,
    /// Run requests that compiled (or repaired) a new entry.
    pub misses: u64,
    /// Requests that piggybacked on a compile already in flight.
    pub coalesced: u64,
    /// Ready entries evicted by the byte-budget LRU.
    pub evictions: u64,
    /// Fault-delta requests resolved by incremental repair.
    pub repairs_incremental: u64,
    /// Fault-delta requests that fell back to a full rebuild.
    pub repairs_full_rebuild: u64,
    /// Fault-delta requests that fell back to a survivor subset.
    pub repairs_survivor: u64,
    /// Requests that returned an error.
    pub errors: u64,
    /// Coalesced batches the worker pool has executed. Every run
    /// executes in exactly one batch (an unbatched run is a batch of
    /// occupancy 1), so these counters reconcile exactly:
    /// `batched_runs` equals the total run requests the workers have
    /// finished, and the occupancy-weighted histogram sums back to it.
    pub batches: u64,
    /// Runs executed inside those batches (the sum of occupancies).
    pub batched_runs: u64,
    /// Batch occupancy histogram: element `i` counts batches that
    /// executed `i + 1` runs, the last element absorbing anything
    /// larger.
    pub batch_occupancy: Vec<u64>,
    /// Bytes currently resident in the schedule cache.
    pub resident_bytes: u64,
    /// Ready entries currently resident.
    pub resident_entries: u64,
}

/// A server message: one per NDJSON line, in per-connection request
/// order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Successful run.
    Run(RunResponse),
    /// Counter snapshot.
    Stats(StatsResponse),
    /// Liveness answer.
    Pong,
    /// The request failed; the connection stays usable.
    Error(ErrorResponse),
}

/// Why a request failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Human-readable reason.
    pub detail: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request::Run(RunRequest {
            topology: TopologySpec::Torus { rows: 4, cols: 4 },
            algorithm: AlgorithmSpec::MultiTree,
            payload_bytes: 1 << 20,
            engine: EngineSpec::Flow,
            faults: None,
        });
        let line = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&line).unwrap();
        assert_eq!(back, req);
        // unit variants serialize as bare strings
        assert_eq!(serde_json::to_string(&Request::Ping).unwrap(), "\"Ping\"");
    }

    #[test]
    fn every_algorithm_spec_builds_somewhere() {
        let torus = Topology::torus(4, 4);
        let bigraph = Topology::bigraph_32();
        for spec in [
            AlgorithmSpec::Ring,
            AlgorithmSpec::DbTree,
            AlgorithmSpec::Ring2D,
            AlgorithmSpec::HalvingDoubling,
            AlgorithmSpec::Blink,
            AlgorithmSpec::MultiTree,
            AlgorithmSpec::MultiTreeBandwidthAware,
            AlgorithmSpec::Hierarchical,
            AlgorithmSpec::HierarchicalBandwidthAware,
        ] {
            assert!(spec.build(&torus).is_ok(), "{} on torus", spec.name());
        }
        assert!(AlgorithmSpec::Hdrm.build(&bigraph).is_ok());
        // and spec names are distinct (they key the cache)
        let mut names: Vec<&str> = [
            AlgorithmSpec::Ring,
            AlgorithmSpec::DbTree,
            AlgorithmSpec::Ring2D,
            AlgorithmSpec::HalvingDoubling,
            AlgorithmSpec::Hdrm,
            AlgorithmSpec::Blink,
            AlgorithmSpec::MultiTree,
            AlgorithmSpec::MultiTreeBandwidthAware,
            AlgorithmSpec::Hierarchical,
            AlgorithmSpec::HierarchicalBandwidthAware,
        ]
        .iter()
        .map(|s| s.name())
        .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10);
    }
}
