//! Seeded end-to-end and per-layer benchmark of the MultiTree workspace.
//!
//! One command runs one workload — `serve_hot`, `serve_cold`,
//! `train_overlap` or `cycle_fig9` — against the public APIs of
//! `mt-serve`, `mt-trainsim`, `mt-netsim`, `multitree`, `mt-topology` and
//! `mt-accel`, checks every output, and prints the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of a traced replay of the same
//! seeded inputs (`--trace 1`). `--workload all` runs every workload
//! untraced and then traced. See `BENCHMARK.json` at the repository root
//! for the workloads, metrics and bounds.

#![forbid(unsafe_code)]

pub mod machine;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
