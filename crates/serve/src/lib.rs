//! Collective-serving daemon for the MultiTree reproduction.
//!
//! Research simulators compile a schedule, run it once, and exit. A
//! scheduling service lives differently: the same `(topology, algorithm)`
//! pair is asked about thousands of times — across payload sweeps, across
//! engines, across fault drills — and compilation (tree construction,
//! verification, path flattening) dwarfs a single simulation. This crate
//! turns the workspace's compile-then-execute pipeline into a long-running
//! daemon built on that observation:
//!
//! * [`key::ScheduleKey`] — canonical identity of a compiled artifact:
//!   canonicalized [`mt_topology::TopologySpec`] + algorithm name +
//!   structural fault state. Payload, engine, and runtime-only fault
//!   events (flaps, degrades, timings) are deliberately excluded, so
//!   requests differing only there share one entry.
//! * [`cache::ScheduleCache`] — compile-once storage: in-flight dedup
//!   (exactly one compile per unique key), byte-budget LRU eviction,
//!   hit/miss/eviction counters. A key naming permanent deaths is
//!   compiled by *repairing* the cached healthy forest (incremental →
//!   full-rebuild → survivor-subset, re-verified) instead of starting
//!   from scratch.
//! * [`pool::WorkerPool`] — fixed worker threads, each owning one
//!   [`mt_netsim::SimScratch`]; the steady-state serving path performs
//!   no compile work and no allocation beyond scratch growth high-water
//!   marks.
//! * [`daemon::Daemon`] / [`client::Client`] — blocking NDJSON over TCP
//!   (`std` only, no async runtime): one JSON request per line, one JSON
//!   response per line, per-connection ordering preserved while requests
//!   from all connections execute concurrently.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod daemon;
pub mod key;
pub mod pool;
pub mod protocol;

pub use cache::{CacheOutcome, CachedSchedule, Provenance, ScheduleCache};
pub use client::Client;
pub use daemon::Daemon;
pub use key::{FaultKey, ScheduleKey};
pub use pool::{Job, JobQueue, ServeConfig, ServeState, WorkerPool};
pub use protocol::{
    AlgorithmSpec, EngineSpec, ErrorResponse, Request, Response, RunRequest, RunResponse,
    StatsResponse,
};
