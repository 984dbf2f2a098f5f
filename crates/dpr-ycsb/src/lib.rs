//! # dpr-ycsb
//!
//! YCSB-style workload generation (§7.1) and measurement utilities for the
//! benchmark harness: uniform and Zipfian key distributions (Gray et al.'s
//! algorithm, as in the YCSB core generators), read/blind-update mixes
//! (`R:BU` in the paper's notation), and a time-bucketed throughput series.
//! Latency distributions are `dpr_telemetry::Histogram`s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod stats;
pub mod workload;
pub mod zipf;

pub use stats::ThroughputSeries;
pub use workload::{KeyDistribution, WorkloadGen, WorkloadOp, WorkloadSpec};
pub use zipf::Zipfian;
