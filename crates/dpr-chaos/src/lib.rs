//! # dpr-chaos
//!
//! Chaos harness and online invariant checker for the DPR cluster.
//!
//! The harness drives a live [`dpr_cluster::Cluster`] under sustained YCSB
//! load while a deterministic, seed-derived fault schedule
//! ([`schedule::plan`]) injects worker crashes, partitioned / slow / lossy
//! network links, stalled CPR checkpoints, and live membership churn with
//! key migration. Throughout the run an [`checker::InvariantChecker`]
//! continuously asserts the paper's correctness properties — prefix
//! recoverability, cut monotonicity, downward closure, bounded cut lag,
//! recovery completeness, and exactly-once session replay — from the
//! [`libdpr::audit`] tap, the [`dpr_telemetry`] span stream, and the
//! metadata store.
//!
//! The `chaos` binary in `dpr-bench` wraps [`driver::run`] and emits
//! `BENCH_chaos.json`; `docs/PROTOCOL.md` §"Chaos harness" maps each
//! checked invariant to its assertion site.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod driver;
mod ledger;
pub mod rng;
pub mod schedule;

pub use checker::InvariantChecker;
pub use driver::{run, ChaosConfig, ChaosReport, FaultCounts};
pub use schedule::{plan, FaultKind};
