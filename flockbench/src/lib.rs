//! `flockbench`: one layered, end-to-end benchmark for Flock.
//!
//! Four named workloads drive Flock only through its public functions —
//! over the wire, in process, and on disk — and measure each layer from
//! outside: wire → parse → plan cache → cross-optimizer → operators → ML
//! kernel → commit / WAL / parts. See `README.md` for every metric and
//! why each workload was chosen.

pub mod cli;
pub mod diff;
pub mod env;
pub mod fsx;
pub mod layers;
pub mod metrics;
pub mod provider;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
