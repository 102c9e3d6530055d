//! Host-performance benchmark of the Mallacc simulator.
//!
//! Three workloads (`paper-macro`, `substrate-sweep`, `fleet-2core`) time
//! calls into the simulator crates' public functions from outside; a
//! separate traced run breaks host time down per layer. See `README.md`
//! in this directory for how to run it and why each workload was chosen.

pub mod digest;
pub mod fleet;
pub mod metrics;
pub mod ops;
pub mod redrive;
pub mod run;
pub mod single;
pub mod spans;
