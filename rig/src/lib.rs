//! `saga-rig`: the one benchmark of the SAGA-Bench reproduction — five
//! workloads, end-to-end metrics measured with tracing off, per-layer
//! metrics from a separate traced pass. See `README.md`.

#![warn(missing_docs)]

pub mod aa;
pub mod child;
pub mod exec;
pub mod http;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod libload;
pub mod metrics;
pub mod run;
pub mod sched;
pub mod serverload;
pub mod spans;
pub mod stats;
pub mod window;
