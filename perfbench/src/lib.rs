//! End-to-end and per-layer benchmark of the integration pipeline
//! (`plan`) and the `fcm-serve` daemon (`serve-small`, `serve-large`).
//! See `README.md` in this directory for the workloads and metrics.

pub mod calib;
pub mod mix;
pub mod plan;
pub mod report;
pub mod serve;
