//! End-to-end and per-layer benchmark of `maestro-cli`.
//!
//! Two workloads drive the program through the entry points users run:
//! `estimate --stream` over a whole chip (`chip_stream`), and the serve
//! daemon under two closed-loop floorplanner-like clients, one of which
//! also runs incremental ECO rounds (`serve_mixed`). An untraced run
//! reports what a user sees; a traced run replays the same inputs in
//! process and times each layer. Every output is checked against a
//! reference path outside the timed interval.

pub mod check;
pub mod inputs;
pub mod metrics;
mod proc;
mod replay;
mod rng;
mod span;
pub mod stats;
pub mod workloads;
