//! # uflip-benchmark
//!
//! The uFLIP simulator's benchmark: five workloads, the end-to-end
//! metrics a user of the simulator sees, and a per-layer ledger from a
//! separate traced run. `README.md` beside this package documents the
//! commands, the workloads and why each was chosen, the metrics and how
//! the layers map onto them.
//!
//! * [`workload`] — set-up and one repetition of each workload, with
//!   its correctness checks;
//! * [`measure`] — one process: set-up, warm-up, timed repetitions and
//!   the metrics;
//! * [`timed`] — the sampling timing decorators and the ledger;
//! * [`compare`] — the decision rule between a parent and a change;
//! * [`spec`] — the metric declarations of `BENCHMARK.json`;
//! * [`stats`] — quartiles and the fingerprint hash.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod measure;
pub mod spec;
pub mod stats;
pub mod timed;
pub mod workload;
