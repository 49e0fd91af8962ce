//! # uflip-core — the uFLIP benchmark
//!
//! The primary contribution of *uFLIP: Understanding Flash IO Patterns*
//! (CIDR 2009): a component benchmark made of **nine micro-benchmarks**
//! over IO patterns (§3.2) plus the **benchmarking methodology** that
//! makes measuring flash devices meaningful (§4).
//!
//! ## Structure (mirrors the paper)
//!
//! * [`executor`] — runs a pattern against a [`uflip_device::BlockDevice`]
//!   and records the response time of every IO (design principle 1);
//!   one IO loop per pattern class, under an [`IoPolicy`] and an obs
//!   sink passed in as values, with an event calendar (or a host-side
//!   interleaver) for parallel patterns.
//! * [`run`] / [`stats`] — runs, experiments and their statistics
//!   (min / max / mean / standard deviation, computed over the IOs after
//!   the `IOIgnore` warm-up prefix).
//! * [`micro`] — the nine micro-benchmarks: Granularity, Alignment,
//!   Locality, Partitioning, Order, Parallelism, Mix, Pause, Bursts —
//!   each "a collection of related experiments over the baseline
//!   patterns" with a single varying parameter.
//! * [`replay`] — beyond the paper: feed a captured or generated
//!   [`uflip_trace::Trace`] back through the submit/poll executor,
//!   timing-faithful or open-loop with a queue-depth sweep.
//! * [`mod@calibrate`] — beyond the paper: run a reduced plan of the
//!   micro-benchmarks against *any* device and fit the result into a
//!   serializable `DeviceProfile` (measured latency curves, alignment
//!   penalty, channel count) — the estimation-from-microbenchmarks
//!   approach of the internal-parallelism literature (PAPERS.md).
//! * [`methodology`] — §4: device-state enforcement (random writes of
//!   random size over the whole device), start-up/running-phase
//!   detection (what `IOIgnore`/`IOCount` must cover), inter-run
//!   pause calibration (the SR–RW–SR experiment of Figure 5), and
//!   benchmark plans that group sequential-write experiments and insert
//!   state resets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod executor;
pub mod experiment;
pub mod methodology;
pub mod micro;
pub(crate) mod observe;
pub mod policy;
pub mod replay;
pub mod run;
pub mod slab;
pub mod stats;
pub mod suite;

pub use calibrate::{
    calibrate, fit as fit_profile, measure as measure_device, CalibrationConfig,
    CalibrationMeasurement, CalibrationOutcome,
};
pub use executor::{
    execute_mixed, execute_mixed_with_policy, execute_parallel, execute_parallel_with_policy,
    execute_run, execute_run_with_policy,
};
pub use experiment::{Experiment, ExperimentResult, Workload};
pub use policy::{ExhaustionAction, IoPolicy};
pub use replay::{replay_trace, replay_trace_with_policy, ReplayMode};
pub use run::RunResult;
pub use stats::RunStats;
pub use suite::{execute_plan, execute_plan_observed, full_suite, SuiteOptions, SuiteResult};

/// Result alias shared with the device layer.
pub type Result<T> = std::result::Result<T, uflip_device::DeviceError>;
