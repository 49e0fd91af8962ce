//! # uflip — facade crate
//!
//! A complete Rust reproduction of *uFLIP: Understanding Flash IO
//! Patterns* (Bouganim, Jónsson, Bonnet — CIDR 2009). This crate
//! re-exports the workspace members so applications can depend on a
//! single crate:
//!
//! * [`nand`] — timed NAND flash chip/array simulator (paper §2.1);
//! * [`ftl`] — flash translation layers: page-mapped, block-mapped,
//!   hybrid log-block, garbage collection, wear-leveling (paper §2.2);
//! * [`device`] — the [`device::BlockDevice`] abstraction, simulated
//!   devices built from FTL + controller models, the eleven device
//!   profiles of Table 2, and an `O_DIRECT` real-hardware backend;
//! * [`patterns`] — IO patterns: the four baseline patterns and the
//!   parameterized time/LBA functions of §3.1 and Table 1;
//! * [`core`] — the nine uFLIP micro-benchmarks, the run/experiment
//!   model, and the benchmarking methodology of §4 (device state
//!   enforcement, start-up/running phase analysis, pause calibration,
//!   benchmark plans);
//! * [`report`] — trace analysis, summaries (Table 3), design hints,
//!   ASCII plots and serialization;
//! * [`trace`] — IO trace capture/serialization and synthetic
//!   DB-shaped workload generators, replayed via [`core::replay`];
//! * [`obs`] — zero-overhead observability: counters, latency
//!   histograms and channel-utilization timelines in an
//!   [`obs::Metrics`] recorder, reached through the [`obs::SinkHandle`]
//!   every layer counts into.
//!
//! ## Quickstart
//!
//! ```
//! use uflip::core::executor::execute_run;
//! use uflip::device::profiles::catalog;
//! use uflip::patterns::PatternSpec;
//!
//! // Simulate the paper's Memoright SSD and run the random-write
//! // baseline pattern on it.
//! let mut dev = catalog::memoright().build_sim(42);
//! let spec = PatternSpec::baseline_rw(32 * 1024, 128 * 1024 * 1024, 64);
//! let run = execute_run(dev.as_mut(), &spec).unwrap();
//! println!("mean rt = {:?}", run.summary_all().unwrap().mean);
//! ```

pub use uflip_core as core;
pub use uflip_device as device;
pub use uflip_ftl as ftl;
pub use uflip_nand as nand;
pub use uflip_obs as obs;
pub use uflip_patterns as patterns;
pub use uflip_report as report;
pub use uflip_trace as trace;
