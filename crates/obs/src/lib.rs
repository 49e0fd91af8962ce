//! # uflip-obs — zero-overhead observability for the IO stack
//!
//! The paper explains device behaviour from *externally observed*
//! response times; Flashmon-style flash monitoring (PAPERS.md) shows
//! how much more you learn by watching the internals. This crate is
//! the substrate for that: every layer of the stack — NAND array, FTL,
//! device, executor — counts into a [`SinkHandle`], and the
//! [`Metrics`] recorder behind it turns the events into counters,
//! latency histograms and per-channel utilization timelines.
//!
//! ## Zero overhead when disabled
//!
//! A [`SinkHandle`] holds either a shared [`Metrics`] or nothing. The
//! default is nothing ([`SinkHandle::null`]), and every handle method
//! is one null check on a field the instrumented component already
//! holds — no virtual call, no atomic, no allocation. Crucially the
//! recorder **never touches simulated time**: attaching or detaching
//! one cannot change any measured result, only observe it (the
//! `BENCH_sim.json` fingerprints are identical with or without one —
//! see `recording_sink_leaves_runs_fingerprint_identical` in
//! `tests/observability.rs`, and `sim_throughput --metrics`).
//!
//! ## Pieces
//!
//! * [`CounterId`] / [`CounterSnapshot`] — monotonic event counters
//!   (erases, programs, merge kinds, queue events, host IOs, bytes)
//!   and plain copies of their totals.
//! * [`LatencyHistogram`] — HDR-style log-bucketed histogram: fixed
//!   atomic arrays, no allocation on the record path, quantiles
//!   accurate to one bucket width (≤ 1/16 relative error).
//! * [`ChannelUtilization`] — fixed-bin busy-time timeline per
//!   channel; the bin width doubles when a run outgrows the window.
//! * [`SinkHandle`] — the cloneable attach handle threaded from bench
//!   bins down to the NAND array.
//! * [`Metrics`] / [`MetricsSnapshot`] — the recorder (one relaxed
//!   atomic per counter; [`Metrics::merge`] combines the recorders of
//!   concurrent runs) and its versioned JSON snapshot (written by
//!   every bench bin's `--metrics PATH` flag, rendered by
//!   `uflip_report::obs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod counter;
pub mod histogram;
pub mod metrics;
pub mod sink;

pub use channel::{ChannelTimeline, ChannelUtilization, UtilizationSnapshot, UTIL_BINS};
pub use counter::{CounterId, CounterSnapshot};
pub use histogram::{bucket_width_at, HistogramBucket, HistogramSnapshot, LatencyHistogram};
pub use metrics::{CounterEntry, LatencySnapshot, Metrics, MetricsSnapshot, WorkloadSnapshot};
pub use sink::{LatencyClass, SinkHandle, WorkloadMetrics};

/// Schema version stamped into every [`MetricsSnapshot`].
pub const SNAPSHOT_VERSION: u32 = 1;
