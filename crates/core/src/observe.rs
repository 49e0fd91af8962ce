//! The observation bracket around a run.
//!
//! Every `_with_policy` entry point takes a [`uflip_obs::SinkHandle`]
//! as a value and brackets its run (the plan executor attaches the
//! sink once per plan and brackets each run). An enabled sink is
//! attached to the device, so NAND, FTL, queue and host-IO counters
//! flow from the layers below, and its counters are read before the
//! run. After the run, its response times go into the sink's latency
//! histograms and the counter movement is emitted as one
//! [`uflip_obs::WorkloadMetrics`] record (host IO, bytes
//! programmed/erased, write amplification).
//!
//! A null sink skips the bracket: it is never attached, so it cannot
//! detach a sink the caller attached to the device, and a run pays one
//! `is_enabled()` test for it — zero per IO (the per-IO cost lives in
//! the instrumented layers: one null check on the handle each holds).
//! Response times recorded here are exactly the ones the run's
//! [`crate::RunStats`] summarizes — the running phase, after the
//! `io_ignore` warm-up prefix — so histogram quantiles and exact
//! percentiles describe the same population.

use crate::run::RunResult;
use uflip_device::BlockDevice;
use uflip_obs::{CounterSnapshot, LatencyClass, SinkHandle, WorkloadMetrics};
use uflip_patterns::Mode;

/// Open the bracket: attach an enabled `sink` to `dev` and return its
/// counter totals; a null sink leaves the device alone (`None`).
pub(crate) fn attach(dev: &mut dyn BlockDevice, sink: &SinkHandle) -> Option<CounterSnapshot> {
    sink.is_enabled().then(|| {
        dev.set_sink(sink.clone());
        counters_now(sink)
    })
}

/// Close the bracket [`attach`] opened: record `run`'s running-phase
/// response times under `class` and emit its counter delta.
pub(crate) fn record(
    sink: &SinkHandle,
    class: LatencyClass,
    run: &RunResult,
    before: Option<CounterSnapshot>,
) {
    if let Some(before) = before {
        record_run_latencies(sink, class, run);
        emit_workload_delta(sink, &run.label, &before);
    }
}

/// The latency population of a single-mode IO stream.
pub(crate) fn class_of(mode: Mode) -> LatencyClass {
    match mode {
        Mode::Read => LatencyClass::Read,
        Mode::Write => LatencyClass::Write,
    }
}

/// Read the sink's current counter totals.
pub(crate) fn counters_now(sink: &SinkHandle) -> CounterSnapshot {
    let mut snap = CounterSnapshot::new();
    sink.counters(&mut snap);
    snap
}

/// Emit a per-workload metrics record from the counter movement since
/// `before` (captured with [`counters_now`] just before the run).
pub(crate) fn emit_workload_delta(sink: &SinkHandle, label: &str, before: &CounterSnapshot) {
    let after = counters_now(sink);
    sink.workload(label, WorkloadMetrics::from_delta(&after.since(before)));
}

/// Record a run's running-phase response times (the same slice
/// [`RunResult::summary`] summarizes) under one latency class.
pub(crate) fn record_run_latencies(sink: &SinkHandle, class: LatencyClass, run: &RunResult) {
    let start = (run.io_ignore as usize).min(run.rts.len());
    for rt in &run.rts[start..] {
        sink.latency(class, rt.as_nanos() as u64);
    }
}
