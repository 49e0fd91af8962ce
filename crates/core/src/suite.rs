//! The full uFLIP suite: all nine micro-benchmarks as one benchmark
//! plan, plus the plan executor that applies the §4 methodology
//! (state resets, inter-run pauses, target-space packing) while
//! running it.
//!
//! [`execute_plan`] is the one way to run a plan, and
//! [`execute_plan_observed`] the same with an observability sink.
//! Build the plan with
//! `BenchmarkPlan::build(full_suite(&cfg), dev.capacity_bytes())`;
//! [`SuiteOptions::threads`] chooses between running the plan serially
//! and sharding its reset-delimited segments across worker threads.
//!
//! This is the equivalent of the paper's FlashIO "benchmark plan"
//! execution mode: point it at a device and it produces every
//! experiment's statistics in one pass, suitable for JSON archival
//! (uflip.org published exactly such result sets).

use crate::experiment::Experiment;
use crate::methodology::plan::{BenchmarkPlan, PlanStep};
use crate::methodology::state::enforce_random_state;
use crate::micro::{
    alignment, bursts, granularity, locality, mix, order, parallelism, partitioning, pause,
    MicroConfig,
};
use crate::policy::{IoContext, IoPolicy};
use crate::stats::RunStats;
use crate::Result;
use std::ops::Range;
use std::time::Duration;
use uflip_device::{BlockDevice, DeviceError, DeviceState};

/// All nine micro-benchmarks under one configuration, in the paper's
/// presentation order (location parameters, then parallel/mixed, then
/// timing parameters — §3.2).
pub fn full_suite(cfg: &MicroConfig) -> Vec<Experiment> {
    let mut all = Vec::new();
    all.extend(granularity::experiments(cfg));
    all.extend(alignment::experiments(cfg));
    all.extend(locality::experiments(cfg));
    all.extend(partitioning::experiments(cfg));
    all.extend(order::experiments(cfg));
    all.extend(parallelism::experiments(cfg));
    all.extend(mix::experiments(cfg));
    all.extend(pause::experiments(cfg));
    all.extend(bursts::experiments(cfg));
    all
}

/// Execution options for a benchmark plan.
#[derive(Debug, Clone, Copy)]
pub struct SuiteOptions {
    /// Inter-run pause (§4.3; calibrate with
    /// [`crate::methodology::pause::calibrate_pause`]).
    pub inter_run_pause: Duration,
    /// Enforce the random state before the first run and at every
    /// [`PlanStep::ResetState`].
    pub enforce_state: bool,
    /// Coverage multiple for state enforcement (≥ 1 + over-provisioning
    /// so the pools reach steady state; see CharacterizeConfig).
    pub state_coverage: f64,
    /// Seed for state enforcement.
    pub seed: u64,
    /// Serve [`PlanStep::ResetState`] by restoring a snapshot of the
    /// enforced state instead of re-simulating the enforcement.
    ///
    /// The enforced state is a pure function of (device, seed,
    /// coverage, max IO size), so it is memoized once — captured via
    /// [`uflip_device::BlockDevice::snapshot_state`] right after the
    /// initial enforcement — and every reset becomes a deep copy
    /// (milliseconds) instead of a re-run of coverage × capacity of
    /// random writes through the full FTL (the dominant cost of
    /// `execute_plan` on simulated devices; 5 hours to 35 days on the
    /// paper's hardware). Devices without snapshot support fall back
    /// to re-enforcement. Also a precondition for running on more than
    /// one of [`Self::threads`]: restored resets make the plan's
    /// reset-delimited segments independent.
    pub snapshot_resets: bool,
    /// IO policy applied to every workload run: transient device
    /// faults (e.g. injected by [`uflip_device::FaultyDevice`]) are
    /// retried with backoff instead of aborting the plan. The default,
    /// [`IoPolicy::none`], reports every device error as it comes.
    pub io_policy: IoPolicy,
    /// Worker threads for the plan's reset-delimited segments (0 = one
    /// per available CPU), capped at the segment count. More than one
    /// worker needs snapshot resets on a snapshot-capable device;
    /// otherwise, and at the default of 1, the plan runs serially.
    pub threads: usize,
}

impl Default for SuiteOptions {
    fn default() -> Self {
        SuiteOptions {
            inter_run_pause: Duration::from_secs(5),
            enforce_state: true,
            state_coverage: 2.0,
            seed: 0xF11B,
            snapshot_resets: true,
            io_policy: IoPolicy::none(),
            threads: 1,
        }
    }
}

/// One executed plan step's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SuitePointResult {
    /// Experiment name (e.g. `locality/RW`).
    pub experiment: String,
    /// Varying parameter name.
    pub varying: &'static str,
    /// Parameter value at this point.
    pub param: f64,
    /// Parameter label.
    pub param_label: String,
    /// Workload label.
    pub workload: String,
    /// Summary statistics over the running phase.
    pub stats: Option<RunStats>,
}

/// The outcome of running a whole plan.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteResult {
    /// Per-point results in execution order.
    pub points: Vec<SuitePointResult>,
    /// State resets performed.
    pub resets: usize,
    /// Total device time consumed.
    pub device_time: Duration,
}

impl SuiteResult {
    /// Collect the results of one experiment back into sweep order.
    pub fn experiment(&self, name: &str) -> Vec<&SuitePointResult> {
        let mut pts: Vec<&SuitePointResult> = self
            .points
            .iter()
            .filter(|p| p.experiment == name)
            .collect();
        pts.sort_by(|a, b| a.param.total_cmp(&b.param));
        pts
    }

    /// Reconstruct `(param, mean ms)` series per experiment.
    pub fn mean_series(&self, name: &str) -> Vec<(f64, f64)> {
        self.experiment(name)
            .iter()
            .filter_map(|p| p.stats.map(|s| (p.param, s.mean_ms())))
            .collect()
    }
}

/// The §4.1 state-enforcement IO-size ceiling (the flash block size,
/// 128 KB in the paper) — shared by every reset path so a memoized
/// snapshot and a re-enforcement are interchangeable.
const ENFORCE_MAX_IO: u64 = 128 * 1024;

/// Enforce the random state and settle with the inter-run pause.
fn enforce_and_settle(dev: &mut dyn BlockDevice, opts: &SuiteOptions) -> Result<()> {
    enforce_random_state(dev, ENFORCE_MAX_IO, opts.state_coverage, opts.seed)?;
    dev.idle(opts.inter_run_pause);
    Ok(())
}

/// Execute one contiguous slice of plan steps (no [`PlanStep::
/// ResetState`] inside) — the shared inner loop of the serial and
/// sharded bodies.
///
/// With an enabled sink, each run's running-phase response times are
/// recorded under the workload's latency class. `per_run_deltas`
/// additionally brackets every run with a counter snapshot and emits
/// the delta as a [`uflip_obs::WorkloadMetrics`] record; the sharded
/// body turns this off because concurrent segments would bleed
/// into each other's deltas (the global counters, histograms and
/// channel samples stay exact — they are sums, not differences).
fn execute_steps(
    dev: &mut dyn BlockDevice,
    plan: &BenchmarkPlan,
    opts: &SuiteOptions,
    steps: &[PlanStep],
    points: &mut Vec<SuitePointResult>,
    sink: &uflip_obs::SinkHandle,
    per_run_deltas: bool,
) -> Result<()> {
    let observed = sink.is_enabled();
    for step in steps {
        match step {
            PlanStep::Pause => dev.idle(opts.inter_run_pause),
            PlanStep::ResetState => {
                return Err(DeviceError::Internal(
                    "ResetState inside a segment; segments are split at reset boundaries",
                ));
            }
            PlanStep::Run {
                experiment,
                point,
                offset,
            } => {
                let e = &plan.experiments[*experiment];
                let p = &e.points[*point];
                let workload = p.workload.relocated(*offset);
                let before =
                    (observed && per_run_deltas).then(|| crate::observe::counters_now(sink));
                let run = workload.run(dev, &mut IoContext::new(&opts.io_policy, sink))?;
                if observed {
                    crate::observe::record_run_latencies(sink, workload.latency_class(), &run);
                    if let Some(before) = &before {
                        crate::observe::emit_workload_delta(sink, &workload.label(), before);
                    }
                }
                points.push(SuitePointResult {
                    experiment: e.name.clone(),
                    varying: e.varying,
                    param: p.param,
                    param_label: p.param_label.clone(),
                    workload: workload.label(),
                    stats: run.summary(),
                });
            }
        }
    }
    Ok(())
}

/// The plan's reset-delimited segments: step ranges separated by (and
/// excluding) every [`PlanStep::ResetState`]. With resets served by
/// snapshot restore, each segment starts from the *same* device state,
/// so segments are mutually independent — the unit of sharding.
fn plan_segments(plan: &BenchmarkPlan) -> Vec<Range<usize>> {
    let mut segments = Vec::new();
    let mut start = 0usize;
    for (i, step) in plan.steps.iter().enumerate() {
        if matches!(step, PlanStep::ResetState) {
            segments.push(start..i);
            start = i + 1;
        }
    }
    segments.push(start..plan.steps.len());
    segments
}

/// Execute a benchmark plan against a device, honouring resets and
/// pauses. Workloads are relocated to the offsets the plan allocated.
///
/// With [`SuiteOptions::snapshot_resets`] on (the default) and a
/// snapshot-capable device, the enforced state is captured once and
/// every [`PlanStep::ResetState`] restores it in O(memcpy) — including
/// the virtual clock, so [`SuiteResult::device_time`] sums the
/// enforcement and the per-segment device time. Devices without
/// snapshot support (and runs with `snapshot_resets` off) re-simulate
/// the enforcement at every reset, the paper-literal behaviour.
///
/// Restored resets make the plan's reset-delimited segments
/// independent, so with [`SuiteOptions::threads`] above 1 they run on
/// forks of the device across worker threads. Virtual time makes the
/// decomposition exact: the merged [`SuiteResult`] — points in plan
/// order, reset count, summed device time — is **bit-identical** to
/// the serial run's (asserted in `tests/snapshot_parallel.rs`). A
/// sharded run leaves the device in the post-enforcement state; a
/// serial run leaves it in the last segment's.
pub fn execute_plan(
    dev: &mut dyn BlockDevice,
    plan: &BenchmarkPlan,
    opts: &SuiteOptions,
) -> Result<SuiteResult> {
    execute_plan_observed(dev, plan, opts, &uflip_obs::SinkHandle::null())
}

/// Observed [`execute_plan`]: attach `sink` to the device (and to every
/// worker fork) before the plan runs, so state enforcement and every
/// workload feed its counters, histograms and channel samples. A
/// serial run additionally emits one [`uflip_obs::WorkloadMetrics`]
/// delta per run (write amplification, host vs flash bytes); a sharded
/// run emits none, because concurrent segments would bleed into each
/// other's differences. With a null sink this is exactly
/// [`execute_plan`], which leaves the device's own sink attached.
pub fn execute_plan_observed(
    dev: &mut dyn BlockDevice,
    plan: &BenchmarkPlan,
    opts: &SuiteOptions,
    sink: &uflip_obs::SinkHandle,
) -> Result<SuiteResult> {
    if sink.is_enabled() {
        dev.set_sink(sink.clone());
    }
    let segments = plan_segments(plan);
    let t0 = dev.now();
    if opts.enforce_state {
        enforce_and_settle(dev, opts)?;
    }
    let base = dev.now();
    // Memoize the enforced state (it depends only on the device,
    // seed, coverage and IO ceiling — all fixed for this plan) when a
    // reset will need it.
    let snapshot = if opts.enforce_state
        && opts.snapshot_resets
        && segments.len() > 1
        && dev.snapshot_capable()
    {
        dev.snapshot_state()
    } else {
        None
    };
    let workers = match opts.threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
    .min(segments.len());
    let (points, segment_time) = match snapshot {
        Some(state) if workers > 1 => {
            execute_sharded(dev, plan, opts, &segments, state.as_ref(), workers, sink)?
        }
        snapshot => execute_serial(dev, plan, opts, &segments, snapshot.as_deref(), sink)?,
    };
    Ok(SuiteResult {
        points,
        resets: segments.len() - 1,
        device_time: base - t0 + segment_time,
    })
}

/// Run the segments in order on `dev`, serving each reset from
/// `snapshot` or, without one, by re-enforcing the random state.
/// Returns the points and the device time spent after the initial
/// enforcement.
fn execute_serial(
    dev: &mut dyn BlockDevice,
    plan: &BenchmarkPlan,
    opts: &SuiteOptions,
    segments: &[Range<usize>],
    snapshot: Option<&dyn DeviceState>,
    sink: &uflip_obs::SinkHandle,
) -> Result<(Vec<SuitePointResult>, Duration)> {
    let mut points = Vec::new();
    let mut device_time = Duration::ZERO;
    let mut seg_start = dev.now();
    for (i, seg) in segments.iter().enumerate() {
        if i > 0 {
            match snapshot {
                Some(state) => {
                    // Restoring rewinds the clock to the snapshot
                    // instant; bank this segment's device time first.
                    device_time += dev.now() - seg_start;
                    dev.restore_state(state)?;
                    seg_start = dev.now();
                }
                None if opts.enforce_state => enforce_and_settle(dev, opts)?,
                None => {}
            }
        }
        execute_steps(
            dev,
            plan,
            opts,
            &plan.steps[seg.clone()],
            &mut points,
            sink,
            true,
        )?;
    }
    device_time += dev.now() - seg_start;
    Ok((points, device_time))
}

/// Run the segments on `workers` forks of `dev`, each restored to
/// `snapshot` before every segment it is assigned. Returns the points
/// in plan order and the summed per-segment device time.
fn execute_sharded(
    dev: &mut dyn BlockDevice,
    plan: &BenchmarkPlan,
    opts: &SuiteOptions,
    segments: &[Range<usize>],
    snapshot: &dyn DeviceState,
    workers: usize,
    sink: &uflip_obs::SinkHandle,
) -> Result<(Vec<SuitePointResult>, Duration)> {
    let base = dev.now();
    // Round-robin segment assignment; results are keyed by segment
    // index, so the merge order never depends on thread scheduling.
    type SegmentOutcome = (usize, Vec<SuitePointResult>, Duration);
    let per_worker: Vec<Result<Vec<SegmentOutcome>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                // uflip-lint: allow(UF002, UF031, reason = "fork precondition checked by the snapshot_state gate above; no Result plumbing inside thread::scope closures")
                let mut fork = dev.fork().expect("snapshot_capable devices support fork");
                if sink.is_enabled() {
                    fork.set_sink(sink.clone());
                }
                let state = snapshot.clone_state();
                scope.spawn(move || -> Result<Vec<SegmentOutcome>> {
                    let mut out = Vec::new();
                    for seg in (w..segments.len()).step_by(workers) {
                        fork.restore_state(state.as_ref())?;
                        let mut points = Vec::new();
                        execute_steps(
                            fork.as_mut(),
                            plan,
                            opts,
                            &plan.steps[segments[seg].clone()],
                            &mut points,
                            sink,
                            false,
                        )?;
                        out.push((seg, points, fork.now() - base));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            // uflip-lint: allow(UF002, UF031, reason = "join propagates a worker thread's panic; swallowing it would fake results")
            .map(|h| h.join().expect("plan segment threads do not panic"))
            .collect()
    });
    let mut by_segment: Vec<Option<(Vec<SuitePointResult>, Duration)>> =
        (0..segments.len()).map(|_| None).collect();
    for worker in per_worker {
        for (seg, points, elapsed) in worker? {
            by_segment[seg] = Some((points, elapsed));
        }
    }
    let mut points = Vec::new();
    let mut device_time = Duration::ZERO;
    for seg in by_segment {
        let (p, elapsed) = seg.ok_or(DeviceError::Internal(
            "segment missing from every worker's results",
        ))?;
        points.extend(p);
        device_time += elapsed;
    }
    Ok((points, device_time))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uflip_device::MemDevice;

    const MB: u64 = 1024 * 1024;

    fn quick_cfg() -> MicroConfig {
        let mut cfg = MicroConfig::quick();
        cfg.io_count = 8;
        cfg.io_count_rw = 8;
        cfg.target_size = 2 * MB;
        cfg
    }

    #[test]
    fn full_suite_contains_all_nine_micro_benchmarks() {
        let suite = full_suite(&quick_cfg());
        let families: std::collections::BTreeSet<&str> = suite
            .iter()
            .map(|e| e.name.split('/').next().expect("has /"))
            .collect();
        assert_eq!(
            families.into_iter().collect::<Vec<_>>(),
            vec![
                "alignment",
                "bursts",
                "granularity",
                "locality",
                "mix",
                "order",
                "parallelism",
                "partitioning",
                "pause"
            ]
        );
    }

    #[test]
    fn plan_execution_runs_every_point() {
        let cfg = quick_cfg();
        let mut dev = MemDevice::new(64 * MB, Duration::from_micros(50), 0);
        let opts = SuiteOptions {
            inter_run_pause: Duration::from_millis(1),
            enforce_state: false,
            ..Default::default()
        };
        let plan = BenchmarkPlan::build(full_suite(&cfg), dev.capacity_bytes());
        let result = execute_plan(&mut dev, &plan, &opts).expect("suite");
        assert_eq!(result.points.len(), plan.run_count());
        assert!(result.points.iter().all(|p| p.stats.is_some()));
        assert!(result.device_time > Duration::ZERO);
    }

    #[test]
    fn series_reconstruction_is_sorted_by_param() {
        let cfg = quick_cfg();
        let mut dev = MemDevice::new(64 * MB, Duration::from_micros(50), 1);
        let opts = SuiteOptions {
            inter_run_pause: Duration::from_millis(1),
            enforce_state: false,
            ..Default::default()
        };
        let plan = BenchmarkPlan::build(full_suite(&cfg), dev.capacity_bytes());
        let result = execute_plan(&mut dev, &plan, &opts).expect("suite");
        let series = result.mean_series("granularity/SW");
        assert!(!series.is_empty());
        assert!(series.windows(2).all(|w| w[0].0 <= w[1].0));
        // Linear-cost device: bigger IOs never get cheaper.
        assert!(series.first().expect("non-empty").1 <= series.last().expect("non-empty").1);
    }

    #[test]
    fn state_enforcement_runs_when_enabled() {
        let cfg = quick_cfg();
        let mut dev = MemDevice::new(16 * MB, Duration::from_micros(1), 0);
        let opts = SuiteOptions {
            inter_run_pause: Duration::from_millis(1),
            enforce_state: true,
            state_coverage: 0.5,
            seed: 3,
            ..Default::default()
        };
        let plan = BenchmarkPlan::build(full_suite(&cfg), dev.capacity_bytes());
        let before = dev.writes();
        execute_plan(&mut dev, &plan, &opts).expect("suite");
        assert!(
            dev.writes() > before,
            "enforcement + workload writes happened"
        );
    }
}
