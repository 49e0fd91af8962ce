//! Observability correctness (ISSUE 7): the `uflip_obs` layer must be
//! *accurate* — histogram quantiles within one log-bucket of the exact
//! `RunStats` percentiles, counters reconciling exactly with the
//! NAND/FTL ground-truth statistics — and *invisible* — attaching a
//! recording sink must not change a single simulated nanosecond.

use proptest::prelude::*;
use std::time::Duration;
use uflip::core::executor::{
    execute_parallel, execute_parallel_with_policy, execute_run, execute_run_with_policy,
};
use uflip::core::methodology::plan::BenchmarkPlan;
use uflip::core::micro::MicroConfig;
use uflip::core::replay::{replay_trace_with_policy, ReplayMode};
use uflip::core::{execute_plan_observed, full_suite, IoPolicy, RunStats, SuiteOptions};
use uflip::device::profiles::catalog;
use uflip::device::BlockDevice;
use uflip::ftl::SECTOR_BYTES;
use uflip::obs::{bucket_width_at, CounterId, LatencyClass, LatencyHistogram, Metrics, SinkHandle};
use uflip::patterns::{LbaFn, Mode, ParallelSpec, PatternSpec};
use uflip::trace::{Trace, TraceRecord};

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

/// The exact type-7 bracketing order statistics for quantile `q` of
/// `sorted`: the percentile interpolates between these two samples.
fn bracket(sorted: &[u64], q: f64) -> (u64, u64) {
    let rank = (sorted.len() - 1) as f64 * q;
    (sorted[rank.floor() as usize], sorted[rank.ceil() as usize])
}

proptest! {
    /// Across arbitrary latency distributions — mantissas spread over
    /// seven orders of magnitude, so samples land in tiny and huge
    /// log buckets alike — the histogram quantile stays within one
    /// bucket width of the order statistic at its rank, and within
    /// one bucket width *plus the interpolation gap* of the exact
    /// linear-interpolated `RunStats` percentile. When the bracketing
    /// samples share a bucket the gap is below one width, so the
    /// bound degenerates to the headline "within one bucket" claim.
    #[test]
    fn histogram_quantiles_track_exact_percentiles(
        raw in prop::collection::vec(0u64..8000, 2..400),
    ) {
        // Decode each draw into mantissa × 10^exponent so the samples
        // span seven orders of magnitude in one distribution.
        let ns: Vec<u64> = raw
            .iter()
            .map(|&v| (v % 999 + 1) * 10u64.pow((v / 1000) as u32))
            .collect();
        let rts: Vec<Duration> = ns.iter().map(|&v| Duration::from_nanos(v)).collect();
        let exact = RunStats::from_rts(&rts).expect("non-empty");
        let hist = LatencyHistogram::new();
        for &v in &ns {
            hist.record(v);
        }
        let mut sorted = ns.clone();
        sorted.sort_unstable();
        for (q, truth) in [
            (0.5, exact.median),
            (0.95, exact.p95),
            (0.99, exact.p99),
        ] {
            let approx = hist.quantile(q);
            let (lo, hi) = bracket(&sorted, q);
            let width = bucket_width_at(lo).max(1);
            prop_assert!(
                approx.abs_diff(lo) <= width,
                "q{q}: {approx} vs order statistic {lo} (bucket width {width})"
            );
            let truth = truth.as_nanos() as u64;
            prop_assert!(
                approx.abs_diff(truth) <= width + (hi - lo),
                "q{q}: {approx} vs exact {truth} (width {width}, gap {})",
                hi - lo
            );
        }
        prop_assert_eq!(hist.count(), ns.len() as u64);
        prop_assert_eq!(hist.min(), sorted[0]);
        prop_assert_eq!(hist.max(), *sorted.last().expect("non-empty"));
    }
}

/// After a full nine-benchmark suite, every counter the sink
/// accumulated matches the device's own ground truth: NAND operation
/// counts, FTL host statistics, and the per-run latency populations.
///
/// State enforcement is disabled: obs counters are monotonic while
/// snapshot-served resets rewind the device's statistics, so only a
/// reset-free plan keeps the two views comparable end-to-end.
#[test]
fn suite_counters_reconcile_with_device_ground_truth() {
    let mut cfg = MicroConfig::quick();
    cfg.io_count = 8;
    cfg.io_count_rw = 8;
    cfg.target_size = 2 * MB;
    let opts = SuiteOptions {
        enforce_state: false,
        ..SuiteOptions::default()
    };
    let mut dev = catalog::mtron().build_sim(0xF11B);
    let (metrics, sink) = Metrics::shared();
    let plan = BenchmarkPlan::build(full_suite(&cfg), dev.capacity_bytes());
    let result = execute_plan_observed(dev.as_mut(), &plan, &opts, &sink).expect("suite");

    let nand = dev.ftl().nand_stats();
    assert_eq!(metrics.counter(CounterId::PageReads), nand.page_reads);
    assert_eq!(metrics.counter(CounterId::PagePrograms), nand.page_programs);
    assert_eq!(metrics.counter(CounterId::BlockErases), nand.block_erases);
    assert_eq!(metrics.counter(CounterId::CopyBacks), nand.copy_backs);
    assert_eq!(
        metrics.counter(CounterId::DualPlanePrograms),
        nand.dual_plane_programs
    );
    assert_eq!(
        metrics.counter(CounterId::DualPlaneErases),
        nand.dual_plane_erases
    );

    let ftl = dev.ftl().stats();
    assert_eq!(metrics.counter(CounterId::HostReads), ftl.host_reads);
    assert_eq!(metrics.counter(CounterId::HostWrites), ftl.host_writes);
    assert_eq!(
        metrics.counter(CounterId::LogicalBytesWritten),
        ftl.sectors_written * SECTOR_BYTES
    );
    assert_eq!(
        metrics.counter(CounterId::LogicalBytesRead),
        ftl.sectors_read * SECTOR_BYTES
    );

    // Latency histograms hold exactly the measured (post-IOIgnore)
    // population every run's RunStats summarized.
    let measured: u64 = result
        .points
        .iter()
        .filter_map(|p| p.stats)
        .map(|s| s.count)
        .sum();
    let recorded: u64 = [
        uflip::obs::LatencyClass::Read,
        uflip::obs::LatencyClass::Write,
        uflip::obs::LatencyClass::Mixed,
    ]
    .iter()
    .map(|&c| metrics.latency(c).count())
    .sum();
    assert_eq!(recorded, measured);
    assert!(measured > 0, "suite measured nothing");
}

/// A plan sharded over two workers feeds the sink the same counters,
/// latencies, channel timeline and per-run workload records as the
/// serial run, and measures the same result.
#[test]
fn sharded_plan_observes_what_the_serial_plan_observes() {
    let profile = catalog::transcend_module();
    let mut cfg = MicroConfig::quick();
    cfg.io_count = 12;
    cfg.io_count_rw = 12;
    // Every second sequential-write point exhausts the device: resets.
    cfg.target_size = profile.sim_capacity_bytes() / 2 + MB;
    let run = |threads| {
        let mut dev = profile.build_sim(11);
        let plan = BenchmarkPlan::build(full_suite(&cfg), dev.capacity_bytes());
        let opts = SuiteOptions {
            state_coverage: 0.5,
            threads,
            ..SuiteOptions::default()
        };
        let (metrics, sink) = Metrics::shared();
        let result = execute_plan_observed(dev.as_mut(), &plan, &opts, &sink).expect("suite");
        (plan.run_count(), result, metrics.snapshot())
    };
    let (runs, serial, serial_obs) = run(1);
    let (_, sharded, sharded_obs) = run(2);
    assert!(serial.resets >= 2, "plan must exercise resets");
    assert_eq!(serial, sharded);
    assert_eq!(serial_obs.counters, sharded_obs.counters);
    assert_eq!(serial_obs.latency, sharded_obs.latency);
    assert_eq!(serial_obs.utilization, sharded_obs.utilization);
    assert_eq!(serial_obs.workloads.len(), runs);
    assert_eq!(serial_obs.workloads, sharded_obs.workloads);
}

/// Attaching a *recording* sink must not shift a single simulated
/// nanosecond: same run result, same device afterwards, as the
/// default null-sink path.
#[test]
fn recording_sink_leaves_runs_fingerprint_identical() {
    let base = PatternSpec::baseline(LbaFn::Random, Mode::Write, 16 * KB, 8 * MB, 64);
    let spec = ParallelSpec::new(base, 4).with_queue_depth(4);

    let mut plain_dev = catalog::memoright().build_sim(7);
    let plain = execute_parallel(plain_dev.as_mut(), &spec).expect("plain run");

    let mut observed_dev = catalog::memoright().build_sim(7);
    let (metrics, sink) = Metrics::shared();
    let observed =
        execute_parallel_with_policy(observed_dev.as_mut(), &spec, &IoPolicy::none(), &sink)
            .expect("observed run");

    assert_eq!(plain.rts, observed.rts);
    assert_eq!(plain.elapsed, observed.elapsed);
    assert_eq!(plain.io_ignore, observed.io_ignore);
    assert_eq!(
        plain_dev.ftl().nand_stats(),
        observed_dev.ftl().nand_stats()
    );
    // And the sink really recorded that identical run.
    let recorded = metrics.latency(uflip::obs::LatencyClass::Write).count();
    assert_eq!(
        recorded,
        (plain.rts.len() - plain.io_ignore as usize) as u64
    );
    assert!(metrics.counter(CounterId::HostWrites) > 0);

    // The null sink reports disabled, so instrumented layers skip
    // emission entirely — the documented zero-overhead default.
    assert!(!SinkHandle::null().is_enabled());
}

/// `execute_run_with_policy` observes the run whatever the policy: an
/// enabled sink gets the running-phase response times (`io_count −
/// io_ignore` of them) under the pattern's latency class and exactly
/// one per-workload record.
#[test]
fn run_with_policy_records_latencies_and_one_workload() {
    let spec =
        PatternSpec::baseline(LbaFn::Random, Mode::Write, 16 * KB, 8 * MB, 64).with_counts(64, 16);
    for policy in [IoPolicy::none(), IoPolicy::default()] {
        let mut dev = catalog::memoright().build_sim(7);
        let (metrics, sink) = Metrics::shared();
        let run = execute_run_with_policy(dev.as_mut(), &spec, &policy, &sink).expect("run");
        assert_eq!(run.len(), 64);
        assert_eq!(metrics.latency(LatencyClass::Write).count(), 64 - 16);
        assert_eq!(metrics.latency(LatencyClass::Read).count(), 0);
        let workloads = metrics.snapshot().workloads;
        assert_eq!(workloads.len(), 1, "{policy:?}");
        assert_eq!(workloads[0].label, run.label);
        assert_eq!(workloads[0].metrics.host_writes, 64);
    }
}

/// An open-loop replay submits one record at a time, so on a queue of
/// depth D every record after the first D meets a full queue once:
/// N − D rejections, whatever the policy.
#[test]
fn open_loop_replay_counts_every_queue_full_rejection() {
    const N: u64 = 300;
    const D: u32 = 4;
    let mut trace = Trace::new("synthetic", "RR");
    for i in 0..N {
        trace.push(TraceRecord {
            op: Mode::Read,
            lba: (i * 7919 % 2048) * 8,
            sectors: 8,
            submit_ns: i * 1_000,
            complete_ns: i * 1_000,
            queue_depth: 1,
        });
    }
    for policy in [IoPolicy::none(), IoPolicy::default()] {
        let mut dev = catalog::memoright().build_sim(7);
        let (metrics, sink) = Metrics::shared();
        let mode = ReplayMode::OpenLoop { queue_depth: D };
        let run =
            replay_trace_with_policy(dev.as_mut(), &trace, mode, &policy, &sink).expect("replay");
        assert_eq!(run.len(), N as usize);
        assert_eq!(
            metrics.counter(CounterId::QueueFullRejections),
            N - u64::from(D),
            "{policy:?}"
        );
    }
}

/// A plain run passes the null sink, which is never attached: a sink
/// the caller attached to the device stays attached and still counts
/// the run's host IOs.
#[test]
fn plain_run_keeps_the_device_sink_counting() {
    let spec = PatternSpec::baseline(LbaFn::Random, Mode::Write, 16 * KB, 8 * MB, 32);
    let mut dev = catalog::memoright().build_sim(7);
    let (metrics, sink) = Metrics::shared();
    dev.set_sink(sink);
    execute_run(dev.as_mut(), &spec).expect("run");
    assert_eq!(metrics.counter(CounterId::HostWrites), 32);
    assert_eq!(
        metrics.counter(CounterId::HostWrites),
        dev.ftl().stats().host_writes
    );
}
