//! Fault injection & recovery (ISSUE 8): the `FaultyDevice` decorator,
//! the retry `IoPolicy`, and power-loss crash recovery, exercised
//! through the public facade.
//!
//! Three contracts:
//!
//! * **Transparency** — a `FaultyDevice` with an empty plan is
//!   bit-identical to the bare device: same response times, same
//!   clock, same observability snapshot (property-tested).
//! * **Determinism** — two devices with equal-seeded armed plans
//!   inject the identical fault sequence (property-tested).
//! * **Crash recovery** — power loss drops in-flight state; after
//!   `recover()`, durable pages stay durable and readable, nothing is
//!   volatile, and no torn write is visible — on all three FTLs.

use proptest::prelude::*;
use std::time::Duration;
use uflip::core::replay::{replay_trace_with_policy, ReplayMode};
use uflip::core::{execute_run_with_policy, IoPolicy};
use uflip::device::{BlockDevice, ControllerConfig, FaultPlan, FaultyDevice, MemDevice, SimDevice};
use uflip::ftl::{
    BlockMapConfig, BlockMapFtl, Ftl, HybridLogConfig, HybridLogFtl, PageMapConfig, PageMapFtl,
    ProbeState,
};
use uflip::nand::FailureKind;
use uflip::obs::{CounterId, Metrics};
use uflip::patterns::{Mode, PatternSpec};
use uflip::trace::{Trace, TraceRecord};

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

fn mem() -> MemDevice {
    MemDevice::new(16 * MB, Duration::from_micros(80), 2)
}

proptest! {
    /// Empty plan ⇒ the decorator is invisible: identical response
    /// times, identical device clock, identical metrics snapshot.
    #[test]
    fn empty_plan_preserves_fingerprints(
        io_kb in 1u64..=64,
        count in 1u64..=128,
        seed in any::<u64>(),
        write in any::<bool>(),
    ) {
        let mode = if write { Mode::Write } else { Mode::Read };
        let spec = PatternSpec::baseline(
            uflip::patterns::LbaFn::Random, mode, io_kb * KB, 8 * MB, count,
        ).with_seed(seed);

        let (bare_metrics, bare_sink) = Metrics::shared();
        let mut bare = mem();
        let bare_run = execute_run_with_policy(&mut bare, &spec, &IoPolicy::none(), &bare_sink).unwrap();

        let (faulty_metrics, faulty_sink) = Metrics::shared();
        let mut faulty = FaultyDevice::new(mem(), FaultPlan::default());
        let faulty_run = execute_run_with_policy(&mut faulty, &spec, &IoPolicy::none(), &faulty_sink).unwrap();

        prop_assert_eq!(&bare_run.rts, &faulty_run.rts);
        prop_assert_eq!(bare_run.elapsed, faulty_run.elapsed);
        prop_assert_eq!(bare.now(), faulty.now());
        prop_assert_eq!(bare_metrics.snapshot(), faulty_metrics.snapshot());
    }

    /// Equal seeds ⇒ equal fault schedules: the per-IO outcome stream
    /// (success, injected-error index, spike-lengthened latency) of two
    /// identically-planned devices is identical.
    #[test]
    fn equal_seeds_inject_identical_fault_sequences(
        seed in any::<u64>(),
        read_rate_permille in 10u32..500,
        spike_rate_permille in 0u32..500,
        ios in 16usize..96,
    ) {
        let plan = FaultPlan {
            seed,
            read_error_rate: f64::from(read_rate_permille) / 1000.0,
            latency_spike_rate: f64::from(spike_rate_permille) / 1000.0,
            latency_spike_ns: 250_000,
            ..FaultPlan::default()
        };
        let outcomes = |plan: FaultPlan| -> Vec<Result<Duration, String>> {
            let mut dev = FaultyDevice::new(mem(), plan);
            (0..ios)
                .map(|i| {
                    dev.read((i as u64 % 512) * 4 * KB, 4 * KB)
                        .map_err(|e| e.to_string())
                })
                .collect()
        };
        prop_assert_eq!(outcomes(plan.clone()), outcomes(plan));
    }
}

/// The queued replay path is transparent too: an empty-plan decorated
/// device replays a trace open-loop with the same per-IO response
/// times as the bare device.
#[test]
fn empty_plan_is_transparent_on_the_queued_replay_path() {
    let trace = read_trace(256, 0x5EED);
    let policy = IoPolicy::none();
    let run = |wrap: bool| {
        let (metrics, sink) = Metrics::shared();
        let inner = sim_device(PageMapFtl::new(PageMapConfig::tiny()).unwrap());
        let run_on = |dev: &mut dyn BlockDevice| {
            replay_trace_with_policy(
                dev,
                &trace,
                ReplayMode::OpenLoop { queue_depth: 8 },
                &policy,
                &sink,
            )
            .expect("replay")
        };
        let run = if wrap {
            run_on(&mut FaultyDevice::new(inner, FaultPlan::default()))
        } else {
            let mut dev = inner;
            run_on(&mut dev)
        };
        (run.rts, run.elapsed, metrics.snapshot())
    };
    assert_eq!(run(false), run(true));
}

/// Depth-16 open-loop replay under 1 % transient read errors completes
/// under the default retry policy, with the retries visible in the
/// metrics snapshot (the ISSUE 8 acceptance scenario; also the CI
/// smoke step, via the trace_replay binary).
#[test]
fn open_loop_replay_survives_transient_read_errors() {
    let trace = read_trace(512, 0xD15EA5E);
    let inner = sim_device(PageMapFtl::new(PageMapConfig::tiny()).unwrap());
    let mut dev = FaultyDevice::new(inner, FaultPlan::transient_reads(0xFA11, 0.01));
    let (metrics, sink) = Metrics::shared();
    let run = replay_trace_with_policy(
        &mut dev,
        &trace,
        ReplayMode::OpenLoop { queue_depth: 16 },
        &IoPolicy::default(),
        &sink,
    )
    .expect("replay completes under the default retry policy");
    assert_eq!(run.len(), trace.len());
    assert!(
        metrics.counter(CounterId::InjectedReadFaults) > 0,
        "a 1% plan over 512 IOs injects faults"
    );
    assert!(
        metrics.counter(CounterId::IoRetries) > 0,
        "the policy retried the injected faults"
    );
    assert_eq!(
        metrics.counter(CounterId::RetryExhaustions),
        0,
        "1% transient errors never exhaust a 4-retry budget"
    );
}

/// Power-loss crash recovery on all three FTL families: durable pages
/// stay durable and readable, nothing stays volatile, torn writes are
/// invisible, and the device keeps working after `recover()`.
#[test]
fn power_loss_recovery_on_all_three_ftls() {
    crash_and_recover(
        "page-map",
        Box::new(PageMapFtl::new(PageMapConfig::tiny()).unwrap()),
    );
    crash_and_recover(
        "hybrid-log",
        Box::new(HybridLogFtl::new(HybridLogConfig::tiny()).unwrap()),
    );
    // The block-map replacement path programs replacement blocks with
    // gaps (chunk-positioned pages), so it needs Ascending order —
    // same override as the FTL's own unit tests.
    let mut bm = BlockMapConfig::tiny();
    bm.array.chip.program_order = uflip::nand::ProgramOrder::Ascending;
    crash_and_recover("block-map", Box::new(BlockMapFtl::new(bm).unwrap()));
}

fn sim_device(ftl: impl Ftl + Send + 'static) -> SimDevice {
    SimDevice::new(
        "crash-sim",
        Box::new(ftl),
        ControllerConfig {
            per_io_overhead_ns: 20_000,
            transfer_mb_s: 100,
            pipelined_transfer: false,
        },
        None,
    )
}

/// A submit-ordered single-sector random-read trace sized for the tiny
/// FTL geometries.
fn read_trace(count: u64, seed: u64) -> Trace {
    let mut trace = Trace::new("synthetic", "RR");
    let mut x = seed;
    for i in 0..count {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        trace.records.push(TraceRecord {
            op: Mode::Read,
            lba: x % 128,
            sectors: 1,
            submit_ns: i * 50_000,
            complete_ns: i * 50_000,
            queue_depth: 1,
        });
    }
    trace
}

fn crash_and_recover(family: &str, ftl: Box<dyn Ftl + Send>) {
    let sim = SimDevice::new(
        family,
        ftl,
        ControllerConfig {
            per_io_overhead_ns: 20_000,
            transfer_mb_s: 100,
            pipelined_transfer: false,
        },
        None,
    );
    // Crash on the 25th IO: 16 writes complete first, then reads run
    // into the cut.
    let crash_at = 24u64;
    let mut dev = FaultyDevice::new(sim, FaultPlan::power_loss_at(7, crash_at));
    let written: Vec<u64> = (0..16).collect();
    for &lba in &written {
        dev.write(lba * 512, 512)
            .unwrap_or_else(|e| panic!("{family}: write before the crash point failed: {e}"));
    }
    // Ground truth before the crash: which LBAs the FTL holds durably.
    let durable_before: Vec<u64> = written
        .iter()
        .copied()
        .filter(|&lba| dev.inner().ftl().probe(lba) == ProbeState::Durable)
        .collect();
    assert!(
        !durable_before.is_empty(),
        "{family}: some acknowledged writes must be on flash"
    );
    // Read until the power cut fires.
    let mut crashed = false;
    for round in 0..64u64 {
        match dev.read((round % 16) * 512, 512) {
            Ok(_) => {}
            Err(e) => {
                assert_eq!(e.kind(), FailureKind::PowerLoss, "{family}: {e}");
                crashed = true;
                break;
            }
        }
    }
    assert!(crashed, "{family}: the plan's power cut must fire");
    // Everything fails until recovery — the device is "off".
    assert_eq!(
        dev.read(0, 512).unwrap_err().kind(),
        FailureKind::PowerLoss,
        "{family}"
    );
    assert_eq!(
        dev.write(0, 512).unwrap_err().kind(),
        FailureKind::PowerLoss,
        "{family}"
    );

    let report = dev.recover().unwrap_or_else(|e| {
        panic!("{family}: recovery failed: {e}");
    });
    // Remount invariants: durable stays durable and readable, nothing
    // is volatile (torn writes were dropped, not resurrected).
    for &lba in &durable_before {
        assert_eq!(
            dev.inner().ftl().probe(lba),
            ProbeState::Durable,
            "{family}: lba {lba} lost by recovery (report {report:?})"
        );
        dev.read(lba * 512, 512)
            .unwrap_or_else(|e| panic!("{family}: durable lba {lba} unreadable: {e}"));
    }
    for lba in 0..128u64 {
        assert_ne!(
            dev.inner().ftl().probe(lba),
            ProbeState::Volatile,
            "{family}: lba {lba} still volatile after recovery"
        );
    }
    // The device works again, and the consumed crash point does not
    // re-fire.
    for lba in 0..32u64 {
        dev.write(lba * 512, 512)
            .unwrap_or_else(|e| panic!("{family}: post-recovery write failed: {e}"));
    }
}
