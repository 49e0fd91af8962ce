//! The timing decorators change no simulated nanosecond: for every FTL
//! family, on the queued and the synchronous path, a stack under
//! `TimedDevice` and `TimedFtl` reproduces the bare stack exactly —
//! response times, clock, channel busy time, FTL and NAND statistics —
//! while the ledger sees every IO.

use std::time::Duration;
use uflip_benchmark::timed::{self, Call, Op, TimedDevice};
use uflip_benchmark::workload::build_device;
use uflip_core::executor::execute_run;
use uflip_core::replay::{replay_trace, ReplayMode};
use uflip_core::RunResult;
use uflip_device::profiles::catalog;
use uflip_device::{BlockDevice, DeviceProfile, FtlSpec, SimDevice};
use uflip_ftl::{FittedFtlConfig, FtlStats, LatencyCurve, PageMapConfig};
use uflip_nand::NandStats;
use uflip_patterns::{LbaFn, Mode, PatternSpec};
use uflip_trace::generate::BtreeMixConfig;

const MB: u64 = 1024 * 1024;

/// One profile per FTL family.
fn families() -> Vec<DeviceProfile> {
    let mut page_map = catalog::memoright();
    page_map.id = "page-map".into();
    page_map.ftl = FtlSpec::PageMap(PageMapConfig {
        async_reclaim: true,
        ..PageMapConfig::tiny()
    });
    let fitted = DeviceProfile::fitted(
        "fitted",
        "test",
        FittedFtlConfig {
            capacity_bytes: 64 * MB,
            channels: 4,
            stripe_bytes: 16 * 1024,
            parallel_fraction: 0.8,
            read_seq: LatencyCurve::new(vec![(512, 80_000), (128 * 1024, 400_000)]),
            read_rand: LatencyCurve::flat(150_000),
            write_seq: LatencyCurve::flat(250_000),
            write_rand: LatencyCurve::new(vec![(512, 900_000), (128 * 1024, 5_000_000)]),
            align_granularity_bytes: 16 * 1024,
            align_penalty: 1.5,
        },
    );
    let profiles = vec![
        catalog::memoright(),
        catalog::kingston_dti(),
        page_map,
        fitted,
    ];
    let names: Vec<_> = profiles.iter().map(|p| p.ftl_family()).collect();
    assert_eq!(names, ["hybrid-log", "block-map", "page-map", "fitted"]);
    profiles
}

/// Everything a run leaves observable.
#[derive(Debug, PartialEq)]
struct Observed {
    rts: Vec<Duration>,
    elapsed: Duration,
    clock: Duration,
    busy: Vec<u64>,
    ftl: FtlStats,
    nand: NandStats,
}

fn observe(runs: &[RunResult], dev: &SimDevice) -> Observed {
    let mut busy = Vec::new();
    dev.ftl().channel_busy_ns(&mut busy);
    Observed {
        rts: runs.iter().flat_map(|r| r.rts.iter().copied()).collect(),
        elapsed: runs.iter().map(|r| r.elapsed).sum(),
        clock: dev.now(),
        busy,
        ftl: dev.ftl().stats(),
        nand: dev.ftl().nand_stats(),
    }
}

/// Queued replays at depth 8 and timing-faithful, an idle gap, and a
/// snapshot restored mid-way.
fn queued(dev: &mut dyn BlockDevice, cap: u64) -> Vec<RunResult> {
    let trace = BtreeMixConfig {
        search_pct: 50,
        ..BtreeMixConfig::oltp(0, (cap / 2).min(8 * MB), 150, 11)
    }
    .generate();
    let mut runs = Vec::new();
    runs.push(replay_trace(dev, &trace, ReplayMode::OpenLoop { queue_depth: 8 }).unwrap());
    let snapshot = dev.snapshot_state().expect("simulated devices snapshot");
    dev.idle(Duration::from_millis(20));
    runs.push(replay_trace(dev, &trace, ReplayMode::TimingFaithful).unwrap());
    dev.restore_state(snapshot.as_ref()).unwrap();
    runs.push(replay_trace(dev, &trace, ReplayMode::OpenLoop { queue_depth: 8 }).unwrap());
    runs
}

/// Synchronous random writes then random reads, with host idle time.
fn sync(dev: &mut dyn BlockDevice, cap: u64) -> Vec<RunResult> {
    let target = (cap / 2).min(8 * MB);
    let rw = PatternSpec::baseline(LbaFn::Random, Mode::Write, 16 * 1024, target, 120);
    let rr = PatternSpec::baseline(LbaFn::Random, Mode::Read, 8 * 1024, target, 120);
    let mut runs = vec![execute_run(dev, &rw).unwrap()];
    dev.idle(Duration::from_millis(50));
    runs.push(execute_run(dev, &rr).unwrap());
    runs
}

fn check(path: fn(&mut dyn BlockDevice, u64) -> Vec<RunResult>, queued_path: bool) {
    for profile in families() {
        let cap = profile.sim_capacity_bytes();
        let mut bare = build_device(&profile, 5, false);
        let expected = observe(&path(bare.as_mut(), cap), &bare);

        let mut traced = TimedDevice::new(build_device(&profile, 5, true));
        timed::reset();
        let runs = path(&mut traced, cap);
        let ledger = timed::take();
        let sim = traced.into_inner();
        assert_eq!(
            observe(&runs, &sim),
            expected,
            "{}: traced stack diverged",
            profile.id
        );

        let ios: usize = runs.iter().map(RunResult::len).sum();
        assert_eq!(
            ledger.ftl_calls[Op::Read as usize] + ledger.ftl_calls[Op::Write as usize],
            ios as u64,
            "{}: every IO reaches the FTL once",
            profile.id
        );
        let calls: &[Call] = if queued_path {
            &[Call::Submit, Call::SubmitBatch]
        } else {
            &[Call::Read, Call::Write]
        };
        assert!(
            calls.iter().any(|&c| ledger.call(c).samples > 0),
            "{}: the sampler timed some IO calls",
            profile.id
        );
        if queued_path {
            assert_eq!(ledger.call(Call::Snapshot).samples, 1);
            assert_eq!(ledger.call(Call::Restore).samples, 1);
        }
    }
}

#[test]
fn queued_path_is_unchanged_for_every_ftl_family() {
    check(queued, true);
}

#[test]
fn sync_path_is_unchanged_for_every_ftl_family() {
    check(sync, false);
}
