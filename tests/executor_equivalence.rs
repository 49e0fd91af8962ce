//! Equivalence tests for the event-calendar parallel executor
//! (ISSUE 6): the binary-heap calendar loop in `execute_parallel` must
//! produce bit-identical [`RunResult`]s — every response time, the
//! elapsed device time, and the device's post-run state — to the
//! pre-rewrite linear-scan loop, which is preserved here as
//! [`execute_parallel_queued_reference`] exactly so these tests can
//! drive both against identically seeded devices.
//!
//! Virtual time makes "bit-identical" literal: any divergence in
//! submission order, tie-breaking, or completion bookkeeping shows up
//! as a differing `Duration` somewhere, not as noise.

use proptest::prelude::*;
use std::time::Duration;
use uflip::core::executor::execute_parallel;
use uflip::core::slab::TokenSlab;
use uflip::core::RunResult;
use uflip::device::profiles::{catalog, DeviceProfile};
use uflip::device::{BlockDevice, DeviceError, SimDevice, Token};
use uflip::patterns::{IoRequest, LbaFn, Mode, ParallelSpec, PatternSpec};

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

/// The pre-calendar queued executor: per-iteration linear scan over
/// every process for the earliest submission. Kept as the behavioral
/// reference the calendar loop must match bit-for-bit.
fn execute_parallel_queued_reference(
    dev: &mut dyn BlockDevice,
    par: &ParallelSpec,
) -> uflip::core::Result<RunResult> {
    let mut streams: Vec<_> = par.process_specs().into_iter().map(|s| s.iter()).collect();
    let n = streams.len();
    let base = dev.now();
    let mut ready: Vec<Duration> = vec![base; n];
    let mut pending: Vec<Option<IoRequest>> = streams.iter_mut().map(|s| s.next()).collect();
    // Processes are synchronous: `blocked[p]` while p's IO is in flight.
    let mut blocked = vec![false; n];
    let queue = dev
        .io_queue()
        .ok_or(DeviceError::Internal("device lost its queue mid-run"))?;
    let device_depth = queue.queue_depth();
    if let Some(depth) = par.queue_depth {
        queue.set_queue_depth(depth)?;
    }
    let mut inflight: TokenSlab<(usize, Duration, usize)> = TokenSlab::new();
    let mut rts: Vec<Duration> = Vec::new();
    let mut seq = 0usize;
    let mut last_completion = base;
    let retire_one = |inflight: &mut TokenSlab<(usize, Duration, usize)>,
                      blocked: &mut [bool],
                      ready: &mut [Duration],
                      rts: &mut [Duration],
                      token: Token,
                      completion: Duration| {
        let (p, submit, sq) = inflight.remove(token);
        rts[sq] = completion - submit;
        blocked[p] = false;
        ready[p] = completion;
    };
    loop {
        // Earliest-submitting runnable process, if any.
        let candidate = (0..n)
            .filter(|&p| !blocked[p] && pending[p].is_some())
            .min_by_key(|&p| {
                pending[p]
                    .as_ref()
                    .map_or(Duration::MAX, |io| ready[p] + io.submit_delay)
            });
        let Some(p) = candidate else {
            match queue.poll() {
                Some((token, completion)) => {
                    retire_one(
                        &mut inflight,
                        &mut blocked,
                        &mut ready,
                        &mut rts,
                        token,
                        completion,
                    );
                    last_completion = last_completion.max(completion);
                    continue;
                }
                None => break,
            }
        };
        let submit = pending[p]
            .as_ref()
            .map_or(Duration::MAX, |io| ready[p] + io.submit_delay);
        if let Some(next_done) = queue.next_completion() {
            if next_done <= submit {
                let (token, completion) = queue
                    .poll()
                    .ok_or(DeviceError::Internal("peeked completion vanished"))?;
                retire_one(
                    &mut inflight,
                    &mut blocked,
                    &mut ready,
                    &mut rts,
                    token,
                    completion,
                );
                last_completion = last_completion.max(completion);
                continue;
            }
        }
        let io = pending[p]
            .take()
            .ok_or(DeviceError::Internal("candidate without an IO"))?;
        match queue.submit(&io, submit) {
            Ok(token) => {
                inflight.insert(token, (p, submit, seq));
                seq += 1;
                rts.push(Duration::ZERO);
                blocked[p] = true;
                pending[p] = streams[p].next();
            }
            Err(DeviceError::QueueFull { .. }) => {
                pending[p] = Some(io);
                let (token, completion) = queue
                    .poll()
                    .ok_or(DeviceError::Internal("full queue with nothing to poll"))?;
                retire_one(
                    &mut inflight,
                    &mut blocked,
                    &mut ready,
                    &mut rts,
                    token,
                    completion,
                );
                last_completion = last_completion.max(completion);
            }
            Err(e) => return Err(e),
        }
    }
    if queue.queue_depth() != device_depth {
        queue.set_queue_depth(device_depth)?;
    }
    Ok(RunResult::new(par.name(), rts, 0, last_completion - base))
}

/// Three catalogue profiles with distinct FTLs and channel layouts:
/// a hybrid-log device, a block-mapped SSD, and a block-mapped USB
/// key. Differences in GC behaviour and channel counts exercise the
/// calendar's tie-breaking under very different completion interleavings.
fn profiles() -> Vec<DeviceProfile> {
    vec![
        catalog::transcend_module(),
        catalog::mtron(),
        catalog::kingston_dthx(),
    ]
}

/// Run both executors on identically seeded devices and assert the
/// results — and the devices — are indistinguishable.
fn assert_equivalent(profile: &DeviceProfile, spec: &ParallelSpec) -> Result<(), TestCaseError> {
    let mut calendar_dev = profile.build_sim(7);
    let mut reference_dev = profile.build_sim(7);
    let calendar = execute_parallel(calendar_dev.as_mut(), spec).expect("calendar executor");
    let reference =
        execute_parallel_queued_reference(reference_dev.as_mut(), spec).expect("reference loop");
    let key = |r: &RunResult| (r.label.clone(), r.rts.clone(), r.io_ignore, r.elapsed);
    prop_assert_eq!(key(&calendar), key(&reference));
    prop_assert_eq!(post_state(&calendar_dev), post_state(&reference_dev));
    Ok(())
}

/// Everything the device can tell us after a run: clock, FTL host
/// statistics and aggregated NAND counters (busy time included).
fn post_state(dev: &SimDevice) -> (Duration, uflip::ftl::FtlStats, uflip::nand::NandStats) {
    (dev.now(), dev.ftl().stats(), dev.ftl().nand_stats())
}

proptest! {
    /// Whatever the parallel spec — process degree, LBA function,
    /// mode, IO size, per-run IO budget, pattern seed — paired with a
    /// queue depth from {1, 4, 16} and any of the three catalogue
    /// profiles, the calendar executor's RunResult is bit-identical to
    /// the pre-rewrite scan loop's, and so is the device it leaves
    /// behind.
    #[test]
    fn calendar_executor_is_bit_identical_to_reference(
        pi in 0usize..3,
        depth in prop_oneof![Just(1u32), Just(4), Just(16)],
        // Powers of two, as the paper sweeps — and so every process's
        // slice of the 8 MB window stays IO-size aligned.
        degree_log2 in 0u32..=3,
        random_lba in any::<bool>(),
        write in any::<bool>(),
        large_io in any::<bool>(),
        count in 16u64..=64,
        seed in any::<u64>(),
    ) {
        let lba = if random_lba { LbaFn::Random } else { LbaFn::Sequential };
        let mode = if write { Mode::Write } else { Mode::Read };
        let size = if large_io { 16 * KB } else { 4 * KB };
        let base = PatternSpec::baseline(lba, mode, size, 8 * MB, count).with_seed(seed);
        let spec = ParallelSpec::new(base, 1 << degree_log2).with_queue_depth(depth);
        assert_equivalent(&profiles()[pi], &spec)?;
    }
}

/// Deterministic coverage floor beneath the property: every catalogue
/// profile × every swept queue depth, with a GC-provoking random-write
/// spec, regardless of how proptest samples.
#[test]
fn calendar_matches_reference_on_every_profile_and_depth() {
    for profile in profiles() {
        for depth in [1u32, 4, 16] {
            let base = PatternSpec::baseline(LbaFn::Random, Mode::Write, 16 * KB, 8 * MB, 48);
            let spec = ParallelSpec::new(base, 4).with_queue_depth(depth);
            assert_equivalent(&profile, &spec)
                .unwrap_or_else(|e| panic!("{} at depth {depth}: {e:?}", profile.id));
        }
    }
}
