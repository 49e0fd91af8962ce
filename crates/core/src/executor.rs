//! Pattern executors: drive a device with a pattern, capture every IO's
//! response time.
//!
//! Three executors cover the paper's three pattern classes:
//!
//! * [`execute_run`] — basic patterns (one process, synchronous IOs;
//!   the timing function's delays become device idle time);
//! * [`execute_mixed`] — mixed patterns (the interleaved sequence is
//!   itself a single synchronous stream, §3.1);
//! * [`execute_parallel`] — parallel patterns: `ParallelDegree`
//!   processes each issue their next IO as soon as their previous one
//!   completes.
//!
//! ## One loop per shape
//!
//! Each class has exactly one IO loop; parallel patterns have two
//! shapes, the queued event calendar and the host-side serial
//! interleaving. Every loop runs under an [`IoPolicy`] and a
//! [`uflip_obs::SinkHandle`] taken as values: the plain entry points
//! pass [`IoPolicy::none`] and the null sink, the `_with_policy` entry
//! points pass the caller's and bracket the run with observation (see
//! `observe.rs`): an enabled sink is attached to the device, receives
//! the running-phase response times under the pattern's latency class,
//! and one [`uflip_obs::WorkloadMetrics`] record of the run's counter
//! delta. A null sink is never attached, so a plain run leaves a sink
//! the caller attached to the device in place — that sink still counts
//! the run's host IOs.
//!
//! The loops call `read`/`write`/`submit` directly. Only a failed call
//! reaches the policy, in a cold retry continuation (see
//! [`crate::policy`]); under the noop policy it hands the error
//! straight back, so a run without a policy costs what a policy-free
//! loop would.
//!
//! ## How parallel patterns are served
//!
//! When the device exposes an [`uflip_device::IoQueue`] (every
//! [`uflip_device::SimDevice`] does), `execute_parallel` drives it as a
//! **submit/poll event loop**: process arrivals are submitted into the
//! device's NCQ-style queue in virtual-time order, and the device
//! schedules each IO onto the busy tracks of the flash channels it
//! touches. Queueing delay — and any *benefit* of concurrency on a
//! multi-channel device — is therefore **emergent** from the device
//! model. At the default queue depth of 1 the device serves one IO at
//! a time and the behaviour of the paper's measurements is reproduced
//! exactly: response times include time queued behind other processes,
//! which is how "parallel execution with a high degree can cause
//! multiple sequential write patterns to degenerate" (§5.2) and why
//! Hint 7 finds no benefit in concurrency on 2008 devices. Sweeping
//! [`uflip_patterns::ParallelSpec::with_queue_depth`] ≥ the channel
//! count shows what those devices *could* have delivered.
//!
//! Devices without a queue (e.g. [`uflip_device::MemDevice`]) fall
//! back to the same virtual-time interleaving computed host-side, with
//! the device serving one IO at a time — **simulated** queueing rather
//! than emergent, equivalent to queue depth 1.
//!
//! ## Wall-clock queues
//!
//! Real devices ([`uflip_device::DirectIoFile`]) expose the same
//! [`uflip_device::IoQueue`] interface over a **wall clock** (a
//! threaded worker pool — [`uflip_device::ThreadedIoQueue`]), and the
//! same event loop drives them. The loop's logic tolerates the three
//! wall-clock relaxations documented on the trait: it keeps submitting
//! when `next_completion` is `None` with IOs in flight (the queue
//! stays full instead of stalling), it accepts completions that land
//! "in the past" relative to later submissions (the unblocked
//! process's next IO may legitimately predate an already-submitted
//! future-dated IO — submission times are *not* forced monotone on
//! real devices), and a blocking `poll` simply stands in for "advance
//! virtual time to the next completion". Response times remain
//! completion − submission on the device's own clock in both worlds.

use crate::observe;
use crate::policy::{IoContext, IoPolicy, SubmitOutcome};
use crate::run::RunResult;
use crate::slab::TokenSlab;
use crate::Result;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;
use uflip_device::{BlockDevice, DeviceError, Token};
use uflip_obs::{LatencyClass, SinkHandle};
use uflip_patterns::{IoRequest, MixSpec, ParallelSpec, PatternSpec};

/// Execute a basic pattern synchronously. Returns the per-IO trace.
pub fn execute_run(dev: &mut dyn BlockDevice, spec: &PatternSpec) -> Result<RunResult> {
    execute_run_with_policy(dev, spec, &IoPolicy::none(), &SinkHandle::null())
}

/// [`execute_run`] under an [`IoPolicy`], observed by `sink`: transient
/// IO failures are retried with backoff (spent as device idle time),
/// slow IOs are counted as timeouts, and a degrading policy records an
/// exhausted IO's accumulated backoff instead of aborting. An enabled
/// sink also receives the running-phase response times under the
/// pattern's latency class and the run's [`uflip_obs::WorkloadMetrics`]
/// record (see the module docs).
pub fn execute_run_with_policy(
    dev: &mut dyn BlockDevice,
    spec: &PatternSpec,
    policy: &IoPolicy,
    sink: &SinkHandle,
) -> Result<RunResult> {
    let before = observe::attach(dev, sink);
    let run = run_basic(dev, spec, &mut IoContext::new(policy, sink))?;
    observe::record(sink, observe::class_of(spec.mode), &run, before);
    Ok(run)
}

/// Execute a mixed pattern, returning the run plus each IO's process
/// tag (0 = sub-pattern a, 1 = b).
pub fn execute_mixed(dev: &mut dyn BlockDevice, mix: &MixSpec) -> Result<(RunResult, Vec<u16>)> {
    execute_mixed_with_policy(dev, mix, &IoPolicy::none(), &SinkHandle::null())
}

/// [`execute_mixed`] under an [`IoPolicy`], observed by `sink` (see
/// [`execute_run_with_policy`]), with the response times recorded
/// under [`LatencyClass::Mixed`]: a mix interleaves reads and writes
/// in one stream.
pub fn execute_mixed_with_policy(
    dev: &mut dyn BlockDevice,
    mix: &MixSpec,
    policy: &IoPolicy,
    sink: &SinkHandle,
) -> Result<(RunResult, Vec<u16>)> {
    let before = observe::attach(dev, sink);
    let (run, procs) = run_mixed(dev, mix, &mut IoContext::new(policy, sink))?;
    observe::record(sink, LatencyClass::Mixed, &run, before);
    Ok((run, procs))
}

/// Execute a parallel pattern.
///
/// Each process is a synchronous loop: it submits its next IO the
/// moment its previous IO completes. The recorded response time of an
/// IO is *completion − submission*, i.e. it includes time spent queued
/// behind other processes' IOs — exactly what a host thread would
/// measure.
///
/// Queue-capable devices are driven through their submit/poll
/// [`uflip_device::IoQueue`] (see the module docs); others fall back to
/// host-side serial interleaving, equivalent to queue depth 1.
pub fn execute_parallel(dev: &mut dyn BlockDevice, par: &ParallelSpec) -> Result<RunResult> {
    execute_parallel_with_policy(dev, par, &IoPolicy::none(), &SinkHandle::null())
}

/// [`execute_parallel`] under an [`IoPolicy`], observed by `sink` (see
/// [`execute_run_with_policy`]; the latency class is the base
/// pattern's mode). On a queue, a transient submit-time rejection
/// retries with the backoff applied to the submission instant — the
/// response time, completion − intended submission, includes it — and
/// queue back-pressure stays the event loop's flow control.
pub fn execute_parallel_with_policy(
    dev: &mut dyn BlockDevice,
    par: &ParallelSpec,
    policy: &IoPolicy,
    sink: &SinkHandle,
) -> Result<RunResult> {
    let before = observe::attach(dev, sink);
    let run = run_parallel(dev, par, &mut IoContext::new(policy, sink))?;
    observe::record(sink, observe::class_of(par.base.mode), &run, before);
    Ok(run)
}

/// Host-side virtual-time interleaving of a parallel pattern over a
/// device that serves one IO at a time — what [`execute_parallel`] does
/// on devices without a queue, and the reference semantics the queue
/// engine must reproduce at depth 1.
pub fn execute_parallel_serial(dev: &mut dyn BlockDevice, par: &ParallelSpec) -> Result<RunResult> {
    let (policy, sink) = (IoPolicy::none(), SinkHandle::null());
    run_parallel_serial(dev, par, &mut IoContext::new(&policy, &sink))
}

/// The basic-pattern loop.
pub(crate) fn run_basic(
    dev: &mut dyn BlockDevice,
    spec: &PatternSpec,
    ctx: &mut IoContext,
) -> Result<RunResult> {
    debug_assert!(
        spec.validate().is_ok(),
        "invalid spec: {:?}",
        spec.validate()
    );
    let start = dev.now();
    let mut rts = Vec::with_capacity(spec.io_count as usize);
    for io in spec.iter() {
        if io.submit_delay > Duration::ZERO {
            dev.idle(io.submit_delay);
        }
        rts.push(ctx.issue(dev, &io)?);
    }
    ctx.count_timeouts(&rts);
    Ok(RunResult::new(
        spec.code(),
        rts,
        spec.io_ignore,
        dev.now() - start,
    ))
}

/// The mixed-pattern loop.
///
/// Mixed streams are a serial dependency chain — each IO is submitted
/// only after the previous completes — so they deliberately use the
/// synchronous `read`/`write` interface even on queue-capable devices.
/// The queue engine admits against per-channel busy tracks, where
/// background work (log merges, reclamation) parks time that the
/// synchronous path charges differently; riding the queue at depth 1
/// would therefore let a GC tail from one write delay the next IO and
/// change measured response times. Keeping the synchronous path keeps
/// the Mix micro-benchmark bit-stable with every earlier result.
pub(crate) fn run_mixed(
    dev: &mut dyn BlockDevice,
    mix: &MixSpec,
    ctx: &mut IoContext,
) -> Result<(RunResult, Vec<u16>)> {
    let start = dev.now();
    let mut rts = Vec::with_capacity(mix.io_count as usize);
    let mut procs = Vec::with_capacity(mix.io_count as usize);
    for io in mix.iter() {
        if io.submit_delay > Duration::ZERO {
            dev.idle(io.submit_delay);
        }
        rts.push(ctx.issue(dev, &io)?);
        procs.push(io.process);
    }
    ctx.count_timeouts(&rts);
    Ok((RunResult::new(mix.name(), rts, 0, dev.now() - start), procs))
}

/// A parallel pattern on the loop its device calls for.
pub(crate) fn run_parallel(
    dev: &mut dyn BlockDevice,
    par: &ParallelSpec,
    ctx: &mut IoContext,
) -> Result<RunResult> {
    if dev.io_queue().is_some() {
        run_parallel_queued(dev, par, ctx)
    } else {
        run_parallel_serial(dev, par, ctx)
    }
}

/// Drive a queue-capable device with the parallel pattern's processes.
///
/// On virtual-time devices the event loop maintains one invariant the
/// simulation depends on: **IOs reach the device in non-decreasing
/// virtual submission time**, so FTL state evolves in the same order a
/// real command stream would arrive in. A candidate IO is only
/// submitted while the queue has a free slot *and* no known in-flight
/// completion precedes the candidate's submission (a completion may
/// release a process whose next IO submits earlier); otherwise the
/// earliest completion is retired first. On wall-clock devices the
/// invariant is relaxed rather than enforced — a completion observed
/// late can yield a submission dated before an already-submitted IO,
/// which the device clamps to "now" (see `uflip_device::queue`).
///
/// ## The event calendar
///
/// Runnable processes live in a binary-heap **calendar** keyed by
/// `(submission instant, process index)`: one entry per process whose
/// next IO is ready to go. A process leaves the calendar when its IO is
/// submitted and re-enters when that IO completes (with its next IO's
/// instant). Selecting the next submission is therefore O(log n)
/// instead of the linear scan over every process the loop used to pay
/// per iteration — with ties broken toward the lower process index,
/// exactly the first-minimal element `min_by_key` picked, so the
/// schedule is bit-identical to the scan (`tests/executor_equivalence.rs`
/// keeps the old loop as the behavioral reference).
fn run_parallel_queued(
    dev: &mut dyn BlockDevice,
    par: &ParallelSpec,
    ctx: &mut IoContext,
) -> Result<RunResult> {
    let specs = par.process_specs();
    let total_ios: usize = specs.iter().map(|s| s.io_count as usize).sum();
    let mut streams: Vec<_> = specs.into_iter().map(|s| s.iter()).collect();
    let n = streams.len();
    let base = dev.now();
    let mut ready: Vec<Duration> = vec![base; n];
    let mut pending: Vec<Option<IoRequest>> = streams.iter_mut().map(|s| s.next()).collect();
    let queue = dev
        .io_queue()
        .ok_or(DeviceError::Internal("device lost its queue mid-run"))?;
    // A spec-level queue depth is a per-run request: remember the
    // device's own depth and restore it once the run drains, so one
    // sweep point cannot silently reconfigure later runs.
    let device_depth = queue.queue_depth();
    if let Some(depth) = par.queue_depth {
        queue.set_queue_depth(depth)?;
    }
    let mut calendar: BinaryHeap<Reverse<(Duration, usize)>> = BinaryHeap::with_capacity(n);
    for (p, io) in pending.iter().enumerate() {
        if let Some(io) = io {
            calendar.push(Reverse((ready[p] + io.submit_delay, p)));
        }
    }
    // Token bookkeeping: submission order index and times per in-flight
    // IO, so completions can be turned into response times and traced
    // back to their process.
    let mut inflight: TokenSlab<(usize, Duration, usize)> = TokenSlab::new();
    let mut rts: Vec<Duration> = Vec::with_capacity(total_ios);
    let mut seq = 0usize;
    let mut last_completion = base;
    loop {
        // Earliest-submitting runnable process, if any.
        let Some(&Reverse((submit, p))) = calendar.peek() else {
            // Nothing left to submit: drain the queue.
            match queue.poll() {
                Some((token, completion)) => {
                    retire(
                        &mut inflight,
                        &mut calendar,
                        &mut ready,
                        &pending,
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
        // Retire completions that precede this submission: they may
        // unblock a process with an even earlier arrival.
        if let Some(next_done) = queue.next_completion() {
            if next_done <= submit {
                let (token, completion) = queue
                    .poll()
                    .ok_or(DeviceError::Internal("peeked completion vanished"))?;
                retire(
                    &mut inflight,
                    &mut calendar,
                    &mut ready,
                    &pending,
                    &mut rts,
                    token,
                    completion,
                );
                last_completion = last_completion.max(completion);
                continue;
            }
        }
        calendar.pop();
        let io = pending[p]
            .take()
            .ok_or(DeviceError::Internal("calendar entry without an IO"))?;
        match ctx.submit(queue, &io, submit)? {
            SubmitOutcome::Submitted(token) => {
                inflight.insert(token, (p, submit, seq));
                seq += 1;
                rts.push(Duration::ZERO); // placeholder until completion
                pending[p] = streams[p].next();
                // p re-enters the calendar when this IO completes.
            }
            SubmitOutcome::Full => {
                // Back-pressure: retire one completion and retry.
                pending[p] = Some(io);
                calendar.push(Reverse((submit, p)));
                let (token, completion) = queue
                    .poll()
                    .ok_or(DeviceError::Internal("full queue with nothing to poll"))?;
                retire(
                    &mut inflight,
                    &mut calendar,
                    &mut ready,
                    &pending,
                    &mut rts,
                    token,
                    completion,
                );
                last_completion = last_completion.max(completion);
            }
            SubmitOutcome::Degraded(waited) => {
                // The IO never reached the device: book its backoff as
                // the response time and release its process.
                rts.push(waited);
                seq += 1;
                ready[p] = submit + waited;
                last_completion = last_completion.max(ready[p]);
                pending[p] = streams[p].next();
                if let Some(io) = &pending[p] {
                    calendar.push(Reverse((ready[p] + io.submit_delay, p)));
                }
            }
        }
    }
    ctx.count_timeouts(&rts);
    if queue.queue_depth() != device_depth {
        queue.set_queue_depth(device_depth)?;
    }
    Ok(RunResult::new(par.name(), rts, 0, last_completion - base))
}

/// Book a completed IO: compute its response time into `rts` (indexed
/// by submission order) and return its process to the calendar with
/// the submission instant of the process's next IO.
#[allow(clippy::too_many_arguments)]
fn retire(
    inflight: &mut TokenSlab<(usize, Duration, usize)>,
    calendar: &mut BinaryHeap<Reverse<(Duration, usize)>>,
    ready: &mut [Duration],
    pending: &[Option<IoRequest>],
    rts: &mut [Duration],
    token: Token,
    completion: Duration,
) {
    let (p, submit, seq) = inflight.remove(token);
    rts[seq] = completion - submit;
    ready[p] = completion;
    if let Some(io) = &pending[p] {
        calendar.push(Reverse((completion + io.submit_delay, p)));
    }
}

/// The host-side serial interleaving loop (see
/// [`execute_parallel_serial`]).
fn run_parallel_serial(
    dev: &mut dyn BlockDevice,
    par: &ParallelSpec,
    ctx: &mut IoContext,
) -> Result<RunResult> {
    let mut streams: Vec<_> = par.process_specs().into_iter().map(|s| s.iter()).collect();
    // Per-process: (ready virtual time, pending IO).
    let base = dev.now();
    let mut ready: Vec<Duration> = vec![base; streams.len()];
    let mut pending: Vec<Option<IoRequest>> = streams.iter_mut().map(|s| s.next()).collect();
    let mut device_free = base;
    let mut rts = Vec::new();
    // Pick the process whose next IO is submitted earliest (ready time
    // plus its timing-function delay — the same order the queued path
    // uses, so the two paths stay equivalent at depth 1).
    while let Some(p) = (0..streams.len())
        .filter(|&p| pending[p].is_some())
        .min_by_key(|&p| {
            pending[p]
                .as_ref()
                .map_or(Duration::MAX, |io| ready[p] + io.submit_delay)
        })
    {
        let Some(io) = pending[p].take() else { break };
        let submit = ready[p] + io.submit_delay;
        // If the device sat idle between IOs, let background work run.
        if submit > device_free {
            dev.idle(submit - device_free);
            device_free = submit;
        }
        let service = ctx.issue(dev, &io)?;
        let completion = device_free.max(submit) + service;
        rts.push(completion - submit);
        device_free = completion;
        ready[p] = completion;
        pending[p] = streams[p].next();
    }
    ctx.count_timeouts(&rts);
    Ok(RunResult::new(par.name(), rts, 0, device_free - base))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uflip_device::MemDevice;
    use uflip_patterns::{LbaFn, Mode, TimingFn};

    const KB: u64 = 1024;
    const MB: u64 = 1024 * 1024;

    fn dev() -> MemDevice {
        MemDevice::new(64 * MB, Duration::from_micros(100), 0)
    }

    #[test]
    fn basic_run_records_every_io() {
        let mut d = dev();
        let spec = PatternSpec::baseline_sr(32 * KB, MB, 50);
        let run = execute_run(&mut d, &spec).unwrap();
        assert_eq!(run.len(), 50);
        assert_eq!(d.reads(), 50);
        assert!(run.rts.iter().all(|&rt| rt == Duration::from_micros(100)));
    }

    #[test]
    fn pause_pattern_extends_elapsed_but_not_response_times() {
        let mut d = dev();
        let spec = PatternSpec::baseline_sw(32 * KB, MB, 10)
            .with_timing(TimingFn::Pause(Duration::from_millis(1)));
        let run = execute_run(&mut d, &spec).unwrap();
        assert!(run.rts.iter().all(|&rt| rt == Duration::from_micros(100)));
        // 10 IOs of 100 µs + 9 pauses of 1 ms.
        assert_eq!(run.elapsed, Duration::from_micros(10 * 100 + 9000));
    }

    #[test]
    fn mixed_run_tags_sub_patterns() {
        let mut d = dev();
        let a = PatternSpec::baseline_sr(32 * KB, MB, 1);
        let b = PatternSpec::baseline_rw(32 * KB, MB, 1).with_target(2 * MB, MB);
        let mix = MixSpec::new(a, b, 3, 12);
        let (run, procs) = execute_mixed(&mut d, &mix).unwrap();
        assert_eq!(run.len(), 12);
        assert_eq!(
            procs.iter().filter(|&&p| p == 1).count(),
            3,
            "one write per 3 reads"
        );
        assert_eq!(d.writes(), 3);
        assert_eq!(d.reads(), 9);
    }

    #[test]
    fn parallel_on_serial_device_adds_queueing_delay() {
        let mut d = dev();
        let base = PatternSpec::baseline(LbaFn::Sequential, Mode::Write, 32 * KB, 4 * MB, 16);
        let par = ParallelSpec::new(base, 4);
        let run = execute_parallel(&mut d, &par).unwrap();
        assert_eq!(run.len(), 16);
        // With 4 processes contending for a serial device, most IOs wait
        // for up to 3 others: mean response ≥ service time.
        let mean = run.summary_all().unwrap().mean;
        assert!(
            mean >= Duration::from_micros(100),
            "queueing cannot make IOs faster: {mean:?}"
        );
        let max = run.summary_all().unwrap().max;
        assert!(
            max >= Duration::from_micros(300),
            "some IO must queue behind ~3 others: {max:?}"
        );
    }

    #[test]
    fn parallel_degree_one_matches_basic_run() {
        let mut d1 = dev();
        let mut d2 = dev();
        let base = PatternSpec::baseline(LbaFn::Sequential, Mode::Write, 32 * KB, 4 * MB, 8);
        let par = ParallelSpec::new(base, 1);
        let run_par = execute_parallel(&mut d1, &par).unwrap();
        let run_basic = execute_run(&mut d2, &par.process_specs()[0]).unwrap();
        assert_eq!(run_par.len(), run_basic.len());
        assert_eq!(
            run_par.summary_all().unwrap().mean,
            run_basic.summary_all().unwrap().mean
        );
    }

    #[test]
    fn parallel_total_work_is_conserved() {
        let mut d = dev();
        let base = PatternSpec::baseline(LbaFn::Sequential, Mode::Write, 32 * KB, 4 * MB, 32);
        let par = ParallelSpec::new(base, 4);
        execute_parallel(&mut d, &par).unwrap();
        assert_eq!(d.writes(), 32, "every process IO reaches the device");
    }
}
