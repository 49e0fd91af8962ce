//! Trace replay: drive a device with a captured (or generated)
//! [`Trace`] through the submit/poll executor.
//!
//! Two modes answer two different questions:
//!
//! * [`ReplayMode::TimingFaithful`] — *"what would this device have
//!   done under exactly this workload?"* Submissions honor the trace's
//!   recorded inter-arrival gaps (mapped onto the device's clock), and
//!   the queue depth is the deepest one the capture observed. Replaying
//!   a capture on an identical device reproduces the capture — the
//!   round-trip check that validates both the recorder and the engine.
//! * [`ReplayMode::OpenLoop`] — *"how fast could this device drain
//!   this workload?"* Timestamps are ignored; IOs are submitted as fast
//!   as NCQ admission allows at a chosen queue depth. Sweeping the
//!   depth turns any trace into a parallelism micro-benchmark: the
//!   paper's question (Hint 7) asked of a *real* request stream instead
//!   of a synthetic pattern.
//!
//! Two loops serve both modes: a queued one through the device's
//! [`IoQueue`] when it has one (depth 1 reproduces the synchronous path
//! bit-for-bit, as `tests/queue_engine.rs` checks) and a serial one
//! over synchronous issue otherwise, so every backend — mem, sim,
//! direct — can serve a replay. Like the pattern executors, each loop
//! runs under an [`IoPolicy`] and a [`uflip_obs::SinkHandle`] taken as
//! values ([`replay_trace`] passes the noop policy and the null sink),
//! and calls the device directly: only a failed call reaches the
//! policy. The queued loop submits one record at a time, so an
//! open-loop replay of N records at depth D meets a full queue N − D
//! times, each counted as a queue-full rejection by an enabled sink.
//!
//! Real devices serve a replay through their wall-clock
//! [`uflip_device::ThreadedIoQueue`]: there `submit(at)` means
//! "start no earlier than `at`" (faithful mode's recorded gaps become
//! actual waiting), `next_completion` only reports completions that
//! have already landed, and `poll` blocks while IOs are in flight —
//! all of which this engine's event loop already tolerates (the
//! monotone `cursor` keeps intended-submission bookkeeping sound even
//! when completions arrive "late" relative to the schedule).
//!
//! The recorded response time of each IO is *completion − intended
//! submission*: queueing delay behind a backlogged device counts, just
//! as a host thread would measure it.

use crate::observe;
use crate::policy::{IoContext, IoPolicy, SubmitOutcome};
use crate::run::RunResult;
use crate::slab::TokenSlab;
use crate::Result;
use std::time::Duration;
use uflip_device::{BlockDevice, DeviceError, IoQueue, Token};
use uflip_obs::SinkHandle;
use uflip_trace::Trace;

/// How to schedule a trace's submissions (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayMode {
    /// Honor recorded inter-arrival gaps; queue depth = the capture's
    /// deepest observed queue.
    TimingFaithful,
    /// Ignore timestamps; submit as fast as admission allows at the
    /// given queue depth.
    OpenLoop {
        /// NCQ depth to request from the device for the run.
        queue_depth: u32,
    },
}

impl ReplayMode {
    /// Short code used in run labels (`faithful`, `open-qd8`).
    pub fn code(&self) -> String {
        match self {
            ReplayMode::TimingFaithful => "faithful".to_string(),
            ReplayMode::OpenLoop { queue_depth } => format!("open-qd{queue_depth}"),
        }
    }
}

/// Replay a trace against a device. Records must be in submission
/// order ([`Trace::is_time_ordered`]); sort first if unsure. Returns
/// the per-IO response-time trace of the replay (same shape every
/// executor produces), with `elapsed` spanning first submission to
/// last completion.
pub fn replay_trace(
    dev: &mut dyn BlockDevice,
    trace: &Trace,
    mode: ReplayMode,
) -> Result<RunResult> {
    replay_trace_with_policy(dev, trace, mode, &IoPolicy::none(), &SinkHandle::null())
}

/// [`replay_trace`] under an [`IoPolicy`], observed by `sink`:
/// transient faults met during an IO are retried with backoff,
/// timeouts and exhaustions are counted, and a degrading policy lets
/// the replay survive unservable IOs. An enabled sink is attached to
/// the device, records each IO's response time under the latency class
/// of its *recorded op* (reads and writes land in separate histograms,
/// unlike the single-class pattern executors), and receives the
/// replay's counter delta as a [`uflip_obs::WorkloadMetrics`] record.
///
/// The queued loop submits one record at a time: each submission is a
/// fault-injection point and needs its own retry handling.
pub fn replay_trace_with_policy(
    dev: &mut dyn BlockDevice,
    trace: &Trace,
    mode: ReplayMode,
    io_policy: &IoPolicy,
    sink: &SinkHandle,
) -> Result<RunResult> {
    let label = format!("replay({},{})", trace.label, mode.code());
    if trace.is_empty() {
        return Ok(RunResult::new(label, Vec::new(), 0, Duration::ZERO));
    }
    assert!(
        trace.is_time_ordered(),
        "replay requires submit-ordered records; call Trace::sort_by_submit first"
    );
    let before = observe::attach(dev, sink);
    let mut ctx = IoContext::new(io_policy, sink);
    let faithful = mode == ReplayMode::TimingFaithful;
    let run = if dev.io_queue().is_some() {
        let depth = match mode {
            ReplayMode::TimingFaithful => trace.max_queue_depth(),
            ReplayMode::OpenLoop { queue_depth } => queue_depth,
        };
        replay_queued(dev, trace, label, depth.max(1), faithful, &mut ctx)
    } else {
        replay_serial(dev, trace, label, faithful, &mut ctx)
    }?;
    if let Some(before) = before {
        for (rec, rt) in trace.records.iter().zip(&run.rts) {
            sink.latency(observe::class_of(rec.op), rt.as_nanos() as u64);
        }
        observe::emit_workload_delta(sink, &run.label, &before);
    }
    Ok(run)
}

/// Queued replay: one per-record event loop serves both modes. In
/// faithful mode each IO targets its recorded offset from the start of
/// the replay; in open-loop mode it targets the running cursor, the
/// earliest instant admission permits. Submissions stay non-decreasing
/// in virtual time — the queue contract — because record order,
/// completion times and the cursor are all monotone. Per-IO state
/// lives in a [`TokenSlab`] (O(1) retire; the linear in-flight scan it
/// replaced made deep queues quadratic).
///
/// Every record is submitted before the loop checks for room: a full
/// queue answers with a rejection, and the loop retires one completion
/// and submits again. Decorators that act per submission (a
/// [`uflip_device::FaultyDevice`] draws a fault decision on each) thus
/// see the same call sequence whatever the policy.
fn replay_queued(
    dev: &mut dyn BlockDevice,
    trace: &Trace,
    label: String,
    depth: u32,
    faithful: bool,
    ctx: &mut IoContext,
) -> Result<RunResult> {
    let base = dev.now();
    let queue = dev
        .io_queue()
        .ok_or(DeviceError::Internal("device lost its queue mid-replay"))?;
    let device_depth = queue.queue_depth();
    queue.set_queue_depth(depth)?;
    let t0 = trace.records[0].submit_ns;
    let n = trace.records.len();
    let mut rts = vec![Duration::ZERO; n];
    // (record index, intended submission time) per in-flight IO.
    let mut inflight: TokenSlab<(usize, Duration)> = TokenSlab::new();
    let mut retired: Vec<(Token, Duration)> = Vec::with_capacity(depth as usize + 1);
    let mut last_completion = base;
    // Earliest time the next submission may carry (keeps `at`
    // monotone once back-pressure pushes past the recorded schedule).
    let mut cursor = base;
    for (i, rec) in trace.records.iter().enumerate() {
        let target = if faithful {
            base + Duration::from_nanos(rec.submit_ns - t0)
        } else {
            cursor
        };
        if faithful {
            // Retire completions that precede this submission; they
            // also keep idle-gap accounting exact.
            queue.poll_upto(target, &mut retired);
            for &(token, completion) in &retired {
                book(&mut inflight, &mut rts, token, completion);
                last_completion = last_completion.max(completion);
            }
            retired.clear();
        }
        let io = rec.io_request(i as u64);
        let mut at = target.max(cursor);
        loop {
            match ctx.submit(queue, &io, at) {
                Ok(SubmitOutcome::Submitted(token)) => {
                    inflight.insert(token, (i, target));
                    cursor = at;
                    break;
                }
                Ok(SubmitOutcome::Full) => {
                    // Back-pressure: retire one completion; the
                    // submission may not precede it.
                    let (token, completion) = queue
                        .poll()
                        .ok_or(DeviceError::Internal("full queue with nothing to poll"))?;
                    book(&mut inflight, &mut rts, token, completion);
                    last_completion = last_completion.max(completion);
                    at = at.max(completion);
                }
                Ok(SubmitOutcome::Degraded(waited)) => {
                    // The IO never reached the device; its response
                    // time is the backoff spent on it.
                    rts[i] = waited;
                    cursor = at;
                    last_completion = last_completion.max(at + waited);
                    break;
                }
                Err(e) => return Err(abandon(queue, device_depth, e)),
            }
        }
    }
    while let Some((token, completion)) = queue.poll() {
        book(&mut inflight, &mut rts, token, completion);
        last_completion = last_completion.max(completion);
    }
    ctx.count_timeouts(&rts);
    if queue.queue_depth() != device_depth {
        queue.set_queue_depth(device_depth)?;
    }
    Ok(RunResult::new(label, rts, 0, last_completion - base))
}

/// Leave the device usable after a failed submission: drain what is in
/// flight and restore its own depth, then hand back `err` (e.g. a trace
/// captured on a larger device replayed past this one's capacity).
fn abandon(queue: &mut dyn IoQueue, device_depth: u32, err: DeviceError) -> DeviceError {
    while queue.poll().is_some() {}
    if queue.queue_depth() != device_depth {
        // uflip-lint: allow(UF030, reason = "error path: the primary error outranks a failed depth restore")
        let _ = queue.set_queue_depth(device_depth);
    }
    err
}

/// Book a queued completion: response time = completion − intended
/// submission.
fn book(
    inflight: &mut TokenSlab<(usize, Duration)>,
    rts: &mut [Duration],
    token: Token,
    completion: Duration,
) {
    let (seq, intended) = inflight.remove(token);
    rts[seq] = completion - intended;
}

/// Replay on a synchronous backend, one IO at a time: faithful mode
/// idles out the recorded gaps first, open-loop mode issues back to
/// back.
fn replay_serial(
    dev: &mut dyn BlockDevice,
    trace: &Trace,
    label: String,
    faithful: bool,
    ctx: &mut IoContext,
) -> Result<RunResult> {
    let base = dev.now();
    let t0 = trace.records[0].submit_ns;
    let mut rts = Vec::with_capacity(trace.len());
    for (i, rec) in trace.records.iter().enumerate() {
        let io = rec.io_request(i as u64);
        if faithful {
            let target = base + Duration::from_nanos(rec.submit_ns - t0);
            let now = dev.now();
            if now < target {
                dev.idle(target - now);
            }
            ctx.issue(dev, &io)?;
            // Completion − intended submission: includes time the
            // device spent behind schedule, as a host thread would
            // measure.
            rts.push(dev.now() - target);
        } else {
            rts.push(ctx.issue(dev, &io)?);
        }
    }
    ctx.count_timeouts(&rts);
    Ok(RunResult::new(label, rts, 0, dev.now() - base))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uflip_patterns::Mode;
    use uflip_trace::TraceRecord;

    const MB: u64 = 1024 * 1024;

    fn rec(op: Mode, lba: u64, submit: u64) -> TraceRecord {
        TraceRecord {
            op,
            lba,
            sectors: 4, // 2 KB
            submit_ns: submit,
            complete_ns: submit,
            queue_depth: 1,
        }
    }

    fn mem() -> uflip_device::MemDevice {
        uflip_device::MemDevice::new(64 * MB, Duration::from_micros(100), 0)
    }

    #[test]
    fn empty_trace_is_a_no_op() {
        let mut d = mem();
        let t = Trace::new("mem", "empty");
        for mode in [
            ReplayMode::TimingFaithful,
            ReplayMode::OpenLoop { queue_depth: 4 },
        ] {
            let run = replay_trace(&mut d, &t, mode).unwrap();
            assert!(run.is_empty());
            assert_eq!(run.elapsed, Duration::ZERO);
        }
    }

    #[test]
    fn faithful_serial_honors_gaps() {
        let mut d = mem();
        let mut t = Trace::new("mem", "gaps");
        // Three IOs, 1 ms apart — far wider than the 100 µs service.
        for i in 0..3u64 {
            t.push(rec(Mode::Read, i * 8, i * 1_000_000));
        }
        let run = replay_trace(&mut d, &t, ReplayMode::TimingFaithful).unwrap();
        assert_eq!(run.len(), 3);
        // Elapsed = last gap + last service.
        assert_eq!(run.elapsed, Duration::from_micros(2_000 + 100));
        assert!(run.rts.iter().all(|&rt| rt == Duration::from_micros(100)));
    }

    #[test]
    fn faithful_serial_charges_backlog_to_response_time() {
        let mut d = mem();
        let mut t = Trace::new("mem", "burst");
        // Two IOs submitted simultaneously on a 100 µs serial device:
        // the second waits behind the first.
        t.push(rec(Mode::Read, 0, 0));
        t.push(rec(Mode::Read, 8, 0));
        let run = replay_trace(&mut d, &t, ReplayMode::TimingFaithful).unwrap();
        assert_eq!(run.rts[0], Duration::from_micros(100));
        assert_eq!(
            run.rts[1],
            Duration::from_micros(200),
            "queued behind the first"
        );
        assert_eq!(run.elapsed, Duration::from_micros(200));
    }

    #[test]
    fn open_loop_serial_ignores_gaps() {
        let mut d = mem();
        let mut t = Trace::new("mem", "gaps");
        for i in 0..4u64 {
            t.push(rec(Mode::Write, i * 8, i * 10_000_000));
        }
        let run = replay_trace(&mut d, &t, ReplayMode::OpenLoop { queue_depth: 1 }).unwrap();
        assert_eq!(
            run.elapsed,
            Duration::from_micros(400),
            "gaps are not replayed"
        );
    }

    #[test]
    fn unordered_traces_are_rejected() {
        let mut d = mem();
        let mut t = Trace::new("mem", "bad");
        t.push(rec(Mode::Read, 0, 500));
        t.push(rec(Mode::Read, 8, 0));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = replay_trace(&mut d, &t, ReplayMode::TimingFaithful);
        }));
        assert!(r.is_err(), "out-of-order records must be rejected loudly");
    }

    #[test]
    fn mode_codes_label_runs() {
        assert_eq!(ReplayMode::TimingFaithful.code(), "faithful");
        assert_eq!(ReplayMode::OpenLoop { queue_depth: 16 }.code(), "open-qd16");
        let mut d = mem();
        let mut t = Trace::new("mem", "RR");
        t.push(rec(Mode::Read, 0, 0));
        let run = replay_trace(&mut d, &t, ReplayMode::OpenLoop { queue_depth: 2 }).unwrap();
        assert_eq!(run.label, "replay(RR,open-qd2)");
    }
}
