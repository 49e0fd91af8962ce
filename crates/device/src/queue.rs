//! The submission/completion queue interface ([`IoQueue`]).
//!
//! uFLIP's parallelism micro-benchmark (§3.2, Hint 7) asks how devices
//! behave when multiple IOs are outstanding at once. The synchronous
//! [`crate::BlockDevice`] interface cannot express that: each
//! `read`/`write` call completes before the next begins, so any overlap
//! across the flash channels of the backing
//! [`uflip_nand::NandArray`] has to be *simulated* by the caller. This
//! module introduces the NCQ-style asynchronous interface that makes
//! overlap *emergent* instead:
//!
//! * [`IoQueue::submit`] hands the device an [`IoRequest`] together
//!   with its virtual submission time and returns a [`Token`];
//! * [`IoQueue::poll`] retires the earliest-completing in-flight IO,
//!   returning its token and absolute completion time;
//! * the configurable queue depth bounds how many IOs the device will
//!   hold concurrently — submissions beyond it fail with
//!   [`crate::DeviceError::QueueFull`] until a completion is polled.
//!
//! ## Virtual time vs wall clock
//!
//! Simulated devices have no wall clock; *the submitter owns virtual
//! time*. `submit` therefore takes the submission instant explicitly
//! (`at`), and submissions should be non-decreasing in `at` — the
//! executor in `uflip-core` drives every producing process through a
//! single virtual-time event loop, so this holds by construction.
//! Completion times returned by `poll` are on the same clock.
//!
//! Real-device queues ([`crate::ThreadedIoQueue`]) put the same
//! interface on a wall clock, where *the device owns time* and three
//! relaxations apply (callers in `uflip_core` tolerate all three):
//!
//! * `at` is an *earliest start*, clamped to "now" when already past,
//!   and need **not** be non-decreasing across submissions — a
//!   completion observed "in the past" relative to the event loop may
//!   release a process whose next IO predates a future-dated one;
//! * `next_completion` reports only completions that have *already
//!   happened*: `None` with IOs in flight means "nothing observed
//!   yet", not "queue empty" — keep submitting;
//! * `poll` may **block** until a completion arrives (there is no
//!   virtual clock to advance past an in-flight IO); it still returns
//!   `None` only when nothing is in flight.
//!
//! ## What overlaps and what does not
//!
//! An implementation schedules each IO onto the busy tracks of the
//! channels its flash operations actually touched (see
//! [`uflip_ftl::Ftl::channel_busy_ns`]): IOs on disjoint channels
//! overlap, IOs contending for a channel serialize, and a queue depth
//! of 1 degenerates to the synchronous path exactly. FTL *state*
//! transitions (mapping updates, garbage collection) still happen in
//! submission order — what the queue reorders and overlaps is timing,
//! which is precisely what the black-box benchmark measures.
//!
//! ## Observability
//!
//! Queue implementations emit submission/completion/rejection counters
//! and per-channel busy intervals into an attached `uflip_obs` sink
//! (see `BlockDevice::set_sink`). The contract is the same as
//! everywhere in the stack: with the null handle the cost is one null
//! check per event site — no atomics, no allocation — and every
//! completion time is bit-identical to an uninstrumented run. A sink
//! can observe a queue; it can never steer it.

use crate::Result;
use std::time::Duration;
use uflip_patterns::IoRequest;

/// Handle to one in-flight IO, returned by [`IoQueue::submit`] and
/// redeemed by [`IoQueue::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(u64);

impl Token {
    /// Construct from a raw sequence number (implementation helper).
    pub fn from_raw(raw: u64) -> Self {
        Token(raw)
    }

    /// The raw sequence number: tokens issued by one queue count up
    /// from 0 in submission order.
    pub fn raw(&self) -> u64 {
        self.0
    }
}

/// An NCQ-style submission/completion queue over a block device.
///
/// Obtained from [`crate::BlockDevice::io_queue`]; devices that cannot
/// serve queued IOs (real synchronous backends, trivial test devices)
/// simply return `None` there and callers fall back to synchronous
/// interleaving.
pub trait IoQueue {
    /// Maximum number of in-flight IOs the device accepts.
    fn queue_depth(&self) -> u32;

    /// Reconfigure the queue depth (clamped to ≥ 1). Only legal while
    /// no IOs are in flight: implementations return
    /// [`crate::DeviceError::DepthChangeInFlight`] otherwise, leaving
    /// the depth — and the in-flight IOs — untouched.
    fn set_queue_depth(&mut self, depth: u32) -> Result<()>;

    /// Number of IOs currently in flight.
    fn in_flight(&self) -> usize;

    /// Submit an IO at virtual time `at` (which must be ≥ every
    /// earlier submission's `at`). Returns the IO's token, or
    /// [`crate::DeviceError::QueueFull`] when `in_flight()` has reached
    /// the queue depth — poll a completion and retry.
    fn submit(&mut self, io: &IoRequest, at: Duration) -> Result<Token>;

    /// Completion time of the earliest-completing in-flight IO, if any
    /// — lets a scheduler decide whether to submit more work or retire
    /// completions without popping. Wall-clock queues answer only for
    /// IOs that have already finished (see the module docs).
    fn next_completion(&self) -> Option<Duration>;

    /// Retire the earliest-completing in-flight IO, returning its
    /// token and absolute completion time. `None` when nothing is in
    /// flight. Wall-clock queues block here until a completion
    /// arrives (see the module docs).
    fn poll(&mut self) -> Option<(Token, Duration)>;

    /// Batch submit: hand the device `ios` in order, all at time `at`,
    /// pushing one token per accepted IO onto `tokens`. Stops — without
    /// error — at the first [`crate::DeviceError::QueueFull`] and
    /// returns how many IOs were accepted; the caller retires a
    /// completion and re-submits the remainder. Any other error aborts
    /// the batch after the accepted prefix.
    ///
    /// One virtual dispatch covers the whole wave: the default body
    /// calls `self.submit` statically on the implementing type, so
    /// event loops driving `&mut dyn IoQueue` pay the indirection once
    /// per wave instead of once per IO.
    fn submit_batch(
        &mut self,
        ios: &[IoRequest],
        at: Duration,
        tokens: &mut Vec<Token>,
    ) -> Result<usize> {
        let depth = self.queue_depth() as usize;
        for (accepted, io) in ios.iter().enumerate() {
            // A full queue is the steady state under back-pressure;
            // stop before `submit` so the hot path never builds (and
            // drops) a QueueFull error per IO.
            if self.in_flight() >= depth {
                return Ok(accepted);
            }
            match self.submit(io, at) {
                Ok(t) => tokens.push(t),
                Err(crate::DeviceError::QueueFull { .. }) => return Ok(accepted),
                Err(e) => return Err(e),
            }
        }
        Ok(ios.len())
    }

    /// Batch retire: pop every in-flight completion at or before
    /// `upto`, appending `(token, completion)` pairs in completion
    /// order, and return how many were retired. Wall-clock queues
    /// retire only completions that have already landed (their
    /// `next_completion` never reports future ones), so this never
    /// blocks.
    fn poll_upto(&mut self, upto: Duration, out: &mut Vec<(Token, Duration)>) -> usize {
        let mut n = 0;
        while let Some(done) = self.next_completion() {
            if done > upto {
                break;
            }
            // `next_completion` peeked a landed completion, so `poll`
            // returns it; if an implementation disagrees, stop rather
            // than panic.
            let Some((token, completion)) = self.poll() else {
                break;
            };
            out.push((token, completion));
            n += 1;
        }
        n
    }
}

/// Per-channel busy tracks: the scheduling core shared by queue
/// implementations.
///
/// Each channel has an absolute "free at" time. An IO that occupies a
/// set of channels starts at the latest of its submission time and the
/// free times of those channels, then pushes each occupied channel's
/// free time forward by the busy time it spent there. Elapsed device
/// time, queueing delay, and the collapse of stride-aligned patterns
/// onto a single channel all fall out of this bookkeeping.
#[derive(Debug, Clone)]
pub struct ChannelTracks {
    free_ns: Vec<u64>,
}

impl ChannelTracks {
    /// Tracks for `channels` channels (≥ 1), all free at time 0.
    pub fn new(channels: u32) -> Self {
        ChannelTracks {
            free_ns: vec![0; channels.max(1) as usize],
        }
    }

    /// Number of tracks.
    pub fn channels(&self) -> usize {
        self.free_ns.len()
    }

    /// Earliest start time for an IO submitted at `submit_ns` that
    /// occupies every channel where `busy_ns` is nonzero. An IO that
    /// occupies no channel (e.g. absorbed by a RAM write cache) starts
    /// at its submission time.
    pub fn start_ns(&self, submit_ns: u64, busy_ns: &[u64]) -> u64 {
        let mut start = submit_ns;
        for (ch, &busy) in busy_ns.iter().enumerate() {
            if busy > 0 {
                start = start.max(self.free_ns[ch]);
            }
        }
        start
    }

    /// Occupy channels from `start_ns`: each channel where `busy_ns` is
    /// nonzero becomes free at `start_ns + busy`.
    pub fn occupy(&mut self, start_ns: u64, busy_ns: &[u64]) {
        for (ch, &busy) in busy_ns.iter().enumerate() {
            if busy > 0 {
                self.free_ns[ch] = self.free_ns[ch].max(start_ns + busy);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_order_by_submission() {
        assert!(Token::from_raw(0) < Token::from_raw(1));
        assert_eq!(Token::from_raw(7).raw(), 7);
    }

    #[test]
    fn disjoint_channels_overlap() {
        let mut t = ChannelTracks::new(2);
        let a = [100, 0];
        let b = [0, 100];
        let s0 = t.start_ns(0, &a);
        t.occupy(s0, &a);
        let s1 = t.start_ns(0, &b);
        t.occupy(s1, &b);
        assert_eq!((s0, s1), (0, 0), "disjoint channels start together");
        assert_eq!(t.free_ns, [100, 100]);
    }

    #[test]
    fn shared_channel_serializes() {
        let mut t = ChannelTracks::new(2);
        let a = [100, 0];
        let s0 = t.start_ns(0, &a);
        t.occupy(s0, &a);
        let s1 = t.start_ns(10, &a);
        t.occupy(s1, &a);
        assert_eq!(s1, 100, "same channel waits for the first IO");
        assert_eq!(t.free_ns, [200, 0]);
    }

    #[test]
    fn channel_free_ios_start_at_submission() {
        let t = ChannelTracks::new(2);
        assert_eq!(t.start_ns(42, &[0, 0]), 42);
    }

    #[test]
    fn zero_channels_clamps_to_one() {
        let t = ChannelTracks::new(0);
        assert_eq!(t.channels(), 1);
    }
}
