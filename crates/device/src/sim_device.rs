//! Simulated flash device: controller model over an FTL, virtual
//! clock, and a queue-depth-aware submission engine.
//!
//! [`SimDevice`] serves IOs through two interfaces:
//!
//! * the synchronous [`BlockDevice`] path — one IO at a time; each
//!   `read`/`write` returns its response time and advances the virtual
//!   clock. Here any *queueing* delay a workload would see is the
//!   caller's to simulate, because the device never holds more than
//!   one IO.
//! * the asynchronous [`IoQueue`] path (`submit`/`poll`) — the device
//!   holds up to `queue_depth` in-flight IOs and schedules each one
//!   onto the busy tracks of the flash channels it actually touched
//!   (via [`uflip_ftl::Ftl::channel_busy_ns`] deltas). Channel overlap
//!   — large striped IOs running fast, stride-aligned patterns
//!   collapsing onto one channel, deeper queues raising aggregate
//!   throughput — is **emergent** from this bookkeeping, not scripted.
//!   At queue depth 1 the engine reproduces the synchronous path's
//!   response times bit-for-bit (same FTL call sequence, same idle
//!   gaps, same controller composition), which is what keeps the
//!   paper-faithful serial results unchanged by default.
//!
//! FTL state transitions still occur in submission order in both
//! paths; the queue overlaps *timing attribution* only — exactly the
//! quantity the black-box benchmark measures.

use crate::block_device::BlockDevice;
use crate::queue::{ChannelTracks, IoQueue, Token};
use crate::Result;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;
use uflip_ftl::Ftl;
use uflip_obs::{CounterId, SinkHandle};
use uflip_patterns::{IoRequest, Mode};

/// Controller and interconnect model.
///
/// Hint 1 of the paper: "Flash devices do incur latency. Despite the
/// absence of mechanical parts, the software layers incur some overhead
/// per IO operation." That overhead is `per_io_overhead_ns`; the
/// interconnect (USB / IDE / SATA) contributes `len ÷ transfer_mb_s`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Fixed command-processing overhead per IO, nanoseconds.
    pub per_io_overhead_ns: u64,
    /// Interconnect throughput in MB/s (USB 2.0 ≈ 30, IDE ≈ 60,
    /// SATA ≈ 150+).
    pub transfer_mb_s: u64,
    /// Whether the controller pipelines the interconnect transfer with
    /// flash work (high-end SSDs: response ≈ overhead + max(transfer,
    /// flash)); low-end devices serialize them (overhead + transfer +
    /// flash).
    pub pipelined_transfer: bool,
}

impl ControllerConfig {
    /// SATA SSD-class controller.
    pub const fn sata_ssd() -> Self {
        ControllerConfig {
            per_io_overhead_ns: 60_000,
            transfer_mb_s: 150,
            pipelined_transfer: true,
        }
    }

    /// IDE flash-module-class controller.
    pub const fn ide() -> Self {
        ControllerConfig {
            per_io_overhead_ns: 100_000,
            transfer_mb_s: 40,
            pipelined_transfer: false,
        }
    }

    /// Identity controller for fitted profiles: the measured latency
    /// curves already include command overhead and interconnect
    /// transfer, so the controller must add nothing on top.
    pub const fn passthrough() -> Self {
        ControllerConfig {
            per_io_overhead_ns: 0,
            transfer_mb_s: 0,
            pipelined_transfer: true,
        }
    }

    /// Transfer time for `len` bytes.
    pub fn transfer_ns(&self, len: u64) -> u64 {
        if self.transfer_mb_s == 0 {
            return 0;
        }
        len * 1_000 / self.transfer_mb_s // bytes * ns/MB→ actually bytes*1000/MBps = ns
    }
}

/// Black-box calibration quirk: several SSDs serve *strided* write
/// patterns (the Order micro-benchmark's large `Incr`) worse than
/// random ones — Table 3's "Large Incr" column reports ×2 (Mtron,
/// Samsung, Transcend module) to ×4 (Memoright) *the random-write
/// cost*. The paper treats devices as black boxes and reports the
/// behaviour without a mechanism; we model it as the controller's
/// LBA-hashing degrading under constant power-of-two strides (a known
/// failure mode of die-assignment hashing) and calibrate the factor per
/// profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StrideQuirk {
    /// Minimum byte gap between consecutive writes to count as strided.
    pub min_stride: u64,
    /// Consecutive equal-gap writes before the penalty engages.
    pub trigger_after: u32,
    /// Multiplier applied to the flash-side time of strided writes.
    pub factor: f64,
}

/// The mutable state of a [`SimDevice`] minus the FTL: virtual clock,
/// stride-quirk detector and queue engine. One `#[derive(Clone)]`
/// struct on purpose — `Clone for SimDevice`, [`SimSnapshot`],
/// [`SimDevice::snapshot`] and [`SimDevice::restore`] all copy it as a
/// unit, so a future field cannot be cloned in one place and silently
/// forgotten in another (the bit-identical restore guarantee depends
/// on completeness).
#[derive(Debug, Clone)]
struct SimState {
    clock_ns: u64,
    /// SplitMix64 state for the per-IO service-time jitter. `None`
    /// until [`SimDevice::with_seed`] — devices built without a seed
    /// (unit-test fixtures asserting exact schedules) draw no jitter.
    /// Part of `SimState` so snapshots and clones replay the identical
    /// jitter stream.
    rng: Option<u64>,
    last_write_offset: Option<u64>,
    last_gap: Option<i128>,
    equal_gap_run: u32,
    // --- queue engine state ---
    queue_depth: u32,
    tracks: ChannelTracks,
    /// Min-heap of (completion ns, token) for in-flight IOs.
    inflight: BinaryHeap<Reverse<(u64, u64)>>,
    next_token: u64,
    /// Latest scheduled completion — the reference point for detecting
    /// idle gaps between queue submissions (background reclamation).
    queue_busy_end_ns: u64,
    /// Completion times of IOs occupying the device's service slots.
    /// A new IO is admitted only once a slot is free: at queue depth
    /// *d*, service of the (d+1)-th outstanding IO cannot begin before
    /// the earliest in-service IO completes. This is what makes depth 1
    /// reproduce the synchronous path exactly.
    slots: BinaryHeap<Reverse<u64>>,
}

/// A simulated flash device: FTL + controller + virtual clock + NCQ
/// submission queue.
pub struct SimDevice {
    name: String,
    ftl: Box<dyn Ftl + Send>,
    controller: ControllerConfig,
    stride_quirk: Option<StrideQuirk>,
    state: SimState,
    /// Observability sink; never affects timing. Kept outside
    /// [`SimState`] — snapshots capture device behaviour, not who is
    /// watching it.
    sink: SinkHandle,
    /// Cached `sink.is_enabled()` so the no-op path costs one bool test.
    sink_enabled: bool,
    /// Scratch buffers for per-channel busy accounting (hot path:
    /// reused across queued IOs so submission never allocates). Not
    /// semantic state: filled and consumed within one queued IO.
    busy_before: Vec<u64>,
    busy_after: Vec<u64>,
    busy_delta: Vec<u64>,
}

/// A complete deep copy of a [`SimDevice`]'s state: the FTL (mapping
/// tables, free pools, log blocks, write cache and the NAND array's
/// page states, wear and statistics), the virtual clock, the stride-
/// quirk detector and the queue engine (channel tracks, in-flight
/// heap, service slots, token counter).
///
/// Captured by [`SimDevice::snapshot`] / `BlockDevice::snapshot_state`
/// and consumed by [`SimDevice::restore`] / `BlockDevice::
/// restore_state`. Restoring rewinds the device bit-for-bit to the
/// captured instant — including the clock — which is what makes plan
/// executions from a restored state exactly reproducible.
pub struct SimSnapshot {
    ftl: Box<dyn Ftl + Send>,
    state: SimState,
}

impl Clone for SimSnapshot {
    fn clone(&self) -> Self {
        SimSnapshot {
            ftl: self.ftl.clone_box(),
            state: self.state.clone(),
        }
    }
}

impl std::fmt::Debug for SimSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSnapshot")
            .field("clock_ns", &self.state.clock_ns)
            .finish_non_exhaustive()
    }
}

impl crate::snapshot::DeviceState for SimSnapshot {
    fn clone_state(&self) -> Box<dyn crate::snapshot::DeviceState> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl Clone for SimDevice {
    fn clone(&self) -> Self {
        SimDevice {
            name: self.name.clone(),
            ftl: self.ftl.clone_box(),
            controller: self.controller,
            stride_quirk: self.stride_quirk,
            state: self.state.clone(),
            sink: self.sink.clone(),
            sink_enabled: self.sink_enabled,
            // Scratch buffers carry no state, but a clone that starts
            // them empty pays three fresh channel-sized growths on its
            // first queued IO — measurable when forks run short
            // benchmark shards. Pre-size to the donor's working set.
            busy_before: Vec::with_capacity(self.busy_before.capacity()),
            busy_after: Vec::with_capacity(self.busy_after.capacity()),
            busy_delta: Vec::with_capacity(self.busy_delta.capacity()),
        }
    }
}

impl std::fmt::Debug for SimDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimDevice")
            .field("name", &self.name)
            .field("clock_ns", &self.state.clock_ns)
            .finish_non_exhaustive()
    }
}

impl SimDevice {
    /// Wrap an FTL in a controller model.
    pub fn new(
        name: impl Into<String>,
        ftl: Box<dyn Ftl + Send>,
        controller: ControllerConfig,
        stride_quirk: Option<StrideQuirk>,
    ) -> Self {
        let channels = ftl.channels();
        SimDevice {
            name: name.into(),
            ftl,
            controller,
            stride_quirk,
            state: SimState {
                clock_ns: 0,
                rng: None,
                last_write_offset: None,
                last_gap: None,
                equal_gap_run: 0,
                queue_depth: 1,
                tracks: ChannelTracks::new(channels),
                inflight: BinaryHeap::new(),
                next_token: 0,
                queue_busy_end_ns: 0,
                slots: BinaryHeap::new(),
            },
            sink: SinkHandle::null(),
            sink_enabled: false,
            busy_before: Vec::new(),
            busy_after: Vec::new(),
            busy_delta: Vec::new(),
        }
    }

    /// Set the NCQ queue depth at construction time. The default of 1
    /// keeps the queue path equivalent to the synchronous path.
    pub fn with_queue_depth(mut self, depth: u32) -> Self {
        self.state.queue_depth = depth.max(1);
        self
    }

    /// Seed the device's per-IO service-time jitter stream.
    ///
    /// Real controllers show sub-microsecond command-scheduling
    /// variation between otherwise identical commands; the simulator
    /// models it as a deterministic SplitMix64 stream adding up to
    /// `per_io_overhead_ns / 64` (≈ 1.5 % of the command overhead —
    /// floored at 64 ns so zero-overhead controllers, e.g. the
    /// passthrough one fitted profiles use, still honour the seed —
    /// far below every behaviour the paper measures) to each IO. Two
    /// devices built with the same seed produce bit-identical traces;
    /// different seeds diverge — which is what makes
    /// `DeviceProfile::build_sim(seed)` honour its seed argument.
    /// Devices never seeded draw no jitter at all.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.state.rng = Some(seed);
        self
    }

    /// Draw the next service-time jitter in nanoseconds (SplitMix64).
    fn draw_jitter(&mut self) -> u64 {
        let Some(rng) = self.state.rng.as_mut() else {
            return 0;
        };
        let range = (self.controller.per_io_overhead_ns / 64).max(64);
        *rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        z % (range + 1)
    }

    /// Access the underlying FTL (white-box statistics).
    pub fn ftl(&self) -> &dyn Ftl {
        self.ftl.as_ref()
    }

    /// Number of flash channels the queue engine schedules over.
    pub fn channels(&self) -> u32 {
        self.state.tracks.channels() as u32
    }

    fn compose(&self, flash_ns: u64, len: u64) -> u64 {
        let xfer = self.controller.transfer_ns(len);
        let ov = self.controller.per_io_overhead_ns;
        if self.controller.pipelined_transfer {
            ov + xfer.max(flash_ns)
        } else {
            ov + xfer + flash_ns
        }
    }

    /// Capture the device's complete state (see [`SimSnapshot`]).
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            ftl: self.ftl.clone_box(),
            state: self.state.clone(),
        }
    }

    /// Rewind the device to a previously captured [`SimSnapshot`] —
    /// FTL, NAND array, clock, quirk detector and queue engine. The
    /// snapshot is left intact and can be restored any number of
    /// times, on this device or on any [`Clone`] of it.
    pub fn restore(&mut self, snap: &SimSnapshot) {
        self.ftl = snap.ftl.clone_box();
        self.state = snap.state.clone();
        self.busy_delta.clear();
        // The restored FTL carries whatever sink was attached when the
        // snapshot was taken; re-attach this device's sink so counters
        // keep flowing to the current observer (obs counters are
        // monotonic — a restore never rewinds them).
        self.ftl.set_sink(self.sink.clone());
    }

    /// Snapshot the FTL's cumulative per-channel busy totals before a
    /// synchronous IO (enabled sinks only).
    fn sync_busy_before(&mut self) {
        let mut before = std::mem::take(&mut self.busy_before);
        self.ftl.channel_busy_ns(&mut before);
        self.busy_before = before;
    }

    /// Diff the busy totals after a synchronous IO and attribute the
    /// flash time to channels on the sink's utilization timeline. FTLs
    /// without channel attribution collapse to channel 0.
    fn sync_busy_emit(&mut self, start_ns: u64, flash_ns: u64) {
        let mut after = std::mem::take(&mut self.busy_after);
        self.ftl.channel_busy_ns(&mut after);
        if after.is_empty() {
            if flash_ns > 0 {
                self.sink.channel_busy(0, start_ns, flash_ns);
            }
        } else {
            for (ch, (a, b)) in after
                .iter()
                .zip(self.busy_before.iter().chain(std::iter::repeat(&0)))
                .enumerate()
            {
                let d = a.saturating_sub(*b);
                if d > 0 {
                    self.sink.channel_busy(ch, start_ns, d);
                }
            }
        }
        self.busy_after = after;
    }

    /// Update stride detection; returns the flash-time multiplier for
    /// this write.
    fn stride_factor(&mut self, offset: u64) -> f64 {
        let Some(q) = self.stride_quirk else {
            return 1.0;
        };
        let gap = match self.state.last_write_offset {
            Some(prev) => offset as i128 - prev as i128,
            None => 0,
        };
        self.state.last_write_offset = Some(offset);
        let strided = gap.unsigned_abs() as u64 >= q.min_stride;
        if strided && self.state.last_gap == Some(gap) {
            self.state.equal_gap_run = self.state.equal_gap_run.saturating_add(1);
        } else {
            self.state.equal_gap_run = 0;
        }
        self.state.last_gap = Some(gap);
        if strided && self.state.equal_gap_run >= q.trigger_after {
            q.factor
        } else {
            1.0
        }
    }
}

impl BlockDevice for SimDevice {
    fn name(&self) -> &str {
        &self.name
    }

    fn capacity_bytes(&self) -> u64 {
        self.ftl.capacity_bytes()
    }

    fn read(&mut self, offset: u64, len: u64) -> Result<Duration> {
        self.check(offset, len)?;
        let start_ns = self.state.clock_ns;
        if self.sink_enabled {
            self.sync_busy_before();
        }
        let flash = self.ftl.read(offset / 512, (len / 512) as u32)?;
        let rt = self.compose(flash, len) + self.draw_jitter();
        self.state.clock_ns += rt;
        self.state.queue_busy_end_ns = self.state.queue_busy_end_ns.max(self.state.clock_ns);
        if self.sink_enabled {
            self.sync_busy_emit(start_ns, flash);
        }
        Ok(Duration::from_nanos(rt))
    }

    fn write(&mut self, offset: u64, len: u64) -> Result<Duration> {
        self.check(offset, len)?;
        let start_ns = self.state.clock_ns;
        let factor = self.stride_factor(offset);
        if self.sink_enabled {
            self.sync_busy_before();
        }
        let flash = self.ftl.write(offset / 512, (len / 512) as u32)?;
        let flash = (flash as f64 * factor) as u64;
        let rt = self.compose(flash, len) + self.draw_jitter();
        self.state.clock_ns += rt;
        self.state.queue_busy_end_ns = self.state.queue_busy_end_ns.max(self.state.clock_ns);
        if self.sink_enabled {
            self.sync_busy_emit(start_ns, flash);
        }
        Ok(Duration::from_nanos(rt))
    }

    fn idle(&mut self, d: Duration) {
        let ns = d.as_nanos() as u64;
        self.ftl.on_idle(ns);
        self.state.clock_ns += ns;
        // Keep the queue engine's idle-gap reference in step so a later
        // queued submission does not re-credit this (already credited)
        // idle time to background reclamation.
        self.state.queue_busy_end_ns = self.state.queue_busy_end_ns.max(self.state.clock_ns);
    }

    fn now(&self) -> Duration {
        Duration::from_nanos(self.state.clock_ns)
    }

    fn io_queue(&mut self) -> Option<&mut dyn crate::queue::IoQueue> {
        Some(self)
    }

    fn io_queue_ref(&self) -> Option<&dyn crate::queue::IoQueue> {
        Some(self)
    }

    fn set_sink(&mut self, sink: uflip_obs::SinkHandle) {
        self.sink_enabled = sink.is_enabled();
        self.ftl.set_sink(sink.clone());
        self.sink = sink;
    }

    fn snapshot_capable(&self) -> bool {
        true
    }

    fn snapshot_state(&self) -> Option<Box<dyn crate::snapshot::DeviceState>> {
        Some(Box::new(self.snapshot()))
    }

    fn restore_state(&mut self, state: &dyn crate::snapshot::DeviceState) -> Result<()> {
        let snap = state.as_any().downcast_ref::<SimSnapshot>().ok_or(
            crate::DeviceError::SnapshotMismatch {
                device: "SimDevice",
            },
        )?;
        self.restore(snap);
        Ok(())
    }

    fn fork(&self) -> Option<Box<dyn BlockDevice + Send>> {
        Some(Box::new(self.clone()))
    }

    fn recover(&mut self) -> Result<uflip_ftl::RecoveryReport> {
        // Power loss tears the command queue: in-flight IOs never
        // complete and their service reservations vanish with them.
        self.state.inflight.clear();
        self.state.slots.clear();
        self.state.queue_busy_end_ns = self.state.queue_busy_end_ns.min(self.state.clock_ns);
        // Remount the FTL: volatile state is gone, durable mappings are
        // rebuilt from NAND ground truth.
        Ok(self.ftl.recover()?)
    }
}

impl SimDevice {
    /// Run the FTL work for a queued IO and attribute it to channels.
    ///
    /// Returns the (stride-scaled) scalar flash time used for the
    /// response-time composition, plus the per-channel busy deltas the
    /// scheduler occupies. FTLs without channel attribution collapse
    /// to a single serialized track.
    /// The busy deltas land in `self.busy_delta` (scratch, valid until
    /// the next queued IO); the scalar flash time is returned.
    fn queued_flash_op(&mut self, io: &IoRequest) -> Result<u64> {
        let lba = io.offset / 512;
        let sectors = (io.size / 512) as u32;
        let mut before = std::mem::take(&mut self.busy_before);
        self.ftl.channel_busy_ns(&mut before);
        let (flash, factor) = match io.mode {
            Mode::Read => (self.ftl.read(lba, sectors)?, 1.0),
            Mode::Write => {
                let factor = self.stride_factor(io.offset);
                (self.ftl.write(lba, sectors)?, factor)
            }
        };
        let mut after = std::mem::take(&mut self.busy_after);
        self.ftl.channel_busy_ns(&mut after);
        self.busy_delta.clear();
        if after.is_empty() {
            self.busy_delta.push(flash);
        } else {
            self.busy_delta.extend(
                after
                    .iter()
                    .zip(before.iter().chain(std::iter::repeat(&0)))
                    .map(|(a, b)| a.saturating_sub(*b)),
            );
        }
        self.busy_before = before;
        self.busy_after = after;
        // uflip-lint: allow(UF006, reason = "1.0 is the exact jitter-disabled sentinel; multiplying would perturb fingerprints")
        let flash = if factor == 1.0 {
            flash
        } else {
            (flash as f64 * factor) as u64
        };
        // uflip-lint: allow(UF006, reason = "1.0 is the exact jitter-disabled sentinel; multiplying would perturb fingerprints")
        if factor != 1.0 {
            for b in self.busy_delta.iter_mut() {
                *b = (*b as f64 * factor) as u64;
            }
        }
        Ok(flash)
    }
}

impl IoQueue for SimDevice {
    fn queue_depth(&self) -> u32 {
        self.state.queue_depth
    }

    fn set_queue_depth(&mut self, depth: u32) -> Result<()> {
        if !self.state.inflight.is_empty() {
            return Err(crate::DeviceError::DepthChangeInFlight {
                in_flight: self.state.inflight.len(),
            });
        }
        self.state.queue_depth = depth.max(1);
        Ok(())
    }

    fn in_flight(&self) -> usize {
        self.state.inflight.len()
    }

    fn submit(&mut self, io: &IoRequest, at: Duration) -> Result<Token> {
        if self.state.inflight.len() >= self.state.queue_depth as usize {
            if self.sink_enabled {
                self.sink.add(CounterId::QueueFullRejections, 1);
            }
            return Err(crate::DeviceError::QueueFull {
                depth: self.state.queue_depth,
            });
        }
        self.check(io.offset, io.size)?;
        let t_sub = at.as_nanos() as u64;
        // A fully drained queue sitting idle lets background
        // reclamation run, exactly as `idle` does on the sync path.
        if self.state.inflight.is_empty() && t_sub > self.state.queue_busy_end_ns {
            self.ftl.on_idle(t_sub - self.state.queue_busy_end_ns);
        }
        let flash = self.queued_flash_op(io)?;
        // NCQ admission: service begins once a queue slot is free.
        let mut admit = t_sub;
        while self.state.slots.len() >= self.state.queue_depth as usize {
            let Some(Reverse(freed)) = self.state.slots.pop() else {
                break;
            };
            admit = admit.max(freed);
        }
        let busy = std::mem::take(&mut self.busy_delta);
        let start = self.state.tracks.start_ns(admit, &busy);
        self.state.tracks.occupy(start, &busy);
        if self.sink_enabled {
            self.sink.add(CounterId::QueueSubmissions, 1);
            for (ch, &b) in busy.iter().enumerate() {
                if b > 0 {
                    self.sink.channel_busy(ch, start, b);
                }
            }
        }
        self.busy_delta = busy;
        let rt = self.compose(flash, io.size) + self.draw_jitter();
        let completion = start + rt;
        self.state.slots.push(Reverse(completion));
        self.state.queue_busy_end_ns = self.state.queue_busy_end_ns.max(completion);
        self.state.clock_ns = self.state.clock_ns.max(completion);
        let token = Token::from_raw(self.state.next_token);
        self.state.next_token += 1;
        self.state.inflight.push(Reverse((completion, token.raw())));
        Ok(token)
    }

    fn next_completion(&self) -> Option<Duration> {
        self.state
            .inflight
            .peek()
            .map(|Reverse((ns, _))| Duration::from_nanos(*ns))
    }

    fn poll(&mut self) -> Option<(Token, Duration)> {
        let done = self
            .state
            .inflight
            .pop()
            .map(|Reverse((ns, tok))| (Token::from_raw(tok), Duration::from_nanos(ns)));
        if done.is_some() && self.sink_enabled {
            self.sink.add(CounterId::QueueCompletions, 1);
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uflip_ftl::{PageMapConfig, PageMapFtl};

    fn dev(quirk: Option<StrideQuirk>) -> SimDevice {
        let ftl = PageMapFtl::new(PageMapConfig::tiny()).unwrap();
        SimDevice::new(
            "test-ssd",
            Box::new(ftl),
            ControllerConfig {
                per_io_overhead_ns: 1000,
                transfer_mb_s: 0,
                pipelined_transfer: true,
            },
            quirk,
        )
    }

    #[test]
    fn transfer_time_math() {
        let c = ControllerConfig {
            per_io_overhead_ns: 0,
            transfer_mb_s: 32,
            pipelined_transfer: false,
        };
        // 32 KB at 32 MB/s = 1 ms.
        assert_eq!(c.transfer_ns(32 * 1024), 1_024_000);
    }

    #[test]
    fn overhead_applies_to_every_io() {
        let mut d = dev(None);
        let rt = d.read(0, 512).unwrap();
        assert!(
            rt >= Duration::from_nanos(1000),
            "unmapped read still pays the overhead"
        );
    }

    #[test]
    fn clock_advances_with_io_and_idle() {
        let mut d = dev(None);
        let rt = d.write(0, 512).unwrap();
        d.idle(Duration::from_millis(2));
        assert_eq!(d.now(), rt + Duration::from_millis(2));
    }

    #[test]
    fn alignment_enforced() {
        let mut d = dev(None);
        assert!(d.write(100, 512).is_err());
        assert!(d.read(0, 0).is_err());
    }

    #[test]
    fn stride_quirk_engages_after_repeated_equal_gaps() {
        let q = StrideQuirk {
            min_stride: 4096,
            trigger_after: 2,
            factor: 10.0,
        };
        let mut with = dev(Some(q));
        let mut without = dev(None);
        // Four writes with a constant 8 KB stride.
        let offs = [0u64, 8192, 16384, 24576, 32768];
        let mut with_last = Duration::ZERO;
        let mut without_last = Duration::ZERO;
        for &o in &offs {
            with_last = with.write(o, 512).unwrap();
            without_last = without.write(o, 512).unwrap();
        }
        assert!(
            with_last > without_last,
            "strided writes must be penalized once the quirk engages \
             ({with_last:?} vs {without_last:?})"
        );
    }

    #[test]
    fn stride_quirk_ignores_sequential_writes() {
        let q = StrideQuirk {
            min_stride: 4096,
            trigger_after: 2,
            factor: 10.0,
        };
        let mut with = dev(Some(q));
        let mut without = dev(None);
        for i in 0..6u64 {
            let a = with.write(i * 512, 512).unwrap();
            let b = without.write(i * 512, 512).unwrap();
            assert_eq!(a, b, "512 B steps are below min_stride");
        }
    }

    #[test]
    fn queue_depth_change_mid_flight_is_rejected() {
        use crate::queue::IoQueue;
        let mut d = dev(None);
        d.set_queue_depth(4).unwrap();
        let io = uflip_patterns::IoRequest {
            index: 0,
            offset: 0,
            size: 512,
            mode: Mode::Write,
            submit_delay: Duration::ZERO,
            process: 0,
        };
        d.submit(&io, Duration::ZERO).unwrap();
        assert!(matches!(
            d.set_queue_depth(8),
            Err(crate::DeviceError::DepthChangeInFlight { in_flight: 1 })
        ));
        assert_eq!(d.queue_depth(), 4, "failed change leaves depth intact");
        while d.poll().is_some() {}
        d.set_queue_depth(8).unwrap();
        assert_eq!(d.queue_depth(), 8);
    }

    #[test]
    fn pipelined_controller_overlaps_transfer() {
        let slow_xfer = ControllerConfig {
            per_io_overhead_ns: 0,
            transfer_mb_s: 1,
            pipelined_transfer: true,
        };
        let serial_xfer = ControllerConfig {
            per_io_overhead_ns: 0,
            transfer_mb_s: 1,
            pipelined_transfer: false,
        };
        let ftl_a = PageMapFtl::new(PageMapConfig::tiny()).unwrap();
        let ftl_b = PageMapFtl::new(PageMapConfig::tiny()).unwrap();
        let mut a = SimDevice::new("a", Box::new(ftl_a), slow_xfer, None);
        let mut b = SimDevice::new("b", Box::new(ftl_b), serial_xfer, None);
        let ra = a.write(0, 512).unwrap();
        let rb = b.write(0, 512).unwrap();
        assert!(rb > ra, "serialized transfer must cost more than pipelined");
    }
}
