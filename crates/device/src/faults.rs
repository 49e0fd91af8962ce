//! Fault injection: a seeded, serializable [`FaultPlan`] applied by a
//! transparent [`FaultyDevice`] decorator over any [`BlockDevice`].
//!
//! Real flash devices fail in ways the paper's healthy-device
//! measurements never show: transient read/write errors the firmware
//! retries through, latency spikes from internal housekeeping, command
//! queues that reject submissions under pressure, and — the one that
//! defines FTL design — power loss mid-workload. This module injects
//! those failures *deterministically* so the retry/timeout machinery in
//! `uflip_core::policy` and the crash-recovery paths
//! ([`BlockDevice::recover`], `uflip_ftl::Ftl::recover`) can be
//! exercised and measured like any other behaviour.
//!
//! Two guarantees shape the design:
//!
//! * **Transparency when disarmed.** A [`FaultyDevice`] wrapping a
//!   device with an empty plan forwards every call unchanged and draws
//!   *zero* random numbers: fingerprints, response times and channel
//!   schedules are bit-identical to the bare device
//!   (`tests/fault_recovery.rs` asserts this property-style).
//! * **Determinism when armed.** All injection decisions come from one
//!   SplitMix64 stream seeded by [`FaultPlan::seed`] and advanced in a
//!   fixed per-IO order, so equal plans replay equal fault sequences
//!   over equal workloads — a failing run is exactly reproducible.
//!
//! Faults are decided at the *arrival* of an IO (synchronous call or
//! queued `submit`), indexed by a monotone arrival counter. Rejections
//! that model back-pressure rather than IO failure —
//! [`DeviceError::QueueFull`] storms — do **not** consume an arrival
//! index or a random draw, so a submitter that polls and resubmits
//! meets the same fault schedule it would have met unrejected.

use crate::block_device::BlockDevice;
use crate::error::DeviceError;
use crate::queue::{IoQueue, Token};
use crate::Result;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::time::Duration;
use uflip_nand::FailureKind;
use uflip_obs::{CounterId, SinkHandle};
use uflip_patterns::{IoRequest, Mode};

/// A half-open `[start, end)` range of 512-byte sectors. When a plan
/// lists target ranges, error injection only fires for IOs that overlap
/// at least one of them (the random stream still advances, so adding a
/// range never shifts the fault schedule of IOs outside it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LbaRange {
    /// First sector of the range.
    pub start: u64,
    /// One past the last sector.
    pub end: u64,
}

impl LbaRange {
    /// Whether an IO spanning `[lba, lba + sectors)` overlaps the range.
    pub fn overlaps(&self, lba: u64, sectors: u64) -> bool {
        self.start < lba + sectors && lba < self.end
    }
}

/// A half-open `[start, end)` window of IO arrival indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoWindow {
    /// First arrival index inside the window.
    pub start: u64,
    /// One past the last arrival index.
    pub end: u64,
}

impl IoWindow {
    /// Whether `index` falls inside the window.
    pub fn contains(&self, index: u64) -> bool {
        self.start <= index && index < self.end
    }
}

/// A flash channel that responds slowly — a stuck/degraded die. IOs
/// whose starting offset stripes onto the stuck channel pay `extra_ns`
/// of latency. The decorator cannot see the backend's real die
/// assignment, so the stripe model (offset ÷ `stripe_bytes` mod
/// `channels`) is declared in the plan; match it to the profile's
/// geometry to pin a real channel, or use it as a deterministic
/// "every Nth stripe is slow" pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StuckChannel {
    /// The slow channel's index in `0..channels`.
    pub channel: u32,
    /// Number of channels in the stripe model.
    pub channels: u32,
    /// Bytes per stripe unit.
    pub stripe_bytes: u64,
    /// Extra latency per IO landing on the stuck channel, nanoseconds.
    pub extra_ns: u64,
}

impl StuckChannel {
    /// Whether an IO starting at byte `offset` lands on the stuck
    /// channel.
    pub fn hits(&self, offset: u64) -> bool {
        self.channels > 0
            && self.stripe_bytes > 0
            && (offset / self.stripe_bytes) % self.channels as u64 == self.channel as u64
    }
}

/// A seeded, serializable schedule of injectable faults (see the
/// module docs). The default plan is empty — armed nowhere, injecting
/// nothing — and a [`FaultyDevice`] carrying it is bit-transparent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultPlan {
    /// Seed of the SplitMix64 stream all probabilistic decisions draw
    /// from. Equal seeds (and equal knobs) inject identical fault
    /// sequences over identical workloads.
    #[serde(default)]
    pub seed: u64,
    /// Per-read probability of an injected transient error in `[0, 1]`.
    #[serde(default)]
    pub read_error_rate: f64,
    /// Per-write probability of an injected transient error in `[0, 1]`.
    #[serde(default)]
    pub write_error_rate: f64,
    /// Restrict error injection to IOs overlapping these sector ranges
    /// (empty = whole device).
    #[serde(default)]
    pub target_lbas: Vec<LbaRange>,
    /// Per-IO probability of a latency spike in `[0, 1]`.
    #[serde(default)]
    pub latency_spike_rate: f64,
    /// Duration of each injected latency spike, nanoseconds.
    #[serde(default)]
    pub latency_spike_ns: u64,
    /// A permanently slow channel (deterministic, not drawn).
    #[serde(default)]
    pub stuck_channel: Option<StuckChannel>,
    /// Arrival-index window during which queued submissions are
    /// rejected with [`DeviceError::QueueFull`] whenever the backend
    /// has IOs in flight (a controller refusing new commands under
    /// load). Rejections consume no arrival index and no random draw.
    #[serde(default)]
    pub queue_full_storm: Option<IoWindow>,
    /// Cut power at this arrival index: the indexed IO (and every one
    /// after it) fails with [`DeviceError::PowerLoss`] until
    /// [`BlockDevice::recover`] is called.
    #[serde(default)]
    pub power_loss_at: Option<u64>,
}

impl FaultPlan {
    /// A plan injecting transient read errors at `rate` — the CI smoke
    /// configuration.
    pub fn transient_reads(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            read_error_rate: rate,
            ..FaultPlan::default()
        }
    }

    /// A plan that cuts power at arrival index `index`.
    pub fn power_loss_at(seed: u64, index: u64) -> Self {
        FaultPlan {
            seed,
            power_loss_at: Some(index),
            ..FaultPlan::default()
        }
    }

    /// Whether the plan can inject anything at all. A disarmed plan
    /// makes [`FaultyDevice`] a pure forwarder that never touches its
    /// random stream.
    pub fn is_armed(&self) -> bool {
        self.read_error_rate > 0.0
            || self.write_error_rate > 0.0
            || (self.latency_spike_rate > 0.0 && self.latency_spike_ns > 0)
            || self.stuck_channel.is_some()
            || self.queue_full_storm.is_some()
            || self.power_loss_at.is_some()
    }

    /// Validate rates. Serialized plans are user input; a rate of `1.5`
    /// should be a loud error, not a certainly-failing device.
    pub fn validate(&self) -> std::result::Result<(), String> {
        for (name, rate) in [
            ("read_error_rate", self.read_error_rate),
            ("write_error_rate", self.write_error_rate),
            ("latency_spike_rate", self.latency_spike_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
                return Err(format!("{name} must be in [0, 1], got {rate}"));
            }
        }
        if let Some(sc) = &self.stuck_channel {
            if sc.channels == 0 || sc.channel >= sc.channels || sc.stripe_bytes == 0 {
                return Err(format!(
                    "stuck_channel needs channel < channels and stripe_bytes > 0, \
                     got channel {} of {}, stripe {}",
                    sc.channel, sc.channels, sc.stripe_bytes
                ));
            }
        }
        Ok(())
    }

    /// Load a plan from a JSON file (validated).
    pub fn load_json(path: &Path) -> std::result::Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read fault plan {}: {e}", path.display()))?;
        let plan: FaultPlan = serde_json::from_str(&text)
            .map_err(|e| format!("bad fault plan {}: {e}", path.display()))?;
        plan.validate()
            .map_err(|e| format!("invalid fault plan {}: {e}", path.display()))?;
        Ok(plan)
    }

    /// Serialize the plan as pretty JSON.
    pub fn to_json(&self) -> String {
        // uflip-lint: allow(UF002, reason = "serialization of a plain plan struct cannot fail")
        serde_json::to_string_pretty(self).expect("FaultPlan serializes")
    }
}

/// A block-device decorator that injects the faults of a [`FaultPlan`]
/// into every IO path — synchronous `read`/`write` and the queued
/// `submit`/`poll` engine — while forwarding everything else to the
/// wrapped backend (see the module docs for the transparency and
/// determinism guarantees).
///
/// After an injected power loss every IO fails with
/// [`DeviceError::PowerLoss`] and `poll` reports nothing (in-flight
/// IOs are torn); [`BlockDevice::recover`] clears the crash and runs
/// the backend's own recovery (FTL remount for simulated devices).
#[derive(Debug)]
pub struct FaultyDevice<D: BlockDevice> {
    inner: D,
    plan: FaultPlan,
    armed: bool,
    /// SplitMix64 state; advanced only by armed probabilistic knobs.
    rng: u64,
    /// Arrival index of the next fault-eligible IO.
    io_index: u64,
    /// `Some(index)` after an injected power loss, until recovery.
    crashed: Option<u64>,
    sink: SinkHandle,
    sink_enabled: bool,
}

impl<D: BlockDevice> FaultyDevice<D> {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: D, plan: FaultPlan) -> Self {
        let armed = plan.is_armed();
        let rng = plan.seed;
        FaultyDevice {
            inner,
            plan,
            armed,
            rng,
            io_index: 0,
            crashed: None,
            sink: SinkHandle::null(),
            sink_enabled: false,
        }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Unwrap into the backend.
    pub fn into_inner(self) -> D {
        self.inner
    }

    /// The active plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Arrival index the next fault-eligible IO will carry.
    pub fn io_index(&self) -> u64 {
        self.io_index
    }

    /// Whether the device is in the post-power-loss state.
    pub fn crashed(&self) -> bool {
        self.crashed.is_some()
    }

    /// Next raw SplitMix64 draw.
    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next draw as a uniform `f64` in `[0, 1)`.
    fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Whether an IO is inside the plan's error-target ranges.
    fn targeted(&self, offset: u64, len: u64) -> bool {
        if self.plan.target_lbas.is_empty() {
            return true;
        }
        let lba = offset / 512;
        let sectors = (len / 512).max(1);
        self.plan
            .target_lbas
            .iter()
            .any(|r| r.overlaps(lba, sectors))
    }

    /// Decide this IO's fate: consume one arrival index, draw each
    /// armed probabilistic knob in fixed order (error, then spike), and
    /// either fail the IO or return the extra latency it must pay.
    fn decide(&mut self, mode: Mode, offset: u64, len: u64) -> Result<u64> {
        if let Some(index) = self.crashed {
            return Err(DeviceError::PowerLoss { index });
        }
        let index = self.io_index;
        if self.plan.power_loss_at == Some(index) {
            self.crashed = Some(index);
            // Consume the crash point so the schedule moves past it
            // once the device is recovered.
            self.io_index += 1;
            if self.sink_enabled {
                self.sink.add(CounterId::PowerLossEvents, 1);
            }
            return Err(DeviceError::PowerLoss { index });
        }
        self.io_index += 1;
        let rate = match mode {
            Mode::Read => self.plan.read_error_rate,
            Mode::Write => self.plan.write_error_rate,
        };
        // The draw happens whenever the knob is armed — targeting only
        // filters the outcome — so adding a target range never shifts
        // the random stream seen by other IOs.
        if rate > 0.0 && self.next_unit() < rate && self.targeted(offset, len) {
            if self.sink_enabled {
                self.sink.add(
                    match mode {
                        Mode::Read => CounterId::InjectedReadFaults,
                        Mode::Write => CounterId::InjectedWriteFaults,
                    },
                    1,
                );
            }
            return Err(DeviceError::Injected {
                kind: FailureKind::Transient,
                index,
            });
        }
        let mut extra = 0u64;
        if self.plan.latency_spike_rate > 0.0
            && self.plan.latency_spike_ns > 0
            && self.next_unit() < self.plan.latency_spike_rate
        {
            extra += self.plan.latency_spike_ns;
            if self.sink_enabled {
                self.sink.add(CounterId::InjectedLatencySpikes, 1);
            }
        }
        if let Some(sc) = &self.plan.stuck_channel {
            if sc.hits(offset) {
                extra += sc.extra_ns;
                if self.sink_enabled {
                    self.sink.add(CounterId::InjectedLatencySpikes, 1);
                }
            }
        }
        Ok(extra)
    }
}

impl<D: BlockDevice> BlockDevice for FaultyDevice<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn read(&mut self, offset: u64, len: u64) -> Result<Duration> {
        if !self.armed {
            return self.inner.read(offset, len);
        }
        // Malformed requests fail as such before consuming an arrival
        // index, exactly as they would on the bare device.
        self.check(offset, len)?;
        let extra = self.decide(Mode::Read, offset, len)?;
        let rt = self.inner.read(offset, len)?;
        if extra == 0 {
            return Ok(rt);
        }
        // A spike stalls the device: the clock advances through it
        // (and background work may run, as in any stall).
        let spike = Duration::from_nanos(extra);
        self.inner.idle(spike);
        Ok(rt + spike)
    }

    fn write(&mut self, offset: u64, len: u64) -> Result<Duration> {
        if !self.armed {
            return self.inner.write(offset, len);
        }
        self.check(offset, len)?;
        let extra = self.decide(Mode::Write, offset, len)?;
        let rt = self.inner.write(offset, len)?;
        if extra == 0 {
            return Ok(rt);
        }
        let spike = Duration::from_nanos(extra);
        self.inner.idle(spike);
        Ok(rt + spike)
    }

    fn idle(&mut self, d: Duration) {
        self.inner.idle(d);
    }

    fn now(&self) -> Duration {
        self.inner.now()
    }

    fn io_queue(&mut self) -> Option<&mut dyn IoQueue> {
        if self.inner.io_queue().is_some() {
            Some(self)
        } else {
            None
        }
    }

    fn io_queue_ref(&self) -> Option<&dyn IoQueue> {
        if self.inner.io_queue_ref().is_some() {
            Some(self)
        } else {
            None
        }
    }

    fn take_async_error(&mut self) -> Option<std::io::Error> {
        self.inner.take_async_error()
    }

    fn set_sink(&mut self, sink: SinkHandle) {
        self.sink_enabled = sink.is_enabled();
        self.inner.set_sink(sink.clone());
        self.sink = sink;
    }

    fn recover(&mut self) -> Result<uflip_ftl::RecoveryReport> {
        self.crashed = None;
        self.inner.recover()
    }

    // Snapshots are deliberately NOT forwarded (the defaults report
    // "unsupported"): a restore would rewind the backend without
    // rewinding the fault stream or arrival counter, silently changing
    // which IOs get faulted. Snapshot the bare device before wrapping
    // if both capabilities are needed.

    fn fork(&self) -> Option<Box<dyn BlockDevice + Send>> {
        let inner = self.inner.fork()?;
        Some(Box::new(FaultyDevice {
            inner,
            plan: self.plan.clone(),
            armed: self.armed,
            rng: self.rng,
            io_index: self.io_index,
            crashed: self.crashed,
            sink: self.sink.clone(),
            sink_enabled: self.sink_enabled,
        }))
    }
}

/// The queued fault path: arrival decisions happen at `submit` (the
/// same decision the synchronous path makes), latency spikes delay the
/// IO's submission instant, and a crash tears every in-flight IO —
/// `poll` reports nothing after power loss.
impl<D: BlockDevice> IoQueue for FaultyDevice<D> {
    fn queue_depth(&self) -> u32 {
        self.inner.io_queue_ref().map_or(1, |q| q.queue_depth())
    }

    fn set_queue_depth(&mut self, depth: u32) -> Result<()> {
        match self.inner.io_queue() {
            Some(q) => q.set_queue_depth(depth),
            None => Ok(()),
        }
    }

    fn in_flight(&self) -> usize {
        if self.crashed.is_some() {
            return 0;
        }
        self.inner.io_queue_ref().map_or(0, |q| q.in_flight())
    }

    fn submit(&mut self, io: &IoRequest, at: Duration) -> Result<Token> {
        if !self.armed {
            return self
                .inner
                .io_queue()
                .ok_or(DeviceError::Internal("submit on a backend without a queue"))?
                .submit(io, at);
        }
        if let Some(index) = self.crashed {
            return Err(DeviceError::PowerLoss { index });
        }
        // QueueFull storm: back-pressure, not failure — no arrival
        // index, no draw. Only reject when the backend actually has
        // in-flight IOs to poll, preserving the executor invariant
        // that a full queue can always retire a completion.
        if let Some(w) = &self.plan.queue_full_storm {
            if w.contains(self.io_index) {
                let q = self
                    .inner
                    .io_queue()
                    .ok_or(DeviceError::Internal("submit on a backend without a queue"))?;
                if q.in_flight() > 0 {
                    let depth = q.queue_depth();
                    if self.sink_enabled {
                        self.sink.add(CounterId::QueueFullRejections, 1);
                    }
                    return Err(DeviceError::QueueFull { depth });
                }
            }
        }
        self.check(io.offset, io.size)?;
        let extra = self.decide(io.mode, io.offset, io.size)?;
        // A spike delays the IO's arrival at the backend. Virtual-time
        // backends prefer non-decreasing submission instants; spikes
        // are rare perturbations of exactly the kind wall-clock queues
        // already tolerate (see `crate::queue`).
        let at = at + Duration::from_nanos(extra);
        self.inner
            .io_queue()
            .ok_or(DeviceError::Internal("submit on a backend without a queue"))?
            .submit(io, at)
    }

    fn next_completion(&self) -> Option<Duration> {
        if self.crashed.is_some() {
            return None;
        }
        self.inner.io_queue_ref().and_then(|q| q.next_completion())
    }

    fn poll(&mut self) -> Option<(Token, Duration)> {
        if self.crashed.is_some() {
            return None;
        }
        self.inner.io_queue()?.poll()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem_device::MemDevice;

    const MB: u64 = 1024 * 1024;

    fn mem() -> MemDevice {
        MemDevice::new(4 * MB, Duration::from_micros(100), 0)
    }

    #[test]
    fn empty_plan_is_disarmed_and_transparent() {
        let plan = FaultPlan::default();
        assert!(!plan.is_armed());
        let mut bare = mem();
        let mut faulty = FaultyDevice::new(mem(), plan);
        for i in 0..20u64 {
            let a = bare.write(i * 512, 512).unwrap();
            let b = faulty.write(i * 512, 512).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(bare.now(), faulty.now());
        assert_eq!(faulty.io_index(), 0, "disarmed plans never count IOs");
    }

    #[test]
    fn equal_seeds_inject_identical_sequences() {
        let plan = FaultPlan::transient_reads(0xFA17, 0.3);
        let mut a = FaultyDevice::new(mem(), plan.clone());
        let mut b = FaultyDevice::new(mem(), plan);
        let outcomes = |d: &mut FaultyDevice<MemDevice>| -> Vec<bool> {
            (0..200u64)
                .map(|i| d.read(i % 64 * 512, 512).is_ok())
                .collect()
        };
        let oa = outcomes(&mut a);
        let ob = outcomes(&mut b);
        assert_eq!(oa, ob);
        assert!(oa.iter().any(|ok| !ok), "a 30% rate must fire in 200 IOs");
        assert!(oa.iter().any(|ok| *ok), "and must not fire always");
    }

    #[test]
    fn injected_errors_classify_transient() {
        let plan = FaultPlan::transient_reads(1, 1.0);
        let mut d = FaultyDevice::new(mem(), plan);
        let e = d.read(0, 512).unwrap_err();
        assert!(matches!(
            e,
            DeviceError::Injected {
                kind: FailureKind::Transient,
                index: 0
            }
        ));
        assert!(e.is_transient());
        // Writes are unaffected by a read-only error rate.
        assert!(d.write(0, 512).is_ok());
    }

    #[test]
    fn target_ranges_scope_errors_without_shifting_the_stream() {
        let mut plan = FaultPlan::transient_reads(7, 1.0);
        plan.target_lbas = vec![LbaRange { start: 0, end: 8 }];
        let mut d = FaultyDevice::new(mem(), plan);
        assert!(d.read(0, 512).is_err(), "inside the range");
        assert!(d.read(64 * 512, 512).is_ok(), "outside the range");
        assert!(d.read(7 * 512, 1024).is_err(), "overlap counts");
    }

    #[test]
    fn latency_spikes_add_and_advance_the_clock() {
        let plan = FaultPlan {
            seed: 3,
            latency_spike_rate: 1.0,
            latency_spike_ns: 5_000_000,
            ..FaultPlan::default()
        };
        let mut d = FaultyDevice::new(mem(), plan);
        let rt = d.read(0, 512).unwrap();
        assert_eq!(rt, Duration::from_micros(100) + Duration::from_millis(5));
        assert_eq!(d.now(), rt, "the clock advances through the spike");
    }

    #[test]
    fn stuck_channel_is_deterministic() {
        let plan = FaultPlan {
            seed: 9,
            stuck_channel: Some(StuckChannel {
                channel: 1,
                channels: 4,
                stripe_bytes: 4096,
                extra_ns: 1_000_000,
            }),
            ..FaultPlan::default()
        };
        let mut d = FaultyDevice::new(mem(), plan);
        let fast = d.read(0, 512).unwrap(); // stripe 0 -> channel 0
        let slow = d.read(4096, 512).unwrap(); // stripe 1 -> channel 1
        assert_eq!(fast, Duration::from_micros(100));
        assert_eq!(slow, Duration::from_micros(100) + Duration::from_millis(1));
    }

    #[test]
    fn power_loss_fails_everything_until_recovery() {
        let plan = FaultPlan::power_loss_at(0, 2);
        let mut d = FaultyDevice::new(mem(), plan);
        assert!(d.write(0, 512).is_ok());
        assert!(d.write(512, 512).is_ok());
        let e = d.write(1024, 512).unwrap_err();
        assert!(matches!(e, DeviceError::PowerLoss { index: 2 }));
        assert!(d.crashed());
        assert!(
            matches!(d.read(0, 512), Err(DeviceError::PowerLoss { .. })),
            "every IO fails while crashed"
        );
        d.recover().unwrap();
        assert!(!d.crashed());
        assert!(d.read(0, 512).is_ok());
        // The power-loss index is behind the arrival counter now, so
        // the device does not crash again.
        assert!(d.write(2048, 512).is_ok());
    }

    #[test]
    fn plan_json_round_trips_and_validates() {
        let plan = FaultPlan {
            seed: 42,
            read_error_rate: 0.01,
            queue_full_storm: Some(IoWindow { start: 10, end: 20 }),
            power_loss_at: Some(100),
            ..FaultPlan::default()
        };
        let text = plan.to_json();
        let back: FaultPlan = serde_json::from_str(&text).unwrap();
        assert_eq!(plan, back);
        assert!(back.validate().is_ok());
        let bad = FaultPlan {
            read_error_rate: 1.5,
            ..FaultPlan::default()
        };
        assert!(bad.validate().is_err());
        // Sparse documents deserialize with defaults.
        let sparse: FaultPlan = serde_json::from_str(r#"{"seed": 7}"#).unwrap();
        assert_eq!(sparse.seed, 7);
        assert!(!sparse.is_armed());
    }

    #[test]
    fn malformed_requests_do_not_consume_arrival_indices() {
        let plan = FaultPlan::transient_reads(5, 0.5);
        let mut d = FaultyDevice::new(mem(), plan);
        assert!(matches!(
            d.read(100, 512),
            Err(DeviceError::Unaligned { .. })
        ));
        assert_eq!(d.io_index(), 0);
    }
}
