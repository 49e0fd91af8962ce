//! The timed block-device abstraction the benchmark drives.

use crate::Result;
use std::time::Duration;

/// A block device under benchmark.
///
/// uFLIP measures the **response time of each submitted IO** (paper
/// §3.2, design principle 1); `read` and `write` therefore return the
/// IO's response time directly. Simulated devices compute it on a
/// virtual clock; real backends measure wall-clock time around a
/// synchronous direct IO.
///
/// `idle` informs the device that the host intentionally waited
/// (pause/burst timing functions, inter-run pauses): simulated devices
/// use it to run background reclamation, real backends actually sleep.
pub trait BlockDevice {
    /// Device name for reports.
    fn name(&self) -> &str;

    /// Usable capacity in bytes.
    fn capacity_bytes(&self) -> u64;

    /// Synchronously read `len` bytes at byte `offset`; returns the
    /// response time. Offsets and lengths must be 512-byte aligned (the
    /// paper's LBA granularity — `IOShift` is expressed in 512 B units).
    fn read(&mut self, offset: u64, len: u64) -> Result<Duration>;

    /// Synchronously write `len` bytes at byte `offset`; returns the
    /// response time.
    fn write(&mut self, offset: u64, len: u64) -> Result<Duration>;

    /// Host idle time between IOs or runs.
    fn idle(&mut self, d: Duration);

    /// Device-observed elapsed time since creation (virtual for
    /// simulations, wall-clock for real backends).
    fn now(&self) -> Duration;

    /// The device's NCQ-style submission queue, if it can serve
    /// overlapping IOs (see [`crate::queue::IoQueue`]). Simulated
    /// devices schedule onto virtual-time channel tracks; real devices
    /// serve the same interface on a wall clock through a threaded
    /// worker pool ([`crate::ThreadedIoQueue`]). Devices that return
    /// `None` (the default) are driven by serial interleaving instead.
    fn io_queue(&mut self) -> Option<&mut dyn crate::queue::IoQueue> {
        None
    }

    /// Shared (read-only) view of the same queue. Decorators such as
    /// [`crate::TracingDevice`] need it to answer the `&self` queue
    /// questions (`queue_depth`, `in_flight`, `next_completion`)
    /// without exclusive access; implementations that override
    /// [`BlockDevice::io_queue`] must override this too, returning the
    /// same object.
    fn io_queue_ref(&self) -> Option<&dyn crate::queue::IoQueue> {
        None
    }

    /// Attach an observability sink (see `uflip_obs`). Implementations
    /// forward the handle to their FTL / queue engine so NAND, merge,
    /// host-IO and queue events flow into it.
    ///
    /// **Overhead guarantee**: with the null handle attached (or none
    /// at all), the instrumentation cost is one null check on the held
    /// handle per event site — no atomics, no allocation — and
    /// response times are bit-identical to an uninstrumented build.
    /// Sinks observe; they must never influence timing. The default
    /// drops the handle (devices without instrumentation).
    fn set_sink(&mut self, sink: uflip_obs::SinkHandle) {
        let _ = sink;
    }

    /// Take the device's parked asynchronous IO error, if any. Queued
    /// backends have no error channel in `poll` (a completion is a
    /// token and a time), so a failed queued IO completes normally and
    /// parks its error; harnesses call this after a queued run to
    /// learn about failures in the final in-flight window, which would
    /// otherwise surface on the *next* run's first submit — or never.
    /// Devices without an asynchronous engine return `None` (the
    /// default).
    fn take_async_error(&mut self) -> Option<std::io::Error> {
        None
    }

    /// Whether this device supports the full snapshot capability:
    /// [`BlockDevice::snapshot_state`] returns `Some`,
    /// [`BlockDevice::restore_state`] accepts that state, and
    /// [`BlockDevice::fork`] returns `Some`. A cheap probe — callers
    /// (e.g. the sharded plan executor) check this instead of
    /// materializing and discarding a deep copy just to learn the
    /// answer. The default is `false`; implementations that return
    /// `true` must implement all three hooks.
    fn snapshot_capable(&self) -> bool {
        false
    }

    /// Capture the device's complete state — FTL mapping tables, NAND
    /// array (wear, page states, statistics), virtual clock, quirk
    /// detectors and queue engine — as an opaque deep copy, or `None`
    /// when the device cannot snapshot (the default; real hardware
    /// backends have no way to copy a flash chip).
    ///
    /// See [`crate::snapshot`] for why this exists: it turns uFLIP's
    /// expensive §4.1 state enforcement into a one-time cost.
    fn snapshot_state(&self) -> Option<Box<dyn crate::snapshot::DeviceState>> {
        None
    }

    /// Restore a state previously captured by
    /// [`BlockDevice::snapshot_state`] **on the same concrete device
    /// type**. Rewinds everything the snapshot covers, including the
    /// virtual clock. Errors with
    /// [`crate::DeviceError::SnapshotUnsupported`] (default) or
    /// [`crate::DeviceError::SnapshotMismatch`] (wrong device type).
    fn restore_state(&mut self, state: &dyn crate::snapshot::DeviceState) -> Result<()> {
        let _ = state;
        Err(crate::DeviceError::SnapshotUnsupported)
    }

    /// Deep-copy the whole device into an independent boxed instance
    /// (state *and* configuration), or `None` when the device cannot
    /// be duplicated (the default). Forks are what lets a plan
    /// executor run independent plan segments on worker threads.
    fn fork(&self) -> Option<Box<dyn BlockDevice + Send>> {
        None
    }

    /// Recover the device after a power loss: drop whatever was in
    /// flight, discard volatile state and rebuild durable mappings from
    /// ground truth (simulated devices remount their FTL — see
    /// [`uflip_ftl::Ftl::recover`]). Recovery is untimed: it models the
    /// mount-time work a controller does before serving IOs again, not
    /// an IO being measured. Devices with no volatile state (the
    /// default) recover trivially.
    fn recover(&mut self) -> Result<uflip_ftl::RecoveryReport> {
        Ok(uflip_ftl::RecoveryReport::default())
    }

    /// Validate alignment and bounds (shared helper).
    fn check(&self, offset: u64, len: u64) -> Result<()> {
        if len == 0 {
            return Err(crate::DeviceError::ZeroLength);
        }
        if !offset.is_multiple_of(512) || !len.is_multiple_of(512) {
            return Err(crate::DeviceError::Unaligned { offset, len });
        }
        if offset + len > self.capacity_bytes() {
            return Err(crate::DeviceError::OutOfRange {
                offset,
                len,
                capacity: self.capacity_bytes(),
            });
        }
        Ok(())
    }
}

/// Boxed devices are devices: every method forwards to the boxed
/// implementation (defaults would silently disable queues, snapshots
/// and recovery on `Box<dyn BlockDevice>`). This is what lets
/// decorators like [`crate::faults::FaultyDevice`] wrap the boxed
/// trait objects harnesses pass around.
impl<T: BlockDevice + ?Sized> BlockDevice for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn capacity_bytes(&self) -> u64 {
        (**self).capacity_bytes()
    }

    fn read(&mut self, offset: u64, len: u64) -> Result<Duration> {
        (**self).read(offset, len)
    }

    fn write(&mut self, offset: u64, len: u64) -> Result<Duration> {
        (**self).write(offset, len)
    }

    fn idle(&mut self, d: Duration) {
        (**self).idle(d)
    }

    fn now(&self) -> Duration {
        (**self).now()
    }

    fn io_queue(&mut self) -> Option<&mut dyn crate::queue::IoQueue> {
        (**self).io_queue()
    }

    fn io_queue_ref(&self) -> Option<&dyn crate::queue::IoQueue> {
        (**self).io_queue_ref()
    }

    fn set_sink(&mut self, sink: uflip_obs::SinkHandle) {
        (**self).set_sink(sink)
    }

    fn take_async_error(&mut self) -> Option<std::io::Error> {
        (**self).take_async_error()
    }

    fn snapshot_capable(&self) -> bool {
        (**self).snapshot_capable()
    }

    fn snapshot_state(&self) -> Option<Box<dyn crate::snapshot::DeviceState>> {
        (**self).snapshot_state()
    }

    fn restore_state(&mut self, state: &dyn crate::snapshot::DeviceState) -> Result<()> {
        (**self).restore_state(state)
    }

    fn fork(&self) -> Option<Box<dyn BlockDevice + Send>> {
        (**self).fork()
    }

    fn recover(&mut self) -> Result<uflip_ftl::RecoveryReport> {
        (**self).recover()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceError;

    struct Fixed;
    impl BlockDevice for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn capacity_bytes(&self) -> u64 {
            4096
        }
        fn read(&mut self, _o: u64, _l: u64) -> Result<Duration> {
            Ok(Duration::ZERO)
        }
        fn write(&mut self, _o: u64, _l: u64) -> Result<Duration> {
            Ok(Duration::ZERO)
        }
        fn idle(&mut self, _d: Duration) {}
        fn now(&self) -> Duration {
            Duration::ZERO
        }
    }

    #[test]
    fn check_validates_alignment_and_bounds() {
        let d = Fixed;
        assert!(d.check(0, 512).is_ok());
        assert!(d.check(512, 3584).is_ok());
        assert!(matches!(d.check(0, 0), Err(DeviceError::ZeroLength)));
        assert!(matches!(
            d.check(100, 512),
            Err(DeviceError::Unaligned { .. })
        ));
        assert!(matches!(
            d.check(0, 100),
            Err(DeviceError::Unaligned { .. })
        ));
        assert!(matches!(
            d.check(4096, 512),
            Err(DeviceError::OutOfRange { .. })
        ));
        assert!(matches!(
            d.check(3584, 1024),
            Err(DeviceError::OutOfRange { .. })
        ));
    }
}
