//! [`TracingDevice`]: a transparent capture decorator over any
//! [`BlockDevice`].
//!
//! Wraps a backend and records every IO issued to it — through the
//! synchronous `read`/`write` path *and* through the NCQ-style
//! [`IoQueue`] path — as a [`uflip_trace::Trace`]. Transparency is the
//! contract: the wrapper forwards every call unchanged and computes
//! its records purely from what the backend already reports (response
//! times, the virtual clock, queue occupancy), so a traced run is
//! bit-identical to an untraced one. `tests/trace_replay.rs` asserts
//! this against `SimDevice`.
//!
//! Capture model (mirrors what Flashmon-style kernel tracers record on
//! real flash stacks): one [`uflip_trace::TraceRecord`] per IO with op
//! kind, LBA, sector count, submit/complete timestamps on the
//! backend's clock, and the queue depth at submission. On the
//! synchronous path the completion is known when the call returns; on
//! the queued path the record is opened at `submit` and its completion
//! filled in by `poll`.

use crate::block_device::BlockDevice;
use crate::queue::{IoQueue, Token};
use crate::Result;
use std::time::Duration;
use uflip_patterns::IoRequest;
use uflip_trace::{Trace, TraceRecord};

/// A block device decorator that records every IO into a
/// [`Trace`].
#[derive(Debug)]
pub struct TracingDevice<D: BlockDevice> {
    inner: D,
    trace: Trace,
    /// Open queued IOs: token → index of the record awaiting its
    /// completion time.
    pending: Vec<(Token, usize)>,
}

impl<D: BlockDevice> TracingDevice<D> {
    /// Wrap a device; the trace inherits its name and starts with the
    /// label `capture`.
    pub fn new(inner: D) -> Self {
        let trace = Trace::new(inner.name(), "capture");
        TracingDevice {
            inner,
            trace,
            pending: Vec::new(),
        }
    }

    /// Set the trace's workload label (builder style).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.trace.label = label.into();
        self
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The trace captured so far. Queued IOs that have not been polled
    /// yet still carry `complete_ns == submit_ns`.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Drop all records captured so far (keeps device and label) —
    /// call after preparation phases that should not appear in the
    /// trace.
    pub fn clear(&mut self) {
        self.trace.records.clear();
        self.pending.clear();
    }

    /// Unwrap into the device and the captured trace.
    pub fn into_parts(self) -> (D, Trace) {
        (self.inner, self.trace)
    }

    fn record_sync(
        &mut self,
        op: uflip_patterns::Mode,
        offset: u64,
        len: u64,
        submit: Duration,
        rt: Duration,
    ) {
        let submit_ns = submit.as_nanos() as u64;
        self.trace.push(TraceRecord {
            op,
            lba: offset / 512,
            sectors: (len / 512) as u32,
            submit_ns,
            complete_ns: submit_ns + rt.as_nanos() as u64,
            queue_depth: 1,
        });
    }
}

impl<D: BlockDevice> BlockDevice for TracingDevice<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn read(&mut self, offset: u64, len: u64) -> Result<Duration> {
        let submit = self.inner.now();
        let rt = self.inner.read(offset, len)?;
        self.record_sync(uflip_patterns::Mode::Read, offset, len, submit, rt);
        Ok(rt)
    }

    fn write(&mut self, offset: u64, len: u64) -> Result<Duration> {
        let submit = self.inner.now();
        let rt = self.inner.write(offset, len)?;
        self.record_sync(uflip_patterns::Mode::Write, offset, len, submit, rt);
        Ok(rt)
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

    fn set_sink(&mut self, sink: uflip_obs::SinkHandle) {
        self.inner.set_sink(sink);
    }

    // Snapshots are deliberately NOT forwarded to the backend (the
    // defaults report "unsupported"): restoring would rewind the
    // inner device's virtual clock mid-capture, producing a trace
    // whose timestamps go backwards — a workload that corresponds to
    // no real capture and that the submit-ordered replay engine
    // rejects. A traced plan execution therefore falls back to
    // re-enforcing state at resets, which records honestly. Snapshot
    // the bare device (`inner()`) before wrapping if both are needed.
}

/// The queued capture path: every call forwards to the backend's own
/// queue; `submit` opens a record, `poll` closes it.
impl<D: BlockDevice> IoQueue for TracingDevice<D> {
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
        self.inner.io_queue_ref().map_or(0, |q| q.in_flight())
    }

    fn submit(&mut self, io: &IoRequest, at: Duration) -> Result<Token> {
        let queue = self.inner.io_queue().ok_or(crate::DeviceError::Internal(
            "submit on a backend without a queue",
        ))?;
        let token = queue.submit(io, at)?;
        let depth_now = queue.in_flight() as u32;
        let submit_ns = at.as_nanos() as u64;
        let idx = self.trace.records.len();
        self.trace.push(TraceRecord {
            op: io.mode,
            lba: io.offset / 512,
            sectors: (io.size / 512) as u32,
            submit_ns,
            complete_ns: submit_ns, // placeholder until poll
            queue_depth: depth_now,
        });
        self.pending.push((token, idx));
        Ok(token)
    }

    fn next_completion(&self) -> Option<Duration> {
        self.inner.io_queue_ref().and_then(|q| q.next_completion())
    }

    fn poll(&mut self) -> Option<(Token, Duration)> {
        let (token, completion) = self.inner.io_queue()?.poll()?;
        if let Some(pos) = self.pending.iter().position(|(t, _)| *t == token) {
            let (_, idx) = self.pending.swap_remove(pos);
            self.trace.records[idx].complete_ns = completion.as_nanos() as u64;
        }
        Some((token, completion))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem_device::MemDevice;
    use uflip_patterns::Mode;

    const MB: u64 = 1024 * 1024;

    fn traced_mem() -> TracingDevice<MemDevice> {
        TracingDevice::new(MemDevice::new(4 * MB, Duration::from_micros(100), 0))
    }

    #[test]
    fn sync_path_records_op_location_and_timing() {
        let mut d = traced_mem().with_label("smoke");
        d.write(32 * 1024, 4096).unwrap();
        d.idle(Duration::from_millis(1));
        d.read(0, 512).unwrap();
        let t = d.trace();
        assert_eq!(t.label, "smoke");
        assert_eq!(t.device, "mem");
        assert_eq!(t.len(), 2);
        let w = &t.records[0];
        assert_eq!((w.op, w.lba, w.sectors), (Mode::Write, 64, 8));
        assert_eq!((w.submit_ns, w.complete_ns), (0, 100_000));
        assert_eq!(w.queue_depth, 1);
        let r = &t.records[1];
        assert_eq!(r.op, Mode::Read);
        assert_eq!(r.submit_ns, 1_100_000, "idle advanced the clock");
        assert_eq!(r.latency_ns(), 100_000);
    }

    #[test]
    fn forwarding_is_transparent() {
        let mut traced = traced_mem();
        let mut bare = MemDevice::new(4 * MB, Duration::from_micros(100), 0);
        let a = traced.write(0, 512).unwrap();
        let b = bare.write(0, 512).unwrap();
        assert_eq!(a, b);
        assert_eq!(traced.now(), bare.now());
        assert_eq!(traced.capacity_bytes(), bare.capacity_bytes());
        assert_eq!(traced.inner().writes(), 1);
    }

    #[test]
    fn errors_are_forwarded_and_not_recorded() {
        let mut d = traced_mem();
        assert!(d.read(0, 100).is_err(), "unaligned");
        assert!(d.write(3 * MB, 2 * MB).is_err(), "out of range");
        assert!(d.trace().is_empty(), "failed IOs leave no record");
    }

    #[test]
    fn queueless_backends_expose_no_queue() {
        let mut d = traced_mem();
        assert!(d.io_queue().is_none());
        assert!(d.io_queue_ref().is_none());
        assert_eq!(IoQueue::queue_depth(&d), 1);
        assert_eq!(d.in_flight(), 0);
        assert!(IoQueue::next_completion(&d).is_none());
        assert!(d.poll().is_none());
    }

    #[test]
    fn clear_discards_preparation_records() {
        let mut d = traced_mem();
        d.write(0, 512).unwrap();
        d.clear();
        assert!(d.trace().is_empty());
        d.read(0, 512).unwrap();
        assert_eq!(d.trace().len(), 1);
        let (dev, trace) = d.into_parts();
        assert_eq!(dev.reads(), 1);
        assert_eq!(trace.len(), 1);
    }
}
