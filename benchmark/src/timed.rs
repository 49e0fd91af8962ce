//! Bench-side timing decorators and the per-layer ledger they fill.
//!
//! [`TimedDevice`] wraps the top of a device stack and [`TimedFtl`] the
//! FTL inside a `SimDevice`. Both forward every method unchanged, so the
//! simulator code that runs — and every simulated nanosecond — is the
//! same as in an untraced run; only host time is observed.
//!
//! Timing every call would distort what it measures (an `Instant` pair
//! costs tens of nanoseconds, a queued IO a few hundred), so the device
//! decorator times one in 32 top-level calls, chosen by a fixed-seed
//! xorshift stream so the sample set does not depend on host timing;
//! the stream runs on from one execution to the next.
//! Snapshots and restores are rare and slow and are always timed. Queue
//! queries — depth, in-flight count, next completion — are forwarded
//! untimed: they peek at a heap, and timing a call per IO that costs a
//! few nanoseconds would cost more than it measures. Every FTL call made
//! inside a timed device call is timed too; FTL calls inside skipped
//! device calls are only counted.
//!
//! Self time of a timed device call is its span minus the FTL spans
//! nested in it, minus the calibrated cost of the clock reads and
//! bookkeeping ([`Calibration`]). A call kind's total is the sampled sum
//! scaled by calls ÷ samples. The executor's self time is its whole
//! span minus the device and FTL totals and minus every cost the tracing
//! itself added ([`Ledger::attribute`]).
//!
//! The ledger is thread-local: the benchmark drives the simulator from
//! one thread, and a `SimDevice` requires its FTL to be `Send`, which
//! rules out sharing an `Rc` between the two decorators.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::{Duration, Instant};
use uflip_device::{BlockDevice, DeviceError, DeviceState, IoQueue, Token};
use uflip_ftl::{Ftl, FtlStats, ProbeState, RecoveryReport};
use uflip_nand::NandStats;
use uflip_obs::SinkHandle;
use uflip_patterns::IoRequest;

/// One in this many top-level device calls is timed.
const SAMPLE_PERIOD: u64 = 32;

/// Seed of the sampling stream.
const SAMPLE_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// The device calls the ledger tells apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// Synchronous `read`.
    Read,
    /// Synchronous `write`.
    Write,
    /// Host idle time.
    Idle,
    /// One queued submission.
    Submit,
    /// A wave of queued submissions.
    SubmitBatch,
    /// Retire one completion.
    Poll,
    /// Retire every completion up to an instant.
    PollUpto,
    /// Capture the device state.
    Snapshot,
    /// Rewind to a captured state.
    Restore,
}

impl Call {
    fn always_timed(self) -> bool {
        matches!(self, Call::Snapshot | Call::Restore)
    }
}

/// The FTL calls the ledger times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `Ftl::read`.
    Read,
    /// `Ftl::write`.
    Write,
    /// `Ftl::on_idle`.
    Idle,
}

/// What the ledger knows about one device call kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallStats {
    /// Calls made.
    pub calls: u64,
    /// Calls timed.
    pub samples: u64,
    /// Sum of the timed calls' measured spans, ns.
    pub span_ns: u64,
    /// Sum of the measured FTL spans nested in timed calls, ns, per [`Op`].
    pub nested_ns: [u64; 3],
    /// FTL spans nested in timed calls, per [`Op`].
    pub nested: [u64; 3],
}

impl CallStats {
    const ZERO: CallStats = CallStats {
        calls: 0,
        samples: 0,
        span_ns: 0,
        nested_ns: [0; 3],
        nested: [0; 3],
    };

    fn scale(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.calls as f64 / self.samples as f64
        }
    }

    fn nested_spans(&self) -> u64 {
        self.nested.iter().sum()
    }

    /// True FTL time inside the timed calls, per [`Op`].
    fn ftl_ns(&self, cal: &Calibration) -> [f64; 3] {
        std::array::from_fn(|op| self.nested_ns[op] as f64 - self.nested[op] as f64 * cal.span_ns)
    }

    /// True self time of the timed calls: each span holds its own clock
    /// read, its nested FTL spans and their bookkeeping.
    fn self_ns(&self, cal: &Calibration) -> f64 {
        self.span_ns as f64
            - self.samples as f64 * cal.span_ns
            - self.nested_ns.iter().sum::<u64>() as f64
            - self.nested_spans() as f64 * (cal.record_ns - cal.span_ns)
    }

    /// Host time the tracing added inside the caller's span.
    fn overhead_ns(&self, cal: &Calibration) -> f64 {
        (self.samples + self.nested_spans()) as f64 * cal.record_ns
            + (self.calls - self.samples) as f64 * cal.skip_ns
    }
}

/// One timed submission call, kept for its percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubmitSample {
    /// Measured span minus nested FTL spans, ns.
    pub outer_ns: u64,
    /// Nested FTL spans.
    pub nested: u64,
    /// IOs the call put on the device.
    pub ios: u64,
}

/// The per-layer record of one traced execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Per device call kind, indexed by `Call as usize`.
    pub device: [CallStats; 9],
    /// Every FTL call, timed or not, per [`Op`].
    pub ftl_calls: [u64; 3],
    /// Timed submissions.
    pub submits: Vec<SubmitSample>,
    /// Measured spans of timed FTL writes, ns.
    pub write_spans: Vec<u64>,
    rng: u64,
    /// FTL spans of the timed device call in progress, if any.
    open: Option<([u64; 3], [u64; 3])>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger::new()
    }
}

/// Host costs of the tracing itself, measured on this host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// What an empty span reads: the clock cost inside a span's window.
    pub span_ns: f64,
    /// Whole cost of one recorded span: both clock reads and bookkeeping.
    pub record_ns: f64,
    /// Cost of one device call the sampler skips.
    pub skip_ns: f64,
}

/// A traced execution's host time split by layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Attribution {
    /// IOs that reached the simulated device (FTL reads plus writes).
    pub ios: u64,
    /// Executor self time, ns.
    pub core_ns: f64,
    /// Device self time, ns.
    pub device_ns: f64,
    /// FTL time (NAND accounting included), ns, per [`Op`].
    pub ftl_ns: [f64; 3],
}

impl Attribution {
    /// All FTL time, ns.
    pub fn ftl_total_ns(&self) -> f64 {
        self.ftl_ns.iter().sum()
    }
}

impl Ledger {
    const fn new() -> Self {
        Ledger {
            device: [CallStats::ZERO; 9],
            ftl_calls: [0; 3],
            submits: Vec::new(),
            write_spans: Vec::new(),
            rng: SAMPLE_SEED,
            open: None,
        }
    }

    /// Stats of one call kind.
    pub fn call(&self, call: Call) -> &CallStats {
        &self.device[call as usize]
    }

    /// Split an executor span that made this ledger's calls into layers.
    pub fn attribute(&self, exec_span_ns: f64, cal: &Calibration) -> Attribution {
        let mut a = Attribution {
            ios: self.ftl_calls[Op::Read as usize] + self.ftl_calls[Op::Write as usize],
            ..Attribution::default()
        };
        let mut overhead = cal.span_ns;
        for s in &self.device {
            let scale = s.scale();
            a.device_ns += scale * s.self_ns(cal);
            for (total, ftl) in a.ftl_ns.iter_mut().zip(s.ftl_ns(cal)) {
                *total += scale * ftl;
            }
            overhead += s.overhead_ns(cal);
        }
        a.core_ns = exec_span_ns - a.device_ns - a.ftl_total_ns() - overhead;
        a
    }

    /// Add another ledger's records to this one.
    pub fn merge(&mut self, other: &Ledger) {
        for (a, b) in self.device.iter_mut().zip(&other.device) {
            a.calls += b.calls;
            a.samples += b.samples;
            a.span_ns += b.span_ns;
            for op in 0..3 {
                a.nested_ns[op] += b.nested_ns[op];
                a.nested[op] += b.nested[op];
            }
        }
        for (a, b) in self.ftl_calls.iter_mut().zip(other.ftl_calls) {
            *a += b;
        }
        self.submits.extend_from_slice(&other.submits);
        self.write_spans.extend_from_slice(&other.write_spans);
    }

    /// Mean self time of the timed calls of `calls`, per call.
    pub fn self_ns_per_call(&self, calls: &[Call], cal: &Calibration) -> f64 {
        self.mean_self_ns(calls, cal, |s| s.samples)
    }

    /// Mean self time of the timed calls of `calls`, per IO they put
    /// on the device.
    pub fn self_ns_per_io(&self, calls: &[Call], cal: &Calibration) -> f64 {
        self.mean_self_ns(calls, cal, |s| {
            s.nested[Op::Read as usize] + s.nested[Op::Write as usize]
        })
    }

    fn mean_self_ns(
        &self,
        calls: &[Call],
        cal: &Calibration,
        n: impl Fn(&CallStats) -> u64,
    ) -> f64 {
        let (sum, n) = calls.iter().fold((0.0, 0), |(sum, count), &c| {
            let s = self.call(c);
            (sum + s.self_ns(cal), count + n(s))
        });
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Mean whole span of the timed calls of `call` (nested FTL work
    /// included), ns.
    pub fn span_ns_per_call(&self, call: Call, cal: &Calibration) -> f64 {
        let s = self.call(call);
        if s.samples == 0 {
            0.0
        } else {
            s.span_ns as f64 / s.samples as f64 - cal.span_ns
        }
    }

    /// Per-IO self time of each timed submission, ns.
    pub fn submit_self_ns(&self, cal: &Calibration) -> Vec<f64> {
        self.submits
            .iter()
            .map(|s| {
                (s.outer_ns as f64 - cal.span_ns - s.nested as f64 * (cal.record_ns - cal.span_ns))
                    / s.ios as f64
            })
            .collect()
    }

    /// Mean true span of the timed FTL calls of `op`, ns.
    pub fn ftl_ns_per_call(&self, op: Op, cal: &Calibration) -> f64 {
        let (ns, n) = self.device.iter().fold((0u64, 0u64), |(ns, n), s| {
            (ns + s.nested_ns[op as usize], n + s.nested[op as usize])
        });
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 - cal.span_ns
        }
    }

    /// Decide whether a device call is timed, and open its span if so.
    fn enter(&mut self, call: Call) -> bool {
        if self.open.is_some() {
            // A device call inside a timed one belongs to its span.
            return false;
        }
        self.device[call as usize].calls += 1;
        let timed = call.always_timed() || {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            self.rng.is_multiple_of(SAMPLE_PERIOD)
        };
        if timed {
            self.open = Some(([0; 3], [0; 3]));
        }
        timed
    }

    fn leave(&mut self, call: Call, span_ns: u64) {
        let (nested_ns, nested) = self.open.take().unwrap_or_default();
        let s = &mut self.device[call as usize];
        s.samples += 1;
        s.span_ns += span_ns;
        for op in 0..3 {
            s.nested_ns[op] += nested_ns[op];
            s.nested[op] += nested[op];
        }
        let ios = nested[Op::Read as usize] + nested[Op::Write as usize];
        if matches!(call, Call::Submit | Call::SubmitBatch) && ios > 0 {
            self.submits.push(SubmitSample {
                outer_ns: span_ns - nested_ns.iter().sum::<u64>(),
                nested: nested.iter().sum(),
                ios,
            });
        }
    }

    /// Count an FTL call; it is timed when a timed device call is open.
    fn count_ftl(&mut self, op: Op) -> bool {
        self.ftl_calls[op as usize] += 1;
        self.open.is_some()
    }

    fn nest(&mut self, op: Op, span_ns: u64) {
        if let Some((nested_ns, nested)) = &mut self.open {
            nested_ns[op as usize] += span_ns;
            nested[op as usize] += 1;
        }
        if op == Op::Write {
            self.write_spans.push(span_ns);
        }
    }
}

thread_local! {
    static LEDGER: RefCell<Ledger> = const { RefCell::new(Ledger::new()) };
}

/// Clear this thread's ledger.
pub fn reset() {
    take();
}

/// Take this thread's ledger, leaving an empty one. The sampling stream
/// carries on, so the next execution times a different sample of calls:
/// a fixed sample would repeat its error in every repetition, and where
/// a few costly calls dominate (FTL merges) that error is large.
pub fn take() -> Ledger {
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        let rng = l.rng;
        let taken = std::mem::take(&mut *l);
        l.rng = rng;
        taken
    })
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn device_call<R>(call: Call, f: impl FnOnce() -> R) -> R {
    if !LEDGER.with(|l| l.borrow_mut().enter(call)) {
        return f();
    }
    let t0 = Instant::now();
    let r = f();
    let span = t0.elapsed();
    LEDGER.with(|l| l.borrow_mut().leave(call, nanos(span)));
    r
}

fn ftl_call<R>(op: Op, f: impl FnOnce() -> R) -> R {
    if !LEDGER.with(|l| l.borrow_mut().count_ftl(op)) {
        return f();
    }
    let t0 = Instant::now();
    let r = f();
    let span = t0.elapsed();
    LEDGER.with(|l| l.borrow_mut().nest(op, nanos(span)));
    r
}

/// Measure the tracing's own costs on this host. Each figure is the
/// smallest of five rounds, since preemption only ever adds time.
/// Leaves this thread's ledger empty.
pub fn calibrate() -> Calibration {
    const N: u64 = 100_000;
    let mut best = Calibration {
        span_ns: f64::INFINITY,
        record_ns: f64::INFINITY,
        skip_ns: f64::INFINITY,
    };
    for _ in 0..5 {
        let empty: Vec<f64> = (0..N)
            .map(|_| nanos(Instant::now().elapsed()) as f64)
            .collect();
        let span_ns = crate::stats::median(&empty);

        reset();
        let t = Instant::now();
        for _ in 0..N {
            device_call(Call::Snapshot, || black_box(()));
        }
        let record_ns = nanos(t.elapsed()) as f64 / N as f64;

        reset();
        let t = Instant::now();
        for _ in 0..N {
            device_call(Call::Poll, || black_box(()));
        }
        let total = nanos(t.elapsed()) as f64;
        let timed = take().call(Call::Poll).samples;
        let skip_ns = (total - timed as f64 * record_ns) / (N - timed) as f64;

        best.span_ns = best.span_ns.min(span_ns);
        best.record_ns = best.record_ns.min(record_ns);
        best.skip_ns = best.skip_ns.min(skip_ns.max(0.0));
    }
    reset();
    best
}

/// A [`BlockDevice`] decorator that times a sample of the calls made
/// to the device below it (see the module docs).
#[derive(Debug)]
pub struct TimedDevice<D> {
    inner: D,
}

impl<D> TimedDevice<D> {
    /// Wrap a device.
    pub fn new(inner: D) -> Self {
        TimedDevice { inner }
    }

    /// Unwrap.
    pub fn into_inner(self) -> D {
        self.inner
    }
}

impl<D: BlockDevice> TimedDevice<D> {
    fn queue(&mut self) -> uflip_device::Result<&mut dyn IoQueue> {
        self.inner.io_queue().ok_or(DeviceError::Internal(
            "queued call on a backend without a queue",
        ))
    }
}

impl<D: BlockDevice> BlockDevice for TimedDevice<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn read(&mut self, offset: u64, len: u64) -> uflip_device::Result<Duration> {
        device_call(Call::Read, || self.inner.read(offset, len))
    }

    fn write(&mut self, offset: u64, len: u64) -> uflip_device::Result<Duration> {
        device_call(Call::Write, || self.inner.write(offset, len))
    }

    fn idle(&mut self, d: Duration) {
        device_call(Call::Idle, || self.inner.idle(d))
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

    fn set_sink(&mut self, sink: SinkHandle) {
        self.inner.set_sink(sink);
    }

    fn take_async_error(&mut self) -> Option<std::io::Error> {
        self.inner.take_async_error()
    }

    fn snapshot_capable(&self) -> bool {
        self.inner.snapshot_capable()
    }

    fn snapshot_state(&self) -> Option<Box<dyn DeviceState>> {
        device_call(Call::Snapshot, || self.inner.snapshot_state())
    }

    fn restore_state(&mut self, state: &dyn DeviceState) -> uflip_device::Result<()> {
        device_call(Call::Restore, || self.inner.restore_state(state))
    }

    fn fork(&self) -> Option<Box<dyn BlockDevice + Send>> {
        let fork = self.inner.fork()?;
        Some(Box::new(TimedDevice::new(fork)))
    }

    fn recover(&mut self) -> uflip_device::Result<RecoveryReport> {
        self.inner.recover()
    }
}

impl<D: BlockDevice> IoQueue for TimedDevice<D> {
    fn queue_depth(&self) -> u32 {
        self.inner.io_queue_ref().map_or(1, |q| q.queue_depth())
    }

    fn set_queue_depth(&mut self, depth: u32) -> uflip_device::Result<()> {
        match self.inner.io_queue() {
            Some(q) => q.set_queue_depth(depth),
            None => Ok(()),
        }
    }

    fn in_flight(&self) -> usize {
        self.inner.io_queue_ref().map_or(0, |q| q.in_flight())
    }

    fn submit(&mut self, io: &IoRequest, at: Duration) -> uflip_device::Result<Token> {
        let queue = self.queue()?;
        device_call(Call::Submit, || queue.submit(io, at))
    }

    fn next_completion(&self) -> Option<Duration> {
        self.inner.io_queue_ref()?.next_completion()
    }

    fn poll(&mut self) -> Option<(Token, Duration)> {
        let queue = self.inner.io_queue()?;
        device_call(Call::Poll, || queue.poll())
    }

    fn submit_batch(
        &mut self,
        ios: &[IoRequest],
        at: Duration,
        tokens: &mut Vec<Token>,
    ) -> uflip_device::Result<usize> {
        let queue = self.queue()?;
        device_call(Call::SubmitBatch, || queue.submit_batch(ios, at, tokens))
    }

    fn poll_upto(&mut self, upto: Duration, out: &mut Vec<(Token, Duration)>) -> usize {
        match self.inner.io_queue() {
            Some(queue) => device_call(Call::PollUpto, || queue.poll_upto(upto, out)),
            None => 0,
        }
    }
}

/// An [`Ftl`] decorator that times the FTL calls made inside a timed
/// device call and counts all the others (see the module docs).
pub struct TimedFtl {
    inner: Box<dyn Ftl + Send>,
}

impl TimedFtl {
    /// Wrap an FTL.
    pub fn new(inner: Box<dyn Ftl + Send>) -> Self {
        TimedFtl { inner }
    }
}

impl Ftl for TimedFtl {
    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn read(&mut self, lba: u64, sectors: u32) -> uflip_ftl::Result<u64> {
        ftl_call(Op::Read, || self.inner.read(lba, sectors))
    }

    fn write(&mut self, lba: u64, sectors: u32) -> uflip_ftl::Result<u64> {
        ftl_call(Op::Write, || self.inner.write(lba, sectors))
    }

    fn on_idle(&mut self, ns: u64) {
        ftl_call(Op::Idle, || self.inner.on_idle(ns))
    }

    fn set_sink(&mut self, sink: SinkHandle) {
        self.inner.set_sink(sink);
    }

    fn channels(&self) -> u32 {
        self.inner.channels()
    }

    fn channel_busy_ns(&self, out: &mut Vec<u64>) {
        self.inner.channel_busy_ns(out);
    }

    fn clone_box(&self) -> Box<dyn Ftl + Send> {
        Box::new(TimedFtl::new(self.inner.clone_box()))
    }

    fn stats(&self) -> FtlStats {
        self.inner.stats()
    }

    fn nand_stats(&self) -> NandStats {
        self.inner.nand_stats()
    }

    fn recover(&mut self) -> uflip_ftl::Result<RecoveryReport> {
        self.inner.recover()
    }

    fn probe(&self, lba: u64) -> ProbeState {
        self.inner.probe(lba)
    }

    fn check_request(&self, lba: u64, sectors: u32) -> uflip_ftl::Result<()> {
        self.inner.check_request(lba, sectors)
    }
}
