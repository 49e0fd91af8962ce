//! [`ThreadedIoQueue`]: the asynchronous real-device IO engine.
//!
//! The simulated devices serve [`crate::IoQueue`] on a virtual clock;
//! real hardware needs actual concurrent submission. This module
//! provides it with a pool of worker threads issuing positioned
//! `pread`/`pwrite` (safe [`std::os::unix::fs::FileExt`], no `libc`)
//! on a shared [`Arc<File>`], a completion channel back to the
//! submitter, and NCQ-style admission: submissions past the configured
//! queue depth fail with [`crate::DeviceError::QueueFull`] until a
//! completion is polled, exactly like the simulated engine.
//!
//! ## Wall-clock semantics
//!
//! Unlike the virtual-time queues, *the device owns the clock here*:
//! every timestamp is wall time mapped onto the owning device's epoch
//! (the same epoch `BlockDevice::now` reports, so executor bookkeeping
//! stays on one clock). The differences callers must tolerate — the
//! `uflip_core` executor and replay engine do — are spelled out on
//! [`crate::IoQueue`]:
//!
//! * `submit(io, at)` treats `at` as *earliest start*: a worker holds
//!   the IO until the device clock reaches `at` (honoring pause/burst
//!   timing functions), and an `at` already in the past starts
//!   immediately. Submission times do **not** need to be
//!   non-decreasing: a completion that lands "in the past" relative to
//!   the event loop may release a process whose next IO predates an
//!   already-submitted future-dated IO.
//! * `next_completion` only knows about IOs that have *already*
//!   finished: `None` with IOs in flight means "nothing observed yet",
//!   not "nothing outstanding".
//! * `poll` blocks until a completion arrives when IOs are in flight
//!   (there is no virtual clock to advance past them).
//!
//! ## Error reporting
//!
//! `poll` has no error channel (a completion is a token and a time), so
//! a failed IO records its wall-clock completion like any other and
//! parks its [`std::io::Error`] in a FIFO; the next `submit` — or
//! direct calls to [`ThreadedIoQueue::take_error`] — surfaces them in
//! arrival order, one per call. *Every* concurrent failure is queued:
//! when two in-flight IOs fail, both errors report, not just the
//! first-observed one.
//!
//! ## Retries
//!
//! A [`RetrySpec`] (see [`ThreadedIoQueue::set_retry`]) makes workers
//! retry failed IOs in place with bounded exponential backoff — the
//! firmware-style retry loop real devices run below the host's view.
//! Each retry increments [`CounterId::IoRetries`] on the attached
//! sink; an IO that exhausts its budget parks its last error as usual.

use crate::queue::{IoQueue, Token};
use crate::Result;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fs::File;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use uflip_obs::{CounterId, SinkHandle};
use uflip_patterns::{IoRequest, Mode};

#[cfg(unix)]
use std::os::unix::fs::FileExt;

use crate::direct_io::AlignedBuf;

/// Upper bound on pool size: queue depths beyond this are still
/// admitted (NCQ bookkeeping), but at most this many IOs execute
/// concurrently — like a real device whose internal parallelism is
/// narrower than its command queue.
pub const MAX_WORKERS: usize = 64;

/// In-place retry budget for failed IOs, applied by the worker that
/// owns the IO: up to `max_retries` re-attempts with exponential
/// backoff (`backoff_base`, doubling, capped at `backoff_cap`) between
/// them. The default budget is zero retries — errors surface
/// immediately, the historical behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetrySpec {
    /// Maximum number of re-attempts after the initial failure.
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff.
    pub backoff_cap: Duration,
}

impl Default for RetrySpec {
    fn default() -> Self {
        RetrySpec {
            max_retries: 0,
            backoff_base: Duration::from_micros(200),
            backoff_cap: Duration::from_millis(10),
        }
    }
}

impl RetrySpec {
    /// Backoff before retry number `attempt` (1-based): base doubled
    /// per prior attempt, capped.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(16);
        self.backoff_base
            .saturating_mul(1u32 << shift)
            .min(self.backoff_cap)
    }
}

/// One unit of work handed to a worker thread.
struct Job {
    token: u64,
    mode: Mode,
    offset: u64,
    len: u64,
    /// Earliest start, relative to the device epoch.
    not_before: Duration,
    /// Write payload byte (varied per IO so content-aware firmware
    /// cannot dedup, mirroring the synchronous path).
    fill: u8,
    /// In-place retry budget for this IO.
    retry: RetrySpec,
}

/// A worker's report back to the submitter.
struct Completion {
    token: u64,
    /// Wall-clock completion, relative to the device epoch.
    done: Duration,
    result: std::io::Result<()>,
    /// Retries the worker spent before this outcome.
    retries: u32,
}

/// Completion-side state shared with `&self` accessors
/// (`next_completion` peeks from an immutable borrow, so the receiver
/// and the reorder heap live behind a mutex).
struct CompletionLane {
    done_rx: Receiver<Completion>,
    /// Completed but not yet polled, ordered by completion time.
    ready: BinaryHeap<Reverse<(u64, u64)>>,
    /// IO errors observed, in arrival order, parked until the next
    /// `submit` or `take_error` — every concurrent failure is kept.
    failed: VecDeque<std::io::Error>,
    /// Worker retries observed but not yet flushed to the sink.
    retries: u64,
}

impl CompletionLane {
    /// Move everything the workers have finished into the heap without
    /// blocking.
    fn drain(&mut self) {
        while let Ok(c) = self.done_rx.try_recv() {
            self.admit(c);
        }
    }

    fn admit(&mut self, c: Completion) {
        if let Err(e) = c.result {
            self.failed.push_back(e);
        }
        self.retries += u64::from(c.retries);
        self.ready
            .push(Reverse((c.done.as_nanos() as u64, c.token)));
    }
}

/// A threaded asynchronous submission/completion queue over a real
/// file or block device (see the module docs).
pub struct ThreadedIoQueue {
    file: Arc<File>,
    capacity: u64,
    epoch: Instant,
    depth: u32,
    in_flight: usize,
    next_token: u64,
    fill: u8,
    /// `None` only during teardown.
    job_tx: Option<Sender<Job>>,
    /// Shared tail of the job channel; workers take jobs one at a time.
    job_rx: Arc<Mutex<Receiver<Job>>>,
    done_tx: Sender<Completion>,
    lane: Mutex<CompletionLane>,
    workers: Vec<JoinHandle<()>>,
    /// Retry budget stamped onto every submitted job.
    retry: RetrySpec,
    /// Observability sink; never affects timing. No FTL behind a real
    /// device, so host-IO counters are emitted here at submission.
    sink: SinkHandle,
}

impl std::fmt::Debug for ThreadedIoQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedIoQueue")
            .field("depth", &self.depth)
            .field("in_flight", &self.in_flight)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl ThreadedIoQueue {
    /// Build a queue over `file`, serving offsets `< capacity`.
    /// `epoch` is the owning device's clock origin — completions are
    /// reported on it. Worker threads are spawned lazily on first
    /// submission, so an unused queue costs two channels.
    pub fn new(file: Arc<File>, capacity: u64, epoch: Instant) -> Self {
        let (job_tx, job_rx) = channel::<Job>();
        let (done_tx, done_rx) = channel::<Completion>();
        ThreadedIoQueue {
            file,
            capacity,
            epoch,
            depth: 1,
            in_flight: 0,
            next_token: 0,
            fill: 0xA5,
            job_tx: Some(job_tx),
            job_rx: Arc::new(Mutex::new(job_rx)),
            done_tx,
            lane: Mutex::new(CompletionLane {
                done_rx,
                ready: BinaryHeap::new(),
                failed: VecDeque::new(),
                retries: 0,
            }),
            workers: Vec::new(),
            retry: RetrySpec::default(),
            sink: SinkHandle::null(),
        }
    }

    /// Attach an observability sink (queue and host-IO counters).
    pub fn set_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }

    /// Configure the in-place retry budget workers apply to every IO
    /// submitted from now on (see [`RetrySpec`]; the default budget is
    /// zero retries).
    pub fn set_retry(&mut self, retry: RetrySpec) {
        self.retry = retry;
    }

    /// Take the oldest parked asynchronous IO error, if any (see the
    /// module docs — failed IOs complete normally and park their
    /// errors here in arrival order; call repeatedly to drain them
    /// all).
    pub fn take_error(&mut self) -> Option<std::io::Error> {
        // A poisoned lane means a worker panicked mid-update; surface
        // that as the parked error instead of cascading the panic.
        let Ok(mut lane) = self.lane.lock() else {
            return Some(std::io::Error::other(
                "IO worker panicked; completion lane poisoned",
            ));
        };
        lane.drain();
        self.flush_retries(&mut lane);
        lane.failed.pop_front()
    }

    /// Flush worker-observed retries into the sink counter.
    fn flush_retries(&self, lane: &mut CompletionLane) {
        let n = std::mem::take(&mut lane.retries);
        if n > 0 {
            self.sink.add(CounterId::IoRetries, n);
        }
    }

    /// Grow the worker pool to serve the current depth (capped at
    /// [`MAX_WORKERS`]).
    fn ensure_workers(&mut self) {
        let want = (self.depth as usize).min(MAX_WORKERS);
        while self.workers.len() < want {
            let file = Arc::clone(&self.file);
            let epoch = self.epoch;
            let rx = Arc::clone(&self.job_rx);
            let tx = self.done_tx.clone();
            self.workers.push(std::thread::spawn(move || {
                worker_loop(&file, epoch, &rx, &tx);
            }));
        }
    }

    fn validate(&self, io: &IoRequest) -> Result<()> {
        if io.size == 0 {
            return Err(crate::DeviceError::ZeroLength);
        }
        if !io.offset.is_multiple_of(512) || !io.size.is_multiple_of(512) {
            return Err(crate::DeviceError::Unaligned {
                offset: io.offset,
                len: io.size,
            });
        }
        if io.offset + io.size > self.capacity {
            return Err(crate::DeviceError::OutOfRange {
                offset: io.offset,
                len: io.size,
                capacity: self.capacity,
            });
        }
        Ok(())
    }
}

/// One worker: take a job, wait out its earliest-start time, do the
/// IO on a private aligned scratch buffer, report the wall-clock
/// completion. Exits when the queue is dropped (job channel closed).
// uflip-lint: allow-fn(UF021, reason = "deliberate: blocking on recv under the lock hands jobs out one at a time; the guard drops before the IO itself")
fn worker_loop(
    file: &File,
    epoch: Instant,
    jobs: &Mutex<Receiver<Job>>,
    done: &Sender<Completion>,
) {
    let mut buf = AlignedBuf::new(4096);
    loop {
        // Holding the lock while blocked hands jobs out one at a time;
        // execution still overlaps because the lock drops before IO.
        let job = match jobs.lock() {
            Ok(rx) => match rx.recv() {
                Ok(j) => j,
                Err(_) => return,
            },
            Err(_) => return,
        };
        let now = epoch.elapsed();
        if job.not_before > now {
            std::thread::sleep(job.not_before - now);
        }
        let mut retries = 0u32;
        let result = loop {
            match perform_io(file, &mut buf, &job) {
                Ok(()) => break Ok(()),
                Err(e) if retries < job.retry.max_retries => {
                    retries += 1;
                    std::thread::sleep(job.retry.backoff(retries));
                    let _ = e;
                }
                Err(e) => break Err(e),
            }
        };
        let completion = Completion {
            token: job.token,
            done: epoch.elapsed(),
            result,
            retries,
        };
        if done.send(completion).is_err() {
            return;
        }
    }
}

#[cfg(unix)]
fn perform_io(file: &File, buf: &mut AlignedBuf, job: &Job) -> std::io::Result<()> {
    let len = job.len as usize;
    buf.ensure(len);
    match job.mode {
        Mode::Read => file.read_exact_at(&mut buf.as_mut_slice()[..len], job.offset),
        Mode::Write => {
            buf.as_mut_slice()[..len].fill(job.fill);
            file.write_all_at(&buf.as_slice()[..len], job.offset)
        }
    }
}

#[cfg(not(unix))]
fn perform_io(_file: &File, _buf: &mut AlignedBuf, _job: &Job) -> std::io::Result<()> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "threaded IO queue requires a Unix platform",
    ))
}

impl IoQueue for ThreadedIoQueue {
    fn queue_depth(&self) -> u32 {
        self.depth
    }

    fn set_queue_depth(&mut self, depth: u32) -> Result<()> {
        if self.in_flight > 0 {
            return Err(crate::DeviceError::DepthChangeInFlight {
                in_flight: self.in_flight,
            });
        }
        self.depth = depth.max(1);
        Ok(())
    }

    fn in_flight(&self) -> usize {
        self.in_flight
    }

    fn submit(&mut self, io: &IoRequest, at: Duration) -> Result<Token> {
        if self.in_flight >= self.depth as usize {
            self.sink.add(CounterId::QueueFullRejections, 1);
            return Err(crate::DeviceError::QueueFull { depth: self.depth });
        }
        self.validate(io)?;
        {
            let mut lane = self.lane.lock().map_err(|_| {
                crate::DeviceError::Internal("completion lane poisoned by a worker panic")
            })?;
            lane.drain();
            self.flush_retries(&mut lane);
            if let Some(e) = lane.failed.pop_front() {
                return Err(crate::DeviceError::Io(e));
            }
        }
        self.ensure_workers();
        self.fill = self.fill.wrapping_add(1);
        let token = Token::from_raw(self.next_token);
        let job = Job {
            token: self.next_token,
            mode: io.mode,
            offset: io.offset,
            len: io.size,
            not_before: at,
            fill: self.fill,
            retry: self.retry,
        };
        self.job_tx
            .as_ref()
            .ok_or(crate::DeviceError::Internal(
                "job channel closed while the queue lives",
            ))?
            .send(job)
            .map_err(|_| {
                crate::DeviceError::Io(std::io::Error::other("IO worker pool shut down"))
            })?;
        self.next_token += 1;
        self.in_flight += 1;
        self.sink.add(CounterId::QueueSubmissions, 1);
        match io.mode {
            Mode::Read => {
                self.sink.add(CounterId::HostReads, 1);
                self.sink.add(CounterId::LogicalBytesRead, io.size);
            }
            Mode::Write => {
                self.sink.add(CounterId::HostWrites, 1);
                self.sink.add(CounterId::LogicalBytesWritten, io.size);
            }
        }
        Ok(token)
    }

    fn next_completion(&self) -> Option<Duration> {
        // Poisoned lane: no completion is knowable; the error surfaces
        // on the next submit/take_error.
        let Ok(mut lane) = self.lane.lock() else {
            return None;
        };
        lane.drain();
        lane.ready
            .peek()
            .map(|Reverse((ns, _))| Duration::from_nanos(*ns))
    }

    // uflip-lint: allow-fn(UF021, reason = "single consumer: poll is the only reader of done_rx, which lives inside the lane it locks; workers send without taking the lane")
    fn poll(&mut self) -> Option<(Token, Duration)> {
        // Poisoned lane: the pool is dead, nothing left to wait for
        // (same contract as the channel closing below).
        let Ok(mut lane) = self.lane.lock() else {
            return None;
        };
        lane.drain();
        self.flush_retries(&mut lane);
        if lane.ready.is_empty() {
            if self.in_flight == 0 {
                return None;
            }
            // Block for the next completion; a worker will deliver one
            // (or the channel closes if the pool died, in which case
            // there is nothing left to wait for).
            match lane.done_rx.recv() {
                Ok(c) => {
                    lane.admit(c);
                    lane.drain();
                }
                Err(_) => return None,
            }
            self.flush_retries(&mut lane);
        }
        let Reverse((ns, tok)) = lane.ready.pop()?;
        self.in_flight -= 1;
        self.sink.add(CounterId::QueueCompletions, 1);
        Some((Token::from_raw(tok), Duration::from_nanos(ns)))
    }
}

impl Drop for ThreadedIoQueue {
    fn drop(&mut self) {
        // Closing the job channel lets workers finish queued jobs and
        // exit; join so no thread outlives the file handle's owner.
        drop(self.job_tx.take());
        for w in self.workers.drain(..) {
            // uflip-lint: allow(UF030, reason = "a worker that panicked already reported its error via take_error; Drop must not panic again")
            let _ = w.join();
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("uflip-tq-{name}-{}", std::process::id()))
    }

    fn queue(name: &str, capacity: u64) -> (ThreadedIoQueue, std::path::PathBuf) {
        let path = scratch(name);
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .unwrap();
        file.set_len(capacity).unwrap();
        let q = ThreadedIoQueue::new(Arc::new(file), capacity, Instant::now());
        (q, path)
    }

    fn io(mode: Mode, offset: u64, size: u64) -> IoRequest {
        IoRequest {
            index: 0,
            offset,
            size,
            mode,
            submit_delay: Duration::ZERO,
            process: 0,
        }
    }

    #[test]
    fn admission_respects_queue_depth() {
        let (mut q, path) = queue("admission", 1 << 20);
        q.set_queue_depth(2).unwrap();
        q.submit(&io(Mode::Write, 0, 4096), Duration::ZERO).unwrap();
        q.submit(&io(Mode::Write, 4096, 4096), Duration::ZERO)
            .unwrap();
        assert!(matches!(
            q.submit(&io(Mode::Write, 8192, 4096), Duration::ZERO),
            Err(crate::DeviceError::QueueFull { depth: 2 })
        ));
        assert_eq!(q.in_flight(), 2);
        while q.poll().is_some() {}
        assert_eq!(q.in_flight(), 0);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn every_token_completes_exactly_once() {
        let (mut q, path) = queue("tokens", 1 << 20);
        q.set_queue_depth(8).unwrap();
        let mut submitted = HashSet::new();
        let mut polled = HashSet::new();
        for round in 0..4 {
            for i in 0..8u64 {
                let t = q
                    .submit(&io(Mode::Write, i * 4096, 4096), Duration::ZERO)
                    .unwrap();
                assert!(submitted.insert(t), "token reuse in round {round}");
            }
            while let Some((t, done)) = q.poll() {
                assert!(polled.insert(t), "token completed twice");
                assert!(done > Duration::ZERO);
            }
        }
        assert_eq!(submitted, polled);
        assert_eq!(submitted.len(), 32);
        assert!(q.take_error().is_none());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn validation_mirrors_the_sync_path() {
        let (mut q, path) = queue("validate", 1 << 20);
        assert!(matches!(
            q.submit(&io(Mode::Read, 100, 512), Duration::ZERO),
            Err(crate::DeviceError::Unaligned { .. })
        ));
        assert!(matches!(
            q.submit(&io(Mode::Read, 1 << 20, 512), Duration::ZERO),
            Err(crate::DeviceError::OutOfRange { .. })
        ));
        assert!(matches!(
            q.submit(&io(Mode::Read, 0, 0), Duration::ZERO),
            Err(crate::DeviceError::ZeroLength)
        ));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn not_before_delays_the_start() {
        let (mut q, path) = queue("delay", 1 << 20);
        let epoch_now = Duration::ZERO;
        let hold = Duration::from_millis(20);
        q.submit(&io(Mode::Write, 0, 512), epoch_now + hold)
            .unwrap();
        let (_, done) = q.poll().expect("one IO in flight");
        assert!(done >= hold, "IO started before its earliest-start time");
        let _ = std::fs::remove_file(path);
    }

    /// A queue whose declared capacity exceeds the backing file, so
    /// reads past EOF fail inside the workers.
    fn short_file_queue(
        name: &str,
        file_len: u64,
        declared: u64,
    ) -> (ThreadedIoQueue, std::path::PathBuf) {
        let path = scratch(name);
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        file.set_len(file_len).unwrap();
        let q = ThreadedIoQueue::new(Arc::new(file), declared, Instant::now());
        (q, path)
    }

    #[test]
    fn concurrent_failures_all_surface() {
        let (mut q, path) = short_file_queue("twofail", 4096, 1 << 20);
        q.set_queue_depth(2).unwrap();
        q.submit(&io(Mode::Read, 512 * 1024, 4096), Duration::ZERO)
            .unwrap();
        q.submit(&io(Mode::Read, 768 * 1024, 4096), Duration::ZERO)
            .unwrap();
        // Both IOs complete (poll has no error channel)...
        assert!(q.poll().is_some());
        assert!(q.poll().is_some());
        assert!(q.poll().is_none());
        // ...and BOTH failures report, not just the first-observed one.
        assert!(q.take_error().is_some(), "first failure must surface");
        assert!(q.take_error().is_some(), "second failure must surface too");
        assert!(q.take_error().is_none());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn retry_budget_is_spent_and_counted() {
        let (mut q, path) = short_file_queue("retry", 4096, 1 << 20);
        let (metrics, handle) = uflip_obs::Metrics::shared();
        q.set_sink(handle);
        q.set_retry(RetrySpec {
            max_retries: 2,
            backoff_base: Duration::from_micros(50),
            backoff_cap: Duration::from_micros(200),
        });
        // A read past EOF fails deterministically on every attempt.
        q.submit(&io(Mode::Read, 512 * 1024, 4096), Duration::ZERO)
            .unwrap();
        let (_, _) = q.poll().expect("the IO completes after its retries");
        assert!(q.take_error().is_some(), "budget exhausted, error parks");
        assert_eq!(
            metrics.counter(CounterId::IoRetries),
            2,
            "both retries counted"
        );
        // A successful IO spends no retries.
        q.submit(&io(Mode::Write, 0, 4096), Duration::ZERO).unwrap();
        q.poll().unwrap();
        assert!(q.take_error().is_none());
        assert_eq!(metrics.counter(CounterId::IoRetries), 2);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let spec = RetrySpec {
            max_retries: 10,
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_micros(350),
        };
        assert_eq!(spec.backoff(1), Duration::from_micros(100));
        assert_eq!(spec.backoff(2), Duration::from_micros(200));
        assert_eq!(spec.backoff(3), Duration::from_micros(350), "capped");
        assert_eq!(spec.backoff(9), Duration::from_micros(350));
    }

    #[test]
    fn depth_change_mid_flight_is_an_error() {
        let (mut q, path) = queue("midflight", 1 << 20);
        q.set_queue_depth(4).unwrap();
        q.submit(&io(Mode::Write, 0, 4096), Duration::ZERO).unwrap();
        assert!(matches!(
            q.set_queue_depth(8),
            Err(crate::DeviceError::DepthChangeInFlight { in_flight: 1 })
        ));
        while q.poll().is_some() {}
        q.set_queue_depth(8).unwrap();
        assert_eq!(q.queue_depth(), 8);
        let _ = std::fs::remove_file(path);
    }
}
