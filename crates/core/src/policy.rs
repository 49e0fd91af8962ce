//! [`IoPolicy`]: retry, backoff and timeout semantics for a run.
//!
//! The paper benchmarks healthy devices, so the executors historically
//! treated every device error as fatal. Real measurement campaigns
//! meet transient faults — media errors the firmware surfaces, bus
//! hiccups, injected faults from a
//! [`uflip_device::FaultPlan`] — and a benchmark harness
//! has to decide *on behalf of the run* whether to retry, how long to
//! back off, and when to give up. [`IoPolicy`] makes that decision
//! explicit, per run, and deterministic:
//!
//! * a bounded **retry budget** per IO, with exponential backoff and
//!   seeded jitter (backoff is device [`idle`](uflip_device::BlockDevice::idle)
//!   time on the virtual clock — background reclamation runs during
//!   it, exactly as during any host think-time);
//! * an observational **timeout**: completions slower than the bound
//!   increment [`CounterId::IoTimeouts`] (simulated IOs always
//!   complete, so the timeout observes rather than cancels);
//! * an **exhaustion action**: abort the run (default) or degrade —
//!   record the failed IO's accumulated backoff as its response time
//!   and move on, the way a measurement campaign logs a bad sector and
//!   keeps going.
//!
//! Only *transient* errors ([`uflip_device::DeviceError::is_transient`])
//! are retried; wear-out, capacity and protocol errors propagate
//! immediately. Queue back-pressure
//! ([`uflip_device::DeviceError::QueueFull`]) is never consumed by the
//! policy — the event loops handle it as flow control.
//!
//! Every IO loop runs under a policy and an obs sink, passed in as
//! values (one `IoContext` per run). The loop calls the device
//! directly; only a failed call reaches the policy, through a `#[cold]`
//! retry continuation that resumes at attempt 1. Timeouts are judged
//! once the run is done, over its recorded response times. The noop
//! policy ([`IoPolicy::none`], the default everywhere) is a plain
//! value, not a separate path: its continuation hands every error
//! straight back and it has no timeout, so a run under it does exactly
//! what a loop without a policy would.

use crate::Result;
use std::time::Duration;
use uflip_device::{BlockDevice, DeviceError, IoQueue, Token};
use uflip_obs::{CounterId, LatencyClass, SinkHandle};
use uflip_patterns::{IoRequest, Mode};

/// What to do when an IO exhausts its retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExhaustionAction {
    /// Propagate the error and abort the run.
    #[default]
    Abort,
    /// Count the exhaustion, record the IO's accumulated backoff as
    /// its response time, and continue the run without the IO.
    Degrade,
}

/// Per-run retry/timeout policy (see the module docs). `Copy`, so runs
/// and suite options can carry it by value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoPolicy {
    /// Retry budget per IO (0 = never retry).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub backoff_base: Duration,
    /// Multiplier applied per successive retry (2 = doubling).
    pub backoff_factor: u32,
    /// Upper bound on any single backoff (jitter excluded).
    pub backoff_cap: Duration,
    /// Seed of the jitter stream; equal seeds give equal backoff
    /// sequences, keeping retried runs reproducible.
    pub jitter_seed: u64,
    /// Response times above this count as timeouts (observational).
    pub timeout: Option<Duration>,
    /// What to do when the retry budget runs out.
    pub on_exhaustion: ExhaustionAction,
}

impl Default for IoPolicy {
    /// The standard retrying policy: 4 retries, 100 µs doubling
    /// backoff capped at 10 ms, abort on exhaustion, no timeout.
    fn default() -> Self {
        IoPolicy {
            max_retries: 4,
            backoff_base: Duration::from_micros(100),
            backoff_factor: 2,
            backoff_cap: Duration::from_millis(10),
            jitter_seed: 0x0BAD_F00D,
            timeout: None,
            on_exhaustion: ExhaustionAction::Abort,
        }
    }
}

impl IoPolicy {
    /// The noop policy: no retries, no timeout. A run under it reports
    /// every device error as it comes.
    pub fn none() -> Self {
        IoPolicy {
            max_retries: 0,
            timeout: None,
            ..IoPolicy::default()
        }
    }

    /// Backoff before retry number `attempt` (1-based): base times
    /// factor^(attempt−1), capped, plus seeded jitter of up to a
    /// quarter of the base (drawn from `rng`, SplitMix64).
    pub fn backoff(&self, attempt: u32, rng: &mut u64) -> Duration {
        let exp = attempt.saturating_sub(1).min(16);
        let factor = u64::from(self.backoff_factor.max(1)).saturating_pow(exp);
        let base = Duration::from_nanos(
            (self.backoff_base.as_nanos() as u64)
                .saturating_mul(factor)
                .min(self.backoff_cap.as_nanos() as u64),
        );
        let jitter_range = self.backoff_base.as_nanos() as u64 / 4;
        if jitter_range == 0 {
            return base;
        }
        *rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        base + Duration::from_nanos(z % (jitter_range + 1))
    }

    /// Parse a `--io-policy` flag value.
    ///
    /// Accepts `none`, `default`, or a comma-separated list of
    /// `retries=N`, `base-us=N`, `factor=N`, `cap-ms=N`,
    /// `timeout-ms=N`, `seed=N` and the bare word `degrade`, applied
    /// over the default policy.
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        match s {
            "none" => return Ok(IoPolicy::none()),
            "default" => return Ok(IoPolicy::default()),
            _ => {}
        }
        let mut policy = IoPolicy::default();
        for part in s.split(',') {
            let part = part.trim();
            if part == "degrade" {
                policy.on_exhaustion = ExhaustionAction::Degrade;
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad io-policy element `{part}` (expected key=value)"))?;
            let n: u64 = value
                .parse()
                .map_err(|_| format!("bad io-policy value in `{part}`"))?;
            // `n` comes straight from the command line: reject values
            // that would silently truncate instead of wrapping them.
            let narrow = |n: u64| -> std::result::Result<u32, String> {
                u32::try_from(n).map_err(|_| format!("io-policy value out of range in `{part}`"))
            };
            match key {
                "retries" => policy.max_retries = narrow(n)?,
                "base-us" => policy.backoff_base = Duration::from_micros(n),
                "factor" => policy.backoff_factor = narrow(n)?,
                "cap-ms" => policy.backoff_cap = Duration::from_millis(n),
                "timeout-ms" => policy.timeout = Some(Duration::from_millis(n)),
                "seed" => policy.jitter_seed = n,
                other => return Err(format!("unknown io-policy key `{other}`")),
            }
        }
        Ok(policy)
    }
}

/// What one run's IO loop executes under: the policy, its jitter
/// stream (seeded per run, so equal policies give equal backoff
/// sequences) and the sink retries and timeouts are counted in.
pub(crate) struct IoContext<'a> {
    policy: &'a IoPolicy,
    sink: &'a SinkHandle,
    rng: u64,
}

/// Outcome of a queued submission.
pub(crate) enum SubmitOutcome {
    /// The IO is in flight under this token; its effective submission
    /// instant is the intended one plus any retry backoff (response
    /// times computed against the *intended* instant therefore include
    /// the backoff, as they should).
    Submitted(Token),
    /// The queue is full — back-pressure for the caller's event loop,
    /// never consumed by the policy.
    Full,
    /// The IO exhausted its budget under a degrading policy; it never
    /// reached the device. The payload is the backoff it accumulated —
    /// its recorded response time.
    Degraded(Duration),
}

/// One synchronous device call.
fn issue(dev: &mut dyn BlockDevice, io: &IoRequest) -> Result<Duration> {
    match io.mode {
        Mode::Read => dev.read(io.offset, io.size),
        Mode::Write => dev.write(io.offset, io.size),
    }
}

impl<'a> IoContext<'a> {
    /// The context of one run under `policy`, counting into `sink`.
    pub(crate) fn new(policy: &'a IoPolicy, sink: &'a SinkHandle) -> Self {
        IoContext {
            policy,
            sink,
            rng: policy.jitter_seed,
        }
    }

    /// Issue one synchronous IO and return its response time — for a
    /// retried IO the backoff included, for a degraded one the backoff
    /// alone. Only a failed call reaches the policy.
    #[inline]
    pub(crate) fn issue(&mut self, dev: &mut dyn BlockDevice, io: &IoRequest) -> Result<Duration> {
        match issue(dev, io) {
            Ok(rt) => Ok(rt),
            Err(e) => self.retry_issue(dev, io, e),
        }
    }

    /// Submit one queued IO at `at`. A full queue comes back as
    /// [`SubmitOutcome::Full`] for the caller's flow control; only
    /// another failure reaches the policy.
    #[inline]
    pub(crate) fn submit(
        &mut self,
        queue: &mut dyn IoQueue,
        io: &IoRequest,
        at: Duration,
    ) -> Result<SubmitOutcome> {
        match queue.submit(io, at) {
            Ok(token) => Ok(SubmitOutcome::Submitted(token)),
            Err(DeviceError::QueueFull { .. }) => Ok(SubmitOutcome::Full),
            Err(e) => self.retry_submit(queue, io, at, e),
        }
    }

    /// The retry continuation of [`IoContext::issue`], entered with
    /// the first attempt's error: back off (as device idle time) and
    /// reissue from attempt 1 while the error is transient and the
    /// budget lasts. A retried success is recorded under
    /// [`LatencyClass::Retry`].
    #[cold]
    #[inline(never)]
    fn retry_issue(
        &mut self,
        dev: &mut dyn BlockDevice,
        io: &IoRequest,
        mut err: DeviceError,
    ) -> Result<Duration> {
        let mut waited = Duration::ZERO;
        for attempt in 1..=self.policy.max_retries {
            if !err.is_transient() {
                return Err(err);
            }
            self.sink.add(CounterId::IoRetries, 1);
            let backoff = self.policy.backoff(attempt, &mut self.rng);
            dev.idle(backoff);
            waited += backoff;
            match issue(dev, io) {
                Ok(rt) => {
                    let total = waited + rt;
                    self.sink
                        .latency(LatencyClass::Retry, total.as_nanos() as u64);
                    return Ok(total);
                }
                Err(e) => err = e,
            }
        }
        self.exhausted(err).map(|()| waited)
    }

    /// The retry continuation of [`IoContext::submit`]: transient
    /// submit-time rejections (injected faults) retry from attempt 1
    /// with the backoff added to the submission instant; a full queue
    /// met on the way passes through as [`SubmitOutcome::Full`].
    #[cold]
    #[inline(never)]
    fn retry_submit(
        &mut self,
        queue: &mut dyn IoQueue,
        io: &IoRequest,
        at: Duration,
        mut err: DeviceError,
    ) -> Result<SubmitOutcome> {
        let mut waited = Duration::ZERO;
        for attempt in 1..=self.policy.max_retries {
            if !err.is_transient() {
                return Err(err);
            }
            self.sink.add(CounterId::IoRetries, 1);
            waited += self.policy.backoff(attempt, &mut self.rng);
            match queue.submit(io, at + waited) {
                Ok(token) => {
                    self.sink
                        .latency(LatencyClass::Retry, waited.as_nanos() as u64);
                    return Ok(SubmitOutcome::Submitted(token));
                }
                Err(DeviceError::QueueFull { .. }) => return Ok(SubmitOutcome::Full),
                Err(e) => err = e,
            }
        }
        self.exhausted(err)
            .map(|()| SubmitOutcome::Degraded(waited))
    }

    /// The last failure of an IO: a transient one past a nonzero
    /// budget counts as an exhaustion and, under a degrading policy,
    /// lets the run go on without the IO (`Ok`); anything else aborts.
    fn exhausted(&self, err: DeviceError) -> Result<()> {
        if err.is_transient() && self.policy.max_retries > 0 {
            self.sink.add(CounterId::RetryExhaustions, 1);
            if self.policy.on_exhaustion == ExhaustionAction::Degrade {
                return Ok(());
            }
        }
        Err(err)
    }

    /// Count the run's recorded response times above the policy's
    /// timeout — once the run is done, since a queued IO's response
    /// time is only known at its completion.
    pub(crate) fn count_timeouts(&self, rts: &[Duration]) {
        if let Some(limit) = self.policy.timeout {
            let slow = rts.iter().filter(|&&rt| rt > limit).count() as u64;
            if slow > 0 {
                self.sink.add(CounterId::IoTimeouts, slow);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let policy = IoPolicy {
            backoff_base: Duration::from_micros(100),
            backoff_factor: 2,
            backoff_cap: Duration::from_micros(350),
            ..IoPolicy::default()
        };
        let mut rng = 1u64;
        let jitter_max = Duration::from_micros(25);
        let b1 = policy.backoff(1, &mut rng);
        let b2 = policy.backoff(2, &mut rng);
        let b3 = policy.backoff(3, &mut rng);
        assert!(b1 >= Duration::from_micros(100) && b1 <= Duration::from_micros(100) + jitter_max);
        assert!(b2 >= Duration::from_micros(200) && b2 <= Duration::from_micros(200) + jitter_max);
        assert!(b3 >= Duration::from_micros(350) && b3 <= Duration::from_micros(350) + jitter_max);
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let policy = IoPolicy::default();
        let (mut a, mut b) = (7u64, 7u64);
        for attempt in 1..=4 {
            assert_eq!(
                policy.backoff(attempt, &mut a),
                policy.backoff(attempt, &mut b)
            );
        }
        let mut c = 8u64;
        let seq_a: Vec<_> = (1..=4).map(|n| policy.backoff(n, &mut a)).collect();
        let seq_c: Vec<_> = (1..=4).map(|n| policy.backoff(n, &mut c)).collect();
        assert_ne!(seq_a, seq_c, "different seeds jitter differently");
    }

    #[test]
    fn parse_accepts_the_flag_grammar() {
        assert_eq!(IoPolicy::parse("none").unwrap(), IoPolicy::none());
        assert_eq!(IoPolicy::parse("default").unwrap(), IoPolicy::default());
        let p = IoPolicy::parse("retries=7,base-us=50,cap-ms=2,timeout-ms=100,degrade").unwrap();
        assert_eq!(p.max_retries, 7);
        assert_eq!(p.backoff_base, Duration::from_micros(50));
        assert_eq!(p.backoff_cap, Duration::from_millis(2));
        assert_eq!(p.timeout, Some(Duration::from_millis(100)));
        assert_eq!(p.on_exhaustion, ExhaustionAction::Degrade);
        assert!(IoPolicy::parse("retries=x").is_err());
        assert!(IoPolicy::parse("bogus=1").is_err());
        assert!(IoPolicy::parse("retries").is_err());
    }
}
