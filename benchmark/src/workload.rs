//! The five workloads: what each sets up, what one repetition runs, and
//! the checks every repetition must pass.
//!
//! A repetition runs the workload once on every profile it covers, each
//! time on a freshly built device. Per profile, the timed region is
//! device construction, trace decoding (replays) and the execution;
//! fingerprinting and reading statistics afterwards are untimed.

use crate::stats::{self, Fnv};
use crate::timed::{self, Ledger, TimedDevice, TimedFtl};
use std::time::Instant;
use uflip_core::executor::execute_parallel;
use uflip_core::methodology::plan::{BenchmarkPlan, PlanStep};
use uflip_core::methodology::state::enforce_random_state;
use uflip_core::micro::MicroConfig;
use uflip_core::replay::{replay_trace, replay_trace_with_policy, ReplayMode};
use uflip_core::suite::{execute_plan, full_suite, SuiteOptions, SuiteResult};
use uflip_core::{ExhaustionAction, IoPolicy, RunResult, Workload as PlanWorkload};
use uflip_device::profiles::catalog;
use uflip_device::{BlockDevice, DeviceProfile, FaultPlan, FaultyDevice, FtlSpec, SimDevice};
use uflip_ftl::{BlockMapFtl, FittedFtl, Ftl, FtlStats, HybridLogFtl, PageMapFtl};
use uflip_nand::NandStats;
use uflip_obs::{CounterId, Metrics, SinkHandle};
use uflip_patterns::{LbaFn, Mode, ParallelSpec, PatternSpec};
use uflip_trace::generate::{BtreeMixConfig, PageLoggingConfig};
use uflip_trace::Trace;

const KB: u64 = 1024;
const MB: u64 = 1024 * KB;

/// The §4.1 state-enforcement IO ceiling `execute_plan` uses (the flash
/// block size), for timing the enforcement on its own.
const ENFORCE_MAX_IO: u64 = 128 * KB;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-heavy B-tree trace, open loop at queue depth 16.
    OltpReplay,
    /// Write-heavy page-logging trace, timing-faithful at depth 1.
    CheckpointReplay,
    /// The same, under injected faults, a retry policy and a Metrics sink.
    CheckpointFaultyObserved,
    /// Eight random-read processes at queue depth 16.
    ParallelRrQd16,
    /// The nine micro-benchmarks as one plan.
    FullPlan,
}

impl Workload {
    /// Every workload, in the order `run` executes them.
    pub const ALL: [Workload; 5] = [
        Workload::OltpReplay,
        Workload::CheckpointReplay,
        Workload::CheckpointFaultyObserved,
        Workload::ParallelRrQd16,
        Workload::FullPlan,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpReplay => "oltp_replay",
            Workload::CheckpointReplay => "checkpoint_replay",
            Workload::CheckpointFaultyObserved => "checkpoint_faulty_observed",
            Workload::ParallelRrQd16 => "parallel_rr_qd16",
            Workload::FullPlan => "full_plan",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Settings of one benchmark process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Small inputs and two profiles, for smoke tests.
    pub quick: bool,
}

/// Independent seed streams derived from [`Config::seed`].
#[derive(Debug, Clone, Copy)]
enum Stream {
    Trace = 1,
    Device,
    Faults,
    Policy,
    Pattern,
}

impl Config {
    fn seed_for(&self, stream: Stream) -> u64 {
        // SplitMix64 finalizer over (seed, stream).
        let mut z = self
            .seed
            .wrapping_add((stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn scaled(&self, full: u64, quick: u64) -> u64 {
        if self.quick {
            quick
        } else {
            full
        }
    }

    fn profiles(&self, w: Workload) -> Vec<DeviceProfile> {
        match (w, self.quick) {
            (Workload::ParallelRrQd16, false) => {
                vec![catalog::memoright(), catalog::mtron(), catalog::samsung()]
            }
            (Workload::ParallelRrQd16, true) => vec![catalog::memoright()],
            (_, false) => catalog::representative(),
            (_, true) => vec![catalog::memoright(), catalog::kingston_dti()],
        }
    }
}

/// How a repetition is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// As a user runs it: no decorators. The end-to-end configuration.
    Plain,
    /// Under the timing decorators.
    Traced,
    /// Plain, but with the null sink where the workload observes
    /// through a Metrics sink: the baseline of the obs cost.
    NullSink,
}

/// Build `profile`'s simulated device, with its FTL under a
/// [`TimedFtl`] when `traced`. The FTL comes from `profile.ftl` the way
/// `DeviceProfile::build_sim` builds it.
pub fn build_device(profile: &DeviceProfile, seed: u64, traced: bool) -> Box<SimDevice> {
    if !traced {
        return profile.build_sim(seed);
    }
    let ftl: Box<dyn Ftl + Send> = match &profile.ftl {
        FtlSpec::PageMap(c) => Box::new(PageMapFtl::new(*c).expect("catalog config is valid")),
        FtlSpec::HybridLog(c) => Box::new(HybridLogFtl::new(*c).expect("catalog config is valid")),
        FtlSpec::BlockMap(c) => Box::new(BlockMapFtl::new(*c).expect("catalog config is valid")),
        FtlSpec::Fitted(c) => Box::new(FittedFtl::new(c.clone()).expect("catalog config is valid")),
    };
    Box::new(
        SimDevice::new(
            profile.id.clone(),
            Box::new(TimedFtl::new(ftl)),
            profile.controller,
            profile.stride_quirk,
        )
        .with_seed(seed),
    )
}

/// What one workload runs on, built once per process: the set-up.
pub enum Inputs {
    /// Encoded traces, replayed on each profile.
    Replay {
        /// Each profile with the index of its trace.
        targets: Vec<(DeviceProfile, usize)>,
        /// Binary-encoded traces (profiles of equal size share one).
        traces: Vec<Vec<u8>>,
        /// Replay scheduling.
        mode: ReplayMode,
        /// Fault plan and retry policy, for the faulty workload.
        faults: Option<(FaultPlan, IoPolicy)>,
        /// Device jitter seed.
        device_seed: u64,
    },
    /// Pre-filled devices and the parallel pattern run on them.
    Parallel {
        /// Per profile: the filled device, and its traced twin.
        targets: Vec<(DeviceProfile, SimDevice, Option<SimDevice>)>,
        /// The pattern.
        spec: ParallelSpec,
    },
    /// A benchmark plan per profile.
    Plan {
        /// Per profile: its plan and the IOs the plan's runs issue.
        targets: Vec<(DeviceProfile, BenchmarkPlan, u64)>,
        /// Plan execution options.
        opts: SuiteOptions,
        /// Device jitter seed.
        device_seed: u64,
    },
}

/// Counters a Metrics sink recorded for one profile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsCounts {
    /// Retried IOs.
    pub retries: u64,
    /// Injected read and write faults.
    pub faults: u64,
    /// IOs that exhausted their retry budget.
    pub exhaustions: u64,
}

/// What the timing decorators saw on one profile.
#[derive(Debug, Clone)]
pub struct ProfileTrace {
    /// Device construction, ns.
    pub build_ns: u64,
    /// Trace decoding, ns.
    pub decode_ns: u64,
    /// Records decoded.
    pub records: u64,
    /// The executor call, ns.
    pub exec_ns: u64,
    /// The device and FTL calls it made.
    pub ledger: Ledger,
}

/// One profile's part of a repetition.
#[derive(Debug, Clone)]
pub struct ProfileOutcome {
    /// Profile id.
    pub id: String,
    /// FTL family name.
    pub family: &'static str,
    /// IOs the workload asked for.
    pub ios: u64,
    /// Fingerprint of everything simulated.
    pub fingerprint: u64,
    /// Host time of the timed region, ns.
    pub wall_ns: u64,
    /// FTL and NAND statistics accrued by the execution (not for plans,
    /// whose snapshot restores rewind them).
    pub counts: Option<(FtlStats, NandStats)>,
    /// Metrics-sink counters, where the workload observes.
    pub obs: Option<ObsCounts>,
    /// Decorator records, on traced repetitions.
    pub trace: Option<ProfileTrace>,
}

/// One repetition.
#[derive(Debug, Clone)]
pub struct RepOutcome {
    /// Host seconds of the timed regions.
    pub wall_s: f64,
    /// IOs the workload asked for.
    pub ios: u64,
    /// IOs that failed for good (retry exhaustions).
    pub failed: u64,
    /// Fingerprint over every profile's.
    pub fingerprint: u64,
    /// Per profile.
    pub profiles: Vec<ProfileOutcome>,
}

impl RepOutcome {
    fn new(profiles: Vec<ProfileOutcome>) -> Self {
        let mut h = Fnv::default();
        for p in &profiles {
            h.u64(p.fingerprint);
        }
        RepOutcome {
            wall_s: profiles.iter().map(|p| p.wall_ns).sum::<u64>() as f64 / 1e9,
            ios: profiles.iter().map(|p| p.ios).sum(),
            failed: profiles
                .iter()
                .filter_map(|p| p.obs)
                .map(|o| o.exhaustions)
                .sum(),
            fingerprint: h.finish(),
            profiles,
        }
    }
}

impl Inputs {
    /// Build the inputs of `w` (the set-up). `traced` also prepares what
    /// traced repetitions need.
    pub fn build(w: Workload, cfg: &Config, traced: bool) -> Inputs {
        let profiles = cfg.profiles(w);
        let device_seed = cfg.seed_for(Stream::Device);
        match w {
            Workload::OltpReplay => {
                let ops = cfg.scaled(200_000, 4_000);
                let seed = cfg.seed_for(Stream::Trace);
                let (targets, traces) = encode_per_size(profiles, |cap| {
                    BtreeMixConfig::oltp(0, (cap / 2).min(256 * MB), ops, seed).generate()
                });
                Inputs::Replay {
                    targets,
                    traces,
                    mode: ReplayMode::OpenLoop { queue_depth: 16 },
                    faults: None,
                    device_seed,
                }
            }
            Workload::CheckpointReplay | Workload::CheckpointFaultyObserved => {
                let ops = cfg.scaled(100_000, 2_000);
                let seed = cfg.seed_for(Stream::Trace);
                let (targets, traces) = encode_per_size(profiles, |cap| {
                    let unit = cap / 8 / MB * MB;
                    PageLoggingConfig::checkpointing(0, unit, 2 * unit, 4 * unit, ops, seed)
                        .generate()
                });
                let faults = (w == Workload::CheckpointFaultyObserved).then(|| {
                    let plan = FaultPlan {
                        seed: cfg.seed_for(Stream::Faults),
                        read_error_rate: 0.05,
                        write_error_rate: 0.05,
                        ..FaultPlan::default()
                    };
                    // Eight retries put an exhaustion (0.05^9 per IO) out
                    // of reach, so no operation fails.
                    let policy = IoPolicy {
                        max_retries: 8,
                        jitter_seed: cfg.seed_for(Stream::Policy),
                        on_exhaustion: ExhaustionAction::Degrade,
                        ..IoPolicy::default()
                    };
                    (plan, policy)
                });
                Inputs::Replay {
                    targets,
                    traces,
                    mode: ReplayMode::TimingFaithful,
                    faults,
                    device_seed,
                }
            }
            Workload::ParallelRrQd16 => {
                let ios = cfg.scaled(2_000_000, 16_000);
                // Every profile here has the same capacity, so one target.
                let target = profiles
                    .iter()
                    .map(|p| p.sim_capacity_bytes() / 2 / MB * MB)
                    .min()
                    .unwrap_or(MB);
                let base = PatternSpec::baseline(LbaFn::Random, Mode::Read, 4 * KB, target, ios)
                    .with_seed(cfg.seed_for(Stream::Pattern));
                let spec = ParallelSpec::new(base, 8).with_queue_depth(16);
                let targets = profiles
                    .into_iter()
                    .map(|p| {
                        let plain = fill(&p, device_seed, target, false);
                        let timed = traced.then(|| fill(&p, device_seed, target, true));
                        (p, plain, timed)
                    })
                    .collect();
                Inputs::Parallel { targets, spec }
            }
            Workload::FullPlan => {
                let targets = profiles
                    .into_iter()
                    .map(|p| {
                        let cap = p.sim_capacity_bytes();
                        // io_count 512 rather than the paper's 1024: see the
                        // README's known defect on kingston-dti.
                        let micro = MicroConfig {
                            io_count: cfg.scaled(512, 32),
                            io_count_rw: cfg.scaled(768, 48),
                            target_size: (cap / 3).max(MB) / MB * MB,
                            ..MicroConfig::quick()
                        };
                        let plan = BenchmarkPlan::build(full_suite(&micro), cap);
                        let ios = planned_ios(&plan);
                        (p, plan, ios)
                    })
                    .collect();
                // The plan is the paper's fixed suite and keeps its default
                // seeds, for its patterns and its enforced random state: the
                // seed varies the devices' service-time jitter only. With
                // the pattern seeds varied too, peak memory moved by 10%
                // from seed to seed, as runs left more or less FTL state.
                Inputs::Plan {
                    targets,
                    opts: SuiteOptions::default(),
                    device_seed,
                }
            }
        }
    }

    /// A digest of the inputs: equal set-ups give equal digests.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        match self {
            Inputs::Replay { traces, .. } => {
                for t in traces {
                    h.u64(stats::digest(t));
                }
            }
            Inputs::Parallel { targets, .. } => {
                for (_, dev, _) in targets {
                    h.u64(dev.now().as_nanos() as u64);
                    h.u64(dev.ftl().nand_stats().page_programs);
                }
            }
            Inputs::Plan { targets, .. } => {
                for (_, plan, ios) in targets {
                    h.u64(plan.steps.len() as u64);
                    h.u64(plan.resets as u64);
                    h.u64(*ios);
                }
            }
        }
        h.finish()
    }

    /// Run one repetition under each of `probes`. Per profile the probes
    /// run back to back, so they meet the same host conditions.
    pub fn rep(&self, probes: &[Probe]) -> Result<Vec<RepOutcome>, String> {
        let profiles = match self {
            Inputs::Replay { targets, .. } => targets.len(),
            Inputs::Parallel { targets, .. } => targets.len(),
            Inputs::Plan { targets, .. } => targets.len(),
        };
        let mut runs: Vec<Vec<ProfileOutcome>> = vec![Vec::new(); probes.len()];
        for i in 0..profiles {
            for (runs, &probe) in runs.iter_mut().zip(probes) {
                runs.push(self.run(i, probe)?);
            }
        }
        Ok(runs.into_iter().map(RepOutcome::new).collect())
    }

    /// Run the workload on profile `i` under `probe`.
    fn run(&self, i: usize, probe: Probe) -> Result<ProfileOutcome, String> {
        let traced = probe == Probe::Traced;
        let record = |build_ns, decode_ns, records, exec_ns| {
            traced.then(|| ProfileTrace {
                build_ns,
                decode_ns,
                records,
                exec_ns,
                ledger: timed::take(),
            })
        };
        let t0 = Instant::now();
        match self {
            Inputs::Replay {
                targets,
                traces,
                mode,
                faults,
                device_seed,
            } => {
                let (profile, t) = &targets[i];
                let sim = build_device(profile, *device_seed, traced);
                let build_ns = elapsed_ns(t0);
                let trace = Trace::from_binary(&traces[*t]).map_err(|e| e.to_string())?;
                let decode_ns = elapsed_ns(t0) - build_ns;
                let before = counts_of(&sim);
                let (run, exec_ns, sim, obs) = match faults {
                    None => {
                        let (run, exec_ns, sim) =
                            drive(sim, traced, |d| replay_trace(d, &trace, *mode));
                        (run, exec_ns, sim, None)
                    }
                    Some((plan, policy)) => {
                        let (metrics, sink) = if probe == Probe::NullSink {
                            (None, SinkHandle::null())
                        } else {
                            let (m, s) = Metrics::shared();
                            (Some(m), s)
                        };
                        let faulty = FaultyDevice::new(sim, plan.clone());
                        let (run, exec_ns, faulty) = drive(faulty, traced, |d| {
                            replay_trace_with_policy(d, &trace, *mode, policy, &sink)
                        });
                        let obs = metrics.map(|m| ObsCounts {
                            retries: m.counter(CounterId::IoRetries),
                            faults: m.counter(CounterId::InjectedReadFaults)
                                + m.counter(CounterId::InjectedWriteFaults),
                            exhaustions: m.counter(CounterId::RetryExhaustions),
                        });
                        (run, exec_ns, faulty.into_inner(), obs)
                    }
                };
                let wall_ns = elapsed_ns(t0);
                let run = run.map_err(|e| format!("{}: {e}", profile.id))?;
                check_run(&profile.id, &run, trace.len())?;
                let records = trace.len() as u64;
                Ok(ProfileOutcome {
                    id: profile.id.clone(),
                    family: profile.ftl_family(),
                    ios: records,
                    fingerprint: fingerprint_run(&run, &sim),
                    wall_ns,
                    counts: Some(counts_of(&sim).since(before)),
                    obs,
                    trace: record(build_ns, decode_ns, records, exec_ns),
                })
            }
            Inputs::Parallel { targets, spec } => {
                let (profile, plain, timed) = &targets[i];
                let proto = match (traced, timed) {
                    (true, Some(t)) => t,
                    (true, None) => return Err("traced rep without traced set-up".into()),
                    (false, _) => plain,
                };
                let sim = Box::new(proto.clone());
                let build_ns = elapsed_ns(t0);
                let before = counts_of(&sim);
                let (run, exec_ns, sim) = drive(sim, traced, |d| execute_parallel(d, spec));
                let wall_ns = elapsed_ns(t0);
                let run = run.map_err(|e| format!("{}: {e}", profile.id))?;
                let ios: u64 = spec.process_specs().iter().map(|s| s.io_count).sum();
                check_run(&profile.id, &run, ios as usize)?;
                Ok(ProfileOutcome {
                    id: profile.id.clone(),
                    family: profile.ftl_family(),
                    ios,
                    fingerprint: fingerprint_run(&run, &sim),
                    wall_ns,
                    counts: Some(counts_of(&sim).since(before)),
                    obs: None,
                    trace: record(build_ns, 0, 0, exec_ns),
                })
            }
            Inputs::Plan {
                targets,
                opts,
                device_seed,
            } => {
                let (profile, plan, planned) = &targets[i];
                let sim = build_device(profile, *device_seed, traced);
                let build_ns = elapsed_ns(t0);
                let (result, exec_ns, _) = drive(sim, traced, |d| execute_plan(d, plan, opts));
                let wall_ns = elapsed_ns(t0);
                let result = result.map_err(|e| format!("{}: {e}", profile.id))?;
                if result.points.len() != plan.run_count() || result.resets != plan.resets {
                    return Err(format!(
                        "{}: plan ran {} of {} points with {} of {} resets",
                        profile.id,
                        result.points.len(),
                        plan.run_count(),
                        result.resets,
                        plan.resets
                    ));
                }
                Ok(ProfileOutcome {
                    id: profile.id.clone(),
                    family: profile.ftl_family(),
                    ios: *planned,
                    fingerprint: fingerprint_plan(&result),
                    wall_ns,
                    counts: None,
                    obs: None,
                    trace: record(build_ns, 0, 0, exec_ns),
                })
            }
        }
    }

    /// Host seconds `enforce_random_state` takes on fresh devices of
    /// every plan profile (0 for other workloads).
    pub fn enforce_s(&self) -> Result<f64, String> {
        let Inputs::Plan {
            targets,
            opts,
            device_seed,
        } = self
        else {
            return Ok(0.0);
        };
        let mut total = 0.0;
        for (profile, _, _) in targets {
            let mut dev = profile.build_sim(*device_seed);
            let t0 = Instant::now();
            enforce_random_state(dev.as_mut(), ENFORCE_MAX_IO, opts.state_coverage, opts.seed)
                .map_err(|e| format!("{}: {e}", profile.id))?;
            total += t0.elapsed().as_secs_f64();
        }
        Ok(total)
    }
}

/// Run `exec` on `dev` — under a [`TimedDevice`] and with a fresh ledger
/// when `traced` — and return its result, its span in ns and the device.
fn drive<D: BlockDevice, R>(
    dev: D,
    traced: bool,
    exec: impl FnOnce(&mut dyn BlockDevice) -> R,
) -> (R, u64, D) {
    if traced {
        let mut dev = TimedDevice::new(dev);
        timed::reset();
        let t0 = Instant::now();
        let r = exec(&mut dev);
        (r, elapsed_ns(t0), dev.into_inner())
    } else {
        let mut dev = dev;
        let t0 = Instant::now();
        let r = exec(&mut dev);
        (r, elapsed_ns(t0), dev)
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Every IO completed, each after a positive simulated time.
fn check_run(id: &str, run: &RunResult, expected: usize) -> Result<(), String> {
    if run.len() != expected {
        return Err(format!("{id}: {} of {expected} IOs completed", run.len()));
    }
    if run.rts.iter().any(|rt| rt.is_zero()) {
        return Err(format!("{id}: an IO completed in zero simulated time"));
    }
    Ok(())
}

/// Generate a trace per distinct device capacity and encode it.
fn encode_per_size(
    profiles: Vec<DeviceProfile>,
    generate: impl Fn(u64) -> Trace,
) -> (Vec<(DeviceProfile, usize)>, Vec<Vec<u8>>) {
    let mut caps: Vec<u64> = Vec::new();
    let mut traces = Vec::new();
    let targets = profiles
        .into_iter()
        .map(|p| {
            let cap = p.sim_capacity_bytes();
            let idx = caps.iter().position(|&c| c == cap).unwrap_or_else(|| {
                caps.push(cap);
                traces.push(generate(cap).to_binary());
                traces.len() - 1
            });
            (p, idx)
        })
        .collect();
    (targets, traces)
}

/// A device of `profile` whose first `target` bytes were written
/// sequentially, so random reads there hit mapped pages.
fn fill(profile: &DeviceProfile, seed: u64, target: u64, traced: bool) -> SimDevice {
    let mut dev = build_device(profile, seed, traced);
    let io = 128 * KB;
    for offset in (0..target).step_by(io as usize) {
        dev.write(offset, io.min(target - offset))
            .expect("a sequential fill inside the device succeeds");
    }
    *dev
}

/// IOs the plan's run steps issue (state enforcement excluded).
fn planned_ios(plan: &BenchmarkPlan) -> u64 {
    plan.steps
        .iter()
        .filter_map(|step| match step {
            PlanStep::Run {
                experiment, point, ..
            } => Some(&plan.experiments[*experiment].points[*point].workload),
            _ => None,
        })
        .map(|w| match w {
            PlanWorkload::Basic(spec) => spec.io_count,
            PlanWorkload::Mixed(mix) => mix.io_count,
            PlanWorkload::Parallel(par) => par.process_specs().iter().map(|s| s.io_count).sum(),
        })
        .sum()
}

/// FTL and NAND statistics of a device.
#[derive(Debug, Clone, Copy)]
struct Counts(FtlStats, NandStats);

fn counts_of(sim: &SimDevice) -> Counts {
    Counts(sim.ftl().stats(), sim.ftl().nand_stats())
}

impl Counts {
    fn since(self, before: Counts) -> (FtlStats, NandStats) {
        let (a, b) = (self.0, before.0);
        let ftl = FtlStats {
            host_reads: a.host_reads - b.host_reads,
            host_writes: a.host_writes - b.host_writes,
            sectors_read: a.sectors_read - b.sectors_read,
            sectors_written: a.sectors_written - b.sectors_written,
            sync_merges: a.sync_merges - b.sync_merges,
            async_merges: a.async_merges - b.async_merges,
            switch_merges: a.switch_merges - b.switch_merges,
            full_merges: a.full_merges - b.full_merges,
            rmw_events: a.rmw_events - b.rmw_events,
            logical_pages_written: a.logical_pages_written - b.logical_pages_written,
        };
        (ftl, self.1.since(&before.1))
    }
}

/// Fingerprint one run: every response time, the elapsed span and the
/// device's per-channel busy totals (`sim_throughput`'s scheme).
fn fingerprint_run(run: &RunResult, dev: &SimDevice) -> u64 {
    let mut h = Fnv::default();
    h.u64(run.rts.len() as u64);
    for rt in &run.rts {
        h.u64(rt.as_nanos() as u64);
    }
    h.u64(run.elapsed.as_nanos() as u64);
    let mut busy = Vec::new();
    dev.ftl().channel_busy_ns(&mut busy);
    h.u64(busy.len() as u64);
    for b in busy {
        h.u64(b);
    }
    h.finish()
}

/// Fingerprint a plan execution: resets, device time and every point's
/// identity and statistics (`sim_throughput`'s scheme).
fn fingerprint_plan(result: &SuiteResult) -> u64 {
    let mut h = Fnv::default();
    h.u64(result.resets as u64);
    h.u64(result.device_time.as_nanos() as u64);
    h.u64(result.points.len() as u64);
    for p in &result.points {
        h.bytes(p.experiment.as_bytes());
        h.bytes(p.varying.as_bytes());
        h.u64(p.param.to_bits());
        h.bytes(p.param_label.as_bytes());
        h.bytes(p.workload.as_bytes());
        match &p.stats {
            None => h.u64(0),
            Some(s) => {
                h.u64(1);
                h.u64(s.count);
                for d in [
                    s.min, s.max, s.mean, s.stddev, s.median, s.p95, s.p99, s.total,
                ] {
                    h.u64(d.as_nanos() as u64);
                }
            }
        }
    }
    h.finish()
}
