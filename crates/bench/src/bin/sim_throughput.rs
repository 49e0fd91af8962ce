//! `sim_throughput` — host wall-clock throughput of the simulator's
//! hot paths, with bit-identity fingerprints.
//!
//! The ROADMAP's "heavy traffic" north star needs `SimDevice` to
//! sustain millions of simulated IOs per host second; this benchmark
//! is the trajectory for that number. Per representative profile it
//! measures:
//!
//! * **trace replay** — an OLTP B-tree trace through
//!   [`replay_trace`](uflip_core::replay::replay_trace) in `OpenLoop`
//!   mode at queue depths 16 and 1, and in `TimingFaithful` mode (host
//!   seconds → simulated IOPS);
//! * **parallel patterns** —
//!   [`execute_parallel`](uflip_core::executor::execute_parallel) at
//!   queue depths 1, 4 and 16 (the event-calendar executor's own hot
//!   loop);
//! * **full-plan execution** — a whole quick-suite [`BenchmarkPlan`]
//!   through [`execute_plan`](uflip_core::suite::execute_plan) (host
//!   seconds per plan).
//!
//! Each timed region runs three times on freshly built devices and the
//! fastest host time is kept (best-of-N strips host scheduling noise;
//! the simulation itself is deterministic, which the repeats assert).
//!
//! Every measurement also produces a **fingerprint**: an FNV-1a hash
//! of the run's response times, elapsed time and per-channel busy
//! totals. Two trees that disagree on any simulated nanosecond
//! disagree on the fingerprint, so comparing records across commits
//! proves the hot-path rewrite changed *speed only*:
//!
//! ```text
//! cargo run --release -p uflip_bench --bin sim_throughput [--quick]
//!     [--device ID] [--out PATH] [--baseline PATH] [--check PATH]
//!     [--metrics PATH]
//! ```
//!
//! * `--baseline PATH` — compare against an archived record from an
//!   older tree (same workload sizes required): asserts every
//!   fingerprint is bit-identical and reports the speedups. Exits
//!   nonzero on any fingerprint mismatch.
//! * `--check PATH` — CI regression gate: exits nonzero if this run's
//!   geomean replay IOPS falls more than 20 % below the committed
//!   record's (fingerprints are also compared when the workload sizes
//!   match).
//! * `--metrics PATH` — record a `uflip_obs` metrics snapshot (latency
//!   histograms, counters, channel utilization) across the measured
//!   workloads. Without it the timed regions run with the null handle,
//!   whose cost is one null check per event site — fingerprints and
//!   the gate are unaffected. Recording does not perturb fingerprints
//!   either: they hash *simulated* nanoseconds, not wall time (CI runs
//!   `--quick --baseline BENCH_sim_quick.json` both with and without
//!   `--metrics`).
//!
//! `BENCH_sim_baseline.json` archives the pre-rewrite executor's
//! numbers and fingerprints; `BENCH_sim.json` is the current record.

use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::Instant;
use uflip_core::executor::execute_parallel_with_policy;
use uflip_core::methodology::plan::BenchmarkPlan;
use uflip_core::micro::MicroConfig;
use uflip_core::replay::{replay_trace_with_policy, ReplayMode};
use uflip_core::run::RunResult;
use uflip_core::suite::{execute_plan_observed, full_suite, SuiteOptions, SuiteResult};
use uflip_core::IoPolicy;
use uflip_device::profiles::catalog;
use uflip_device::SimDevice;
use uflip_patterns::{LbaFn, Mode, ParallelSpec, PatternSpec};
use uflip_report::json::write_json;
use uflip_trace::generate::BtreeMixConfig;
use uflip_trace::Trace;

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

/// Fraction of the committed geomean replay IOPS below which `--check`
/// fails the run (the ISSUE 6 CI gate: >20 % regression).
const CHECK_TOLERANCE: f64 = 0.8;

struct Cli {
    quick: bool,
    device: Option<String>,
    out: PathBuf,
    baseline: Option<PathBuf>,
    check: Option<PathBuf>,
    metrics: Option<PathBuf>,
}

fn parse() -> Cli {
    let mut cli = Cli {
        quick: false,
        device: None,
        out: PathBuf::from("BENCH_sim.json"),
        baseline: None,
        check: None,
        metrics: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => cli.quick = true,
            "--device" => cli.device = args.next(),
            "--out" => {
                if let Some(p) = args.next() {
                    cli.out = PathBuf::from(p);
                }
            }
            "--baseline" => cli.baseline = args.next().map(PathBuf::from),
            "--check" => cli.check = args.next().map(PathBuf::from),
            "--metrics" => cli.metrics = args.next().map(PathBuf::from),
            other => eprintln!("ignoring unknown flag {other}"),
        }
    }
    cli
}

// ---------------------------------------------------------------------
// Fingerprints: FNV-1a 64 over the run's observable nanoseconds.
// ---------------------------------------------------------------------

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn bytes(&mut self, s: &[u8]) {
        self.u64(s.len() as u64);
        for &b in s {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Fingerprint one run: every response time, the elapsed span and the
/// device's per-channel busy totals. Any simulated-time divergence —
/// ordering, idle credit, GC scheduling, jitter stream — changes it.
fn fingerprint_run(run: &RunResult, dev: &SimDevice) -> String {
    let mut h = Fnv::new();
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
    h.hex()
}

/// Fingerprint a plan execution: resets, total device time and every
/// point's identity and summary statistics.
fn fingerprint_plan(result: &SuiteResult) -> String {
    let mut h = Fnv::new();
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
    h.hex()
}

// ---------------------------------------------------------------------
// Record shapes (serialized to BENCH_sim.json, reloaded by --baseline
// and --check).
// ---------------------------------------------------------------------

/// One timed measurement: host seconds, simulated-IO rate, fingerprint.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Measure {
    host_s: f64,
    iops: f64,
    fingerprint: String,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ProfileRow {
    id: String,
    /// Records in the replayed OLTP trace (workload-size identity).
    trace_records: usize,
    /// IOs in the parallel-pattern run.
    parallel_ios: u64,
    replay_open_qd16: Measure,
    replay_open_qd1: Measure,
    replay_faithful: Measure,
    parallel_qd16: Measure,
    parallel_qd4: Measure,
    parallel_qd1: Measure,
    /// Host seconds for one full quick-suite plan execution.
    plan_host_s: f64,
    /// Run steps in the plan.
    plan_runs: usize,
    plan_fingerprint: String,
}

/// Speedups and identity versus an archived record.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct VsBaseline {
    baseline: String,
    /// Geomean over profiles of (this replay-qd16 IOPS ÷ baseline's).
    geomean_replay_speedup: f64,
    /// Geomean over profiles of (baseline plan seconds ÷ this run's).
    geomean_plan_speedup: f64,
    /// Every fingerprint matched the baseline record.
    bit_identical: bool,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct SimBench {
    bench: String,
    quick: bool,
    profiles: Vec<ProfileRow>,
    /// Geometric mean of replay_open_qd16 IOPS across profiles.
    geomean_replay_qd16_iops: f64,
    /// Geometric mean of plans per host second across profiles.
    geomean_plans_per_s: f64,
    #[serde(skip_serializing_if = "Option::is_none")]
    vs_baseline: Option<VsBaseline>,
}

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

/// The OLTP B-tree mix trace replayed against `profile`: half the
/// device (capped at 256 MB) of region, a fixed op count, fixed seed.
fn oltp_trace(cap: u64, quick: bool) -> Trace {
    let ops = if quick { 40_000 } else { 200_000 };
    BtreeMixConfig::oltp(0, (cap / 2).min(256 * MB), ops, 42).generate()
}

fn parallel_spec(cap: u64, quick: bool, queue_depth: u32) -> ParallelSpec {
    let ios = if quick { 512 } else { 2048 };
    let target = (cap / 4).clamp(8 * MB, 256 * MB) / MB * MB;
    let base = PatternSpec::baseline(LbaFn::Random, Mode::Write, 16 * KB, target, ios);
    ParallelSpec::new(base, 8).with_queue_depth(queue_depth)
}

/// Repeats per measurement: each timed region runs on a freshly built
/// device and the fastest host time wins. Virtual-time simulation is
/// deterministic — the repeats must produce identical fingerprints
/// (asserted) — so best-of-N only strips host-side scheduling noise,
/// which matters now that single runs are tens of milliseconds.
const REPEATS: usize = 3;

/// Best-of-[`REPEATS`] over `measure`, asserting the simulation itself
/// is replay-stable across repeats.
fn best_of(mut measure: impl FnMut() -> Measure) -> Measure {
    let mut best = measure();
    for _ in 1..REPEATS {
        let m = measure();
        assert_eq!(
            m.fingerprint, best.fingerprint,
            "simulation fingerprint changed across identical repeats"
        );
        if m.host_s < best.host_s {
            best = m;
        }
    }
    best
}

fn timed_replay(
    dev: &mut SimDevice,
    trace: &Trace,
    mode: ReplayMode,
    sink: &uflip_obs::SinkHandle,
) -> Measure {
    let t = Instant::now();
    let run = replay_trace_with_policy(dev, trace, mode, &IoPolicy::none(), sink).expect("replay");
    let host_s = t.elapsed().as_secs_f64();
    Measure {
        host_s,
        iops: run.len() as f64 / host_s.max(1e-9),
        fingerprint: fingerprint_run(&run, dev),
    }
}

fn timed_parallel(
    dev: &mut SimDevice,
    par: &ParallelSpec,
    sink: &uflip_obs::SinkHandle,
) -> Measure {
    let t = Instant::now();
    let run =
        execute_parallel_with_policy(dev, par, &IoPolicy::none(), sink).expect("parallel run");
    let host_s = t.elapsed().as_secs_f64();
    Measure {
        host_s,
        iops: run.len() as f64 / host_s.max(1e-9),
        fingerprint: fingerprint_run(&run, dev),
    }
}

fn geomean(vals: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = vals.fold((0.0, 0usize), |(s, n), v| (s + v.max(1e-12).ln(), n + 1));
    if n == 0 {
        return 0.0;
    }
    (sum / n as f64).exp()
}

fn main() {
    let cli = parse();
    // Default: the null sink — the timed regions then carry only one
    // null check per event site, keeping fingerprints identical to an
    // uninstrumented tree (the --check gate runs this way).
    let (metrics_out, sink) = uflip_bench::metrics_sink(cli.metrics.as_deref());
    let devices = match cli.device.as_deref() {
        None => catalog::representative(),
        Some(arg) => vec![uflip_bench::sim_profile_or_exit(arg)],
    };
    let mut profiles = Vec::new();
    for profile in devices {
        let cap = profile.sim_capacity_bytes();
        let trace = oltp_trace(cap, cli.quick);

        let replay_at = |mode: ReplayMode| {
            best_of(|| {
                let mut dev = profile.build_sim(7);
                timed_replay(&mut dev, &trace, mode, &sink)
            })
        };
        let replay_open_qd16 = replay_at(ReplayMode::OpenLoop { queue_depth: 16 });
        let replay_open_qd1 = replay_at(ReplayMode::OpenLoop { queue_depth: 1 });
        let replay_faithful = replay_at(ReplayMode::TimingFaithful);

        let parallel_at = |qd: u32| {
            let spec = parallel_spec(cap, cli.quick, qd);
            best_of(|| {
                let mut dev = profile.build_sim(7);
                timed_parallel(&mut dev, &spec, &sink)
            })
        };
        let parallel_qd16 = parallel_at(16);
        let parallel_qd4 = parallel_at(4);
        let parallel_qd1 = parallel_at(1);

        // One full quick-suite plan: the end-to-end path every later
        // PR's experiments ride.
        let mut cfg = MicroConfig::quick();
        cfg.target_size = (cap / 3).max(MB) / MB * MB;
        if cli.quick {
            cfg.io_count = 12;
            cfg.io_count_rw = 16;
        } else {
            cfg.io_count = 32;
            cfg.io_count_rw = 48;
        }
        let opts = SuiteOptions::default();
        let plan = BenchmarkPlan::build(full_suite(&cfg), cap);
        let (mut plan_host_s, mut plan_fingerprint) = (f64::INFINITY, String::new());
        for _ in 0..REPEATS {
            let mut dev = profile.build_sim(opts.seed);
            let t = Instant::now();
            let plan_result =
                execute_plan_observed(dev.as_mut(), &plan, &opts, &sink).expect("plan");
            let host_s = t.elapsed().as_secs_f64();
            let fp = fingerprint_plan(&plan_result);
            if !plan_fingerprint.is_empty() {
                assert_eq!(
                    fp, plan_fingerprint,
                    "plan fingerprint changed across identical repeats"
                );
            }
            plan_fingerprint = fp;
            plan_host_s = plan_host_s.min(host_s);
        }

        let row = ProfileRow {
            id: profile.id.clone(),
            trace_records: trace.len(),
            parallel_ios: parallel_spec(cap, cli.quick, 1).base.io_count,
            replay_open_qd16,
            replay_open_qd1,
            replay_faithful,
            parallel_qd16,
            parallel_qd4,
            parallel_qd1,
            plan_host_s,
            plan_runs: plan.run_count(),
            plan_fingerprint,
        };
        println!(
            "{:<18} replay qd16 {:>9.0} IOPS  qd1 {:>9.0}  faithful {:>9.0}  \
             par qd16 {:>9.0}  plan {:>6.2}s",
            row.id,
            row.replay_open_qd16.iops,
            row.replay_open_qd1.iops,
            row.replay_faithful.iops,
            row.parallel_qd16.iops,
            row.plan_host_s,
        );
        profiles.push(row);
    }
    assert!(!profiles.is_empty(), "no profile matched --device");

    let geomean_replay_qd16_iops = geomean(profiles.iter().map(|p| p.replay_open_qd16.iops));
    let geomean_plans_per_s = geomean(profiles.iter().map(|p| 1.0 / p.plan_host_s.max(1e-9)));
    let mut record = SimBench {
        bench: "sim_throughput".to_string(),
        quick: cli.quick,
        profiles,
        geomean_replay_qd16_iops,
        geomean_plans_per_s,
        vs_baseline: None,
    };

    if let Some(path) = &cli.baseline {
        let base = load(path);
        record.vs_baseline = Some(compare_to_baseline(&record, &base, path));
    }

    println!(
        "geomean: replay qd16 {:.0} IOPS, plan {:.3}/s",
        record.geomean_replay_qd16_iops, record.geomean_plans_per_s
    );
    if let Some(vs) = &record.vs_baseline {
        println!(
            "vs {}: replay ×{:.1}, plan ×{:.1}, bit-identical: {}",
            vs.baseline, vs.geomean_replay_speedup, vs.geomean_plan_speedup, vs.bit_identical
        );
    }
    write_json(&record, &cli.out).expect("write BENCH_sim.json");
    eprintln!("wrote {}", cli.out.display());
    if let Some(m) = &metrics_out {
        m.finish(false);
    }

    if let Some(path) = &cli.check {
        check_regression(&record, &load(path), path);
    }
}

fn load(path: &Path) -> SimBench {
    let data = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    serde_json::from_str(&data).unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()))
}

/// Compare against an archived record from an older tree: workload
/// sizes must match, fingerprints must be bit-identical, and the
/// speedups are reported. Exits nonzero on any mismatch.
fn compare_to_baseline(current: &SimBench, base: &SimBench, path: &Path) -> VsBaseline {
    let mut identical = true;
    let mut replay_speedups = Vec::new();
    let mut plan_speedups = Vec::new();
    for row in &current.profiles {
        let Some(b) = base.profiles.iter().find(|p| p.id == row.id) else {
            eprintln!("baseline {} lacks profile {}", path.display(), row.id);
            identical = false;
            continue;
        };
        if b.trace_records != row.trace_records || b.parallel_ios != row.parallel_ios {
            eprintln!(
                "{}: workload size mismatch vs baseline (records {} vs {}, parallel {} vs {}) — \
                 run both records in the same mode",
                row.id, row.trace_records, b.trace_records, row.parallel_ios, b.parallel_ios
            );
            identical = false;
            continue;
        }
        for (what, ours, theirs) in [
            (
                "replay open-qd16",
                &row.replay_open_qd16,
                &b.replay_open_qd16,
            ),
            ("replay open-qd1", &row.replay_open_qd1, &b.replay_open_qd1),
            ("replay faithful", &row.replay_faithful, &b.replay_faithful),
            ("parallel qd16", &row.parallel_qd16, &b.parallel_qd16),
            ("parallel qd4", &row.parallel_qd4, &b.parallel_qd4),
            ("parallel qd1", &row.parallel_qd1, &b.parallel_qd1),
        ] {
            if ours.fingerprint != theirs.fingerprint {
                eprintln!(
                    "{}: {what} fingerprint diverged from baseline ({} vs {})",
                    row.id, ours.fingerprint, theirs.fingerprint
                );
                identical = false;
            }
        }
        if row.plan_fingerprint != b.plan_fingerprint {
            eprintln!(
                "{}: plan fingerprint diverged from baseline ({} vs {})",
                row.id, row.plan_fingerprint, b.plan_fingerprint
            );
            identical = false;
        }
        replay_speedups.push(row.replay_open_qd16.iops / b.replay_open_qd16.iops.max(1e-9));
        plan_speedups.push(b.plan_host_s / row.plan_host_s.max(1e-9));
    }
    let vs = VsBaseline {
        baseline: path.display().to_string(),
        geomean_replay_speedup: geomean(replay_speedups.into_iter()),
        geomean_plan_speedup: geomean(plan_speedups.into_iter()),
        bit_identical: identical,
    };
    if !identical {
        eprintln!("FAIL: results are not bit-identical to {}", path.display());
        std::process::exit(1);
    }
    vs
}

/// The CI gate: fail when geomean replay IOPS regresses more than
/// (1 − [`CHECK_TOLERANCE`]) versus the committed record. Fingerprints
/// are additionally required to match when the workload sizes do
/// (quick CI runs against a committed full-mode record compare rates
/// only).
fn check_regression(current: &SimBench, committed: &SimBench, path: &Path) {
    let floor = committed.geomean_replay_qd16_iops * CHECK_TOLERANCE;
    if current.geomean_replay_qd16_iops < floor {
        eprintln!(
            "FAIL: geomean replay IOPS {:.0} regressed >20% below the committed {:.0} ({})",
            current.geomean_replay_qd16_iops,
            committed.geomean_replay_qd16_iops,
            path.display()
        );
        std::process::exit(1);
    }
    let sizes_match = current.quick == committed.quick
        && current.profiles.len() == committed.profiles.len()
        && current
            .profiles
            .iter()
            .zip(&committed.profiles)
            .all(|(a, b)| {
                a.id == b.id
                    && a.trace_records == b.trace_records
                    && a.parallel_ios == b.parallel_ios
            });
    if sizes_match {
        let vs = compare_to_baseline(current, committed, path);
        assert!(vs.bit_identical, "compare_to_baseline exits on mismatch");
    }
    println!(
        "check OK: {:.0} IOPS vs committed {:.0} (floor {:.0})",
        current.geomean_replay_qd16_iops, committed.geomean_replay_qd16_iops, floor
    );
}
