//! `flashio` — the uFLIP runner, equivalent to the paper's FlashIO
//! tool (www.uflip.org/flashio.html): run any micro-benchmark, a single
//! pattern, or the full nine-benchmark plan against a simulated device
//! or real storage, and archive machine-readable results.
//!
//! ```text
//! flashio list-devices
//! flashio baselines   --device samsung
//! flashio micro       --device mtron --bench locality [--quick]
//! flashio suite       --device kingston-dti --quick
//! flashio suite       --device all --quick       # every representative profile, in parallel
//! flashio pattern     --device memoright --pattern RW --io-size 32768 --count 1024
//! flashio wear        --device samsung
//! flashio suite       --file /dev/sdX --size-mb 1024        # real hardware!
//! flashio baselines   --device file:/tmp/scratch.bin:256M   # same, spec syntax
//! flashio pattern     --device direct:/dev/sdX:4G --pattern RR
//! ```
//!
//! Real targets are named with the shared `--device` spec syntax
//! (`file:PATH[:SIZE]` auto-detects O_DIRECT support; `direct:` and
//! `buffered:` force the open mode) or the older `--file PATH
//! --size-mb N` pair; both reach the same `DirectIoFile` backend,
//! whose threaded queue now serves parallel patterns with real
//! overlapping IO.
//!
//! Simulated suites run with snapshot-served state resets and their
//! reset-delimited plan segments sharded across worker threads
//! (`--threads N`, 0 = one per CPU, the default; `--threads 1` runs
//! the plan serially and records per-run workload metrics); results
//! are bit-identical to the serial run. `--device all` additionally
//! fans the representative profiles out across threads, one suite per
//! device.

use std::time::Duration;
use uflip_bench::{mean_ms, DeviceTarget, RealDeviceSpec, RealOpenMode};
use uflip_core::executor::execute_run_with_policy;
use uflip_core::methodology::plan::BenchmarkPlan;
use uflip_core::methodology::state::enforce_random_state;
use uflip_core::micro::{
    alignment, bursts, granularity, locality, mix, order, parallelism, partitioning, pause,
    MicroConfig,
};
use uflip_core::suite::{execute_plan_observed, full_suite, SuiteOptions, SuiteResult};
use uflip_core::Experiment;
use uflip_core::IoPolicy;
use uflip_device::profiles::catalog;
use uflip_device::BlockDevice;
use uflip_obs::{CounterId, Metrics, ObsSink, SinkHandle};
use uflip_patterns::PatternSpec;
use uflip_report::csv::to_csv;
use uflip_report::wear::WearReport;

struct Cli {
    command: String,
    device: Option<String>,
    file: Option<String>,
    size_mb: u64,
    bench: Option<String>,
    pattern: String,
    io_size: u64,
    count: u64,
    quick: bool,
    threads: usize,
    out_dir: std::path::PathBuf,
    metrics: Option<std::path::PathBuf>,
    faults: Option<std::path::PathBuf>,
    io_policy: IoPolicy,
}

fn parse() -> Cli {
    let mut cli = Cli {
        command: String::new(),
        device: None,
        file: None,
        size_mb: 256,
        bench: None,
        pattern: "RW".into(),
        io_size: 32 * 1024,
        count: 512,
        quick: false,
        threads: 0,
        out_dir: "results".into(),
        metrics: None,
        faults: None,
        io_policy: IoPolicy::none(),
    };
    let mut args = std::env::args().skip(1);
    cli.command = args.next().unwrap_or_else(|| "help".into());
    while let Some(a) = args.next() {
        match a.as_str() {
            "--device" => cli.device = args.next(),
            "--file" => cli.file = args.next(),
            "--size-mb" => cli.size_mb = args.next().and_then(|s| s.parse().ok()).unwrap_or(256),
            "--bench" => cli.bench = args.next(),
            "--pattern" => cli.pattern = args.next().unwrap_or_else(|| "RW".into()),
            "--io-size" => cli.io_size = args.next().and_then(|s| s.parse().ok()).unwrap_or(32768),
            "--count" => cli.count = args.next().and_then(|s| s.parse().ok()).unwrap_or(512),
            "--quick" => cli.quick = true,
            "--threads" => {
                cli.threads = args.next().and_then(|s| s.parse().ok()).unwrap_or(0);
            }
            "--out" => {
                if let Some(d) = args.next() {
                    cli.out_dir = d.into();
                }
            }
            "--metrics" => cli.metrics = args.next().map(std::path::PathBuf::from),
            "--faults" => cli.faults = args.next().map(std::path::PathBuf::from),
            "--io-policy" => {
                let spec = args.next().unwrap_or_default();
                cli.io_policy = IoPolicy::parse(&spec).unwrap_or_else(|msg| {
                    eprintln!("bad --io-policy `{spec}`: {msg}");
                    std::process::exit(2);
                });
            }
            other => eprintln!("ignoring unknown flag {other}"),
        }
    }
    cli
}

fn open_device(cli: &Cli, sink: &SinkHandle) -> Box<dyn BlockDevice> {
    let dev: Box<dyn BlockDevice> = if let Some(path) = &cli.file {
        let spec = RealDeviceSpec {
            path: path.into(),
            capacity: cli.size_mb * 1024 * 1024,
            mode: RealOpenMode::Auto,
        };
        Box::new(spec.open().expect("open real device"))
    } else {
        let arg = cli.device.as_deref().unwrap_or("samsung");
        match DeviceTarget::resolve_or_exit(arg) {
            DeviceTarget::Sim(profile) => profile.build_sim(0xF11B),
            DeviceTarget::Real(spec) => Box::new(spec.open().unwrap_or_else(|e| {
                eprintln!("cannot open {}: {e}", spec.path.display());
                std::process::exit(2);
            })),
        }
    };
    // `--faults PLAN.json`: interpose the fault-injection decorator
    // between the executors and the target.
    let mut dev = match &cli.faults {
        Some(path) => {
            let plan = uflip_device::FaultPlan::load_json(path).unwrap_or_else(|msg| {
                eprintln!("{msg}");
                std::process::exit(2);
            });
            Box::new(uflip_device::FaultyDevice::new(dev, plan)) as Box<dyn BlockDevice>
        }
        None => dev,
    };
    dev.set_sink(sink.clone());
    dev
}

/// Surface the suite's bytes-based write amplification: host-logical
/// bytes written vs NAND bytes programmed, taken from the run's
/// observability counters. Prints nothing when the device exposes no
/// FTL internals (real hardware) or the suite wrote nothing.
fn print_write_amp(prefix: &str, metrics: &Metrics) {
    let logical = metrics.counter(CounterId::LogicalBytesWritten);
    let programmed = metrics.counter(CounterId::ProgramBytes);
    if logical > 0 && programmed > 0 {
        const MB: f64 = 1024.0 * 1024.0;
        println!(
            "{prefix}write amplification {:.2} ({:.1} MB host writes -> {:.1} MB programmed)",
            programmed as f64 / logical as f64,
            logical as f64 / MB,
            programmed as f64 / MB,
        );
    }
}

fn micro_experiments(name: &str, cfg: &MicroConfig) -> Option<Vec<Experiment>> {
    Some(match name {
        "granularity" => granularity::experiments(cfg),
        "alignment" => alignment::experiments(cfg),
        "locality" => locality::experiments(cfg),
        "partitioning" => partitioning::experiments(cfg),
        "order" => order::experiments(cfg),
        "parallelism" => parallelism::experiments(cfg),
        "mix" => mix::experiments(cfg),
        "pause" => pause::experiments(cfg),
        "bursts" => bursts::experiments(cfg),
        _ => return None,
    })
}

/// Suite configuration clamped to the device's capacity.
fn suite_cfg(quick: bool, capacity: u64) -> MicroConfig {
    let mut cfg = if quick {
        MicroConfig::quick()
    } else {
        MicroConfig::paper_ssd()
    };
    cfg.target_size = cfg.target_size.min(capacity / 8);
    if quick {
        cfg.io_count = 48;
        cfg.io_count_rw = 96;
    }
    cfg
}

/// Write one suite's point summaries as CSV into the output directory.
fn write_suite_csv(cli: &Cli, result: &SuiteResult, file: &str) {
    let mut rows = Vec::new();
    for p in &result.points {
        if let Some(s) = p.stats {
            rows.push(vec![
                p.experiment.clone(),
                p.param_label.clone(),
                format!("{:.4}", s.mean_ms()),
                format!("{:.4}", s.max.as_secs_f64() * 1e3),
            ]);
        }
    }
    std::fs::create_dir_all(&cli.out_dir).expect("mkdir");
    let out = cli.out_dir.join(file);
    std::fs::write(
        &out,
        to_csv(&["experiment", "param", "mean_ms", "max_ms"], &rows),
    )
    .expect("write CSV");
    println!("wrote {} ({} points)", out.display(), rows.len());
}

/// Queued backends park asynchronous IO errors (failures in the final
/// in-flight window have no poll-side error channel); surface them
/// right after the run they belong to instead of letting them blame
/// the next one.
fn check_async_error(dev: &mut dyn BlockDevice, what: &str) {
    if let Some(e) = dev.take_async_error() {
        eprintln!("asynchronous IO error during {what}: {e}");
        std::process::exit(1);
    }
}

fn prepare(dev: &mut dyn BlockDevice, quick: bool) {
    let coverage = if quick { 1.5 } else { 2.0 };
    enforce_random_state(dev, 128 * 1024, coverage, 0xF11B).expect("state enforcement");
    dev.idle(Duration::from_secs(5));
}

fn main() {
    let cli = parse();
    let (metrics_out, sink) = uflip_bench::metrics_sink(cli.metrics.as_deref());
    match cli.command.as_str() {
        "list-devices" => {
            for p in catalog::all() {
                println!(
                    "{:<18} {:<10} {:<18} {:<10} {:>6} MB sim  {}",
                    p.id,
                    p.brand,
                    p.model,
                    p.kind.label(),
                    p.sim_capacity_bytes() / (1024 * 1024),
                    p.ftl_family()
                );
            }
        }
        "baselines" => {
            let mut dev = open_device(&cli, &sink);
            prepare(dev.as_mut(), cli.quick);
            let window = dev.capacity_bytes() / 4;
            let count = if cli.quick { 192 } else { 1024 };
            for (name, spec) in [
                ("SR", PatternSpec::baseline_sr(cli.io_size, window, count)),
                ("RR", PatternSpec::baseline_rr(cli.io_size, window, count)),
                (
                    "SW",
                    PatternSpec::baseline_sw(cli.io_size, window, count)
                        .with_target(window, window),
                ),
                (
                    "RW",
                    PatternSpec::baseline_rw(cli.io_size, window, count)
                        .with_target(2 * window, window),
                ),
            ] {
                let run = execute_run_with_policy(dev.as_mut(), &spec, &cli.io_policy, &sink)
                    .expect("run");
                check_async_error(dev.as_mut(), name);
                dev.idle(Duration::from_secs(5));
                println!(
                    "{name}: mean {:.3} ms over {} IOs",
                    mean_ms(&run.rts),
                    run.len()
                );
            }
        }
        "micro" => {
            let bench = cli.bench.clone().unwrap_or_else(|| "locality".into());
            let mut cfg = if cli.quick {
                MicroConfig::quick()
            } else {
                MicroConfig::paper_ssd()
            };
            let mut dev = open_device(&cli, &sink);
            cfg.target_size = cfg.target_size.min(dev.capacity_bytes() / 4);
            let Some(exps) = micro_experiments(&bench, &cfg) else {
                eprintln!("unknown micro-benchmark '{bench}'");
                std::process::exit(2);
            };
            prepare(dev.as_mut(), cli.quick);
            let mut rows = Vec::new();
            for e in exps {
                let result = e
                    .run(dev.as_mut(), Duration::from_secs(5))
                    .expect("experiment");
                check_async_error(dev.as_mut(), &result.name);
                for (param, mean) in result.mean_series() {
                    println!("{:<24} {:>14} {:>10.3} ms", result.name, param, mean);
                    rows.push(vec![
                        result.name.clone(),
                        format!("{param}"),
                        format!("{mean}"),
                    ]);
                }
            }
            std::fs::create_dir_all(&cli.out_dir).expect("mkdir");
            let out = cli.out_dir.join(format!("micro_{bench}.csv"));
            std::fs::write(&out, to_csv(&["experiment", "param", "mean_ms"], &rows))
                .expect("write CSV");
            eprintln!("wrote {}", out.display());
        }
        "suite" => {
            if cli.device.as_deref() == Some("all") && cli.file.is_none() {
                // Fan out across the representative profiles: one
                // suite per device, each on its own worker thread.
                // The sharding budget is divided across the profile
                // threads so the two levels of parallelism together
                // match the requested (or available) thread count
                // instead of multiplying it.
                let profiles = catalog::representative();
                let budget = if cli.threads == 0 {
                    std::thread::available_parallelism().map_or(1, |n| n.get())
                } else {
                    cli.threads
                };
                let inner_threads = (budget / profiles.len()).max(1);
                let results: Vec<_> = std::thread::scope(|scope| {
                    let handles: Vec<_> = profiles
                        .iter()
                        .map(|profile| {
                            let quick = cli.quick;
                            scope.spawn(move || {
                                let mut dev = profile.build_sim(0xF11B);
                                let cfg = suite_cfg(quick, dev.capacity_bytes());
                                let plan =
                                    BenchmarkPlan::build(full_suite(&cfg), dev.capacity_bytes());
                                let opts = SuiteOptions {
                                    threads: inner_threads,
                                    ..Default::default()
                                };
                                // Each worker records into its own
                                // Metrics so write amplification stays
                                // attributable per device.
                                let (wa_metrics, wa_sink) = Metrics::shared();
                                let result =
                                    execute_plan_observed(dev.as_mut(), &plan, &opts, &wa_sink)
                                        .expect("suite");
                                (profile.id.clone(), plan, result, wa_metrics)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("suite threads do not panic"))
                        .collect()
                });
                for (id, plan, result, wa_metrics) in &results {
                    println!(
                        "{id}: {} runs, {} state resets; device time {:.1} s",
                        plan.run_count(),
                        result.resets,
                        result.device_time.as_secs_f64()
                    );
                    print_write_amp("  ", wa_metrics);
                    write_suite_csv(&cli, result, &format!("suite_{id}.csv"));
                    if let Some(m) = &metrics_out {
                        // Fold the per-device counters into the global
                        // snapshot (histograms stay per-device only).
                        for id in CounterId::ALL {
                            m.metrics.add(id, wa_metrics.counter(id));
                        }
                    }
                }
            } else {
                let mut dev = open_device(&cli, &sink);
                let cfg = suite_cfg(cli.quick, dev.capacity_bytes());
                let plan = BenchmarkPlan::build(full_suite(&cfg), dev.capacity_bytes());
                let opts = SuiteOptions {
                    io_policy: cli.io_policy,
                    threads: cli.threads,
                    ..Default::default()
                };
                // Always run the suite observed: with --metrics the
                // user's sink records everything; without it a local
                // Metrics exists purely to surface write amplification.
                let (wa_metrics, wa_sink) = match &metrics_out {
                    Some(m) => (m.metrics.clone(), sink.clone()),
                    None => Metrics::shared(),
                };
                let result =
                    execute_plan_observed(dev.as_mut(), &plan, &opts, &wa_sink).expect("suite");
                check_async_error(dev.as_mut(), "suite");
                println!(
                    "plan: {} runs, {} state resets; device time {:.1} s",
                    plan.run_count(),
                    result.resets,
                    result.device_time.as_secs_f64()
                );
                print_write_amp("", &wa_metrics);
                write_suite_csv(&cli, &result, "suite.csv");
            }
        }
        "pattern" => {
            let mut dev = open_device(&cli, &sink);
            prepare(dev.as_mut(), cli.quick);
            let window = dev.capacity_bytes() / 4;
            let spec = match cli.pattern.as_str() {
                "SR" => PatternSpec::baseline_sr(cli.io_size, window, cli.count),
                "RR" => PatternSpec::baseline_rr(cli.io_size, window, cli.count),
                "SW" => PatternSpec::baseline_sw(cli.io_size, window, cli.count),
                "RW" => PatternSpec::baseline_rw(cli.io_size, window, cli.count),
                other => {
                    eprintln!("unknown pattern '{other}' (SR|RR|SW|RW)");
                    std::process::exit(2);
                }
            };
            let run =
                execute_run_with_policy(dev.as_mut(), &spec, &cli.io_policy, &sink).expect("run");
            check_async_error(dev.as_mut(), &cli.pattern);
            let s = run.summary_all().expect("non-empty");
            println!(
                "{}: mean {:.3} ms  min {:.3}  median {:.3}  p95 {:.3}  p99 {:.3}  max {:.3}",
                cli.pattern,
                s.mean.as_secs_f64() * 1e3,
                s.min.as_secs_f64() * 1e3,
                s.median.as_secs_f64() * 1e3,
                s.p95.as_secs_f64() * 1e3,
                s.p99.as_secs_f64() * 1e3,
                s.max.as_secs_f64() * 1e3
            );
        }
        "wear" => {
            // White-box analysis — simulated devices only.
            let id = cli.device.as_deref().unwrap_or("samsung");
            let profile = uflip_bench::sim_profile_or_exit(id);
            let mut dev = profile.build_sim(0xF11B);
            dev.set_sink(sink.clone());
            prepare(dev.as_mut(), cli.quick);
            let window = dev.capacity_bytes() / 4;
            println!("write amplification per pattern on {id}:");
            for (name, spec) in [
                ("SW", PatternSpec::baseline_sw(cli.io_size, window, 256)),
                (
                    "RW",
                    PatternSpec::baseline_rw(cli.io_size, window, 256).with_target(window, window),
                ),
            ] {
                let before = WearReport::from_device(&dev);
                execute_run_with_policy(dev.as_mut(), &spec, &IoPolicy::none(), &sink)
                    .expect("run");
                dev.idle(Duration::from_secs(5));
                let delta = WearReport::from_device(&dev).delta(&before);
                println!("  {name}: {}", delta.row());
            }
        }
        _ => {
            eprintln!(
                "usage: flashio <list-devices|baselines|micro|suite|pattern|wear> \
                 [--device ID|all|profile:PATH|file:PATH[:SIZE] | --file PATH --size-mb N] \
                 [--bench NAME] [--pattern SR|RR|SW|RW] [--io-size BYTES] [--count N] \
                 [--quick] [--threads N] [--out DIR] [--metrics PATH] \
                 [--faults PLAN.json] [--io-policy SPEC]\n\
                 --threads N shards a suite's plan over N workers (0 = one per \
                 CPU, the default; 1 = serial).\n\
                 real targets: --device file:PATH[:SIZE] (auto O_DIRECT), \
                 direct:PATH[:SIZE], buffered:PATH[:SIZE]; SIZE takes K/M/G \
                 suffixes. Write patterns are DESTRUCTIVE on block devices.\n\
                 profile:PATH runs a calibrated profile JSON (see the \
                 calibrate binary)."
            );
        }
    }
    if let Some(m) = &metrics_out {
        m.finish(true);
    }
}
