//! Queue-depth sweep: aggregate throughput vs NCQ depth.
//!
//! Goes beyond the paper. uFLIP's parallelism micro-benchmark (§3.2,
//! Hint 7) found *no* benefit from concurrent submission because the
//! 2008 devices served one command at a time. The submission engine
//! (`uflip_device::queue`) makes channel overlap emergent, so this
//! binary answers the question the paper could not: how much aggregate
//! throughput does each Table 2 channel layout unlock as the command
//! queue deepens?
//!
//! For each device and baseline pattern, runs the parallel pattern at
//! degree 16 with queue depth 1, 2, …, 32 and reports IOPS plus the
//! speed-up over depth 1. Output: ASCII table (or, with `--json`, a
//! `uflip_report::json` document on stdout) + `qd_sweep.csv` +
//! `qd_sweep.json`.
//!
//! With `--device file:PATH[:SIZE]` (or `direct:`/`buffered:`) the
//! sweep runs against a **real** file or block device through the
//! wall-clock [`uflip_device::ThreadedIoQueue`]: elapsed times are
//! then actual wall time, and the depth sweep measures how much IO
//! overlap the OS + hardware genuinely deliver. **Write patterns are
//! destructive on the target.**

use serde::Serialize;
use std::time::Duration;
use uflip_bench::{
    prefill_real_device, prepared_device, DeviceTarget, HarnessOptions, RealDeviceSpec,
};
use uflip_core::executor::execute_parallel_with_policy;
use uflip_core::micro::parallelism::queue_depths;
use uflip_core::IoPolicy;
use uflip_device::profiles::catalog;
use uflip_device::BlockDevice;
use uflip_patterns::{LbaFn, Mode, ParallelSpec, PatternSpec};
use uflip_report::csv::to_csv;
use uflip_report::json::{to_json, write_json};

/// One sweep point, shared by the JSON and CSV outputs.
#[derive(Debug, Serialize)]
struct SweepPoint {
    device: String,
    pattern: String,
    queue_depth: u32,
    elapsed_ms: f64,
    iops: f64,
    speedup_vs_qd1: f64,
}

const PATTERNS: [(LbaFn, Mode, &str); 3] = [
    (LbaFn::Random, Mode::Read, "RR"),
    (LbaFn::Sequential, Mode::Read, "SR"),
    (LbaFn::Random, Mode::Write, "RW"),
];

/// Sweep a real file/block device through its wall-clock queue. One
/// open for the whole sweep (the queue's worker pool warms up once);
/// the window is pre-written so reads are not served from holes.
fn sweep_real(
    spec: &RealDeviceSpec,
    opts: &HarnessOptions,
    sink: &uflip_obs::SinkHandle,
    points: &mut Vec<SweepPoint>,
) {
    let count = if opts.quick { 256 } else { 1024 };
    let io_size = 16 * 1024u64;
    let mut dev = spec.open().unwrap_or_else(|e| {
        eprintln!("cannot open {}: {e}", spec.path.display());
        std::process::exit(2);
    });
    let window = (dev.capacity_bytes() / 2).min(64 * 1024 * 1024);
    prefill_real_device(&mut dev, window).expect("prefill");
    let name = dev.name().to_string();
    if !opts.json {
        println!(
            "Queue-depth sweep on {name}: degree 16, {io_size} B IOs, {count} IOs per run \
             (wall clock)"
        );
        println!(
            "{:>8} {:>4} {:>12} {:>10} {:>8}",
            "pattern", "qd", "elapsed", "IOPS", "vs qd1"
        );
    }
    for (lba, mode, code) in PATTERNS {
        let base = PatternSpec::baseline(lba, mode, io_size, window, count);
        let mut base_iops = 0.0;
        for depth in queue_depths() {
            let par = ParallelSpec::new(base, 16).with_queue_depth(depth);
            let run = execute_parallel_with_policy(&mut dev, &par, &IoPolicy::none(), sink)
                .expect("sweep point");
            if let Some(e) = dev.take_async_error() {
                eprintln!("asynchronous IO error during {code} qd{depth}: {e}");
                std::process::exit(1);
            }
            let secs = run.elapsed.as_secs_f64();
            let iops = if secs > 0.0 {
                run.len() as f64 / secs
            } else {
                f64::INFINITY
            };
            if depth == 1 {
                base_iops = iops;
            }
            let speedup = if base_iops > 0.0 {
                iops / base_iops
            } else {
                1.0
            };
            if !opts.json {
                println!(
                    "{code:>8} {depth:>4} {:>12?} {iops:>10.0} {speedup:>7.2}x",
                    run.elapsed
                );
            }
            points.push(SweepPoint {
                device: name.clone(),
                pattern: code.to_string(),
                queue_depth: depth,
                elapsed_ms: secs * 1e3,
                iops,
                speedup_vs_qd1: speedup,
            });
        }
    }
}

fn main() {
    let opts = HarnessOptions::from_args();
    let (metrics_out, sink) = opts.metrics_sink();
    let mut points: Vec<SweepPoint> = Vec::new();
    // `--device` accepts anything DeviceTarget resolves: a catalogue
    // id, a calibrated `profile:PATH` JSON, or a real-target spec.
    let devices = match opts.device.as_deref().map(DeviceTarget::resolve_or_exit) {
        Some(DeviceTarget::Real(spec)) => {
            sweep_real(&spec, &opts, &sink, &mut points);
            write_outputs(&opts, &points);
            if let Some(m) = &metrics_out {
                m.finish(!opts.json);
            }
            return;
        }
        Some(DeviceTarget::Sim(profile)) => vec![*profile],
        None => vec![catalog::memoright(), catalog::mtron(), catalog::samsung()],
    };
    let count = if opts.quick { 256 } else { 1024 };
    // One-page reads/writes so a single IO occupies a single channel —
    // the regime where queue depth, not IO striping, provides overlap.
    let io_size = 2 * 1024u64;
    let patterns = PATTERNS;
    if !opts.json {
        println!("Queue-depth sweep: degree 16, {io_size} B IOs, {count} IOs per run");
    }
    for profile in devices {
        if !opts.json {
            println!("\n{} ({} channels)", profile.id, sim_channels(&profile));
            println!(
                "{:>8} {:>4} {:>12} {:>10} {:>8}",
                "pattern", "qd", "elapsed", "IOPS", "vs qd1"
            );
        }
        for (lba, mode, code) in patterns {
            let window = 64 * 1024 * 1024u64;
            let base = PatternSpec::baseline(lba, mode, io_size, window, count);
            let mut base_iops = 0.0;
            for depth in queue_depths() {
                let mut dev = prepared_device(&profile, opts.quick);
                dev.idle(Duration::from_secs(5));
                let par = ParallelSpec::new(base, 16).with_queue_depth(depth);
                let run =
                    execute_parallel_with_policy(dev.as_mut(), &par, &IoPolicy::none(), &sink)
                        .expect("sweep point");
                let secs = run.elapsed.as_secs_f64();
                let iops = if secs > 0.0 {
                    run.len() as f64 / secs
                } else {
                    f64::INFINITY
                };
                if depth == 1 {
                    base_iops = iops;
                }
                let speedup = if base_iops > 0.0 {
                    iops / base_iops
                } else {
                    1.0
                };
                if !opts.json {
                    println!(
                        "{code:>8} {depth:>4} {:>12?} {iops:>10.0} {speedup:>7.2}x",
                        run.elapsed
                    );
                }
                points.push(SweepPoint {
                    device: profile.id.to_string(),
                    pattern: code.to_string(),
                    queue_depth: depth,
                    elapsed_ms: secs * 1e3,
                    iops,
                    speedup_vs_qd1: speedup,
                });
            }
        }
    }
    write_outputs(&opts, &points);
    if let Some(m) = &metrics_out {
        m.finish(!opts.json);
    }
}

/// Shared tail: JSON-on-stdout mode plus the CSV/JSON artifacts.
fn write_outputs(opts: &HarnessOptions, points: &[SweepPoint]) {
    if opts.json {
        println!("{}", to_json(&points));
    }
    std::fs::create_dir_all(&opts.out_dir).expect("mkdir results");
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.device.clone(),
                p.pattern.clone(),
                p.queue_depth.to_string(),
                format!("{:.6}", p.elapsed_ms),
                format!("{:.0}", p.iops),
                format!("{:.3}", p.speedup_vs_qd1),
            ]
        })
        .collect();
    let out = opts.out_dir.join("qd_sweep.csv");
    std::fs::write(
        &out,
        to_csv(
            &[
                "device",
                "pattern",
                "queue_depth",
                "elapsed_ms",
                "iops",
                "speedup_vs_qd1",
            ],
            &rows,
        ),
    )
    .expect("write CSV");
    let json_out = opts.out_dir.join("qd_sweep.json");
    write_json(&points, &json_out).expect("write JSON");
    eprintln!("\nwrote {} and {}", out.display(), json_out.display());
}

/// Channel count of a profile's NAND array (for the report header).
fn sim_channels(profile: &uflip_device::DeviceProfile) -> u32 {
    profile.build_sim(0).channels()
}
