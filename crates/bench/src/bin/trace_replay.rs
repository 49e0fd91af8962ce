//! Capture & replay: turn a uFLIP baseline run into a trace, then
//! drive every Table 2 device with it.
//!
//! Goes beyond the paper. The micro-benchmarks characterize devices
//! with closed-form patterns; this binary asks the follow-up question:
//! *given an actual request stream — captured from one device, or
//! synthesized to look like a database — how do the profiles compare?*
//!
//! Three sections:
//!
//! 1. **Capture** a random-read baseline on one profile (default
//!    Memoright, `--device` to change) through `TracingDevice`, print
//!    its workload profile, and write the trace as JSONL + binary +
//!    `trace_records_csv`.
//! 2. **Replay the capture** across the seven representative profiles:
//!    timing-faithful (reproduces the capture on the origin device)
//!    and open-loop at queue depths 1/4/16 (what each device *could*
//!    drain).
//! 3. **Replay generated DB workloads** (B+-tree search/insert mix,
//!    page-logging mix) open-loop at depths 1 and 16 — scenario
//!    diversity without a capture.
//!
//! Output: ASCII tables + `trace_rr.{jsonl,bin}`,
//! `trace_rr_records.csv`, `trace_replay.csv`, `trace_replay.json`.

//! With `--device file:PATH[:SIZE]` (or `direct:`/`buffered:`) the
//! whole pipeline runs against a **real** file or block device: the
//! capture happens on it (wall-clock timestamps), and the replays
//! drive its threaded wall-clock queue instead of the simulated
//! profiles. **Write workloads are destructive on the target.**

use serde::Serialize;
use uflip_bench::{prefill_real_device, HarnessOptions, RealDeviceSpec};
use uflip_core::executor::execute_run_with_policy;
use uflip_core::replay::{replay_trace_with_policy, ReplayMode};
use uflip_core::{IoPolicy, RunResult};
use uflip_device::profiles::catalog;
use uflip_device::{BlockDevice, TracingDevice};
use uflip_patterns::PatternSpec;
use uflip_report::csv::{to_csv, trace_records_csv};
use uflip_report::json::{to_json, write_json};
use uflip_report::trace::profile_trace;
use uflip_trace::{BtreeMixConfig, PageLoggingConfig, Trace};

const MB: u64 = 1024 * 1024;

/// One replay measurement, shared by the CSV and JSON outputs.
#[derive(Debug, Serialize)]
struct ReplayPoint {
    workload: String,
    device: String,
    mode: String,
    elapsed_ms: f64,
    iops: f64,
    /// Open-loop rows only — comparing a gap-honoring faithful run
    /// against open-loop depth 1 would be meaningless (`None` there).
    speedup_vs_qd1: Option<f64>,
}

/// Capture + replay against a real file/block device: the same three
/// sections as the simulated pipeline, all on one wall-clock target.
fn main_real(spec: &RealDeviceSpec, opts: &HarnessOptions, sink: &uflip_obs::SinkHandle) {
    let count = if opts.quick { 128 } else { 512 };
    let ops = if opts.quick { 64 } else { 256 };
    let seed = 0xF11B;
    let mut dev = spec.open().unwrap_or_else(|e| {
        eprintln!("cannot open {}: {e}", spec.path.display());
        std::process::exit(2);
    });
    let window = (dev.capacity_bytes() / 2).min(64 * MB);
    prefill_real_device(&mut dev, window).expect("prefill");

    // --- 1. Capture -------------------------------------------------
    let pattern = PatternSpec::baseline_rr(16 * 1024, window, count);
    let mut traced = TracingDevice::new(dev).with_label("RR");
    let capture = execute_run_with_policy(&mut traced, &pattern, &IoPolicy::none(), sink)
        .expect("capture run");
    let (dev, trace) = traced.into_parts();
    // Faults apply to the replays, not the capture — a fault-ridden
    // capture would bake the injected latencies into the trace itself.
    let mut dev: Box<dyn BlockDevice> = opts.apply_faults(Box::new(dev));
    let dev = dev.as_mut();
    let profile = profile_trace(&trace);
    if opts.json {
        println!("{}", to_json(&profile));
    } else {
        println!(
            "captured {} on {}: {} IOs, {:.1} ms elapsed, mean latency {:.3} ms",
            trace.label,
            trace.device,
            profile.records,
            capture.elapsed.as_secs_f64() * 1e3,
            profile.mean_latency_ms,
        );
    }

    // --- 2. Replay everything on the same target --------------------
    let mut points: Vec<ReplayPoint> = Vec::new();
    let workloads: Vec<(String, Trace)> = vec![
        (trace.label.clone(), trace.clone()),
        (
            "btree-mix".to_string(),
            BtreeMixConfig::oltp(0, window / 2, ops, seed).generate(),
        ),
        (
            "page-log".to_string(),
            PageLoggingConfig::checkpointing(0, window / 8, window / 4, window / 2, ops, seed)
                .generate(),
        ),
    ];
    if !opts.json {
        println!(
            "\nreplays on {} (wall clock):\n{:>12} {:>14} {:>12} {:>12} {:>12} {:>8}",
            dev.name(),
            "workload",
            "faithful",
            "open qd1",
            "open qd4",
            "open qd16",
            "qd16/qd1"
        );
    }
    for (name, workload) in &workloads {
        let mut run_mode = |mode: ReplayMode| -> RunResult {
            let run = replay_trace_with_policy(dev, workload, mode, &opts.io_policy, sink)
                .expect("replay");
            if let Some(e) = dev.take_async_error() {
                eprintln!("asynchronous IO error replaying {name}: {e}");
                std::process::exit(1);
            }
            run
        };
        let faithful = run_mode(ReplayMode::TimingFaithful);
        let mut open = Vec::new();
        for depth in [1u32, 4, 16] {
            open.push((depth, run_mode(ReplayMode::OpenLoop { queue_depth: depth })));
        }
        let qd1_ms = open[0].1.elapsed.as_secs_f64() * 1e3;
        let mut record = |mode: &str, run: &RunResult, open_loop: bool| {
            let ms = run.elapsed.as_secs_f64() * 1e3;
            points.push(ReplayPoint {
                workload: name.clone(),
                device: dev.name().to_string(),
                mode: mode.to_string(),
                elapsed_ms: ms,
                iops: if ms > 0.0 {
                    run.len() as f64 / (ms / 1e3)
                } else {
                    f64::INFINITY
                },
                speedup_vs_qd1: if !open_loop {
                    None
                } else if ms > 0.0 {
                    Some(qd1_ms / ms)
                } else {
                    Some(1.0)
                },
            });
        };
        record("faithful", &faithful, false);
        for (depth, run) in &open {
            record(&format!("open-qd{depth}"), run, true);
        }
        if !opts.json {
            let ms = |r: &RunResult| r.elapsed.as_secs_f64() * 1e3;
            println!(
                "{:>12} {:>12.1}ms {:>10.1}ms {:>10.1}ms {:>10.1}ms {:>7.2}x",
                name,
                ms(&faithful),
                ms(&open[0].1),
                ms(&open[1].1),
                ms(&open[2].1),
                qd1_ms / ms(&open[2].1),
            );
        }
    }
    if opts.json {
        println!("{}", to_json(&points));
    }
    write_artifacts(opts, &trace, &points);
}

fn main() {
    let opts = HarnessOptions::from_args();
    let (metrics_out, sink) = opts.metrics_sink();
    if let Some(spec) = opts
        .device
        .as_deref()
        .and_then(RealDeviceSpec::parse_or_exit)
    {
        main_real(&spec, &opts, &sink);
        if let Some(m) = &metrics_out {
            m.finish(!opts.json);
        }
        return;
    }
    let capture_profile = match opts.device.as_deref() {
        None => catalog::memoright(),
        Some(id) => uflip_bench::sim_profile_or_exit(id),
    };
    let count = if opts.quick { 128 } else { 512 };
    let ops = if opts.quick { 64 } else { 256 };
    let window = 64 * MB;
    let seed = 0xF11B;

    // --- 1. Capture -------------------------------------------------
    let spec = PatternSpec::baseline_rr(2 * 1024, window, count);
    let mut traced = TracingDevice::new(*capture_profile.build_sim(seed)).with_label("RR");
    let capture =
        execute_run_with_policy(&mut traced, &spec, &IoPolicy::none(), &sink).expect("capture run");
    let (_, trace) = traced.into_parts();
    let profile = profile_trace(&trace);
    if opts.json {
        println!("{}", to_json(&profile));
    } else {
        println!(
            "captured {} on {}: {} IOs ({} R / {} W), {:.1} ms elapsed, mean latency {:.3} ms",
            trace.label,
            trace.device,
            profile.records,
            profile.reads,
            profile.writes,
            capture.elapsed.as_secs_f64() * 1e3,
            profile.mean_latency_ms,
        );
        println!(
            "  sequentiality {:.2}, locality {:.2}, max queue depth {}",
            profile.sequential_fraction, profile.locality_score, profile.max_queue_depth
        );
    }

    // --- 2. Replay the capture everywhere ---------------------------
    let mut points: Vec<ReplayPoint> = Vec::new();
    let workloads: Vec<(String, Trace)> = vec![
        (trace.label.clone(), trace.clone()),
        (
            "btree-mix".to_string(),
            BtreeMixConfig::oltp(0, 32 * MB, ops, seed).generate(),
        ),
        (
            "page-log".to_string(),
            PageLoggingConfig::checkpointing(0, 8 * MB, 16 * MB, 32 * MB, ops, seed).generate(),
        ),
    ];
    for (name, workload) in &workloads {
        if !opts.json {
            println!(
                "\nreplay of {name} ({} IOs) across the representative profiles:",
                workload.len()
            );
            println!(
                "{:>18} {:>14} {:>12} {:>12} {:>12} {:>8}",
                "device", "faithful", "open qd1", "open qd4", "open qd16", "qd16/qd1"
            );
        }
        for dev_profile in catalog::representative() {
            let run_mode = |mode: ReplayMode| -> RunResult {
                let mut dev = opts.apply_faults(dev_profile.build_sim(seed));
                replay_trace_with_policy(dev.as_mut(), workload, mode, &opts.io_policy, &sink)
                    .expect("replay")
            };
            let faithful = run_mode(ReplayMode::TimingFaithful);
            let mut open = Vec::new();
            for depth in [1u32, 4, 16] {
                open.push((depth, run_mode(ReplayMode::OpenLoop { queue_depth: depth })));
            }
            let qd1_ms = open[0].1.elapsed.as_secs_f64() * 1e3;
            let mut record = |mode: &str, run: &RunResult, open_loop: bool| {
                let ms = run.elapsed.as_secs_f64() * 1e3;
                points.push(ReplayPoint {
                    workload: name.clone(),
                    device: dev_profile.id.to_string(),
                    mode: mode.to_string(),
                    elapsed_ms: ms,
                    iops: if ms > 0.0 {
                        run.len() as f64 / (ms / 1e3)
                    } else {
                        f64::INFINITY
                    },
                    speedup_vs_qd1: if !open_loop {
                        None
                    } else if ms > 0.0 {
                        Some(qd1_ms / ms)
                    } else {
                        Some(1.0)
                    },
                });
            };
            record("faithful", &faithful, false);
            for (depth, run) in &open {
                record(&format!("open-qd{depth}"), run, true);
            }
            if !opts.json {
                let ms = |r: &RunResult| r.elapsed.as_secs_f64() * 1e3;
                println!(
                    "{:>18} {:>12.1}ms {:>10.1}ms {:>10.1}ms {:>10.1}ms {:>7.2}x",
                    dev_profile.id,
                    ms(&faithful),
                    ms(&open[0].1),
                    ms(&open[1].1),
                    ms(&open[2].1),
                    qd1_ms / ms(&open[2].1),
                );
            }
        }
    }
    if opts.json {
        println!("{}", to_json(&points));
    }
    write_artifacts(&opts, &trace, &points);
    if let Some(m) = &metrics_out {
        m.finish(!opts.json);
    }
}

/// Section 3, shared by the simulated and real pipelines: persist the
/// captured trace and the replay measurements.
fn write_artifacts(opts: &HarnessOptions, trace: &Trace, points: &[ReplayPoint]) {
    std::fs::create_dir_all(&opts.out_dir).expect("mkdir results");
    trace
        .save_jsonl(&opts.out_dir.join("trace_rr.jsonl"))
        .expect("write JSONL trace");
    trace
        .save_binary(&opts.out_dir.join("trace_rr.bin"))
        .expect("write binary trace");
    std::fs::write(
        opts.out_dir.join("trace_rr_records.csv"),
        trace_records_csv(trace),
    )
    .expect("write records CSV");
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.workload.clone(),
                p.device.clone(),
                p.mode.clone(),
                format!("{:.6}", p.elapsed_ms),
                format!("{:.0}", p.iops),
                p.speedup_vs_qd1
                    .map_or_else(String::new, |s| format!("{s:.3}")),
            ]
        })
        .collect();
    std::fs::write(
        opts.out_dir.join("trace_replay.csv"),
        to_csv(
            &[
                "workload",
                "device",
                "mode",
                "elapsed_ms",
                "iops",
                "speedup_vs_qd1",
            ],
            &rows,
        ),
    )
    .expect("write CSV");
    write_json(&points, &opts.out_dir.join("trace_replay.json")).expect("write JSON");
    eprintln!(
        "\nwrote trace_rr.jsonl/.bin, trace_rr_records.csv, trace_replay.csv/.json under {}",
        opts.out_dir.display()
    );
}
