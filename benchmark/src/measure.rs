//! One benchmark process: set up one workload, warm up, measure for the
//! requested time, check every repetition, and compute the metrics
//! `BENCHMARK.json` declares.
//!
//! An untraced process reports the end-to-end metrics. A traced process
//! runs every profile plain and traced (and, where the workload observes
//! through a Metrics sink, with the null sink) back to back in each
//! repetition, and reports the per-layer metrics, including how far the
//! traced ledger lands from the plain host time.

use crate::spec::{MetricSpec, Spec};
use crate::stats::{self, hex};
use crate::timed::{self, Calibration, Call, Ledger, Op};
use crate::workload::{Config, Inputs, Probe, ProfileOutcome, RepOutcome, Workload};
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per process, at least; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// More set-ups are made, up to [`SETUP_REPS_MAX`], until this many
/// seconds were spent setting up.
const SETUP_SECONDS: f64 = 0.25;

/// At most this many set-ups per process.
const SETUP_REPS_MAX: usize = 200;

/// Positions of the probes in a round.
const PLAIN: usize = 0;
const TRACED: usize = 1;
const NULL_SINK: usize = 2;

/// The result of one process.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// IOs the timed repetitions asked for.
    pub attempted: u64,
    /// IOs that failed for good, plus repetitions that aborted.
    pub failed: u64,
    /// Declared metrics with their values, in declaration order.
    pub metrics: Vec<(MetricSpec, f64)>,
    /// Per-profile fingerprints, quartiles and failed checks.
    pub detail: Value,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(m, v)| {
                let entry = Value::Map(vec![
                    ("value".into(), Value::F64(*v)),
                    ("unit".into(), Value::Str(m.unit.clone())),
                ]);
                (m.name.clone(), entry)
            })
            .collect();
        let doc = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&doc).expect("a value tree always serializes")
    }
}

/// Values of each metric, one per repetition (or one per process).
type Series = BTreeMap<&'static str, Vec<f64>>;

/// Measure `w` for `seconds` seconds.
pub fn measure(w: Workload, cfg: &Config, seconds: f64, traced: bool, spec: &Spec) -> Outcome {
    let mut errors = Vec::new();
    let mut series = Series::new();

    // Set up repeatedly: a cheap set-up is timed often enough for its
    // median to settle, and every repetition must build the same inputs.
    let mut setups = Vec::new();
    let mut inputs: Option<Inputs> = None;
    let mut digest = None;
    let t0 = Instant::now();
    while setups.len() < SETUP_REPS
        || (setups.len() < SETUP_REPS_MAX && t0.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        // Free the previous set-up first, so memory holds one at a time.
        drop(inputs.take());
        let t = Instant::now();
        let built = Inputs::build(w, cfg, traced);
        setups.push(t.elapsed().as_secs_f64());
        let d = built.digest();
        if *digest.get_or_insert(d) != d {
            errors.push("set-up built different inputs from the same seed".to_string());
        }
        inputs = Some(built);
    }
    let inputs = inputs.expect("SETUP_REPS is positive");
    series.insert("setup_s", setups);

    let calibration = traced.then(timed::calibrate);
    // Plain first: `PLAIN`, `TRACED` and `NULL_SINK` index a round.
    let probes: &[Probe] = match (traced, w) {
        (false, _) => &[Probe::Plain],
        (true, Workload::CheckpointFaultyObserved) => {
            &[Probe::Plain, Probe::Traced, Probe::NullSink]
        }
        (true, _) => &[Probe::Plain, Probe::Traced],
    };

    let mut rounds: Vec<Vec<RepOutcome>> = Vec::new();
    let mut aborted = 0;
    let warm = match inputs.rep(&[Probe::Plain]) {
        Ok(mut warm) => warm.pop(),
        Err(e) => {
            errors.push(format!("warm-up: {e}"));
            aborted += 1;
            None
        }
    };
    // Peak memory of setting up and running the workload once: later
    // repetitions only add allocator slack that depends on how many of
    // them fit in the run.
    let peak_rss = peak_rss_mib();
    if let Some(warm) = &warm {
        let t0 = Instant::now();
        while rounds.is_empty() || t0.elapsed().as_secs_f64() < seconds {
            match inputs.rep(probes) {
                Ok(round) => {
                    for (probe, rep) in probes.iter().zip(&round) {
                        if rep.fingerprint != warm.fingerprint {
                            errors.push(format!(
                                "{probe:?} repetition {}: fingerprint {} differs from the \
                                 warm-up's {}",
                                rounds.len() + 1,
                                hex(rep.fingerprint),
                                hex(warm.fingerprint)
                            ));
                        }
                    }
                    rounds.push(round);
                }
                Err(e) => {
                    errors.push(format!("repetition {}: {e}", rounds.len() + 1));
                    aborted += 1;
                    break;
                }
            }
        }
    }

    // Reported values: the median of each series, except host times of
    // a whole repetition, which sum each profile's fastest run. Contention
    // on a shared host only ever adds time and comes in phases of
    // seconds, so the fastest of several runs is the steadiest estimate
    // of the work: over ten runs, its spread was a third or less of the
    // per-profile median's.
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let plain = fastest(&rounds, PLAIN);
    let plain_ns: f64 = plain.iter().map(|p| p.wall_ns as f64).sum();
    if traced {
        if let (Some(cal), Some(warm)) = (&calibration, &warm) {
            for round in &rounds {
                for (name, value) in layer_metrics(&round[TRACED], cal) {
                    series.entry(name).or_default().push(value);
                }
            }
            let traced_runs = fastest(&rounds, TRACED);
            let traced_ns: f64 = traced_runs.iter().map(|p| p.wall_ns as f64).sum();
            let accounted: f64 = traced_runs.iter().map(|p| accounted_ns(p, cal)).sum();
            let obs_ns = match w {
                Workload::CheckpointFaultyObserved => {
                    let null_ns: f64 = fastest(&rounds, NULL_SINK)
                        .iter()
                        .map(|p| p.wall_ns as f64)
                        .sum();
                    (plain_ns - null_ns) / warm.ios.max(1) as f64
                }
                _ => 0.0,
            };
            let enforce_s = inputs.enforce_s().unwrap_or_else(|e| {
                errors.push(format!("enforcement: {e}"));
                0.0
            });
            values.extend([
                ("harness.first_rep_s", warm.wall_s),
                ("tracing.timer_ns", cal.record_ns),
                ("tracing.overhead_pct", (traced_ns / plain_ns - 1.0) * 100.0),
                (
                    "tracing.ledger_gap_pct",
                    (plain_ns - accounted).abs() / plain_ns * 100.0,
                ),
                ("obs.metrics_ns_per_io", obs_ns),
                ("core.enforce_s", enforce_s),
            ]);
        }
    } else {
        let reps = || rounds.iter().map(|round| &round[PLAIN]);
        series.insert("wall_s", reps().map(|r| r.wall_s).collect());
        series.insert(
            "sim_iops",
            reps().map(|r| r.ios as f64 / r.wall_s).collect(),
        );
        values.insert("wall_s", plain_ns / 1e9);
        values.insert(
            "sim_iops",
            warm.as_ref().map_or(0.0, |r| r.ios as f64) * 1e9 / plain_ns,
        );
        match peak_rss {
            Ok(mib) => {
                values.insert("peak_rss_mb", mib);
            }
            Err(e) => errors.push(e),
        }
    }
    for (name, s) in &series {
        values.entry(name).or_insert_with(|| stats::median(s));
    }

    let declared = if traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let metrics = declared
        .iter()
        .map(|m| {
            let value = values.get(m.name.as_str()).copied().unwrap_or(f64::NAN);
            if !value.is_finite() {
                errors.push(format!("metric {} was not measured", m.name));
                return (m.clone(), 0.0);
            }
            (m.clone(), value)
        })
        .collect();

    let reps = || rounds.iter().flatten();
    let failed = aborted + reps().map(|r| r.failed).sum::<u64>();
    Outcome {
        correct: errors.is_empty() && failed == 0,
        attempted: reps().map(|r| r.ios).sum::<u64>().max(1),
        failed,
        metrics,
        detail: detail(w, cfg, traced, warm.as_ref(), &rounds, &series, &errors),
    }
}

/// The per-layer metrics of one traced repetition.
fn layer_metrics(rep: &RepOutcome, cal: &Calibration) -> Vec<(&'static str, f64)> {
    let mut merged = Ledger::default();
    let (mut build, mut decode, mut records) = (0.0, 0.0, 0);
    let (mut core, mut device, mut idle, mut ios) = (0.0, 0.0, 0.0, 0);
    let mut hybrid_log = (0.0, 0);
    let mut block_map = (0.0, 0);
    let mut ftl = uflip_ftl::FtlStats::default();
    let mut nand = uflip_nand::NandStats::default();
    let (mut retries, mut faults) = (0, 0);
    for p in &rep.profiles {
        if let Some((f, n)) = &p.counts {
            ftl.host_reads += f.host_reads;
            ftl.host_writes += f.host_writes;
            ftl.sync_merges += f.sync_merges;
            ftl.async_merges += f.async_merges;
            ftl.rmw_events += f.rmw_events;
            ftl.logical_pages_written += f.logical_pages_written;
            nand.merge(n);
        }
        if let Some(o) = &p.obs {
            retries += o.retries;
            faults += o.faults;
        }
        let Some(t) = &p.trace else { continue };
        let a = t.ledger.attribute(t.exec_ns as f64, cal);
        build += t.build_ns as f64;
        decode += t.decode_ns as f64;
        records += t.records;
        core += a.core_ns;
        device += a.device_ns;
        idle += a.ftl_ns[Op::Idle as usize];
        ios += a.ios;
        let family = match p.family {
            "hybrid-log" => Some(&mut hybrid_log),
            "block-map" => Some(&mut block_map),
            _ => None,
        };
        if let Some((ns, n)) = family {
            *ns += a.ftl_total_ns();
            *n += a.ios;
        }
        merged.merge(&t.ledger);
    }
    let per = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };
    let host_ios = ftl.host_reads + ftl.host_writes;
    let mut write_spans: Vec<f64> = merged
        .write_spans
        .iter()
        .map(|&s| s as f64 - cal.span_ns)
        .collect();
    vec![
        ("trace.decode_ns_per_record", per(decode, records)),
        ("core.self_ns_per_io", per(core, ios)),
        (
            "core.retries_per_kio",
            per(1000.0 * retries as f64, rep.ios),
        ),
        ("device.build_ms", build / 1e6),
        ("device.self_ns_per_io", per(device, ios)),
        (
            "device.submit_ns_mean",
            merged.self_ns_per_io(&[Call::Submit, Call::SubmitBatch], cal),
        ),
        (
            "device.submit_ns_p99",
            stats::percentile(&mut merged.submit_self_ns(cal), 99.0),
        ),
        (
            "device.poll_ns_mean",
            merged.self_ns_per_call(&[Call::Poll, Call::PollUpto], cal),
        ),
        (
            "device.sync_io_ns_mean",
            merged.self_ns_per_call(&[Call::Read, Call::Write], cal),
        ),
        (
            "device.restore_ms",
            merged.span_ns_per_call(Call::Restore, cal) / 1e6,
        ),
        (
            "device.snapshot_ms",
            merged.span_ns_per_call(Call::Snapshot, cal) / 1e6,
        ),
        (
            "device.faults_per_kio",
            per(1000.0 * faults as f64, rep.ios),
        ),
        ("ftl.read_ns_mean", merged.ftl_ns_per_call(Op::Read, cal)),
        ("ftl.write_ns_mean", merged.ftl_ns_per_call(Op::Write, cal)),
        (
            "ftl.write_ns_p99",
            stats::percentile(&mut write_spans, 99.0),
        ),
        ("ftl.idle_ns_per_io", per(idle, ios)),
        ("ftl.hybrid_log.ns_per_io", per(hybrid_log.0, hybrid_log.1)),
        ("ftl.block_map.ns_per_io", per(block_map.0, block_map.1)),
        (
            "ftl.merges_per_kwrite",
            per(1000.0 * ftl.total_merges() as f64, ftl.host_writes),
        ),
        (
            "ftl.rmw_per_kwrite",
            per(1000.0 * ftl.rmw_events as f64, ftl.host_writes),
        ),
        (
            "ftl.write_amp",
            ftl.write_amplification(nand.physical_pages_written()),
        ),
        (
            "nand.page_reads_per_io",
            per(nand.page_reads as f64, host_ios),
        ),
        (
            "nand.page_programs_per_io",
            per(nand.page_programs as f64, host_ios),
        ),
        (
            "nand.erases_per_kio",
            per(1000.0 * nand.physical_blocks_erased() as f64, host_ios),
        ),
        (
            "nand.copy_backs_per_kio",
            per(1000.0 * nand.copy_backs as f64, host_ios),
        ),
    ]
}

/// One profile's traced host time as the layers account for it, ns.
fn accounted_ns(p: &ProfileOutcome, cal: &Calibration) -> f64 {
    p.trace.as_ref().map_or(f64::NAN, |t| {
        let a = t.ledger.attribute(t.exec_ns as f64, cal);
        (t.build_ns + t.decode_ns) as f64 + a.core_ns + a.device_ns + a.ftl_total_ns()
    })
}

/// Each profile's fastest run under the probe at `probe` in a round.
fn fastest(rounds: &[Vec<RepOutcome>], probe: usize) -> Vec<&ProfileOutcome> {
    let Some(first) = rounds.first() else {
        return Vec::new();
    };
    (0..first[probe].profiles.len())
        .filter_map(|i| {
            rounds
                .iter()
                .map(|round| &round[probe].profiles[i])
                .min_by_key(|p| p.wall_ns)
        })
        .collect()
}

/// The detail line: what `run` aggregates and `--expect` compares.
fn detail(
    w: Workload,
    cfg: &Config,
    traced: bool,
    warm: Option<&RepOutcome>,
    rounds: &[Vec<RepOutcome>],
    series: &Series,
    errors: &[String],
) -> Value {
    // Per profile: its fingerprint and the host seconds of each plain run.
    let profiles = warm.map_or(Vec::new(), |warm| {
        warm.profiles
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let walls = rounds
                    .iter()
                    .map(|round| Value::F64(round[PLAIN].profiles[i].wall_ns as f64 / 1e9))
                    .collect();
                Value::Map(vec![
                    ("id".into(), Value::Str(p.id.clone())),
                    ("fingerprint".into(), Value::Str(hex(p.fingerprint))),
                    ("wall_s".into(), Value::Seq(walls)),
                ])
            })
            .collect()
    });
    let quartiles = series
        .iter()
        .filter_map(|(name, values)| {
            let q = stats::quartiles(values)?;
            let mut entry: Vec<Value> = q.iter().map(|&v| Value::F64(v)).collect();
            entry.push(Value::U64(values.len() as u64));
            Some((name.to_string(), Value::Seq(entry)))
        })
        .collect();
    Value::Map(vec![
        ("workload".into(), Value::Str(w.name().into())),
        ("seed".into(), Value::U64(cfg.seed)),
        ("quick".into(), Value::Bool(cfg.quick)),
        ("trace".into(), Value::Bool(traced)),
        (
            "fingerprint".into(),
            Value::Str(warm.map_or(String::new(), |r| hex(r.fingerprint))),
        ),
        ("profiles".into(), Value::Seq(profiles)),
        ("reps".into(), Value::U64(rounds.len() as u64)),
        ("quartiles".into(), Value::Map(quartiles)),
        (
            "errors".into(),
            Value::Seq(errors.iter().map(|e| Value::Str(e.clone())).collect()),
        ),
    ])
}

/// This process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
