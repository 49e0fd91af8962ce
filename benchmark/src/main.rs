//! `uflip-benchmark` — measure the uFLIP simulator.
//!
//! ```text
//! uflip-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! uflip-benchmark run [--trace] [--seed N] [--seconds S] [--quick] [--out PATH] [--expect PATH]
//! uflip-benchmark compare PARENT.json CHANGE.json
//! ```
//!
//! The first form measures one workload and prints a detail line and,
//! last, the result line. `run` measures every workload, each in a
//! child process of its own, prints a table and can append the set to
//! a result file and check its fingerprints against an earlier one.
//! `compare` applies the decision rule to two result files. Every form
//! exits non-zero when a check fails.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use uflip_benchmark::compare::{self, get};
use uflip_benchmark::measure::measure;
use uflip_benchmark::spec::Spec;
use uflip_benchmark::workload::{Config, Workload};

const DEFAULT_SEED: u64 = 42;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match Spec::load() {
        Ok(spec) => spec,
        Err(e) => return fail(&e),
    };
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..], &spec),
        Some("compare") => compare_files(&args[1..], &spec),
        _ => one(&args, &spec),
    };
    match result {
        Ok(code) => code,
        Err(e) => fail(&e),
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("uflip-benchmark: {message}");
    ExitCode::from(2)
}

/// Command-line flags shared by the measuring forms.
struct Flags {
    workload: Option<Workload>,
    cfg: Config,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    expect: Option<PathBuf>,
}

fn parse_flags(args: &[String], spec: &Spec, subcommand: bool) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        cfg: Config {
            seed: DEFAULT_SEED,
            quick: false,
        },
        seconds: spec.run_seconds,
        trace: false,
        out: None,
        expect: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" if !subcommand => {
                let name = value()?;
                flags.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                flags.cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                flags.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" if !subcommand => {
                flags.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--trace" => flags.trace = true,
            "--quick" => flags.cfg.quick = true,
            "--out" if subcommand => flags.out = Some(PathBuf::from(value()?)),
            "--expect" if subcommand => flags.expect = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(flags)
}

/// Measure one workload in this process.
fn one(args: &[String], spec: &Spec) -> Result<ExitCode, String> {
    let flags = parse_flags(args, spec, false)?;
    let workload = flags.workload.ok_or("--workload is required")?;
    let outcome = measure(workload, &flags.cfg, flags.seconds, flags.trace, spec);
    println!(
        "{}",
        serde_json::to_string(&Value::Map(vec![("detail".into(), outcome.detail.clone())]))
            .map_err(|e| e.to_string())?
    );
    println!("{}", outcome.result_json());
    if !outcome.correct {
        if let Some(Value::Seq(errors)) = get(&outcome.detail, "errors") {
            for e in errors {
                eprintln!("check failed: {}", to_text(e));
            }
        }
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Measure every workload, each in a child process.
fn run(args: &[String], spec: &Spec) -> Result<ExitCode, String> {
    let flags = parse_flags(args, spec, true)?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut ok = true;
    let mut workloads = Vec::new();
    println!(
        "{:<28} {:<28} {:>16} {:<10} {:>16} {:>16} {:>3}",
        "workload", "metric", "value", "unit", "q1", "q3", "n"
    );
    for w in Workload::ALL {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", w.name()])
            .args(["--seed", &flags.cfg.seed.to_string()])
            .args(["--seconds", &flags.seconds.to_string()])
            .args(["--trace", if flags.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if flags.cfg.quick {
            child.arg("--quick");
        }
        let output = child
            .output()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines = stdout.lines().rev();
        let result = lines
            .next()
            .and_then(|l| serde_json::parse(l).ok())
            .ok_or_else(|| format!("{}: no result line", w.name()))?;
        let detail = lines
            .next()
            .and_then(|l| serde_json::parse(l).ok())
            .and_then(|d| get(&d, "detail").cloned())
            .ok_or_else(|| format!("{}: no detail line", w.name()))?;
        let correct = matches!(get(&result, "correct"), Some(Value::Bool(true)));
        if !output.status.success() || !correct {
            eprintln!("{}: checks failed ({})", w.name(), output.status);
            ok = false;
        }
        print_rows(w.name(), &result, &detail);
        let mut entry = vec![("name".to_string(), Value::Str(w.name().into()))];
        if let Value::Map(fields) = result {
            entry.extend(fields);
        }
        entry.push(("detail".into(), detail));
        workloads.push(Value::Map(entry));
    }
    let set = Value::Map(vec![
        ("seed".into(), Value::U64(flags.cfg.seed)),
        ("trace".into(), Value::Bool(flags.trace)),
        ("quick".into(), Value::Bool(flags.cfg.quick)),
        ("seconds".into(), Value::F64(flags.seconds)),
        ("workloads".into(), Value::Seq(workloads)),
    ]);
    if let Some(path) = &flags.expect {
        ok &= expect_identical(&set, path)?;
    }
    if let Some(path) = &flags.out {
        append_set(path, set)?;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_rows(workload: &str, result: &Value, detail: &Value) {
    let Some(Value::Map(metrics)) = get(result, "metrics") else {
        return;
    };
    for (name, m) in metrics {
        let number = |v: Option<&Value>| match v {
            Some(Value::F64(x)) => *x,
            Some(Value::U64(x)) => *x as f64,
            _ => f64::NAN,
        };
        let q = match get(detail, "quartiles").and_then(|q| get(q, name)) {
            Some(Value::Seq(q)) => q.iter().map(|v| number(Some(v))).collect(),
            _ => vec![f64::NAN; 4],
        };
        println!(
            "{workload:<28} {name:<28} {:>16.6} {:<10} {:>16.6} {:>16.6} {:>3}",
            number(get(m, "value")),
            get(m, "unit").map_or(String::new(), to_text),
            q[0],
            q[2],
            q.get(3).copied().unwrap_or(f64::NAN),
        );
    }
}

fn to_text(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        other => serde_json::to_string(other).unwrap_or_default(),
    }
}

/// Check this set's fingerprints against the last set of an earlier
/// result file made with the same seed and sizes.
fn expect_identical(set: &Value, path: &Path) -> Result<bool, String> {
    let earlier = load(path)?;
    let Some(Value::Seq(sets)) = get(&earlier, "sets") else {
        return Err(format!("{}: no sets", path.display()));
    };
    let last = sets
        .last()
        .ok_or_else(|| format!("{}: no sets", path.display()))?;
    for key in ["seed", "quick"] {
        if get(last, key) != get(set, key) {
            return Err(format!(
                "{}: made with another {key}; fingerprints are not comparable",
                path.display()
            ));
        }
    }
    let fingerprints = |s: &Value| -> Vec<(String, String)> {
        match get(s, "workloads") {
            Some(Value::Seq(ws)) => ws
                .iter()
                .map(|w| {
                    let name = get(w, "name").map_or(String::new(), to_text);
                    let fp = get(w, "detail")
                        .and_then(|d| get(d, "fingerprint"))
                        .map_or(String::new(), to_text);
                    (name, fp)
                })
                .collect(),
            _ => Vec::new(),
        }
    };
    let theirs = fingerprints(last);
    let mut identical = true;
    for (name, fp) in fingerprints(set) {
        match theirs.iter().find(|(n, _)| *n == name) {
            Some((_, expected)) if *expected == fp => {}
            Some((_, expected)) => {
                eprintln!(
                    "{name}: fingerprint {fp} differs from {expected} in {}",
                    path.display()
                );
                identical = false;
            }
            None => {
                eprintln!("{name}: not in {}", path.display());
                identical = false;
            }
        }
    }
    Ok(identical)
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Append a set to a result file, creating it if needed.
fn append_set(path: &Path, set: Value) -> Result<(), String> {
    let mut sets = if path.exists() {
        match get(&load(path)?, "sets") {
            Some(Value::Seq(sets)) => sets.clone(),
            _ => return Err(format!("{}: not a result file", path.display())),
        }
    } else {
        Vec::new()
    };
    sets.push(set);
    let text = serde_json::to_string_pretty(&Value::Map(vec![("sets".into(), Value::Seq(sets))]))
        .map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Judge a change's result file against its parent's.
fn compare_files(args: &[String], spec: &Spec) -> Result<ExitCode, String> {
    let [parent, change] = args else {
        return Err("usage: uflip-benchmark compare PARENT.json CHANGE.json".into());
    };
    let (lines, regressed) =
        compare::report(&load(Path::new(parent))?, &load(Path::new(change))?, spec);
    for line in lines {
        println!("{line}");
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
