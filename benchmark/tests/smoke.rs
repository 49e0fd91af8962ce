//! `run --quick` measures every workload and emits every metric that
//! `BENCHMARK.json` declares, untraced and traced; a second set matches
//! the first set's fingerprints under `--expect`; `compare` reads both.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use uflip_benchmark::compare::get;
use uflip_benchmark::spec::{MetricSpec, Spec};

fn benchmark(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_uflip-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary starts");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn quick_set(out: &Path, traced: bool) {
    let out = out.to_str().expect("a UTF-8 path");
    let mut args = vec!["run", "--quick", "--seconds", "0", "--out", out];
    if traced {
        args.push("--trace");
    }
    benchmark(&args);
}

fn check_set(path: &Path, spec: &Spec, declared: &[MetricSpec]) {
    let doc = serde_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let Some(Value::Seq(sets)) = get(&doc, "sets") else {
        panic!("no sets in {}", path.display());
    };
    let Some(Value::Seq(workloads)) = get(&sets[0], "workloads") else {
        panic!("no workloads");
    };
    let names: Vec<_> = workloads.iter().filter_map(|w| get(w, "name")).collect();
    let expected: Vec<_> = spec
        .workloads
        .iter()
        .map(|w| Value::Str(w.clone()))
        .collect();
    assert_eq!(names, expected.iter().collect::<Vec<_>>());
    for w in workloads {
        assert_eq!(get(w, "correct"), Some(&Value::Bool(true)), "{w:?}");
        let Some(Value::Map(metrics)) = get(w, "metrics") else {
            panic!("no metrics in {w:?}");
        };
        let emitted: Vec<_> = metrics.iter().map(|(name, _)| name.as_str()).collect();
        let wanted: Vec<_> = declared.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(emitted, wanted);
        for (m, (_, entry)) in declared.iter().zip(metrics) {
            assert_eq!(get(entry, "unit"), Some(&Value::Str(m.unit.clone())));
            assert!(
                matches!(get(entry, "value"), Some(Value::F64(v)) if v.is_finite()),
                "{}: {entry:?}",
                m.name
            );
        }
    }
}

#[test]
fn quick_runs_emit_every_declared_metric() {
    let spec = Spec::load().unwrap();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let plain = dir.join("plain.json");
    let traced = dir.join("traced.json");
    for file in [&plain, &traced] {
        let _ = std::fs::remove_file(file);
    }

    quick_set(&plain, false);
    check_set(&plain, &spec, &spec.end_to_end);
    quick_set(&traced, true);
    check_set(&traced, &spec, &spec.per_layer);

    let plain = plain.to_str().unwrap();
    let args = [
        "run",
        "--quick",
        "--seconds",
        "0",
        "--expect",
        plain,
        "--out",
        plain,
    ];
    benchmark(&args);
    let report = benchmark(&["compare", plain, plain]);
    let report = String::from_utf8_lossy(&report.stdout);
    assert!(
        report.contains("unresolved") && !report.contains("regressed"),
        "two pairs cannot resolve anything:\n{report}"
    );
}
