//! The benchmark's declared contract: `BENCHMARK.json` at the repository
//! root, embedded at build time so the metric names, units, directions
//! and regression bounds the program prints and compares come from the
//! one file that declares them.

use serde_json::Value;

/// The embedded `BENCHMARK.json`.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// Metrics of an untraced run.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of a traced run.
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parse the embedded contract.
    pub fn load() -> Result<Spec, String> {
        let doc = serde_json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = list(&doc, "workloads")?
            .iter()
            .map(|w| string(w, "name"))
            .collect::<Result<_, _>>()?;
        let run_seconds = match field(&doc, "run_seconds")? {
            Value::U64(n) => *n as f64,
            other => return Err(format!("run_seconds: expected an integer, got {other:?}")),
        };
        Ok(Spec {
            workloads,
            run_seconds,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.as_map()
        .map_err(|e| e.to_string())?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("BENCHMARK.json: missing `{key}`"))
}

fn list<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    field(v, key)?.as_seq().map_err(|e| format!("{key}: {e}"))
}

fn string(v: &Value, key: &str) -> Result<String, String> {
    match field(v, key)? {
        Value::Str(s) => Ok(s.clone()),
        other => Err(format!("{key}: expected a string, got {other:?}")),
    }
}

fn metrics(doc: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    list(doc, key)?
        .iter()
        .map(|m| {
            let better = string(m, "better")?;
            let bound = match field(m, "bound") {
                Ok(Value::F64(b)) => Some(*b),
                Ok(Value::U64(b)) => Some(*b as f64),
                Ok(other) => return Err(format!("bound: expected a number, got {other:?}")),
                Err(_) => None,
            };
            Ok(MetricSpec {
                name: string(m, "name")?,
                unit: string(m, "unit")?,
                higher_is_better: match better.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("better: expected higher or lower, got {other}")),
                },
                bound,
            })
        })
        .collect()
}
