//! `compare`: the decision rule for a change against its parent.
//!
//! Both sides are result files written by `run --out`, each holding one
//! set per run. Set *i* of the parent and set *i* of the change form a
//! pair; the runs are expected to alternate. For each end-to-end metric
//! and workload:
//!
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the metric's bound in `BENCHMARK.json`;
//! * **improved** — at least ten pairs, the change wins nine
//!   in ten of them (ties count for neither side), and the medians
//!   differ by more than the parent's interquartile range;
//! * **unresolved** — fewer than ten pairs, or the parent's
//!   own spread is wider than the bound and not every change run beats
//!   every parent run;
//! * **unchanged** — otherwise.

use crate::spec::{MetricSpec, Spec};
use crate::stats::quartiles;
use serde_json::Value;

/// Pairs needed before a gain can be claimed.
const MIN_PAIRS: usize = 10;

/// The outcome for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the rule.
    Improved,
    /// Within the bound, and the spread allows saying so.
    Unchanged,
    /// Too few pairs or too much spread to say.
    Unresolved,
    /// Worse than the parent by more than the bound.
    Regressed,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// A judged metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judgement {
    /// The verdict.
    pub verdict: Verdict,
    /// Parent quartiles.
    pub parent: [f64; 3],
    /// Change quartiles.
    pub change: [f64; 3],
    /// Pairs compared.
    pub pairs: usize,
    /// Pairs the change won.
    pub wins: usize,
}

/// Apply the decision rule to the runs of one metric on one workload.
/// `None` when either side has no runs.
pub fn judge(parent: &[f64], change: &[f64], metric: &MetricSpec) -> Option<Judgement> {
    let p = quartiles(parent)?;
    let c = quartiles(change)?;
    let better = |a: f64, b: f64| {
        if metric.higher_is_better {
            a > b
        } else {
            a < b
        }
    };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| better(c, p))
        .count();
    let (pm, cm) = (p[1], c[1]);
    let bound = metric.bound.unwrap_or(0.0);
    let worse_by = if metric.higher_is_better {
        (pm - cm) / pm
    } else {
        (cm - pm) / pm
    };
    let iqr = p[2] - p[0];
    let every_run_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let verdict = if worse_by > bound {
        Verdict::Regressed
    } else if pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && better(cm, pm)
        && (cm - pm).abs() > iqr
    {
        Verdict::Improved
    } else if pairs < MIN_PAIRS || (iqr / pm.abs() > bound && !every_run_better) {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    Some(Judgement {
        verdict,
        parent: p,
        change: c,
        pairs,
        wins,
    })
}

/// The values of `metric` on `workload`, one per set, from a result
/// file written by `run --out`.
fn series(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    let Some(Value::Seq(sets)) = get(doc, "sets") else {
        return Vec::new();
    };
    sets.iter()
        .filter_map(|set| match get(set, "workloads") {
            Some(Value::Seq(ws)) => ws
                .iter()
                .find(|w| matches!(get(w, "name"), Some(Value::Str(n)) if n == workload)),
            _ => None,
        })
        .filter_map(|w| match get(get(get(w, "metrics")?, metric)?, "value")? {
            Value::F64(v) => Some(*v),
            Value::U64(v) => Some(*v as f64),
            _ => None,
        })
        .collect()
}

/// A field of a JSON object.
pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_map()
        .ok()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// Judge every end-to-end metric on every workload; one line each.
pub fn report(parent: &Value, change: &Value, spec: &Spec) -> (Vec<String>, bool) {
    let mut lines = vec![format!(
        "{:<28} {:<12} {:<10} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "verdict", "parent", "change", "change%", "wins"
    )];
    let mut regressed = false;
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let Some(j) = judge(&series(parent, w, &m.name), &series(change, w, &m.name), m) else {
                lines.push(format!("{w:<28} {:<12} missing", m.name));
                continue;
            };
            regressed |= j.verdict == Verdict::Regressed;
            lines.push(format!(
                "{w:<28} {:<12} {:<10} {:>14.6} {:>14.6} {:>+7.2}% {:>3}/{}",
                m.name,
                j.verdict.name(),
                j.parent[1],
                j.change[1],
                (j.change[1] / j.parent[1] - 1.0) * 100.0,
                j.wins,
                j.pairs
            ));
        }
    }
    (lines, regressed)
}
