//! The arithmetic the reported numbers rest on: self time from sampled
//! spans, quartiles as Python computes them, and the decision rule.

use uflip_benchmark::compare::{judge, Verdict};
use uflip_benchmark::spec::{MetricSpec, Spec};
use uflip_benchmark::stats::quartiles;
use uflip_benchmark::timed::{Calibration, Call, Ledger, Op, SubmitSample};

const CAL: Calibration = Calibration {
    span_ns: 20.0,
    record_ns: 50.0,
    skip_ns: 2.0,
};

/// 160 IOs, each one submit (true self 100 ns, holding one FTL read of
/// true 300 ns) and one poll (true 40 ns), with 50 ns of executor work
/// per IO. One call in 16 is timed; a timed span reads its true time
/// plus one clock cost (20 ns), and a nested span adds its remaining
/// 30 ns of bookkeeping to the span around it.
fn ledger() -> (Ledger, f64) {
    let mut l = Ledger::default();
    let submit = &mut l.device[Call::Submit as usize];
    submit.calls = 160;
    submit.samples = 10;
    submit.nested[Op::Read as usize] = 10;
    submit.nested_ns[Op::Read as usize] = 10 * (300 + 20);
    submit.span_ns = 10 * (100 + 320 + 30 + 20);
    let poll = &mut l.device[Call::Poll as usize];
    poll.calls = 160;
    poll.samples = 10;
    poll.span_ns = 10 * (40 + 20);
    l.ftl_calls[Op::Read as usize] = 160;
    l.submits = vec![
        SubmitSample {
            outer_ns: 100 + 30 + 20,
            nested: 1,
            ios: 1,
        };
        10
    ];
    let work = 160.0 * (50.0 + 100.0 + 300.0 + 40.0);
    // Timed spans (device and nested) cost a full record each; skipped
    // calls cost the sampler's decision; the executor span holds its
    // own clock cost.
    let tracing = 30.0 * 50.0 + 300.0 * 2.0 + 20.0;
    (l, work + tracing)
}

#[test]
fn attribution_recovers_each_layers_self_time() {
    let (l, exec) = ledger();
    let a = l.attribute(exec, &CAL);
    assert_eq!(a.ios, 160);
    assert!((a.device_ns - 160.0 * 140.0).abs() < 1e-6, "{a:?}");
    assert!((a.ftl_ns[Op::Read as usize] - 160.0 * 300.0).abs() < 1e-6);
    assert_eq!(a.ftl_ns[Op::Write as usize], 0.0);
    assert!((a.core_ns - 160.0 * 50.0).abs() < 1e-6, "{a:?}");
}

#[test]
fn per_call_means_strip_nested_spans_and_clock_costs() {
    let (l, _) = ledger();
    assert!((l.self_ns_per_io(&[Call::Submit, Call::SubmitBatch], &CAL) - 100.0).abs() < 1e-9);
    assert!((l.self_ns_per_call(&[Call::Poll], &CAL) - 40.0).abs() < 1e-9);
    assert!((l.ftl_ns_per_call(Op::Read, &CAL) - 300.0).abs() < 1e-9);
    assert_eq!(l.submit_self_ns(&CAL), vec![100.0; 10]);
    assert_eq!(l.self_ns_per_call(&[Call::Read], &CAL), 0.0, "no samples");
}

#[test]
fn merged_ledgers_add_up() {
    let (l, exec) = ledger();
    let mut twice = l.clone();
    twice.merge(&l);
    let a = twice.attribute(2.0 * exec - CAL.span_ns, &CAL);
    assert_eq!(a.ios, 320);
    assert!((a.core_ns - 320.0 * 50.0).abs() < 1e-6, "{a:?}");
}

#[test]
fn quartiles_match_pythons_statistics_quantiles() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
    assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), Some([1.25, 2.5, 3.75]));
    assert_eq!(quartiles(&[1.0, 3.0]), Some([0.5, 2.0, 3.5]));
    assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
    assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
    assert_eq!(quartiles(&[]), None);
}

fn lower_is_better(bound: f64) -> MetricSpec {
    MetricSpec {
        name: "wall_s".into(),
        unit: "s".into(),
        higher_is_better: false,
        bound: Some(bound),
    }
}

#[test]
fn decision_rule() {
    let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
    let m = lower_is_better(0.1);
    let verdict = |change: &[f64], m: &MetricSpec| judge(&parent, change, m).unwrap().verdict;

    let faster: Vec<f64> = parent.iter().map(|v| v * 0.9).collect();
    assert_eq!(verdict(&faster, &m), Verdict::Improved);
    let slower: Vec<f64> = parent.iter().map(|v| v * 1.15).collect();
    assert_eq!(verdict(&slower, &m), Verdict::Regressed);
    assert_eq!(verdict(&parent, &m), Verdict::Unchanged);
    assert_eq!(
        verdict(&faster[..5], &m),
        Verdict::Unresolved,
        "too few pairs"
    );

    // A gap smaller than the parent's own spread claims nothing.
    let barely: Vec<f64> = parent.iter().map(|v| v - 0.5).collect();
    assert_eq!(verdict(&barely, &m), Verdict::Unchanged);

    // A spread wider than the bound leaves overlapping runs unresolved.
    let noisy: Vec<f64> = (0..10).map(|i| 100.0 + 30.0 * f64::from(i % 4)).collect();
    let shuffled: Vec<f64> = noisy.iter().rev().copied().collect();
    let wide = judge(&noisy, &shuffled, &lower_is_better(0.25)).unwrap();
    assert_eq!(wide.verdict, Verdict::Unresolved);

    let higher = MetricSpec {
        higher_is_better: true,
        ..m.clone()
    };
    assert_eq!(verdict(&slower, &higher), Verdict::Improved);
}

#[test]
fn the_embedded_contract_parses() {
    let spec = Spec::load().unwrap();
    assert_eq!(spec.workloads.len(), 5);
    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(setup.unit, "s");
    assert!(!setup.higher_is_better);
    let largest = spec
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(
        setup.bound,
        Some(largest),
        "setup_s carries the largest bound"
    );
    assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
}
