//! Start-up / running phase detection (paper §4.2).
//!
//! "We propose a two-phase model to capture response time variations
//! within the course of a micro-benchmark run. In the first phase,
//! which we call start-up phase, response time is cheap … In the second
//! phase, which we call running phase, response time is typically
//! oscillating between two or more values."
//!
//! The detector classifies each IO as *cheap* or *expensive* by
//! thresholding at the geometric midpoint between the trace's extremes
//! (robust on the log scale the paper plots in Figures 3/4), then:
//!
//! * `start_up` = length of the initial run of cheap IOs before the
//!   first expensive one (0 when none — most devices in the paper);
//! * `period` = mean distance between consecutive expensive IOs in the
//!   running phase (0 when the trace never oscillates);
//! * `variability` = max ÷ min over the running phase.
//!
//! The paper reads `IOIgnore` (≥ start-up) and `IOCount` (enough
//! periods for the mean to converge) off these; `MicroConfig` carries
//! the values chosen that way.

use std::time::Duration;

/// Result of two-phase analysis of a response-time trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phases {
    /// Number of cheap IOs before the first expensive one.
    pub start_up: usize,
    /// Average distance between expensive IOs in the running phase
    /// (0 if the running phase never oscillates).
    pub period: usize,
    /// max ÷ min over the running phase.
    pub variability: f64,
    /// The cheap/expensive classification threshold used.
    pub threshold: Duration,
    /// Expensive IOs observed in the running phase.
    pub spikes: usize,
}

/// Minimum max÷min spread for a trace to count as oscillating at all.
/// Below this the trace is treated as uniform (no phases).
const UNIFORM_SPREAD: f64 = 3.0;

/// Analyze a trace into the two-phase model.
pub fn detect_phases(rts: &[Duration]) -> Phases {
    if rts.is_empty() {
        return Phases {
            start_up: 0,
            period: 0,
            variability: 1.0,
            threshold: Duration::ZERO,
            spikes: 0,
        };
    }
    let ns: Vec<f64> = rts.iter().map(|d| d.as_nanos() as f64).collect();
    let min = ns.iter().copied().fold(f64::INFINITY, f64::min).max(1.0);
    let max = ns.iter().copied().fold(0.0, f64::max).max(1.0);
    if max / min < UNIFORM_SPREAD {
        return Phases {
            start_up: 0,
            period: 0,
            variability: max / min,
            threshold: Duration::from_nanos(max as u64),
            spikes: 0,
        };
    }
    // Two-means clustering on the log scale: robust against a lone
    // outlier spike dominating the range (e.g. a first write that
    // closes a heavily dirtied allocation unit).
    let logs: Vec<f64> = ns.iter().map(|&v| v.max(1.0).ln()).collect();
    let mut lo = min.ln();
    let mut hi = max.ln();
    for _ in 0..16 {
        let mid = (lo + hi) / 2.0;
        let (mut sum_lo, mut n_lo, mut sum_hi, mut n_hi) = (0.0, 0u32, 0.0, 0u32);
        for &v in &logs {
            if v < mid {
                sum_lo += v;
                n_lo += 1;
            } else {
                sum_hi += v;
                n_hi += 1;
            }
        }
        if n_lo == 0 || n_hi == 0 {
            break;
        }
        let new_lo = sum_lo / f64::from(n_lo);
        let new_hi = sum_hi / f64::from(n_hi);
        if (new_lo - lo).abs() < 1e-9 && (new_hi - hi).abs() < 1e-9 {
            break;
        }
        lo = new_lo;
        hi = new_hi;
    }
    let threshold = ((lo + hi) / 2.0).exp();
    let expensive: Vec<usize> = ns
        .iter()
        .enumerate()
        .filter(|(_, &v)| v >= threshold)
        .map(|(i, _)| i)
        .collect();
    let start_up = expensive.first().copied().unwrap_or(rts.len());
    let spikes = expensive.len();
    let period = if let [first, .., last] = expensive[..] {
        ((last - first) as f64 / (expensive.len() - 1) as f64).round() as usize
    } else {
        0
    };
    // Variability over the running phase only.
    let run = &ns[start_up.min(ns.len())..];
    let variability = if run.is_empty() {
        1.0
    } else {
        let rmin = run.iter().copied().fold(f64::INFINITY, f64::min).max(1.0);
        let rmax = run.iter().copied().fold(0.0, f64::max).max(1.0);
        rmax / rmin
    };
    Phases {
        start_up,
        period,
        variability,
        threshold: Duration::from_nanos(threshold as u64),
        spikes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> Duration {
        Duration::from_micros(v)
    }

    /// Synthetic Mtron-like RW trace (Figure 3): 125 cheap IOs at
    /// 400 µs, then oscillation 400 µs / 27 ms with period 4.
    fn mtron_like() -> Vec<Duration> {
        let mut rts = vec![us(400); 125];
        for i in 0..200 {
            rts.push(if i % 4 == 3 { us(27_000) } else { us(400) });
        }
        rts
    }

    /// Synthetic Kingston-like SW trace (Figure 4): no start-up, spike
    /// every 128 IOs.
    fn kingston_like() -> Vec<Duration> {
        (0..512)
            .map(|i| if i % 128 == 0 { us(100_000) } else { us(2_900) })
            .collect()
    }

    #[test]
    fn detects_mtron_startup_and_period() {
        let p = detect_phases(&mtron_like());
        assert_eq!(p.start_up, 125 + 3, "first spike at IO 128");
        assert_eq!(p.period, 4);
        assert!(p.variability > 10.0);
    }

    #[test]
    fn detects_kingston_period_without_startup() {
        let p = detect_phases(&kingston_like());
        assert_eq!(p.start_up, 0, "spike at IO 0 → no start-up phase");
        assert_eq!(p.period, 128);
    }

    #[test]
    fn uniform_trace_has_no_phases() {
        let rts = vec![us(300); 100];
        let p = detect_phases(&rts);
        assert_eq!(p.start_up, 0);
        assert_eq!(p.period, 0);
        assert!(p.variability < 1.5);
        assert_eq!(p.spikes, 0);
    }

    #[test]
    fn mild_noise_is_not_oscillation() {
        let rts: Vec<Duration> = (0..100).map(|i| us(300 + (i % 7) * 20)).collect();
        let p = detect_phases(&rts);
        assert_eq!(p.period, 0, "2x jitter is below the spread threshold");
    }

    #[test]
    fn all_cheap_then_no_spikes_counts_whole_trace_as_startup() {
        // A trace with a single early expensive IO then all cheap: the
        // start-up is the prefix before it.
        let mut rts = vec![us(400); 10];
        rts.push(us(30_000));
        rts.extend(vec![us(400); 50]);
        let p = detect_phases(&rts);
        assert_eq!(p.start_up, 10);
        assert_eq!(p.spikes, 1);
        assert_eq!(p.period, 0, "one spike defines no period");
    }

    #[test]
    fn empty_trace() {
        let p = detect_phases(&[]);
        assert_eq!(p.start_up, 0);
        assert_eq!(p.period, 0);
    }
}
