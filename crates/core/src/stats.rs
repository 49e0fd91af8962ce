//! Run statistics: the paper's per-run summary (min, max, mean,
//! standard deviation) plus percentiles for richer analysis.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Summary statistics over the response times of one run.
///
/// §3.2, design principle 1: "For each run, we measure and record the
/// response time for individual IOs and compute statistics (min, max,
/// mean, standard deviation) to summarize it."
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// IOs summarized (after the IOIgnore prefix).
    pub count: u64,
    /// Minimum response time.
    pub min: Duration,
    /// Maximum response time.
    pub max: Duration,
    /// Arithmetic mean response time.
    pub mean: Duration,
    /// Population standard deviation.
    pub stddev: Duration,
    /// Median (p50).
    pub median: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Sum of all response times (total device busy time).
    pub total: Duration,
}

impl RunStats {
    /// Compute statistics over a slice of response times. Returns `None`
    /// for an empty slice.
    pub fn from_rts(rts: &[Duration]) -> Option<RunStats> {
        if rts.is_empty() {
            return None;
        }
        let n = rts.len() as u64;
        let mut sorted: Vec<u64> = rts.iter().map(|d| d.as_nanos() as u64).collect();
        sorted.sort_unstable();
        let total: u128 = sorted.iter().map(|&x| x as u128).sum();
        // Round half up instead of truncating: a truncated mean is
        // biased low by up to one nanosecond on every run, which
        // accumulates when runs are compared or aggregated.
        let mean = ((total + n as u128 / 2) / n as u128) as u64;
        let var: u128 = sorted
            .iter()
            .map(|&x| {
                let d = x as i128 - mean as i128;
                (d * d) as u128
            })
            .sum::<u128>()
            / n as u128;
        let stddev = (var as f64).sqrt().round() as u64;
        // Linear-interpolated percentiles (the "type 7" estimator):
        // nearest-rank `round` picked an arbitrary neighbor for the
        // median of an even-count run and biased p95/p99 on small runs.
        let pct = |p: f64| -> u64 {
            let rank = (sorted.len() - 1) as f64 * p;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            if lo == hi {
                sorted[lo]
            } else {
                let frac = rank - lo as f64;
                let (a, b) = (sorted[lo] as f64, sorted[hi] as f64);
                (a + (b - a) * frac).round() as u64
            }
        };
        Some(RunStats {
            count: n,
            min: Duration::from_nanos(sorted[0]),
            max: Duration::from_nanos(sorted.last().copied().unwrap_or(0)),
            mean: Duration::from_nanos(mean),
            stddev: Duration::from_nanos(stddev),
            median: Duration::from_nanos(pct(0.5)),
            p95: Duration::from_nanos(pct(0.95)),
            p99: Duration::from_nanos(pct(0.99)),
            total: Duration::from_nanos(total as u64),
        })
    }

    /// Mean in milliseconds (the paper's reporting unit).
    pub fn mean_ms(&self) -> f64 {
        self.mean.as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn empty_slice_has_no_stats() {
        assert!(RunStats::from_rts(&[]).is_none());
    }

    #[test]
    fn single_value() {
        let s = RunStats::from_rts(&[ms(5)]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.min, ms(5));
        assert_eq!(s.max, ms(5));
        assert_eq!(s.mean, ms(5));
        assert_eq!(s.stddev, Duration::ZERO);
        assert_eq!(s.median, ms(5));
    }

    #[test]
    fn known_distribution() {
        let rts = vec![ms(1), ms(2), ms(3), ms(4)];
        let s = RunStats::from_rts(&rts).unwrap();
        assert_eq!(s.mean, Duration::from_micros(2500));
        assert_eq!(s.min, ms(1));
        assert_eq!(s.max, ms(4));
        assert_eq!(s.total, ms(10));
        // population stddev of 1..4 = sqrt(1.25) ms ≈ 1.118 ms
        let sd = s.stddev.as_secs_f64();
        assert!((sd - 0.001_118).abs() < 1e-5, "stddev {sd}");
    }

    #[test]
    fn even_count_median_interpolates_between_neighbors() {
        // The old nearest-rank `round` picked an arbitrary neighbor
        // (here: 3 ms); the conventional even-count median is halfway.
        let s = RunStats::from_rts(&[ms(1), ms(2), ms(3), ms(4)]).unwrap();
        assert_eq!(s.median, Duration::from_micros(2500));
        let s = RunStats::from_rts(&[ms(10), ms(20)]).unwrap();
        assert_eq!(s.median, ms(15));
    }

    #[test]
    fn percentiles_on_ordered_data() {
        let rts: Vec<Duration> = (1..=100).map(ms).collect();
        let s = RunStats::from_rts(&rts).unwrap();
        // Linear interpolation on ranks 0..=99:
        // median → rank 49.5 → (50 + 51)/2 = 50.5 ms;
        // p95 → rank 94.05 → 95 + 0.05 = 95.05 ms;
        // p99 → rank 98.01 → 99 + 0.01 = 99.01 ms.
        assert_eq!(s.median, Duration::from_micros(50_500));
        assert_eq!(s.p95, Duration::from_micros(95_050));
        assert_eq!(s.p99, Duration::from_micros(99_010));
    }

    #[test]
    fn small_run_percentiles_are_not_biased_to_the_max() {
        // On a 5-point run the old nearest-rank round mapped p95 and
        // p99 onto the maximum; interpolation keeps them below it.
        let rts = vec![ms(1), ms(2), ms(3), ms(4), ms(100)];
        let s = RunStats::from_rts(&rts).unwrap();
        assert_eq!(s.median, ms(3));
        // p95 → rank 3.8 → 4 + 0.8 × 96 = 80.8 ms.
        assert_eq!(s.p95, Duration::from_micros(80_800));
        assert!(s.p95 < s.max && s.p99 < s.max);
        // p99 → rank 3.96 → 4 + 0.96 × 96 = 96.16 ms.
        assert_eq!(s.p99, Duration::from_micros(96_160));
    }

    #[test]
    fn mean_rounds_half_up_instead_of_truncating() {
        let rts = vec![Duration::from_nanos(1), Duration::from_nanos(2)];
        let s = RunStats::from_rts(&rts).unwrap();
        assert_eq!(s.mean, Duration::from_nanos(2), "1.5 ns rounds up");
        let rts = vec![Duration::from_nanos(1); 3];
        let s = RunStats::from_rts(&rts).unwrap();
        assert_eq!(s.mean, Duration::from_nanos(1), "exact mean unchanged");
    }

    #[test]
    fn order_does_not_matter() {
        let a = RunStats::from_rts(&[ms(3), ms(1), ms(2)]).unwrap();
        let b = RunStats::from_rts(&[ms(1), ms(2), ms(3)]).unwrap();
        assert_eq!(a, b);
    }
}
