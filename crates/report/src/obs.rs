//! Terminal rendering for `uflip_obs` metrics snapshots.
//!
//! Turns the versioned JSON document the bench binaries write with
//! `--metrics PATH` back into something a human can read in a
//! terminal: a latency histogram per class (log-bucketed bar chart),
//! a per-channel utilization timeline (one glyph per time bin), the
//! per-workload write-amplification table and the non-zero counters.
//! Everything renders from the [`MetricsSnapshot`] alone, so saved
//! snapshots replay through the same code path as live ones.

use uflip_obs::{HistogramSnapshot, MetricsSnapshot, UtilizationSnapshot, WorkloadSnapshot};

/// Format nanoseconds with an adaptive unit (ns / µs / ms / s).
pub fn fmt_ns(ns: u64) -> String {
    let v = ns as f64;
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} µs", v / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", v / 1e6)
    } else {
        format!("{:.3} s", v / 1e9)
    }
}

/// Render one latency class's histogram as a horizontal bar chart.
///
/// Adjacent log buckets are coalesced down to at most `max_rows` rows
/// (the fixed-array histogram can hold hundreds of sparse buckets;
/// a terminal cannot), keeping counts exact per rendered row.
pub fn render_histogram(class: &str, h: &HistogramSnapshot, max_rows: usize) -> String {
    let mut out = format!(
        "latency[{class}]: {} IOs, min {}, mean {}, p50 {}, p95 {}, p99 {}, max {}\n",
        h.count,
        fmt_ns(h.min_ns),
        fmt_ns(h.mean_ns.round() as u64),
        fmt_ns(h.p50_ns),
        fmt_ns(h.p95_ns),
        fmt_ns(h.p99_ns),
        fmt_ns(h.max_ns),
    );
    if h.buckets.is_empty() {
        out.push_str("  (empty)\n");
        return out;
    }
    // Coalesce: merge runs of ceil(n / max_rows) adjacent buckets.
    let group = h.buckets.len().div_ceil(max_rows.max(1));
    let mut rows: Vec<(u64, u64, u64)> = Vec::new(); // (low, high, count)
    for chunk in h.buckets.chunks(group) {
        let low = chunk[0].low_ns;
        let last = chunk[chunk.len() - 1];
        let high = last.low_ns + last.width_ns;
        let count: u64 = chunk.iter().map(|b| b.count).sum();
        rows.push((low, high, count));
    }
    let peak = rows.iter().map(|r| r.2).max().unwrap_or(1).max(1);
    const BAR: usize = 50;
    for (low, high, count) in rows {
        let len = ((count as f64 / peak as f64) * BAR as f64).ceil() as usize;
        out.push_str(&format!(
            "  {:>10} ..{:>10} | {:<BAR$} {}\n",
            fmt_ns(low),
            fmt_ns(high),
            "#".repeat(len.min(BAR)),
            count,
        ));
    }
    out
}

/// Render the per-channel busy-time timeline: one row per channel,
/// one glyph per time bin (` .:-=+*#%@` for 0–100% busy), plus each
/// channel's overall utilization across the recorded horizon.
pub fn render_utilization(util: &UtilizationSnapshot) -> String {
    const GLYPHS: &[char] = &[' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let mut out = format!(
        "channel utilization ({} bins of {}, horizon {}):\n",
        util.channels.first().map_or(0, |c| c.busy_ns.len()),
        fmt_ns(util.bin_ns),
        fmt_ns(util.horizon_ns),
    );
    for ch in &util.channels {
        let total: u64 = ch.busy_ns.iter().sum();
        let overall = if util.horizon_ns == 0 {
            0.0
        } else {
            total as f64 / util.horizon_ns as f64
        };
        let cells: String = ch
            .busy_ns
            .iter()
            .map(|&busy| {
                let frac = (busy as f64 / util.bin_ns as f64).clamp(0.0, 1.0);
                GLYPHS[((frac * (GLYPHS.len() - 1) as f64).round() as usize).min(GLYPHS.len() - 1)]
            })
            .collect();
        out.push_str(&format!(
            "  ch{:<2} |{}| {:>5.1}% busy\n",
            ch.channel,
            cells,
            overall * 100.0
        ));
    }
    out
}

/// Render the per-workload table: host IO, logical vs programmed
/// bytes and the resulting write amplification.
pub fn render_workloads(workloads: &[WorkloadSnapshot]) -> String {
    let mut out =
        String::from("workload                     host_w     logical_MB  programmed_MB     WA\n");
    const MB: f64 = 1024.0 * 1024.0;
    for w in workloads {
        let m = &w.metrics;
        out.push_str(&format!(
            "{:<28} {:>6} {:>14.2} {:>14.2} {:>6.2}\n",
            truncate(&w.label, 28),
            m.host_writes,
            m.logical_bytes_written as f64 / MB,
            m.bytes_programmed as f64 / MB,
            m.write_amplification,
        ));
    }
    out
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max - 1).collect();
        format!("{cut}…")
    }
}

/// Render a whole snapshot: counters (non-zero only), histograms,
/// utilization timeline and the workload table — the `--metrics`
/// companion report.
pub fn render_metrics(snap: &MetricsSnapshot) -> String {
    let mut out = format!("metrics snapshot (schema v{})\n\n", snap.version);
    let nonzero: Vec<_> = snap.counters.iter().filter(|c| c.value > 0).collect();
    if nonzero.is_empty() {
        out.push_str("counters: (none recorded)\n");
    } else {
        out.push_str("counters:\n");
        for c in &nonzero {
            out.push_str(&format!("  {:<24} {:>16}\n", c.name, c.value));
        }
    }
    for lat in &snap.latency {
        out.push('\n');
        out.push_str(&render_histogram(&lat.class, &lat.histogram, 24));
    }
    if let Some(util) = &snap.utilization {
        out.push('\n');
        out.push_str(&render_utilization(util));
    }
    if !snap.workloads.is_empty() {
        out.push('\n');
        out.push_str(&render_workloads(&snap.workloads));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use uflip_obs::{CounterId, LatencyClass, Metrics, WorkloadMetrics};

    fn sample() -> MetricsSnapshot {
        let metrics = Metrics::new();
        metrics.add(CounterId::PagePrograms, 42);
        metrics.add(CounterId::ProgramBytes, 42 * 2048);
        for i in 1..=200u64 {
            metrics.record_latency(LatencyClass::Write, i * 10_000);
        }
        metrics.channel_busy(0, 0, 800_000);
        metrics.channel_busy(1, 1_000_000, 400_000);
        metrics.workload(
            "RW",
            WorkloadMetrics {
                host_writes: 42,
                logical_bytes_written: 42 * 2048,
                bytes_programmed: 84 * 2048,
                write_amplification: 2.0,
                ..Default::default()
            },
        );
        metrics.snapshot()
    }

    #[test]
    fn full_report_renders_every_section() {
        let out = render_metrics(&sample());
        assert!(out.contains("counters:"));
        assert!(out.contains("page_programs"));
        assert!(out.contains("latency[write]"));
        assert!(out.contains("channel utilization"));
        assert!(out.contains("ch0"));
        assert!(out.contains("ch1"));
        assert!(out.contains("RW"));
        assert!(out.contains("2.00"), "write amplification column");
        assert!(!out.contains("page_reads"), "zero counters are omitted");
    }

    #[test]
    fn histogram_rows_are_capped_and_counts_conserved() {
        let snap = sample();
        let h = &snap.latency[0].histogram;
        let out = render_histogram("write", h, 8);
        let rows: Vec<&str> = out.lines().filter(|l| l.contains("..")).collect();
        assert!(rows.len() <= 8, "rows: {}", rows.len());
        let total: u64 = rows
            .iter()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, 200, "coalescing preserves counts");
    }

    #[test]
    fn empty_snapshot_renders_without_panic() {
        let out = render_metrics(&Metrics::new().snapshot());
        assert!(out.contains("none recorded"));
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(500), "500 ns");
        assert_eq!(fmt_ns(2_500), "2.5 µs");
        assert_eq!(fmt_ns(3_200_000), "3.20 ms");
        assert_eq!(fmt_ns(1_500_000_000), "1.500 s");
    }

    #[test]
    fn utilization_scales_glyphs_by_busy_fraction() {
        let mut util = uflip_obs::ChannelUtilization::new();
        util.record(0, 0, 1_000_000); // bin 0 fully busy
        let out = render_utilization(&util.snapshot());
        assert!(out.contains('@'), "a fully busy bin renders as @");
    }
}
