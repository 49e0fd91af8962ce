//! The recorder and its versioned JSON snapshot.

use crate::channel::{ChannelUtilization, UtilizationSnapshot};
use crate::counter::{CounterId, CounterSnapshot};
use crate::histogram::{HistogramSnapshot, LatencyHistogram};
use crate::sink::{LatencyClass, SinkHandle, WorkloadMetrics};
use crate::SNAPSHOT_VERSION;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Lock a metrics mutex, recovering the data if a recording thread
/// panicked while holding it. Observability must never take the
/// simulation down; a poisoned timeline is still worth reporting.
fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Clone what a metrics mutex holds, releasing the lock before
/// returning — so one recorder's list can be copied before another
/// recorder's lock is taken.
fn clone_locked<T: Clone>(m: &Mutex<T>) -> T {
    lock_or_recover(m).clone()
}

/// The recorder: one atomic total per [`CounterId`], one latency
/// histogram per [`LatencyClass`], a channel-utilization timeline and
/// the per-workload derived metrics.
///
/// Counter and histogram recording is lock-free (relaxed
/// `fetch_add`); only channel-busy events and workload summaries take
/// a mutex. Concurrent runs each get their own recorder and are
/// combined afterwards with [`Metrics::merge`].
#[derive(Debug, Default)]
pub struct Metrics {
    counters: [AtomicU64; CounterId::COUNT],
    latency: [LatencyHistogram; LatencyClass::COUNT],
    utilization: Mutex<ChannelUtilization>,
    workloads: Mutex<Vec<(String, WorkloadMetrics)>>,
}

impl Metrics {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shared recorder plus the handle to attach to the stack.
    pub fn shared() -> (Arc<Metrics>, SinkHandle) {
        let metrics = Arc::new(Metrics::new());
        let handle = SinkHandle::from(metrics.clone());
        (metrics, handle)
    }

    /// Add `n` events to a monotonic counter (relaxed: no ordering
    /// with other data).
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        self.counters[id as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current total of one counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize].load(Ordering::Relaxed)
    }

    /// Copy every counter total into `out`.
    pub fn counters(&self, out: &mut CounterSnapshot) {
        for id in CounterId::ALL {
            out.set(id, self.counter(id));
        }
    }

    /// Record one response time (nanoseconds) for a latency class.
    #[inline]
    pub fn record_latency(&self, class: LatencyClass, ns: u64) {
        self.latency[class as usize].record(ns);
    }

    /// The latency histogram of one class.
    pub fn latency(&self, class: LatencyClass) -> &LatencyHistogram {
        &self.latency[class as usize]
    }

    /// Record `busy_ns` of channel occupancy starting at `start_ns`
    /// (device time).
    pub fn channel_busy(&self, channel: usize, start_ns: u64, busy_ns: u64) {
        lock_or_recover(&self.utilization).record(channel, start_ns, busy_ns);
    }

    /// Record derived metrics for one completed workload run.
    pub fn workload(&self, label: &str, metrics: WorkloadMetrics) {
        lock_or_recover(&self.workloads).push((label.to_string(), metrics));
    }

    /// Fold everything `other` recorded into this recorder: counters
    /// add, histograms merge, channel timelines add bin by bin at the
    /// coarser of the two bin widths, and `other`'s workload records
    /// follow this one's. Merging the recorders of independent runs
    /// in run order gives what one recorder watching them in that
    /// order would hold.
    pub fn merge(&self, other: &Metrics) {
        for id in CounterId::ALL {
            self.add(id, other.counter(id));
        }
        for (mine, theirs) in self.latency.iter().zip(&other.latency) {
            mine.merge(theirs);
        }
        // Copy `other`'s lists out before locking this recorder's, so
        // no thread ever holds two recorder locks at once.
        let timeline = clone_locked(&other.utilization);
        let workloads = clone_locked(&other.workloads);
        lock_or_recover(&self.utilization).absorb(timeline);
        lock_or_recover(&self.workloads).extend(workloads);
    }

    /// Serializable snapshot of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = CounterSnapshot::new();
        self.counters(&mut counters);
        MetricsSnapshot {
            version: SNAPSHOT_VERSION,
            counters: counters
                .iter()
                .map(|(id, value)| CounterEntry {
                    name: id.name().to_string(),
                    value,
                })
                .collect(),
            latency: LatencyClass::ALL
                .into_iter()
                .filter(|class| !self.latency[*class as usize].is_empty())
                .map(|class| LatencySnapshot {
                    class: class.name().to_string(),
                    histogram: self.latency[class as usize].snapshot(),
                })
                .collect(),
            utilization: {
                let util = lock_or_recover(&self.utilization);
                (util.channels() > 0).then(|| util.snapshot())
            },
            workloads: lock_or_recover(&self.workloads)
                .iter()
                .map(|(label, metrics)| WorkloadSnapshot {
                    label: label.clone(),
                    metrics: *metrics,
                })
                .collect(),
        }
    }
}

/// One named counter in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Counter name ([`CounterId::name`]).
    pub name: String,
    /// Total events.
    pub value: u64,
}

/// One latency class's histogram in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySnapshot {
    /// Class name ([`LatencyClass::name`]).
    pub class: String,
    /// The histogram.
    pub histogram: HistogramSnapshot,
}

/// Derived metrics of one workload run in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSnapshot {
    /// Workload label (e.g. `"RW"` or a plan step name).
    pub label: String,
    /// The derived metrics.
    pub metrics: WorkloadMetrics,
}

/// The versioned JSON document written by `--metrics PATH`.
///
/// Schema (`version` 1): `counters` lists every [`CounterId`] by
/// stable name (zeros included, so consumers need no defaulting);
/// `latency` holds one sparse histogram per non-empty class;
/// `utilization` is present when any channel reported busy time;
/// `workloads` one entry per observed run, in execution order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Schema version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Every counter, by stable name, zeros included.
    pub counters: Vec<CounterEntry>,
    /// Per-class latency histograms (non-empty classes only).
    pub latency: Vec<LatencySnapshot>,
    /// Channel busy-time timeline, when any was recorded.
    pub utilization: Option<UtilizationSnapshot>,
    /// Per-workload derived metrics, in execution order.
    pub workloads: Vec<WorkloadSnapshot>,
}

impl MetricsSnapshot {
    /// Value of a counter by name (0 when absent).
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters
            .iter()
            .find(|e| e.name == id.name())
            .map_or(0, |e| e.value)
    }

    /// Pretty JSON text of the snapshot.
    pub fn to_json_pretty(&self) -> String {
        // uflip-lint: allow(UF002, reason = "serialization of a plain snapshot struct cannot fail")
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }

    /// Write the snapshot as pretty JSON.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = self.to_json_pretty();
        text.push('\n');
        std::fs::write(path, text)
    }

    /// Read a snapshot back from JSON text.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Read a snapshot back from a file.
    pub fn load(path: &std::path::Path) -> Result<Self, Box<dyn std::error::Error>> {
        Ok(Self::from_json(&std::fs::read_to_string(path)?)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_through_json() {
        let (metrics, handle) = Metrics::shared();
        assert!(handle.is_enabled());
        handle.add(CounterId::PagePrograms, 7);
        handle.add(CounterId::ProgramBytes, 7 * 2048);
        handle.latency(LatencyClass::Write, 250_000);
        handle.channel_busy(0, 0, 100_000);
        handle.workload(
            "RW",
            WorkloadMetrics {
                host_writes: 7,
                logical_bytes_written: 7 * 2048,
                bytes_programmed: 7 * 2048,
                write_amplification: 1.0,
                ..Default::default()
            },
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.version, SNAPSHOT_VERSION);
        assert_eq!(snap.counter(CounterId::PagePrograms), 7);
        assert_eq!(snap.counters.len(), CounterId::COUNT);
        assert_eq!(snap.latency.len(), 1);
        assert_eq!(snap.latency[0].class, "write");
        assert!(snap.utilization.is_some());
        let back = MetricsSnapshot::from_json(&snap.to_json_pretty()).expect("parse back");
        assert_eq!(back, snap);
    }

    #[test]
    fn merge_adds_what_the_other_recorder_saw() {
        let (whole, whole_sink) = Metrics::shared();
        let (first, first_sink) = Metrics::shared();
        let (second, second_sink) = Metrics::shared();
        for (part, ns, start) in [(&first_sink, 300, 0), (&second_sink, 90_000, 200_000_000)] {
            for sink in [part, &whole_sink] {
                sink.add(CounterId::HostWrites, 2);
                sink.latency(LatencyClass::Write, ns);
                sink.channel_busy(1, start, 5_000_000);
                sink.workload(&format!("run@{start}"), WorkloadMetrics::default());
            }
        }
        let (merged, merged_sink) = Metrics::shared();
        merged_sink.merge(&first);
        merged_sink.merge(&second);
        assert_eq!(merged.snapshot(), whole.snapshot());
        assert_eq!(merged.counter(CounterId::HostWrites), 4);
    }

    #[test]
    fn empty_recorder_snapshots_cleanly() {
        let snap = Metrics::new().snapshot();
        assert_eq!(snap.latency.len(), 0);
        assert!(snap.utilization.is_none());
        assert_eq!(snap.counters.len(), CounterId::COUNT);
    }
}
