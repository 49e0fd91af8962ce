//! The attach handle threaded through the stack, and the event types
//! it carries.
//!
//! Design rule: observation must never perturb measurement. The
//! recorder receives events *about* simulated or wall-clock time but
//! never advances either. A [`SinkHandle`] holds either a shared
//! [`Metrics`] recorder or nothing, and every layer calls it directly:
//! the per-event cost of the null handle is one predictable branch on
//! a field the layer already holds — no virtual call, no atomic, no
//! allocation.

use crate::counter::{CounterId, CounterSnapshot};
use crate::metrics::Metrics;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which latency population a response time belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum LatencyClass {
    /// Read IOs.
    Read,
    /// Write IOs.
    Write,
    /// IOs from mixed read/write workloads (not split by op).
    Mixed,
    /// Extra response time paid to retries under an IO policy (the
    /// backoff + re-service tail beyond the first attempt).
    Retry,
}

impl LatencyClass {
    /// Number of classes (dense index space).
    pub const COUNT: usize = 4;

    /// Every class, in discriminant order.
    pub const ALL: [LatencyClass; LatencyClass::COUNT] = [
        LatencyClass::Read,
        LatencyClass::Write,
        LatencyClass::Mixed,
        LatencyClass::Retry,
    ];

    /// Stable lowercase name used in snapshots and reports.
    pub fn name(self) -> &'static str {
        match self {
            LatencyClass::Read => "read",
            LatencyClass::Write => "write",
            LatencyClass::Mixed => "mixed",
            LatencyClass::Retry => "retry",
        }
    }
}

/// Derived per-workload metrics emitted once per completed run by the
/// observed executors (counter deltas across the run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkloadMetrics {
    /// Host read requests during the run.
    pub host_reads: u64,
    /// Host write requests during the run.
    pub host_writes: u64,
    /// Logical bytes read by the host.
    pub logical_bytes_read: u64,
    /// Logical bytes written by the host.
    pub logical_bytes_written: u64,
    /// Bytes programmed to flash (copy-backs included).
    pub bytes_programmed: u64,
    /// Bytes of flash capacity erased.
    pub bytes_erased: u64,
    /// Write amplification: `bytes_programmed /
    /// logical_bytes_written` (0.0 when nothing was written).
    pub write_amplification: f64,
}

impl WorkloadMetrics {
    /// Build from a per-run counter delta.
    pub fn from_delta(delta: &CounterSnapshot) -> Self {
        let logical = delta.get(CounterId::LogicalBytesWritten);
        let programmed = delta.get(CounterId::ProgramBytes);
        WorkloadMetrics {
            host_reads: delta.get(CounterId::HostReads),
            host_writes: delta.get(CounterId::HostWrites),
            logical_bytes_read: delta.get(CounterId::LogicalBytesRead),
            logical_bytes_written: logical,
            bytes_programmed: programmed,
            bytes_erased: delta.get(CounterId::EraseBytes),
            write_amplification: if logical == 0 {
                0.0
            } else {
                programmed as f64 / logical as f64
            },
        }
    }
}

/// Cloneable handle to a shared [`Metrics`] recorder, threaded from
/// bench bins down to the NAND array — or to nothing: both `Default`
/// and [`SinkHandle::null`] hold no recorder, so instrumented structs
/// initialize to "disabled". Every method is one null check before
/// the recorder call.
#[derive(Clone, Default)]
pub struct SinkHandle(Option<Arc<Metrics>>);

impl SinkHandle {
    /// The disabled handle.
    pub fn null() -> Self {
        SinkHandle(None)
    }

    /// Whether a recorder is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Add `n` events to a monotonic counter.
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        if let Some(m) = &self.0 {
            m.add(id, n);
        }
    }

    /// Record one response time (nanoseconds) for a latency class.
    #[inline]
    pub fn latency(&self, class: LatencyClass, ns: u64) {
        if let Some(m) = &self.0 {
            m.record_latency(class, ns);
        }
    }

    /// Record `busy_ns` of channel occupancy starting at `start_ns`
    /// (device time).
    pub fn channel_busy(&self, channel: usize, start_ns: u64, busy_ns: u64) {
        if let Some(m) = &self.0 {
            m.channel_busy(channel, start_ns, busy_ns);
        }
    }

    /// Read back the current counter totals (for derived per-run
    /// metrics). The null handle leaves `out` untouched.
    pub fn counters(&self, out: &mut CounterSnapshot) {
        if let Some(m) = &self.0 {
            m.counters(out);
        }
    }

    /// Record derived metrics for one completed workload run.
    pub fn workload(&self, label: &str, metrics: WorkloadMetrics) {
        if let Some(m) = &self.0 {
            m.workload(label, metrics);
        }
    }

    /// Fold everything `other` recorded into the attached recorder
    /// (see [`Metrics::merge`]).
    pub fn merge(&self, other: &Metrics) {
        if let Some(m) = &self.0 {
            m.merge(other);
        }
    }
}

impl std::fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SinkHandle")
            .field(&if self.is_enabled() { "enabled" } else { "null" })
            .finish()
    }
}

impl From<Arc<Metrics>> for SinkHandle {
    fn from(metrics: Arc<Metrics>) -> Self {
        SinkHandle(Some(metrics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled_and_inert() {
        let handle = SinkHandle::default();
        assert!(!handle.is_enabled());
        handle.add(CounterId::PageReads, 5);
        handle.latency(LatencyClass::Read, 100);
        let mut snap = CounterSnapshot::new();
        handle.counters(&mut snap);
        assert_eq!(snap.get(CounterId::PageReads), 0);
        assert_eq!(format!("{handle:?}"), "SinkHandle(\"null\")");
    }

    #[test]
    fn workload_metrics_derive_write_amp() {
        let mut delta = CounterSnapshot::new();
        delta.set(CounterId::LogicalBytesWritten, 1000);
        delta.set(CounterId::ProgramBytes, 2500);
        let m = WorkloadMetrics::from_delta(&delta);
        assert!((m.write_amplification - 2.5).abs() < 1e-12);
        let zero = WorkloadMetrics::from_delta(&CounterSnapshot::new());
        assert_eq!(zero.write_amplification, 0.0);
    }
}
