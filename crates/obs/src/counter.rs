//! Monotonic event counter identities and plain counter snapshots.
//!
//! Every counter is a plain `u64` total, kept by [`crate::Metrics`]
//! as one relaxed atomic. Counters only ever move forward: snapshot
//! restores rewind the *device* but not the work the simulation
//! already performed, so a counter reads as "events since the sink
//! was attached".

/// Identity of one monotonic counter.
///
/// The discriminant indexes fixed-size arrays ([`CounterSnapshot`],
/// the totals of [`crate::Metrics`]), so the enum must stay dense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum CounterId {
    /// NAND page reads executed (single + bulk, all chips).
    PageReads,
    /// NAND page programs executed (single + bulk, all chips).
    PagePrograms,
    /// NAND block erases executed (excluding dual-plane pairs).
    BlockErases,
    /// NAND internal copy-back operations.
    CopyBacks,
    /// NAND dual-plane program operations (each programs two pages).
    DualPlanePrograms,
    /// NAND dual-plane erase operations (each erases two blocks).
    DualPlaneErases,
    /// Bytes of page data read from flash.
    ReadBytes,
    /// Bytes of page data programmed to flash (copy-backs included).
    ProgramBytes,
    /// Bytes of flash capacity erased.
    EraseBytes,
    /// FTL synchronous (foreground) merges/reclaims.
    SyncMerges,
    /// FTL asynchronous (idle-time) merges/reclaims.
    AsyncMerges,
    /// FTL switch merges (sequential log block promoted in place).
    SwitchMerges,
    /// FTL full merges (log + data block rewritten).
    FullMerges,
    /// FTL read-modify-write events for sub-page or sub-chunk writes.
    RmwEvents,
    /// Writes absorbed by the FTL write cache (no flash work).
    WriteCacheHits,
    /// IOs accepted by a device queue (`IoQueue::submit` success).
    QueueSubmissions,
    /// IOs completed by a device queue.
    QueueCompletions,
    /// IOs rejected with `QueueFull`.
    QueueFullRejections,
    /// Host read requests entering an FTL or real device.
    HostReads,
    /// Host write requests entering an FTL or real device.
    HostWrites,
    /// Logical bytes read by the host.
    LogicalBytesRead,
    /// Logical bytes written by the host.
    LogicalBytesWritten,
    /// Transient read faults injected by an armed fault plan.
    InjectedReadFaults,
    /// Transient write faults injected by an armed fault plan.
    InjectedWriteFaults,
    /// Latency spikes (and stuck-channel stalls) injected by a plan.
    InjectedLatencySpikes,
    /// IO retries performed by an IO policy (injected or real errors).
    IoRetries,
    /// IOs that exceeded the policy's per-IO timeout.
    IoTimeouts,
    /// IOs abandoned after exhausting the policy's retry budget.
    RetryExhaustions,
    /// Power-loss (crash) events injected by a fault plan.
    PowerLossEvents,
}

impl CounterId {
    /// Number of counters (length of the dense index space).
    pub const COUNT: usize = 29;

    /// Every counter, in discriminant order.
    pub const ALL: [CounterId; CounterId::COUNT] = [
        CounterId::PageReads,
        CounterId::PagePrograms,
        CounterId::BlockErases,
        CounterId::CopyBacks,
        CounterId::DualPlanePrograms,
        CounterId::DualPlaneErases,
        CounterId::ReadBytes,
        CounterId::ProgramBytes,
        CounterId::EraseBytes,
        CounterId::SyncMerges,
        CounterId::AsyncMerges,
        CounterId::SwitchMerges,
        CounterId::FullMerges,
        CounterId::RmwEvents,
        CounterId::WriteCacheHits,
        CounterId::QueueSubmissions,
        CounterId::QueueCompletions,
        CounterId::QueueFullRejections,
        CounterId::HostReads,
        CounterId::HostWrites,
        CounterId::LogicalBytesRead,
        CounterId::LogicalBytesWritten,
        CounterId::InjectedReadFaults,
        CounterId::InjectedWriteFaults,
        CounterId::InjectedLatencySpikes,
        CounterId::IoRetries,
        CounterId::IoTimeouts,
        CounterId::RetryExhaustions,
        CounterId::PowerLossEvents,
    ];

    /// Stable snake_case name used in JSON snapshots and reports.
    pub fn name(self) -> &'static str {
        match self {
            CounterId::PageReads => "page_reads",
            CounterId::PagePrograms => "page_programs",
            CounterId::BlockErases => "block_erases",
            CounterId::CopyBacks => "copy_backs",
            CounterId::DualPlanePrograms => "dual_plane_programs",
            CounterId::DualPlaneErases => "dual_plane_erases",
            CounterId::ReadBytes => "read_bytes",
            CounterId::ProgramBytes => "program_bytes",
            CounterId::EraseBytes => "erase_bytes",
            CounterId::SyncMerges => "sync_merges",
            CounterId::AsyncMerges => "async_merges",
            CounterId::SwitchMerges => "switch_merges",
            CounterId::FullMerges => "full_merges",
            CounterId::RmwEvents => "rmw_events",
            CounterId::WriteCacheHits => "write_cache_hits",
            CounterId::QueueSubmissions => "queue_submissions",
            CounterId::QueueCompletions => "queue_completions",
            CounterId::QueueFullRejections => "queue_full_rejections",
            CounterId::HostReads => "host_reads",
            CounterId::HostWrites => "host_writes",
            CounterId::LogicalBytesRead => "logical_bytes_read",
            CounterId::LogicalBytesWritten => "logical_bytes_written",
            CounterId::InjectedReadFaults => "injected_read_faults",
            CounterId::InjectedWriteFaults => "injected_write_faults",
            CounterId::InjectedLatencySpikes => "injected_latency_spikes",
            CounterId::IoRetries => "io_retries",
            CounterId::IoTimeouts => "io_timeouts",
            CounterId::RetryExhaustions => "retry_exhaustions",
            CounterId::PowerLossEvents => "power_loss_events",
        }
    }
}

/// A plain (non-atomic) copy of every counter at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    values: [u64; CounterId::COUNT],
}

impl Default for CounterSnapshot {
    fn default() -> Self {
        CounterSnapshot {
            values: [0; CounterId::COUNT],
        }
    }
}

impl CounterSnapshot {
    /// All counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Value of one counter.
    pub fn get(&self, id: CounterId) -> u64 {
        self.values[id as usize]
    }

    /// Overwrite one counter.
    pub fn set(&mut self, id: CounterId, value: u64) {
        self.values[id as usize] = value;
    }

    /// Per-counter difference `self - earlier` (saturating, so a
    /// mismatched pair degrades to zero rather than wrapping).
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        let mut out = CounterSnapshot::new();
        for id in CounterId::ALL {
            out.set(id, self.get(id).saturating_sub(earlier.get(id)));
        }
        out
    }

    /// Iterate `(id, value)` in stable order.
    pub fn iter(&self) -> impl Iterator<Item = (CounterId, u64)> + '_ {
        CounterId::ALL.into_iter().map(|id| (id, self.get(id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_discriminants_match_all_order() {
        for (i, id) in CounterId::ALL.into_iter().enumerate() {
            assert_eq!(id as usize, i, "{id:?} out of order");
            // Names are unique: snapshots key counters by name.
            let by_name = CounterId::ALL.into_iter().find(|c| c.name() == id.name());
            assert_eq!(by_name, Some(id));
        }
    }

    #[test]
    fn add_sums_across_threads() {
        let metrics = std::sync::Arc::new(crate::Metrics::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = metrics.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        m.add(CounterId::PagePrograms, 2);
                    }
                });
            }
        });
        assert_eq!(metrics.counter(CounterId::PagePrograms), 8000);
        assert_eq!(metrics.counter(CounterId::PageReads), 0);
    }

    #[test]
    fn snapshot_since_subtracts() {
        let metrics = crate::Metrics::new();
        let mut before = CounterSnapshot::new();
        metrics.add(CounterId::BlockErases, 3);
        metrics.counters(&mut before);
        metrics.add(CounterId::BlockErases, 4);
        let mut after = CounterSnapshot::new();
        metrics.counters(&mut after);
        assert_eq!(after.since(&before).get(CounterId::BlockErases), 4);
    }
}
