//! Host-level and reclamation statistics for FTLs.

/// Counters exposed by every FTL, used by tests, benches and white-box
/// analyses such as write amplification.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FtlStats {
    /// Host read requests served.
    pub host_reads: u64,
    /// Host write requests served.
    pub host_writes: u64,
    /// Host sectors read.
    pub sectors_read: u64,
    /// Host sectors written.
    pub sectors_written: u64,
    /// Synchronous garbage collections / merges charged to a host write.
    pub sync_merges: u64,
    /// Merges performed in the background (idle time or read shadow).
    pub async_merges: u64,
    /// Switch merges (sequentially complete log promoted by erase-only).
    pub switch_merges: u64,
    /// Full merges (copy + erase).
    pub full_merges: u64,
    /// Read-modify-write events caused by sub-unit or misaligned writes.
    pub rmw_events: u64,
    /// Logical pages written by the host (after sector→page expansion).
    pub logical_pages_written: u64,
}

impl FtlStats {
    /// Write amplification factor: physical pages written ÷ logical
    /// pages written. Needs the NAND-layer count of physical writes.
    pub fn write_amplification(&self, physical_pages_written: u64) -> f64 {
        if self.logical_pages_written == 0 {
            return 0.0;
        }
        physical_pages_written as f64 / self.logical_pages_written as f64
    }

    /// Total merges of any kind.
    pub fn total_merges(&self) -> u64 {
        self.sync_merges + self.async_merges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_amplification_ratio() {
        let s = FtlStats {
            logical_pages_written: 100,
            ..Default::default()
        };
        assert!((s.write_amplification(250) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn write_amplification_of_idle_device_is_zero() {
        let s = FtlStats::default();
        assert_eq!(s.write_amplification(10), 0.0);
    }

    #[test]
    fn merge_total_combines_sync_and_async() {
        let s = FtlStats {
            sync_merges: 3,
            async_merges: 4,
            ..Default::default()
        };
        assert_eq!(s.total_merges(), 7);
    }
}
