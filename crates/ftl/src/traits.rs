//! The [`Ftl`] trait: the block-manager interface a device controller
//! drives.

use crate::stats::FtlStats;
use crate::Result;
use uflip_nand::NandStats;
use uflip_obs::SinkHandle;

/// Durability of one logical sector's current contents, as reported by
/// [`Ftl::probe`]. The crash-recovery tests use this to check the
/// power-loss invariant: everything `Durable` before a crash must stay
/// durable across [`Ftl::recover`], and nothing may stay `Volatile`
/// after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeState {
    /// The sector's latest write is programmed to NAND: it survives a
    /// power loss.
    Durable,
    /// The sector's latest write lives only in volatile FTL state (a
    /// RAM write cache): a power loss tears it.
    Volatile,
    /// The sector has never been written (or its data was discarded).
    Unmapped,
}

/// What [`Ftl::recover`] did, for reporting and test assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Acknowledged-but-volatile pages discarded (torn writes: they
    /// were absorbed by a RAM write cache and never reached NAND).
    pub dropped_cached_pages: u64,
    /// Open log blocks / allocation-unit episodes closed by merging
    /// their durable pages back into the mapped state.
    pub closed_log_blocks: u64,
    /// Logical-to-physical mappings rebuilt or revalidated against the
    /// NAND array's page states.
    pub rebuilt_mappings: u64,
}

/// A flash translation layer: a timed block manager over a NAND array.
///
/// All methods express time in **nanoseconds of simulated device time**.
/// `read`/`write` return the time the operation kept the device busy;
/// `on_idle` informs the FTL that the host left the device alone for a
/// while, letting background reclamation proceed (paper §4.3 and the
/// Pause/Burst micro-benchmarks).
pub trait Ftl {
    /// Exported logical capacity in bytes.
    fn capacity_bytes(&self) -> u64;

    /// Read `sectors` 512-byte sectors starting at sector `lba`.
    /// Returns busy time in nanoseconds.
    fn read(&mut self, lba: u64, sectors: u32) -> Result<u64>;

    /// Write `sectors` 512-byte sectors starting at sector `lba`.
    /// Returns busy time in nanoseconds.
    fn write(&mut self, lba: u64, sectors: u32) -> Result<u64>;

    /// The host has been idle for `ns` nanoseconds; perform background
    /// work (asynchronous page reclamation). Default: nothing.
    fn on_idle(&mut self, ns: u64) {
        let _ = ns;
    }

    /// Attach an observability sink. Implementations store the handle,
    /// forward it to their backing [`uflip_nand::NandArray`] (which
    /// counts the NAND work), and count host-IO and merge events into
    /// it; the sink must never influence timing. Default: events are
    /// dropped (the null handle).
    fn set_sink(&mut self, sink: SinkHandle) {
        let _ = sink;
    }

    /// Number of independent flash channels in the backing array.
    ///
    /// The device queue engine uses this to size its per-channel busy
    /// tracks; an FTL that cannot attribute work to channels reports 1
    /// (the default) and behaves as a single serialized track.
    fn channels(&self) -> u32 {
        1
    }

    /// Monotonic per-channel flash busy time in nanoseconds, written
    /// into `out` (cleared first).
    ///
    /// Implementations backed by a [`uflip_nand::NandArray`] copy the
    /// array's cumulative busy totals; the queue engine differences the
    /// counters around a `read`/`write` call to learn which channels an
    /// IO occupied and for how long — the mechanism that makes channel
    /// overlap (and its collapse under stride-aligned patterns) an
    /// emergent property. The buffer-reuse signature keeps the per-IO
    /// hot path allocation-free. The default leaves `out` empty,
    /// meaning "no channel attribution available": callers must then
    /// treat the scalar busy time as occupying one serialized track.
    fn channel_busy_ns(&self, out: &mut Vec<u64>) {
        out.clear();
    }

    /// Deep-clone the complete FTL state — mapping tables, free pools,
    /// log blocks, write cache, and the backing NAND array (page
    /// states, wear, timing, statistics) — into an independent boxed
    /// instance.
    ///
    /// This is the snapshot capability uFLIP §4.1 makes valuable: on
    /// real hardware, enforcing the random device state costs hours to
    /// weeks; on the simulator it is thousands of simulated IOs. A
    /// clone taken right after enforcement turns every later
    /// re-enforcement into a memcpy, and lets plan executors run
    /// reset-delimited segments on independent device clones in
    /// parallel (see `uflip_core::suite`).
    fn clone_box(&self) -> Box<dyn Ftl + Send>;

    /// Host-level statistics.
    fn stats(&self) -> FtlStats;

    /// Aggregated NAND statistics of the backing array (white-box view).
    fn nand_stats(&self) -> NandStats;

    /// Recover from a power loss: discard volatile state (RAM write
    /// caches, open log/append cursors), complete or discard
    /// half-open episodes using only what is durable on NAND, and
    /// rebuild/revalidate the logical-to-physical mapping against the
    /// array's page states. After `recover` returns, every sector
    /// previously probing [`ProbeState::Durable`] must still read
    /// back, and no sector may probe [`ProbeState::Volatile`].
    ///
    /// Recovery work is untimed: the device is off the host's clock
    /// while it remounts. The default (for behavioral FTLs with no
    /// mapping state) does nothing.
    fn recover(&mut self) -> Result<RecoveryReport> {
        Ok(RecoveryReport::default())
    }

    /// Report where sector `lba`'s current contents live (see
    /// [`ProbeState`]). Behavioral FTLs with no mapping state default
    /// to [`ProbeState::Unmapped`].
    fn probe(&self, lba: u64) -> ProbeState {
        let _ = lba;
        ProbeState::Unmapped
    }

    /// Check a request against the exported capacity. Shared validation
    /// used by all implementations.
    fn check_request(&self, lba: u64, sectors: u32) -> Result<()> {
        if sectors == 0 {
            return Err(crate::FtlError::ZeroLength);
        }
        let cap = self.capacity_bytes() / crate::addr::SECTOR_BYTES;
        if lba + sectors as u64 > cap {
            return Err(crate::FtlError::OutOfCapacity {
                lba,
                sectors,
                capacity_sectors: cap,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FtlError;

    /// Minimal trait object to exercise the default `check_request`.
    #[derive(Clone)]
    struct Dummy;
    impl Ftl for Dummy {
        fn capacity_bytes(&self) -> u64 {
            1024 * 512
        }
        fn clone_box(&self) -> Box<dyn Ftl + Send> {
            Box::new(self.clone())
        }
        fn read(&mut self, _lba: u64, _sectors: u32) -> Result<u64> {
            Ok(0)
        }
        fn write(&mut self, _lba: u64, _sectors: u32) -> Result<u64> {
            Ok(0)
        }
        fn stats(&self) -> FtlStats {
            FtlStats::default()
        }
        fn nand_stats(&self) -> NandStats {
            NandStats::default()
        }
    }

    #[test]
    fn check_request_validates_bounds() {
        let d = Dummy;
        assert!(d.check_request(0, 1024).is_ok());
        assert!(d.check_request(1023, 1).is_ok());
        assert!(matches!(
            d.check_request(1024, 1),
            Err(FtlError::OutOfCapacity { .. })
        ));
        assert!(matches!(
            d.check_request(1000, 100),
            Err(FtlError::OutOfCapacity { .. })
        ));
        assert!(matches!(d.check_request(0, 0), Err(FtlError::ZeroLength)));
    }
}
