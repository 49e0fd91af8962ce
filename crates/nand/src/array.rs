//! Multi-chip NAND array with channel-level parallelism.
//!
//! Flash devices "include many flash chips (even USB flash drives
//! typically contain two flash chips)" (paper §3.2, Parallelism). Chips
//! are attached to one or more *channels*; operations on different
//! channels proceed concurrently, while operations on the same channel
//! serialize. This is the mechanism behind two uFLIP observations we must
//! reproduce:
//!
//! * large sequential IOs are fast because the block manager stripes them
//!   across channels (Hint 1/2 — larger IOs amortize per-IO latency);
//! * strided patterns whose stride is a multiple of the stripe width land
//!   on a single channel, losing all parallelism (Table 3, "Large Incr"
//!   column: ×2–×4 degradation *vs random* on multi-channel SSDs).

use crate::chip::{Chip, ChipConfig};
use crate::error::NandError;
use crate::ops::NandOp;
use crate::Result;
use serde::{Deserialize, Serialize};
use uflip_obs::{CounterId, SinkHandle};

/// Configuration of a [`NandArray`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NandArrayConfig {
    /// Per-chip configuration (all chips identical, as in real devices).
    pub chip: ChipConfig,
    /// Number of chips in the array.
    pub chips: u32,
    /// Number of independent channels. Chips are assigned round-robin:
    /// chip *i* sits on channel *i mod channels*. Must be ≤ `chips`.
    pub channels: u32,
}

impl NandArrayConfig {
    /// Total data capacity of the array in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.chip.geometry.chip_bytes() * self.chips as u64
    }

    /// Tiny two-chip, two-channel array for tests.
    pub fn tiny() -> Self {
        NandArrayConfig {
            chip: ChipConfig::tiny(),
            chips: 2,
            channels: 2,
        }
    }
}

/// A batch of chip operations executed "simultaneously" by the block
/// manager: ops on different channels overlap; ops on the same channel
/// serialize. The batch's elapsed time is the maximum channel time.
#[derive(Debug, Default, Clone)]
pub struct Batch {
    ops: Vec<NandOp>,
}

impl Batch {
    /// New empty batch.
    pub fn new() -> Self {
        Batch { ops: Vec::new() }
    }

    /// New empty batch with room for `cap` operations.
    pub fn with_capacity(cap: usize) -> Self {
        Batch {
            ops: Vec::with_capacity(cap),
        }
    }

    /// Drop all queued operations, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.ops.clear();
    }

    /// Append an operation.
    pub fn push(&mut self, op: NandOp) {
        self.ops.push(op);
    }

    /// Number of operations queued.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Operations in submission order.
    pub fn ops(&self) -> &[NandOp] {
        &self.ops
    }
}

impl FromIterator<NandOp> for Batch {
    fn from_iter<T: IntoIterator<Item = NandOp>>(iter: T) -> Self {
        Batch {
            ops: iter.into_iter().collect(),
        }
    }
}

/// A set of NAND chips on channels, executing operation batches.
#[derive(Debug, Clone)]
pub struct NandArray {
    config: NandArrayConfig,
    chips: Vec<Chip>,
    /// Scratch per-channel busy accumulator reused across batches.
    channel_busy: Vec<u64>,
    /// Monotonic per-channel busy totals across all executed batches.
    /// Consumers (the device queue engine) diff these around an FTL
    /// call to attribute an IO's flash time to channels.
    busy_totals: Vec<u64>,
    /// Observability sink; events mirror the chip stats exactly.
    sink: SinkHandle,
    /// Cached `sink.is_enabled()` so the disabled path is one branch.
    sink_enabled: bool,
}

impl NandArray {
    /// Build an array of identical chips in factory state.
    pub fn new(config: NandArrayConfig) -> Self {
        assert!(config.chips >= 1, "array needs at least one chip");
        assert!(
            config.channels >= 1 && config.channels <= config.chips,
            "channels must be in 1..=chips"
        );
        NandArray {
            chips: (0..config.chips).map(|_| Chip::new(config.chip)).collect(),
            channel_busy: vec![0; config.channels as usize],
            busy_totals: vec![0; config.channels as usize],
            sink: SinkHandle::null(),
            sink_enabled: false,
            config,
        }
    }

    /// Attach an observability sink. Every executed NAND operation is
    /// mirrored into its counters ([`CounterId::PageReads`],
    /// [`CounterId::PagePrograms`], [`CounterId::BlockErases`], …,
    /// plus the derived byte counters), so after any sequence of
    /// batches the sink totals reconcile exactly with
    /// [`NandArray::stats`]. The sink never affects timing.
    pub fn set_sink(&mut self, sink: SinkHandle) {
        self.sink_enabled = sink.is_enabled();
        self.sink = sink;
    }

    /// Array configuration.
    pub fn config(&self) -> &NandArrayConfig {
        &self.config
    }

    /// Total data capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.config.capacity_bytes()
    }

    /// Channel a chip is attached to.
    pub fn channel_of_chip(&self, chip: u32) -> u32 {
        chip % self.config.channels
    }

    /// Number of independent channels.
    pub fn channels(&self) -> u32 {
        self.config.channels
    }

    /// Monotonic per-channel busy time in nanoseconds, accumulated over
    /// every executed batch. [`NandArray::execute`] adds each channel's
    /// serialized share; [`NandArray::execute_serial`] charges the whole
    /// batch to every channel (a non-pipelining controller keeps the
    /// entire device busy). Differencing these counters around an FTL
    /// call yields the per-channel cost of one host IO.
    pub fn busy_totals(&self) -> &[u64] {
        &self.busy_totals
    }

    /// Immutable access to a chip.
    pub fn chip(&self, i: u32) -> Result<&Chip> {
        self.chips.get(i as usize).ok_or(NandError::ChipOutOfRange {
            chip: i,
            chips: self.config.chips,
        })
    }

    /// Aggregate stats across chips.
    pub fn stats(&self) -> crate::stats::NandStats {
        let mut total = crate::stats::NandStats::default();
        for c in &self.chips {
            total.merge(c.stats());
        }
        total
    }

    /// Mirror one successfully executed op into the sink, matching
    /// the chip-stats accounting byte for byte: a copy-back counts as
    /// a program (not a page read), a dual-plane erase counts as one
    /// dual-plane event (its two internal erases are not block
    /// erases), exactly as [`crate::stats::NandStats`] nets them out.
    fn emit_op(&self, op: NandOp) {
        let page = u64::from(self.config.chip.geometry.page_data_bytes);
        let block = self.config.chip.geometry.block_bytes();
        match op {
            NandOp::ReadPage(_) => {
                self.sink.add(CounterId::PageReads, 1);
                self.sink.add(CounterId::ReadBytes, page);
            }
            NandOp::ProgramPage(_) => {
                self.sink.add(CounterId::PagePrograms, 1);
                self.sink.add(CounterId::ProgramBytes, page);
            }
            NandOp::EraseBlock(_) => {
                self.sink.add(CounterId::BlockErases, 1);
                self.sink.add(CounterId::EraseBytes, block);
            }
            NandOp::CopyBack { .. } => {
                self.sink.add(CounterId::CopyBacks, 1);
                self.sink.add(CounterId::ProgramBytes, page);
            }
            NandOp::DualPlaneProgram(..) => {
                self.sink.add(CounterId::DualPlanePrograms, 1);
                self.sink.add(CounterId::ProgramBytes, 2 * page);
            }
            NandOp::DualPlaneErase(..) => {
                self.sink.add(CounterId::DualPlaneErases, 1);
                self.sink.add(CounterId::EraseBytes, 2 * block);
            }
        }
    }

    fn execute_one(&mut self, op: NandOp) -> Result<u64> {
        let chip_idx = op.chip();
        if chip_idx >= self.config.chips {
            return Err(NandError::ChipOutOfRange {
                chip: chip_idx,
                chips: self.config.chips,
            });
        }
        let chip = &mut self.chips[chip_idx as usize];
        let ns = match op {
            NandOp::ReadPage(p) => chip.read_page(strip_chip(p), None),
            NandOp::ProgramPage(p) => chip.program_page(strip_chip(p), None),
            NandOp::EraseBlock(b) => chip.erase_block(b.block),
            NandOp::CopyBack { src, dst } => {
                if src.chip != dst.chip {
                    return Err(NandError::CrossChipPair {
                        a: src.block_addr(),
                        b: dst.block_addr(),
                    });
                }
                chip.copy_back(strip_chip(src), strip_chip(dst))
            }
            NandOp::DualPlaneProgram(a, b) => {
                if a.chip != b.chip {
                    return Err(NandError::CrossChipPair {
                        a: a.block_addr(),
                        b: b.block_addr(),
                    });
                }
                chip.dual_plane_program(strip_chip(a), strip_chip(b), None, None)
            }
            NandOp::DualPlaneErase(a, b) => {
                if a.chip != b.chip {
                    return Err(NandError::CrossChipPair { a, b });
                }
                chip.dual_plane_erase(a.block, b.block)
            }
        }?;
        if self.sink_enabled {
            self.emit_op(op);
        }
        Ok(ns)
    }

    /// Execute a batch: every op runs (mutating chip state); ops serialize
    /// per channel and channels overlap. Returns the batch's elapsed time
    /// in nanoseconds = max over channels of the channel's serialized op
    /// time.
    ///
    /// Errors abort the batch at the failing op (prior ops remain
    /// applied), mirroring how a controller would fault mid-sequence.
    pub fn execute(&mut self, batch: &Batch) -> Result<u64> {
        if batch.is_empty() {
            return Err(NandError::EmptyBatch);
        }
        for b in self.channel_busy.iter_mut() {
            *b = 0;
        }
        for &op in batch.ops() {
            let ch = self.channel_of_chip(op.chip()) as usize;
            let ns = self.execute_one(op)?;
            // Channel index may be stale if chip() was out of range — but
            // execute_one already validated and returned Err in that case.
            self.channel_busy[ch] += ns;
        }
        for (total, busy) in self.busy_totals.iter_mut().zip(&self.channel_busy) {
            *total += busy;
        }
        Ok(self.channel_busy.iter().copied().max().unwrap_or(0))
    }

    /// Begin a streaming batch: zero the per-channel accumulators.
    ///
    /// The streaming API ([`stream_begin`](Self::stream_begin) /
    /// [`stream_op`](Self::stream_op) /
    /// [`stream_finish`](Self::stream_finish)) performs exactly the
    /// accounting of [`NandArray::execute`] without materializing a
    /// [`Batch`] — ops execute as they are generated, which is what the
    /// FTL hot paths use. Streams must not nest: finish one before
    /// beginning the next. With zero ops, `stream_finish` returns 0
    /// (where `execute` would reject an empty batch).
    pub fn stream_begin(&mut self) {
        for b in self.channel_busy.iter_mut() {
            *b = 0;
        }
    }

    /// Execute one op of a streaming batch (see
    /// [`stream_begin`](Self::stream_begin)). On error the op is not
    /// charged; previously streamed ops remain applied, as in
    /// [`NandArray::execute`].
    #[inline]
    pub fn stream_op(&mut self, op: NandOp) -> Result<()> {
        let ch = self.channel_of_chip(op.chip()) as usize;
        let ns = self.execute_one(op)?;
        self.channel_busy[ch] += ns;
        Ok(())
    }

    /// Stream a bulk page-program run (see [`Chip::program_run`]): `n`
    /// consecutive pages of one block on one chip, charged to the
    /// chip's channel exactly as `n` individual
    /// [`stream_op`](Self::stream_op) programs would be.
    pub fn stream_program_run(&mut self, chip: u32, block: u32, first: u32, n: u32) -> Result<()> {
        if chip >= self.config.chips {
            return Err(NandError::ChipOutOfRange {
                chip,
                chips: self.config.chips,
            });
        }
        let ch = self.channel_of_chip(chip) as usize;
        let ns = self.chips[chip as usize].program_run(block, first, n)?;
        self.channel_busy[ch] += ns;
        if self.sink_enabled {
            self.sink.add(CounterId::PagePrograms, u64::from(n));
            self.sink.add(
                CounterId::ProgramBytes,
                u64::from(n) * u64::from(self.config.chip.geometry.page_data_bytes),
            );
        }
        Ok(())
    }

    /// Stream the accounting of `n` page reads scattered over one chip
    /// (see [`Chip::read_tally`]): charged to the chip's channel
    /// exactly as `n` individual reads would be, with address checks
    /// left to the caller. Panics (debug) on a bad chip index.
    pub fn stream_read_tally(&mut self, chip: u32, n: u32) {
        debug_assert!(chip < self.config.chips);
        let ch = self.channel_of_chip(chip) as usize;
        let ns = self.chips[chip as usize].read_tally(n);
        self.channel_busy[ch] += ns;
        if self.sink_enabled {
            self.sink.add(CounterId::PageReads, u64::from(n));
            self.sink.add(
                CounterId::ReadBytes,
                u64::from(n) * u64::from(self.config.chip.geometry.page_data_bytes),
            );
        }
    }

    /// Finish a streaming batch: fold channel times into the running
    /// totals and return the batch elapsed (max channel time).
    pub fn stream_finish(&mut self) -> u64 {
        for (total, busy) in self.busy_totals.iter_mut().zip(&self.channel_busy) {
            *total += busy;
        }
        self.channel_busy.iter().copied().max().unwrap_or(0)
    }

    /// Execute a batch where all ops are forced onto a single logical
    /// queue (no channel overlap). Used to model controllers that cannot
    /// pipeline (low-end USB drives) — elapsed = sum of op times.
    pub fn execute_serial(&mut self, batch: &Batch) -> Result<u64> {
        if batch.is_empty() {
            return Err(NandError::EmptyBatch);
        }
        let mut total = 0;
        for &op in batch.ops() {
            total += self.execute_one(op)?;
        }
        for t in self.busy_totals.iter_mut() {
            *t += total;
        }
        Ok(total)
    }
}

/// Chip-local address (the [`Chip`] API ignores the `chip` field; zeroing
/// it keeps Display output unambiguous in errors).
fn strip_chip(mut p: crate::geometry::PageAddr) -> crate::geometry::PageAddr {
    p.chip = 0;
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::PageAddr;

    fn pa(chip: u32, block: u32, page: u32) -> PageAddr {
        PageAddr { chip, block, page }
    }

    #[test]
    fn ops_on_distinct_channels_overlap() {
        let mut a = NandArray::new(NandArrayConfig::tiny());
        let mut batch = Batch::new();
        batch.push(NandOp::ProgramPage(pa(0, 0, 0)));
        batch.push(NandOp::ProgramPage(pa(1, 0, 0)));
        let elapsed = a.execute(&batch).unwrap();
        let single = a
            .config()
            .chip
            .timing
            .page_program_total_ns(a.config().chip.geometry.page_data_bytes);
        assert_eq!(elapsed, single, "two chips on two channels run in parallel");
    }

    #[test]
    fn ops_on_same_chip_serialize() {
        let mut a = NandArray::new(NandArrayConfig::tiny());
        let mut batch = Batch::new();
        batch.push(NandOp::ProgramPage(pa(0, 0, 0)));
        batch.push(NandOp::ProgramPage(pa(0, 0, 1)));
        let elapsed = a.execute(&batch).unwrap();
        let single = a
            .config()
            .chip
            .timing
            .page_program_total_ns(a.config().chip.geometry.page_data_bytes);
        assert_eq!(elapsed, 2 * single);
    }

    #[test]
    fn shared_channel_serializes_different_chips() {
        let mut cfg = NandArrayConfig::tiny();
        cfg.chips = 2;
        cfg.channels = 1;
        let mut a = NandArray::new(cfg);
        let mut batch = Batch::new();
        batch.push(NandOp::ProgramPage(pa(0, 0, 0)));
        batch.push(NandOp::ProgramPage(pa(1, 0, 0)));
        let elapsed = a.execute(&batch).unwrap();
        let single = a
            .config()
            .chip
            .timing
            .page_program_total_ns(a.config().chip.geometry.page_data_bytes);
        assert_eq!(elapsed, 2 * single, "one channel means no overlap");
    }

    #[test]
    fn execute_serial_never_overlaps() {
        let mut a = NandArray::new(NandArrayConfig::tiny());
        let mut batch = Batch::new();
        batch.push(NandOp::ProgramPage(pa(0, 0, 0)));
        batch.push(NandOp::ProgramPage(pa(1, 0, 0)));
        let elapsed = a.execute_serial(&batch).unwrap();
        let single = a
            .config()
            .chip
            .timing
            .page_program_total_ns(a.config().chip.geometry.page_data_bytes);
        assert_eq!(elapsed, 2 * single);
    }

    #[test]
    fn empty_batch_is_an_error() {
        let mut a = NandArray::new(NandArrayConfig::tiny());
        assert_eq!(a.execute(&Batch::new()), Err(NandError::EmptyBatch));
        assert_eq!(a.execute_serial(&Batch::new()), Err(NandError::EmptyBatch));
    }

    #[test]
    fn cross_chip_copy_back_rejected() {
        let mut a = NandArray::new(NandArrayConfig::tiny());
        let mut batch = Batch::new();
        batch.push(NandOp::ProgramPage(pa(0, 0, 0)));
        a.execute(&batch).unwrap();
        let mut bad = Batch::new();
        bad.push(NandOp::CopyBack {
            src: pa(0, 0, 0),
            dst: pa(1, 0, 0),
        });
        assert!(matches!(
            a.execute(&bad),
            Err(NandError::CrossChipPair { .. })
        ));
    }

    #[test]
    fn chip_out_of_range_rejected() {
        let mut a = NandArray::new(NandArrayConfig::tiny());
        let mut batch = Batch::new();
        batch.push(NandOp::ReadPage(pa(7, 0, 0)));
        assert!(matches!(
            a.execute(&batch),
            Err(NandError::ChipOutOfRange { .. })
        ));
    }

    #[test]
    fn stats_aggregate_across_chips() {
        let mut a = NandArray::new(NandArrayConfig::tiny());
        let batch: Batch = [
            NandOp::ProgramPage(pa(0, 0, 0)),
            NandOp::ProgramPage(pa(1, 0, 0)),
        ]
        .into_iter()
        .collect();
        a.execute(&batch).unwrap();
        assert_eq!(a.stats().page_programs, 2);
    }

    #[test]
    fn protocol_violations_surface_through_batches() {
        let mut a = NandArray::new(NandArrayConfig::tiny());
        let batch: Batch = [
            NandOp::ProgramPage(pa(0, 0, 0)),
            NandOp::ProgramPage(pa(0, 0, 0)), // same page twice: not erased
        ]
        .into_iter()
        .collect();
        assert!(matches!(
            a.execute(&batch),
            Err(NandError::ProgramWithoutErase(_))
        ));
    }

    #[test]
    fn busy_totals_accumulate_per_channel() {
        let mut a = NandArray::new(NandArrayConfig::tiny());
        let single = a
            .config()
            .chip
            .timing
            .page_program_total_ns(a.config().chip.geometry.page_data_bytes);
        let batch: Batch = [
            NandOp::ProgramPage(pa(0, 0, 0)),
            NandOp::ProgramPage(pa(1, 0, 0)),
        ]
        .into_iter()
        .collect();
        a.execute(&batch).unwrap();
        assert_eq!(a.busy_totals(), &[single, single]);
        let second: Batch = [NandOp::ProgramPage(pa(0, 0, 1))].into_iter().collect();
        a.execute(&second).unwrap();
        assert_eq!(
            a.busy_totals(),
            &[2 * single, single],
            "totals are monotonic per channel"
        );
    }

    #[test]
    fn serial_execution_charges_every_channel() {
        let mut a = NandArray::new(NandArrayConfig::tiny());
        let single = a
            .config()
            .chip
            .timing
            .page_program_total_ns(a.config().chip.geometry.page_data_bytes);
        let batch: Batch = [
            NandOp::ProgramPage(pa(0, 0, 0)),
            NandOp::ProgramPage(pa(1, 0, 0)),
        ]
        .into_iter()
        .collect();
        a.execute_serial(&batch).unwrap();
        assert_eq!(
            a.busy_totals(),
            &[2 * single, 2 * single],
            "a non-pipelining batch keeps the whole device busy"
        );
    }

    #[test]
    fn sink_counters_reconcile_with_stats() {
        use uflip_obs::Metrics;
        let (metrics, handle) = Metrics::shared();
        let mut a = NandArray::new(NandArrayConfig::tiny());
        a.set_sink(handle);
        let batch: Batch = [
            NandOp::ProgramPage(pa(0, 0, 0)),
            NandOp::ProgramPage(pa(1, 0, 0)),
            NandOp::ReadPage(pa(0, 0, 0)),
            NandOp::EraseBlock(pa(1, 0, 0).block_addr()),
        ]
        .into_iter()
        .collect();
        a.execute(&batch).unwrap();
        a.stream_begin();
        a.stream_read_tally(0, 3);
        a.stream_finish();
        let stats = a.stats();
        let page = u64::from(a.config().chip.geometry.page_data_bytes);
        assert_eq!(
            metrics.counter(CounterId::PagePrograms),
            stats.page_programs
        );
        assert_eq!(metrics.counter(CounterId::PageReads), stats.page_reads);
        assert_eq!(metrics.counter(CounterId::BlockErases), stats.block_erases);
        assert_eq!(
            metrics.counter(CounterId::ProgramBytes),
            stats.physical_pages_written() * page
        );
        assert_eq!(
            metrics.counter(CounterId::ReadBytes),
            stats.page_reads * page
        );
        assert_eq!(
            metrics.counter(CounterId::EraseBytes),
            stats.physical_blocks_erased() * a.config().chip.geometry.block_bytes()
        );
    }

    #[test]
    fn capacity_is_chips_times_chip_bytes() {
        let cfg = NandArrayConfig::tiny();
        let per_chip = cfg.chip.geometry.chip_bytes();
        assert_eq!(cfg.capacity_bytes(), 2 * per_chip);
    }
}
