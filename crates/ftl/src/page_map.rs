//! Page-mapped FTL: the high-end SSD block manager.
//!
//! This is the "flash translation layer might be able to cache and
//! destage both data and bookkeeping information" end of the paper's
//! design spectrum (§2.2). A direct map at flash-page granularity lets
//! every write land on a free, pre-erased page; obsolete pages accumulate
//! and are reclaimed by greedy garbage collection, either **synchronously**
//! (charged to the triggering write — the expensive spikes of Figure 3)
//! or **asynchronously** during idle time and in the shadow of reads
//! (the pause effect of Table 3 and the read-lingering of Figure 5).
//!
//! ## Mechanisms reproduced
//!
//! * **Start-up phase** (§4.2): after idle time fills the free pool to
//!   its high watermark, the first `(high−low) × pages_per_block ÷
//!   pages_per_IO` random writes are cheap appends.
//! * **Running-phase oscillation**: once the pool sits at the low
//!   watermark, every few writes one synchronous victim merge runs; its
//!   cost is `valid_pages × copy_back + erase`, so the spike height and
//!   period emerge from over-provisioning, not from scripted constants.
//! * **Pause effect**: `on_idle` performs background merges; with pauses
//!   roughly equal to the average random-write cost, the pool never
//!   drains and random writes behave like sequential ones.
//! * **Read lingering**: while the pool is below its high watermark,
//!   reads are slowed by `read_contention_factor` and simultaneously
//!   drive background reclamation, so a read-only phase after a write
//!   burst gradually returns to full speed (Figure 5).

use crate::addr::{LogicalLayout, SECTOR_BYTES};
use crate::error::FtlError;
use crate::free_pool::FreePool;
use crate::stats::FtlStats;
use crate::traits::{Ftl, ProbeState, RecoveryReport};
use crate::Result;
use serde::{Deserialize, Serialize};
use uflip_nand::{Batch, NandArray, NandArrayConfig, NandOp, NandStats, PageAddr};
use uflip_obs::{CounterId, SinkHandle};

const UNMAPPED: u32 = u32::MAX;

/// Configuration of a [`PageMapFtl`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PageMapConfig {
    /// NAND array backing the FTL.
    pub array: NandArrayConfig,
    /// Exported logical capacity in bytes. The difference to the physical
    /// capacity is over-provisioning, which controls steady-state victim
    /// valid counts and therefore merge costs.
    pub capacity_bytes: u64,
    /// Free-pool low watermark (blocks, summed across chips): at or below
    /// this, writes trigger synchronous reclamation.
    pub low_watermark: usize,
    /// Free-pool high watermark: background reclamation refills to this
    /// level. `high − low` determines the start-up phase length.
    pub high_watermark: usize,
    /// Enable asynchronous (idle-time / read-shadow) reclamation.
    pub async_reclaim: bool,
    /// Multiplier applied to read latency while background reclamation is
    /// pending (Figure 5's lingering effect). 1.0 disables the effect.
    pub read_contention_factor: f64,
    /// Fraction of read busy-time during which background reclamation
    /// progresses (0.0–1.0). Idle time is always usable in full.
    pub bg_rate_during_reads: f64,
}

impl PageMapConfig {
    /// Small configuration for unit tests: 2-chip tiny array, 75 %
    /// exported capacity, async reclamation off.
    pub fn tiny() -> Self {
        let array = NandArrayConfig::tiny();
        PageMapConfig {
            array,
            capacity_bytes: array.capacity_bytes() * 3 / 4,
            low_watermark: 2,
            high_watermark: 2,
            async_reclaim: false,
            read_contention_factor: 1.0,
            bg_rate_during_reads: 0.0,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.capacity_bytes == 0 {
            return Err(FtlError::InvalidConfig("exported capacity is zero".into()));
        }
        if self.capacity_bytes > self.array.capacity_bytes() {
            return Err(FtlError::InvalidConfig(format!(
                "exported capacity {} exceeds physical capacity {}",
                self.capacity_bytes,
                self.array.capacity_bytes()
            )));
        }
        if self.low_watermark > self.high_watermark {
            return Err(FtlError::InvalidConfig(
                "low watermark above high watermark".into(),
            ));
        }
        let spare_blocks = (self.array.capacity_bytes() - self.capacity_bytes)
            / self.array.chip.geometry.block_bytes();
        if (spare_blocks as usize) < self.high_watermark + self.array.chips as usize {
            return Err(FtlError::InvalidConfig(format!(
                "over-provisioning of {spare_blocks} blocks cannot sustain high watermark {} \
                 plus one active block per chip",
                self.high_watermark
            )));
        }
        Ok(())
    }
}

/// Per-chip append point.
#[derive(Debug, Clone, Copy)]
struct ActiveBlock {
    /// Global physical block id.
    block: u32,
    /// Next page to program within the block.
    next_page: u32,
}

/// Page-mapped FTL with greedy GC and optional asynchronous reclamation.
#[derive(Debug, Clone)]
pub struct PageMapFtl {
    cfg: PageMapConfig,
    layout: LogicalLayout,
    array: NandArray,
    /// Logical page → physical page (UNMAPPED if never written).
    map: Vec<u32>,
    /// Physical page → logical page (UNMAPPED if free/invalid).
    rmap: Vec<u32>,
    /// Valid-page count per global physical block.
    valid: Vec<u16>,
    /// Pre-erased block pool per chip.
    pools: Vec<FreePool>,
    /// Host-write append point per chip.
    active: Vec<Option<ActiveBlock>>,
    /// GC copy-back destination per chip.
    gc_active: Vec<Option<ActiveBlock>>,
    /// Background-work credit in nanoseconds.
    bg_credit_ns: u64,
    /// Reusable op buffer for `write` (kept so steady-state writes do
    /// not allocate; execution stays deferred to the end of the span —
    /// victim selection must not observe this write's own programs).
    scratch: Batch,
    /// Observability sink (host-IO and merge events).
    sink: SinkHandle,
    /// Cached `sink.is_enabled()`.
    sink_enabled: bool,
    stats: FtlStats,
    pages_per_block: u32,
    blocks_per_chip: u32,
}

impl PageMapFtl {
    /// Build the FTL; all spare blocks start pre-erased in the pools.
    pub fn new(cfg: PageMapConfig) -> Result<Self> {
        cfg.validate()?;
        let array = NandArray::new(cfg.array);
        let layout = LogicalLayout::new(&cfg.array.chip.geometry, cfg.capacity_bytes);
        let blocks_per_chip = cfg.array.chip.geometry.blocks_per_chip();
        let pages_per_block = cfg.array.chip.geometry.pages_per_block;
        let total_blocks = blocks_per_chip as usize * cfg.array.chips as usize;
        let total_pages = total_blocks * pages_per_block as usize;
        let chips = cfg.array.chips as usize;
        // Per-chip watermarks: distribute the device-level watermarks.
        let low = cfg.low_watermark.div_ceil(chips);
        let high = cfg.high_watermark.div_ceil(chips).max(low);
        let mut pools: Vec<FreePool> = (0..chips).map(|_| FreePool::new(low, high)).collect();
        for (chip, pool) in pools.iter_mut().enumerate() {
            for b in 0..blocks_per_chip {
                pool.push(chip as u32 * blocks_per_chip + b);
            }
        }
        Ok(PageMapFtl {
            layout,
            array,
            map: vec![UNMAPPED; layout_pages(&layout)],
            rmap: vec![UNMAPPED; total_pages],
            valid: vec![0; total_blocks],
            pools,
            active: vec![None; chips],
            gc_active: vec![None; chips],
            bg_credit_ns: 0,
            scratch: Batch::new(),
            sink: SinkHandle::null(),
            sink_enabled: false,
            stats: FtlStats::default(),
            pages_per_block,
            blocks_per_chip,
            cfg,
        })
    }

    /// The backing array (white-box inspection for tests).
    pub fn array(&self) -> &NandArray {
        &self.array
    }

    /// Total free (pre-erased) blocks across chips.
    #[cfg(test)]
    fn free_blocks(&self) -> usize {
        self.pools.iter().map(|p| p.len()).sum()
    }

    /// Whether background reclamation still has pending work.
    pub fn background_pending(&self) -> bool {
        self.cfg.async_reclaim && self.pools.iter().any(|p| p.wants_background_reclaim())
    }

    fn chip_of_block(&self, global_block: u32) -> u32 {
        global_block / self.blocks_per_chip
    }

    fn local_block(&self, global_block: u32) -> u32 {
        global_block % self.blocks_per_chip
    }

    fn ppn(&self, global_block: u32, page: u32) -> u32 {
        global_block * self.pages_per_block + page
    }

    fn page_addr(&self, ppn: u32) -> PageAddr {
        let global_block = ppn / self.pages_per_block;
        PageAddr {
            chip: self.chip_of_block(global_block),
            block: self.local_block(global_block),
            page: ppn % self.pages_per_block,
        }
    }

    /// Chip a logical page is striped to. One-page striping spreads every
    /// multi-page IO across chips for parallelism.
    fn chip_of_lpn(&self, lpn: u64) -> usize {
        (lpn % self.cfg.array.chips as u64) as usize
    }

    fn unmap(&mut self, lpn: u64) {
        let old = self.map[lpn as usize];
        if old != UNMAPPED {
            self.rmap[old as usize] = UNMAPPED;
            let b = (old / self.pages_per_block) as usize;
            self.valid[b] = self.valid[b].saturating_sub(1);
            self.map[lpn as usize] = UNMAPPED;
        }
    }

    /// Allocate the next program slot on `chip` for host writes, running
    /// synchronous GC if the pool has drained. Returns (ppn, gc_ns).
    fn allocate_host_slot(&mut self, chip: usize) -> Result<(u32, u64)> {
        let mut gc_ns = 0;
        let need_new_block = match self.active[chip] {
            Some(a) => a.next_page >= self.pages_per_block,
            None => true,
        };
        if need_new_block {
            // Reclaim until the pool is safely above the watermark. The
            // floor of 1 keeps one erased block in reserve for the GC's
            // own copy-back destination; the guard bounds pathological
            // all-valid-victim livelock.
            let floor = self.pools[chip].low_watermark().max(1);
            let mut guard = 0;
            while self.pools[chip].len() <= floor && guard < 64 {
                let ns = self.reclaim_one(chip, true)?;
                if ns == 0 {
                    break; // no reclaimable victim exists
                }
                gc_ns += ns;
                guard += 1;
            }
            let block = self.pools[chip]
                .pop()
                .ok_or(FtlError::OutOfPhysicalBlocks)?;
            self.active[chip] = Some(ActiveBlock {
                block,
                next_page: 0,
            });
        }
        let a = self.active[chip]
            .as_mut()
            .ok_or(FtlError::Internal("active block missing after ensure"))?;
        let ppn = a.block * self.pages_per_block + a.next_page;
        a.next_page += 1;
        Ok((ppn, gc_ns))
    }

    /// Allocate a GC copy-back destination slot on `chip` (draws from the
    /// pool without watermark checks; GC always has priority access).
    fn allocate_gc_slot(&mut self, chip: usize) -> Result<u32> {
        let need_new_block = match self.gc_active[chip] {
            Some(a) => a.next_page >= self.pages_per_block,
            None => true,
        };
        if need_new_block {
            let block = self.pools[chip]
                .pop()
                .ok_or(FtlError::OutOfPhysicalBlocks)?;
            self.gc_active[chip] = Some(ActiveBlock {
                block,
                next_page: 0,
            });
        }
        let a = self.gc_active[chip]
            .as_mut()
            .ok_or(FtlError::Internal("gc block missing after ensure"))?;
        let ppn = a.block * self.pages_per_block + a.next_page;
        a.next_page += 1;
        Ok(ppn)
    }

    /// Pick the used block with the fewest valid pages on `chip` (greedy
    /// victim selection; wear-aware tie-break prefers less-worn blocks).
    fn pick_victim(&self, chip: usize) -> Option<u32> {
        let base = chip as u32 * self.blocks_per_chip;
        let host_active = self.active[chip].map(|a| a.block);
        let gc_active = self.gc_active[chip].map(|a| a.block);
        let mut best: Option<(u16, u32, u32)> = None; // (valid, wear, block)
        for local in 0..self.blocks_per_chip {
            let g = base + local;
            if Some(g) == host_active || Some(g) == gc_active {
                continue;
            }
            // A block is "used" if it has been fully or partially
            // programmed and is not in the free pool. We detect it via
            // the chip's free-page count: free pool blocks are fully
            // erased AND tracked in pools — cheaper: skip blocks whose
            // valid count is 0 and which are sitting in the pool.
            let Ok(chip_ref) = self.array.chip(chip as u32) else {
                continue;
            };
            let Ok(free) = chip_ref.free_pages_in_block(local) else {
                continue;
            };
            if free >= self.pages_per_block {
                continue;
            }
            let v = self.valid[g as usize];
            let w = chip_ref.wear().cycles(local);
            let candidate = (v, w, g);
            if best.is_none_or(|b| candidate < b) {
                best = Some(candidate);
            }
        }
        best.map(|(_, _, g)| g)
    }

    /// Merge one victim block on `chip`: copy its valid pages to the GC
    /// append point and erase it. Returns the merge's busy time.
    fn reclaim_one(&mut self, chip: usize, sync: bool) -> Result<u64> {
        let Some(victim) = self.pick_victim(chip) else {
            return Ok(0);
        };
        let mut batch = Batch::new();
        let mut moves: Vec<(u64, u32)> = Vec::new(); // (lpn, new_ppn)
        for page in 0..self.pages_per_block {
            let src_ppn = self.ppn(victim, page);
            let lpn = self.rmap[src_ppn as usize];
            if lpn == UNMAPPED {
                continue;
            }
            let dst_ppn = self.allocate_gc_slot(chip)?;
            batch.push(NandOp::CopyBack {
                src: self.page_addr(src_ppn),
                dst: self.page_addr(dst_ppn),
            });
            moves.push((lpn as u64, dst_ppn));
        }
        batch.push(NandOp::EraseBlock(uflip_nand::BlockAddr {
            chip: chip as u32,
            block: self.local_block(victim),
        }));
        let ns = self.array.execute_serial(&batch)?;
        for (lpn, dst_ppn) in moves {
            // Re-point the logical page at its new physical home.
            let old = self.map[lpn as usize];
            debug_assert_ne!(old, UNMAPPED);
            self.rmap[old as usize] = UNMAPPED;
            self.map[lpn as usize] = dst_ppn;
            self.rmap[dst_ppn as usize] = lpn as u32;
            let nb = (dst_ppn / self.pages_per_block) as usize;
            self.valid[nb] += 1;
        }
        self.valid[victim as usize] = 0;
        self.pools[chip].push(victim);
        if sync {
            self.stats.sync_merges += 1;
        } else {
            self.stats.async_merges += 1;
        }
        self.stats.full_merges += 1;
        if self.sink_enabled {
            self.sink.add(
                if sync {
                    CounterId::SyncMerges
                } else {
                    CounterId::AsyncMerges
                },
                1,
            );
            self.sink.add(CounterId::FullMerges, 1);
        }
        Ok(ns)
    }

    /// Estimated cost of the next background merge on the neediest chip,
    /// used to decide whether enough idle credit has accumulated.
    fn estimate_merge_ns(&self, chip: usize) -> u64 {
        let Some(victim) = self.pick_victim(chip) else {
            return u64::MAX;
        };
        let valid = self.valid[victim as usize] as u64;
        let t = self.cfg.array.chip.timing;
        valid * t.copy_back_total_ns() + t.erase_total_ns()
    }

    /// Perform background reclamation worth up to `budget_ns`.
    fn background_work(&mut self, budget_ns: u64) {
        if !self.cfg.async_reclaim {
            return;
        }
        self.bg_credit_ns = self.bg_credit_ns.saturating_add(budget_ns);
        loop {
            // Neediest chip: largest deficit below high watermark.
            let Some((chip, _)) = self
                .pools
                .iter()
                .enumerate()
                .filter(|(_, p)| p.wants_background_reclaim())
                .max_by_key(|(_, p)| p.background_deficit())
            else {
                // Nothing to do: don't bank unbounded credit.
                self.bg_credit_ns = 0;
                return;
            };
            let est = self.estimate_merge_ns(chip);
            if est == u64::MAX || self.bg_credit_ns < est {
                return;
            }
            match self.reclaim_one(chip, false) {
                Ok(ns) => self.bg_credit_ns = self.bg_credit_ns.saturating_sub(ns.max(1)),
                Err(_) => return,
            }
        }
    }
}

fn layout_pages(layout: &LogicalLayout) -> usize {
    layout.capacity_pages() as usize
}

impl Ftl for PageMapFtl {
    fn capacity_bytes(&self) -> u64 {
        self.cfg.capacity_bytes
    }

    fn read(&mut self, lba: u64, sectors: u32) -> Result<u64> {
        self.check_request(lba, sectors)?;
        let (first, last) = self.layout.page_span(lba, sectors);
        self.array.stream_begin();
        for lpn in first..last {
            let ppn = self.map[lpn as usize];
            if ppn != UNMAPPED {
                self.array
                    .stream_op(NandOp::ReadPage(self.page_addr(ppn)))?;
            }
        }
        let mut ns = self.array.stream_finish();
        // Lingering background work contends with reads (Figure 5).
        if self.background_pending() {
            ns = (ns as f64 * self.cfg.read_contention_factor) as u64;
            let shadow = (ns as f64 * self.cfg.bg_rate_during_reads) as u64;
            self.background_work(shadow);
        }
        self.stats.host_reads += 1;
        self.stats.sectors_read += sectors as u64;
        if self.sink_enabled {
            self.sink.add(CounterId::HostReads, 1);
            self.sink
                .add(CounterId::LogicalBytesRead, sectors as u64 * SECTOR_BYTES);
        }
        Ok(ns)
    }

    fn write(&mut self, lba: u64, sectors: u32) -> Result<u64> {
        self.check_request(lba, sectors)?;
        let (first, last) = self.layout.page_span(lba, sectors);
        let mut total_ns = 0u64;
        let mut batch = std::mem::replace(&mut self.scratch, Batch::new());
        batch.clear();
        // Misaligned head/tail pages need their old content read first
        // (read-modify-write) — the §5.2 alignment penalty.
        if self.layout.partial_pages(lba, sectors) > 0 {
            for lpn in [first, last - 1] {
                let ppn = self.map[lpn as usize];
                if ppn != UNMAPPED {
                    batch.push(NandOp::ReadPage(self.page_addr(ppn)));
                }
            }
            self.stats.rmw_events += 1;
            if self.sink_enabled {
                self.sink.add(CounterId::RmwEvents, 1);
            }
        }
        for lpn in first..last {
            self.unmap(lpn);
            let chip = self.chip_of_lpn(lpn);
            let (ppn, gc_ns) = self.allocate_host_slot(chip)?;
            total_ns += gc_ns;
            batch.push(NandOp::ProgramPage(self.page_addr(ppn)));
            self.map[lpn as usize] = ppn;
            self.rmap[ppn as usize] = lpn as u32;
            let b = (ppn / self.pages_per_block) as usize;
            self.valid[b] += 1;
            self.stats.logical_pages_written += 1;
        }
        total_ns += self.array.execute(&batch)?;
        self.scratch = batch;
        self.stats.host_writes += 1;
        self.stats.sectors_written += sectors as u64;
        if self.sink_enabled {
            self.sink.add(CounterId::HostWrites, 1);
            self.sink.add(
                CounterId::LogicalBytesWritten,
                sectors as u64 * SECTOR_BYTES,
            );
        }
        Ok(total_ns)
    }

    fn on_idle(&mut self, ns: u64) {
        self.background_work(ns);
    }

    fn set_sink(&mut self, sink: SinkHandle) {
        self.sink_enabled = sink.is_enabled();
        self.array.set_sink(sink.clone());
        self.sink = sink;
    }

    fn clone_box(&self) -> Box<dyn Ftl + Send> {
        Box::new(self.clone())
    }

    fn stats(&self) -> FtlStats {
        self.stats
    }

    fn nand_stats(&self) -> NandStats {
        self.array.stats()
    }

    fn channels(&self) -> u32 {
        self.array.channels()
    }

    fn channel_busy_ns(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(self.array.busy_totals());
    }

    /// Power-loss recovery. The page map keeps no RAM write cache, so
    /// no acknowledged data is lost; what dies with the power is the
    /// controller's working state: the append points, the GC credit,
    /// and the in-RAM map. `rmap` models the per-page logical address
    /// each program stores in the page's OOB spare area, so the
    /// logical-to-physical map is rebuilt from it — cross-checked
    /// against the array's programmed-page prefixes — exactly the
    /// mount-time OOB scan a real page-mapped controller performs.
    fn recover(&mut self) -> Result<RecoveryReport> {
        let chips = self.pools.len();
        self.active = vec![None; chips];
        self.gc_active = vec![None; chips];
        self.bg_credit_ns = 0;
        self.scratch.clear();

        // Programmed-page prefix of every physical block (NAND programs
        // strictly in order, so "free pages" determines the prefix).
        let total_blocks = self.valid.len();
        let mut programmed = vec![0u32; total_blocks];
        for g in 0..total_blocks as u32 {
            let chip = self.chip_of_block(g);
            let local = self.local_block(g);
            let free = self.array.chip(chip)?.free_pages_in_block(local)?;
            programmed[g as usize] = self.pages_per_block - free;
        }

        // Rebuild the forward map and valid counts from the OOB tags.
        let mut report = RecoveryReport::default();
        self.map.iter_mut().for_each(|m| *m = UNMAPPED);
        self.valid.iter_mut().for_each(|v| *v = 0);
        for ppn in 0..self.rmap.len() {
            let lpn = self.rmap[ppn];
            if lpn == UNMAPPED {
                continue;
            }
            let g = ppn / self.pages_per_block as usize;
            let page = ppn as u32 % self.pages_per_block;
            if page >= programmed[g] {
                // Tag for a page the array never finished programming:
                // the interrupted program is torn, not data.
                self.rmap[ppn] = UNMAPPED;
                continue;
            }
            self.map[lpn as usize] = ppn as u32;
            self.valid[g] += 1;
            report.rebuilt_mappings += 1;
        }

        // Free pools: exactly the fully-erased blocks. Partially
        // programmed ex-active blocks keep their valid pages and return
        // through normal GC.
        let blocks_per_chip = self.blocks_per_chip;
        for (chip, pool) in self.pools.iter_mut().enumerate() {
            let mut fresh = FreePool::new(pool.low_watermark(), pool.high_watermark());
            for local in 0..blocks_per_chip {
                let g = chip as u32 * blocks_per_chip + local;
                if programmed[g as usize] == 0 {
                    fresh.push(g);
                }
            }
            *pool = fresh;
        }
        Ok(report)
    }

    fn probe(&self, lba: u64) -> ProbeState {
        if lba >= self.layout.capacity_sectors() {
            return ProbeState::Unmapped;
        }
        let (lpn, _) = self.layout.page_span(lba, 1);
        if self.map[lpn as usize] == UNMAPPED {
            ProbeState::Unmapped
        } else {
            // Every write programs NAND before acknowledging: mapped
            // means durable.
            ProbeState::Durable
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::SECTOR_BYTES;

    /// Tiny FTL: 2 chips × 16 blocks × 8 pages × 512 B = 128 KB physical,
    /// 96 KB exported (64 spare blocks? no — 64 KB spare = 16 blocks).
    fn tiny() -> PageMapFtl {
        PageMapFtl::new(PageMapConfig::tiny()).unwrap()
    }

    fn sectors_per_page(f: &PageMapFtl) -> u32 {
        f.layout.sectors_per_page() as u32
    }

    #[test]
    fn construction_validates_capacity() {
        let mut cfg = PageMapConfig::tiny();
        cfg.capacity_bytes = cfg.array.capacity_bytes() * 2;
        assert!(matches!(
            PageMapFtl::new(cfg),
            Err(FtlError::InvalidConfig(_))
        ));
    }

    #[test]
    fn construction_requires_spare_for_watermarks() {
        let mut cfg = PageMapConfig::tiny();
        cfg.capacity_bytes = cfg.array.capacity_bytes(); // no spare at all
        assert!(matches!(
            PageMapFtl::new(cfg),
            Err(FtlError::InvalidConfig(_))
        ));
    }

    #[test]
    fn read_of_unwritten_space_is_instant_at_flash_level() {
        let mut f = tiny();
        let ns = f.read(0, 8).unwrap();
        assert_eq!(ns, 0, "nothing mapped: no flash reads");
        assert_eq!(f.stats().host_reads, 1);
    }

    #[test]
    fn write_then_read_touches_flash() {
        let mut f = tiny();
        let spp = sectors_per_page(&f);
        let wns = f.write(0, spp * 2).unwrap();
        assert!(wns > 0);
        let rns = f.read(0, spp * 2).unwrap();
        assert!(rns > 0);
        assert_eq!(f.nand_stats().page_programs, 2);
        assert_eq!(f.nand_stats().page_reads, 2);
    }

    #[test]
    fn pages_stripe_across_chips() {
        let mut f = tiny();
        let spp = sectors_per_page(&f);
        // Two consecutive pages → two different chips → parallel time.
        f.write(0, spp * 2).unwrap();
        let per_chip: Vec<u64> = (0..2)
            .map(|c| f.array().chip(c).unwrap().stats().page_programs)
            .collect();
        assert_eq!(per_chip, vec![1, 1], "one page per chip via striping");
    }

    #[test]
    fn rewrite_invalidates_old_page() {
        let mut f = tiny();
        let spp = sectors_per_page(&f);
        f.write(0, spp).unwrap();
        let before: u16 = f.valid.iter().sum();
        f.write(0, spp).unwrap();
        let after: u16 = f.valid.iter().sum();
        assert_eq!(before, 1);
        assert_eq!(after, 1, "rewrite keeps exactly one valid copy");
    }

    /// Tiny config with 2 KB pages so that sector-level misalignment is
    /// possible (the 512 B-page tiny geometry makes every sector a page).
    fn cfg_2kb_pages() -> PageMapConfig {
        let mut cfg = PageMapConfig::tiny();
        cfg.array.chip.geometry.page_data_bytes = 2048;
        cfg.capacity_bytes = cfg.array.capacity_bytes() * 3 / 4;
        cfg
    }

    #[test]
    fn misaligned_write_counts_rmw() {
        let mut f = PageMapFtl::new(cfg_2kb_pages()).unwrap();
        f.write(1, 4).unwrap(); // one-sector shift, one page worth
        assert_eq!(f.stats().rmw_events, 1);
    }

    #[test]
    fn aligned_write_has_no_rmw() {
        let mut f = PageMapFtl::new(cfg_2kb_pages()).unwrap();
        f.write(0, 4).unwrap();
        assert_eq!(f.stats().rmw_events, 0);
    }

    #[test]
    fn misaligned_write_touches_one_extra_page() {
        let mut a = PageMapFtl::new(cfg_2kb_pages()).unwrap();
        let mut b = PageMapFtl::new(cfg_2kb_pages()).unwrap();
        a.write(0, 64).unwrap(); // 32 KB aligned → 16 pages
        b.write(1, 64).unwrap(); // 32 KB shifted → 17 pages
        assert_eq!(a.nand_stats().page_programs, 16);
        assert_eq!(b.nand_stats().page_programs, 17);
    }

    #[test]
    fn gc_triggers_when_pool_drains_and_device_keeps_working() {
        let mut f = tiny();
        let spp = sectors_per_page(&f);
        let cap_sectors = f.capacity_bytes() / SECTOR_BYTES;
        // Overwrite the full logical space several times: must force GC.
        for round in 0..6 {
            let mut lba = 0;
            while lba + spp as u64 * 2 <= cap_sectors {
                f.write(lba, spp * 2).unwrap();
                lba += spp as u64 * 2;
            }
            assert!(round < 6, "writes must keep succeeding");
        }
        assert!(
            f.stats().sync_merges > 0,
            "pool exhaustion forces synchronous merges"
        );
        assert!(f.nand_stats().block_erases > 0);
        // Valid-count invariant: total valid pages equals mapped pages.
        let mapped = f.map.iter().filter(|&&m| m != UNMAPPED).count() as u64;
        let valid: u64 = f.valid.iter().map(|&v| v as u64).sum();
        assert_eq!(mapped, valid);
    }

    #[test]
    fn rmap_and_map_stay_inverse_under_churn() {
        let mut f = tiny();
        let spp = sectors_per_page(&f);
        let cap_pages = f.layout.capacity_pages();
        // Deterministic pseudo-random overwrite churn.
        let mut x = 12345u64;
        for _ in 0..400 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let lpn = x % cap_pages;
            f.write(lpn * spp as u64, spp).unwrap();
        }
        for (lpn, &ppn) in f.map.iter().enumerate() {
            if ppn != UNMAPPED {
                assert_eq!(
                    f.rmap[ppn as usize], lpn as u32,
                    "map/rmap must stay inverse"
                );
            }
        }
    }

    #[test]
    fn sync_gc_is_visible_as_latency_spike() {
        let mut f = tiny();
        let spp = sectors_per_page(&f);
        let cap_sectors = f.capacity_bytes() / SECTOR_BYTES;
        let mut max_ns = 0u64;
        let mut min_ns = u64::MAX;
        // Fill once (cheap appends), then overwrite to force merges.
        for _ in 0..4 {
            let mut lba = 0;
            while lba + spp as u64 <= cap_sectors {
                let ns = f.write(lba, spp).unwrap();
                max_ns = max_ns.max(ns);
                min_ns = min_ns.min(ns);
                lba += spp as u64;
            }
        }
        assert!(
            max_ns > min_ns * 3,
            "GC spikes ({max_ns} ns) must dwarf plain appends ({min_ns} ns)"
        );
    }

    #[test]
    fn idle_reclamation_refills_pool() {
        let mut cfg = PageMapConfig::tiny();
        cfg.async_reclaim = true;
        cfg.low_watermark = 1;
        cfg.high_watermark = 4;
        let mut f = PageMapFtl::new(cfg).unwrap();
        let spp = sectors_per_page(&f);
        let cap_sectors = f.capacity_bytes() / SECTOR_BYTES;
        for _ in 0..3 {
            let mut lba = 0;
            while lba + spp as u64 <= cap_sectors {
                f.write(lba, spp).unwrap();
                lba += spp as u64;
            }
        }
        let free_before = f.free_blocks();
        assert!(f.background_pending());
        f.on_idle(10_000_000_000); // 10 s of idle
        assert!(
            f.free_blocks() > free_before,
            "idle time must refill the pool"
        );
        assert!(f.stats().async_merges > 0);
    }

    #[test]
    fn reads_slow_down_while_background_work_pending() {
        let mut cfg = PageMapConfig::tiny();
        cfg.async_reclaim = true;
        cfg.low_watermark = 1;
        cfg.high_watermark = 6;
        cfg.read_contention_factor = 3.0;
        cfg.bg_rate_during_reads = 0.5;
        let mut f = PageMapFtl::new(cfg).unwrap();
        let spp = sectors_per_page(&f);
        let cap_sectors = f.capacity_bytes() / SECTOR_BYTES;
        // Baseline read cost on a lightly-written device.
        f.write(0, spp).unwrap();
        let fast = f.read(0, spp).unwrap();
        // Burst of overwrites to drain the pool below the high watermark.
        for _ in 0..4 {
            let mut lba = 0;
            while lba + spp as u64 <= cap_sectors {
                f.write(lba, spp).unwrap();
                lba += spp as u64;
            }
        }
        assert!(f.background_pending());
        let slow = f.read(0, spp).unwrap();
        assert!(
            slow >= fast * 2,
            "read under GC backlog ({slow} ns) must be slower than baseline ({fast} ns)"
        );
        // Reads drive background work; eventually the device recovers.
        let mut recovered = false;
        for _ in 0..100_000 {
            f.read(0, spp).unwrap();
            if !f.background_pending() {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "read shadow must eventually drain the backlog");
        let again = f.read(0, spp).unwrap();
        assert_eq!(again, fast, "after drain, read cost returns to baseline");
    }

    #[test]
    fn recover_rebuilds_map_from_oob_tags() {
        let mut f = tiny();
        let spp = sectors_per_page(&f);
        let cap_pages = f.layout.capacity_pages();
        // Churn enough to force GC and leave partially-filled actives.
        let mut x = 777u64;
        for _ in 0..300 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            f.write((x % cap_pages) * spp as u64, spp).unwrap();
        }
        let map_before = f.map.clone();
        let report = f.recover().unwrap();
        assert_eq!(f.map, map_before, "no acknowledged mapping may be lost");
        assert_eq!(
            report.rebuilt_mappings,
            map_before.iter().filter(|&&m| m != UNMAPPED).count() as u64
        );
        assert_eq!(report.dropped_cached_pages, 0, "page map has no RAM cache");
        // Valid-count invariant holds after the rebuild.
        let mapped = f.map.iter().filter(|&&m| m != UNMAPPED).count() as u64;
        let valid: u64 = f.valid.iter().map(|&v| v as u64).sum();
        assert_eq!(mapped, valid);
        // Probes agree with the map, and the device keeps working.
        assert_eq!(f.probe((x % cap_pages) * spp as u64), ProbeState::Durable);
        for _ in 0..100 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            f.write((x % cap_pages) * spp as u64, spp).unwrap();
        }
    }

    #[test]
    fn probe_reports_unmapped_space() {
        let mut f = tiny();
        let spp = sectors_per_page(&f);
        assert_eq!(f.probe(0), ProbeState::Unmapped);
        f.write(0, spp).unwrap();
        assert_eq!(f.probe(0), ProbeState::Durable);
        let cap = f.capacity_bytes() / SECTOR_BYTES;
        assert_eq!(f.probe(cap + 5), ProbeState::Unmapped);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut f = tiny();
        let cap = f.capacity_bytes() / SECTOR_BYTES;
        assert!(matches!(
            f.write(cap, 1),
            Err(FtlError::OutOfCapacity { .. })
        ));
        assert!(matches!(
            f.read(cap - 1, 2),
            Err(FtlError::OutOfCapacity { .. })
        ));
        assert!(matches!(f.read(0, 0), Err(FtlError::ZeroLength)));
    }

    #[test]
    fn sequential_overwrites_cheaper_than_random_overwrites() {
        // The paper's core asymmetry must emerge mechanistically: after
        // aging, sequential writes (which invalidate whole blocks) must
        // be cheaper on average than uniform random writes. A tight
        // over-provisioning budget (~12 %) is what makes random victims
        // carry valid pages while cyclic-sequential victims die whole.
        let mk = || {
            let mut cfg = PageMapConfig::tiny();
            cfg.array.chip.geometry.blocks_per_plane = 32;
            cfg.capacity_bytes = cfg.array.capacity_bytes() * 7 / 8;
            PageMapFtl::new(cfg).unwrap()
        };
        let run = |f: &mut PageMapFtl, random: bool| -> f64 {
            let spp = sectors_per_page(f) as u64;
            let cap_pages = f.layout.capacity_pages();
            let mut x = 999u64;
            let mut total = 0u64;
            let n = 2000u64;
            for i in 0..n {
                let lpn = if random {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    x % cap_pages
                } else {
                    i % cap_pages
                };
                total += f.write(lpn * spp, spp as u32).unwrap();
            }
            total as f64 / n as f64
        };
        let mut fs = mk();
        let mut fr = mk();
        let seq = run(&mut fs, false);
        let rnd = run(&mut fr, true);
        assert!(
            rnd > seq * 1.2,
            "random overwrites ({rnd:.0} ns) must cost more than sequential ({seq:.0} ns)"
        );
    }
}
