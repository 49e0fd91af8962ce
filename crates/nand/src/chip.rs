//! Single NAND chip simulator: state, protocol checks, timing.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use crate::error::NandError;
use crate::geometry::{BlockAddr, NandGeometry, PageAddr};
use crate::stats::NandStats;
use crate::timing::NandTiming;
use crate::wear::WearState;
use crate::Result;

/// State of one flash page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PageState {
    /// All cells hold 1 (erased); the page may be programmed.
    Erased,
    /// The page has been programmed since the last erase.
    Programmed,
}

/// In-block page programming order enforced by the chip.
///
/// Section 2.1: writes are performed "sequentially within a flash block in
/// order to minimize write errors resulting from the electrical side
/// effects of writing a series of cells". SLC chips historically tolerated
/// out-of-order partial-page programming; large-block MLC chips require
/// strictly ascending (and usually dense) page order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProgramOrder {
    /// Any erased page may be programmed in any order (small SLC chips).
    Any,
    /// Pages must be programmed in ascending order, gaps allowed.
    Ascending,
    /// Pages must be programmed densely: 0, 1, 2, … (large-block MLC).
    Dense,
}

/// Static configuration of a chip.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ChipConfig {
    /// Physical geometry.
    pub geometry: NandGeometry,
    /// Operation latencies.
    pub timing: NandTiming,
    /// Programming-order policy.
    pub program_order: ProgramOrder,
    /// Erase endurance limit per block.
    pub wear_limit: u32,
    /// When `true`, programmed data is retained in a sparse map and reads
    /// return it; when `false` only page *state* is tracked (fast mode
    /// for benchmarks).
    pub retain_data: bool,
}

impl ChipConfig {
    /// SLC chip with classic 2 KB-page geometry.
    pub fn slc() -> Self {
        ChipConfig {
            geometry: NandGeometry::slc_2kb(),
            timing: NandTiming::slc(),
            program_order: ProgramOrder::Ascending,
            wear_limit: WearState::SLC_LIMIT,
            retain_data: false,
        }
    }

    /// MLC chip with 4 KB-page geometry.
    pub fn mlc() -> Self {
        ChipConfig {
            geometry: NandGeometry::mlc_4kb(),
            timing: NandTiming::mlc(),
            program_order: ProgramOrder::Dense,
            wear_limit: WearState::MLC_LIMIT,
            retain_data: false,
        }
    }

    /// Tiny chip for unit tests, with data retention on.
    pub fn tiny() -> Self {
        ChipConfig {
            geometry: NandGeometry::tiny(),
            timing: NandTiming::slc(),
            program_order: ProgramOrder::Dense,
            wear_limit: WearState::SLC_LIMIT,
            retain_data: true,
        }
    }
}

/// One NAND chip: page states, wear, optional retained data, counters.
#[derive(Debug, Clone)]
pub struct Chip {
    config: ChipConfig,
    /// Page state, indexed by flat page index (block * pages_per_block + page).
    state: Vec<PageState>,
    /// Next expected program page per block (for Ascending/Dense checks).
    next_page: Vec<u32>,
    wear: WearState,
    stats: NandStats,
    /// Retained page data (only when `retain_data`).
    data: HashMap<u64, Box<[u8]>>,
    /// Per-op latencies precomputed from `config.timing` for the fixed
    /// page size — the hot path runs millions of ops per simulated run.
    read_total_ns: u64,
    program_total_ns: u64,
    erase_total_ns: u64,
    copy_back_total_ns: u64,
}

impl Chip {
    /// Create a chip in the fully-erased factory state.
    pub fn new(config: ChipConfig) -> Self {
        let pages = config.geometry.pages_per_chip() as usize;
        let blocks = config.geometry.blocks_per_chip();
        let data_bytes = config.geometry.page_data_bytes;
        Chip {
            state: vec![PageState::Erased; pages],
            next_page: vec![0; blocks as usize],
            wear: WearState::new(blocks, config.wear_limit),
            stats: NandStats::default(),
            data: HashMap::new(),
            read_total_ns: config.timing.page_read_total_ns(data_bytes),
            program_total_ns: config.timing.page_program_total_ns(data_bytes),
            erase_total_ns: config.timing.erase_total_ns(),
            copy_back_total_ns: config.timing.copy_back_total_ns(),
            config,
        }
    }

    /// Chip configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// Chip geometry (shorthand).
    pub fn geometry(&self) -> &NandGeometry {
        &self.config.geometry
    }

    /// Operation counters.
    pub fn stats(&self) -> &NandStats {
        &self.stats
    }

    /// Wear state (per-block erase cycles, bad blocks).
    pub fn wear(&self) -> &WearState {
        &self.wear
    }

    #[inline]
    fn check_block(&self, block: u32) -> Result<()> {
        let blocks = self.config.geometry.blocks_per_chip();
        if block >= blocks {
            return Err(NandError::BlockOutOfRange { block, blocks });
        }
        Ok(())
    }

    #[inline]
    fn check_page(&self, addr: PageAddr) -> Result<()> {
        self.check_block(addr.block)?;
        let pages = self.config.geometry.pages_per_block;
        if addr.page >= pages {
            return Err(NandError::PageOutOfRange {
                page: addr.page,
                pages,
            });
        }
        Ok(())
    }

    #[inline]
    fn flat(&self, addr: PageAddr) -> usize {
        addr.flat_index(&self.config.geometry) as usize
    }

    /// State of one page.
    #[cfg(test)]
    fn page_state(&self, addr: PageAddr) -> Result<PageState> {
        self.check_page(addr)?;
        Ok(self.state[self.flat(addr)])
    }

    /// Read a page. Returns the busy time; when data retention is on and
    /// `out` is provided, copies the stored bytes (erased pages read as
    /// all-0xFF, like real NAND).
    #[inline]
    pub fn read_page(&mut self, addr: PageAddr, out: Option<&mut Vec<u8>>) -> Result<u64> {
        self.check_page(addr)?;
        if self.wear.is_bad(addr.block) {
            return Err(NandError::BadBlock(addr.block_addr()));
        }
        if let Some(buf) = out {
            let size = self.config.geometry.page_data_bytes as usize;
            buf.clear();
            match self.data.get(&(self.flat(addr) as u64)) {
                Some(bytes) => buf.extend_from_slice(bytes),
                None => buf.resize(size, 0xFF),
            }
        }
        let ns = self.read_total_ns;
        self.stats.page_reads += 1;
        self.stats.busy_ns += ns;
        Ok(ns)
    }

    #[inline]
    fn check_programmable(&self, addr: PageAddr) -> Result<()> {
        self.check_page(addr)?;
        if self.wear.is_bad(addr.block) {
            return Err(NandError::BadBlock(addr.block_addr()));
        }
        if self.state[self.flat(addr)] == PageState::Programmed {
            return Err(NandError::ProgramWithoutErase(addr));
        }
        let next = self.next_page[addr.block as usize];
        match self.config.program_order {
            ProgramOrder::Any => {}
            ProgramOrder::Ascending => {
                if addr.page < next {
                    return Err(NandError::ProgramOrderViolation {
                        addr,
                        expected_next: next,
                    });
                }
            }
            ProgramOrder::Dense => {
                if addr.page != next {
                    return Err(NandError::ProgramOrderViolation {
                        addr,
                        expected_next: next,
                    });
                }
            }
        }
        Ok(())
    }

    #[inline]
    fn commit_program(&mut self, addr: PageAddr, data: Option<&[u8]>) -> Result<()> {
        if let Some(bytes) = data {
            let want = self.config.geometry.page_data_bytes as usize;
            if bytes.len() != want {
                return Err(NandError::DataSizeMismatch {
                    got: bytes.len(),
                    want,
                });
            }
            if self.config.retain_data {
                self.data.insert(self.flat(addr) as u64, bytes.into());
            }
        }
        let flat = self.flat(addr);
        self.state[flat] = PageState::Programmed;
        let next = &mut self.next_page[addr.block as usize];
        *next = (*next).max(addr.page + 1);
        Ok(())
    }

    /// Program a page. `data` is optional in fast (non-retaining) mode.
    #[inline]
    pub fn program_page(&mut self, addr: PageAddr, data: Option<&[u8]>) -> Result<u64> {
        self.check_programmable(addr)?;
        self.commit_program(addr, data)?;
        let ns = self.program_total_ns;
        self.stats.page_programs += 1;
        self.stats.busy_ns += ns;
        Ok(ns)
    }

    /// Account `n` page reads at scattered, pre-validated addresses.
    ///
    /// Same counters and total busy time `n × tR` as `n`
    /// [`read_page`](Self::read_page) calls, but no address checks —
    /// the caller vouches that every address was obtained from a live
    /// mapping (an FTL log or data map), which it must for the read to
    /// mean anything.
    /// Returns the total busy time.
    pub fn read_tally(&mut self, n: u32) -> u64 {
        let ns = self.read_total_ns * u64::from(n);
        self.stats.page_reads += u64::from(n);
        self.stats.busy_ns += ns;
        ns
    }

    /// Program `n` consecutive pages of one block, starting at `first`.
    ///
    /// Exactly equivalent to `n` ascending
    /// [`program_page`](Self::program_page) calls with no data: same
    /// checks, same counters, same total busy time `n × tPROG`. The
    /// bulk state update is only taken when `first` is at or past the
    /// block's high-water mark (so no page in the run can already be
    /// programmed); any other shape — including [`ProgramOrder::Any`]
    /// chips programming below the mark — falls back to the per-page
    /// loop, keeping mid-run error semantics identical. Returns the
    /// total busy time.
    pub fn program_run(&mut self, block: u32, first: u32, n: u32) -> Result<u64> {
        if n == 0 {
            return Ok(0);
        }
        self.check_page(PageAddr {
            chip: 0,
            block,
            page: first + n - 1,
        })?;
        if self.wear.is_bad(block) {
            return Err(NandError::BadBlock(BlockAddr { chip: 0, block }));
        }
        if matches!(self.config.program_order, ProgramOrder::Dense)
            && first != self.next_page[block as usize]
        {
            return Err(NandError::ProgramOrderViolation {
                addr: PageAddr {
                    chip: 0,
                    block,
                    page: first,
                },
                expected_next: self.next_page[block as usize],
            });
        }
        if first < self.next_page[block as usize] {
            // Below the high-water mark a page may already be
            // programmed: replicate the per-page path exactly.
            let mut total = 0;
            for p in first..first + n {
                total += self.program_page(
                    PageAddr {
                        chip: 0,
                        block,
                        page: p,
                    },
                    None,
                )?;
            }
            return Ok(total);
        }
        let base = block as usize * self.config.geometry.pages_per_block as usize;
        self.state[base + first as usize..base + (first + n) as usize].fill(PageState::Programmed);
        self.next_page[block as usize] = first + n;
        let ns = self.program_total_ns * u64::from(n);
        self.stats.page_programs += u64::from(n);
        self.stats.busy_ns += ns;
        Ok(ns)
    }

    /// Erase a block: all its pages return to [`PageState::Erased`], the
    /// wear counter increments, and the block may become bad.
    pub fn erase_block(&mut self, block: u32) -> Result<u64> {
        self.check_block(block)?;
        if self.wear.is_bad(block) {
            return Err(NandError::BadBlock(BlockAddr { chip: 0, block }));
        }
        let ppb = self.config.geometry.pages_per_block;
        let base = block as usize * ppb as usize;
        self.state[base..base + ppb as usize].fill(PageState::Erased);
        if self.config.retain_data {
            for p in 0..ppb as u64 {
                self.data.remove(&(base as u64 + p));
            }
        }
        self.next_page[block as usize] = 0;
        self.wear.record_erase(block);
        let ns = self.erase_total_ns;
        self.stats.block_erases += 1;
        self.stats.busy_ns += ns;
        Ok(ns)
    }

    /// Copy-back: move `src` page content to `dst` without a bus
    /// transfer. Both pages must be on this chip; `dst` must satisfy the
    /// usual program checks.
    pub fn copy_back(&mut self, src: PageAddr, dst: PageAddr) -> Result<u64> {
        self.check_page(src)?;
        self.check_programmable(dst)?;
        let moved = self.data.get(&(self.flat(src) as u64)).cloned();
        self.commit_program(dst, moved.as_deref())?;
        if self.config.retain_data {
            if let Some(bytes) = moved {
                self.data.insert(self.flat(dst) as u64, bytes);
            }
        }
        let ns = self.copy_back_total_ns;
        self.stats.copy_backs += 1;
        self.stats.busy_ns += ns;
        Ok(ns)
    }

    /// Dual-plane program: both pages program in the time of one. Pages
    /// must lie in different planes of this chip.
    pub fn dual_plane_program(
        &mut self,
        a: PageAddr,
        b: PageAddr,
        data_a: Option<&[u8]>,
        data_b: Option<&[u8]>,
    ) -> Result<u64> {
        let g = self.config.geometry;
        if g.plane_of_block(a.block) == g.plane_of_block(b.block) {
            return Err(NandError::PlaneConflict {
                a: a.block_addr(),
                b: b.block_addr(),
            });
        }
        self.check_programmable(a)?;
        self.check_programmable(b)?;
        self.commit_program(a, data_a)?;
        self.commit_program(b, data_b)?;
        // One array program time, two bus transfers.
        let ns = self.config.timing.page_program_total_ns(g.page_data_bytes)
            + g.page_data_bytes as u64 * self.config.timing.bus_ns_per_byte;
        self.stats.dual_plane_programs += 1;
        self.stats.busy_ns += ns;
        Ok(ns)
    }

    /// Dual-plane erase: two blocks of different planes erase in the time
    /// of one.
    pub fn dual_plane_erase(&mut self, a: u32, b: u32) -> Result<u64> {
        let g = self.config.geometry;
        self.check_block(a)?;
        self.check_block(b)?;
        if g.plane_of_block(a) == g.plane_of_block(b) {
            return Err(NandError::PlaneConflict {
                a: BlockAddr { chip: 0, block: a },
                b: BlockAddr { chip: 0, block: b },
            });
        }
        // Reuse erase_block for state/wear, then fix up the accounting so
        // the pair costs one erase time.
        let single = self.erase_block(a)?;
        self.erase_block(b)?;
        self.stats.block_erases -= 2;
        self.stats.busy_ns -= 2 * single;
        self.stats.dual_plane_erases += 1;
        self.stats.busy_ns += single;
        Ok(single)
    }

    /// Number of erased (programmable) pages remaining in a block.
    pub fn free_pages_in_block(&self, block: u32) -> Result<u32> {
        self.check_block(block)?;
        match self.config.program_order {
            ProgramOrder::Dense | ProgramOrder::Ascending => {
                Ok(self.config.geometry.pages_per_block - self.next_page[block as usize])
            }
            ProgramOrder::Any => {
                let ppb = self.config.geometry.pages_per_block as usize;
                let base = block as usize * ppb;
                Ok(self.state[base..base + ppb]
                    .iter()
                    .filter(|&&s| s == PageState::Erased)
                    .count() as u32)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(block: u32, page: u32) -> PageAddr {
        PageAddr {
            chip: 0,
            block,
            page,
        }
    }

    fn tiny_chip() -> Chip {
        Chip::new(ChipConfig::tiny())
    }

    #[test]
    fn fresh_chip_is_fully_erased() {
        let c = tiny_chip();
        let g = *c.geometry();
        for b in 0..g.blocks_per_chip() {
            for p in 0..g.pages_per_block {
                assert_eq!(c.page_state(addr(b, p)).unwrap(), PageState::Erased);
            }
            assert_eq!(c.free_pages_in_block(b).unwrap(), g.pages_per_block);
        }
    }

    #[test]
    fn program_then_read_round_trips_data() {
        let mut c = tiny_chip();
        let page = vec![0xAB; 512];
        c.program_page(addr(1, 0), Some(&page)).unwrap();
        let mut out = Vec::new();
        c.read_page(addr(1, 0), Some(&mut out)).unwrap();
        assert_eq!(out, page);
    }

    #[test]
    fn erased_pages_read_as_ff() {
        let mut c = tiny_chip();
        let mut out = Vec::new();
        c.read_page(addr(0, 0), Some(&mut out)).unwrap();
        assert!(out.iter().all(|&b| b == 0xFF));
        assert_eq!(out.len(), 512);
    }

    #[test]
    fn program_without_erase_is_rejected() {
        let mut c = tiny_chip();
        c.program_page(addr(0, 0), None).unwrap();
        assert_eq!(
            c.program_page(addr(0, 0), None),
            Err(NandError::ProgramWithoutErase(addr(0, 0)))
        );
    }

    #[test]
    fn dense_order_requires_consecutive_pages() {
        let mut c = tiny_chip();
        c.program_page(addr(0, 0), None).unwrap();
        let err = c.program_page(addr(0, 2), None).unwrap_err();
        assert!(matches!(
            err,
            NandError::ProgramOrderViolation {
                expected_next: 1,
                ..
            }
        ));
    }

    #[test]
    fn ascending_order_allows_gaps_but_not_regression() {
        let mut cfg = ChipConfig::tiny();
        cfg.program_order = ProgramOrder::Ascending;
        let mut c = Chip::new(cfg);
        c.program_page(addr(0, 0), None).unwrap();
        c.program_page(addr(0, 3), None).unwrap();
        let err = c.program_page(addr(0, 1), None).unwrap_err();
        assert!(matches!(
            err,
            NandError::ProgramOrderViolation {
                expected_next: 4,
                ..
            }
        ));
    }

    #[test]
    fn any_order_allows_out_of_order_programming() {
        let mut cfg = ChipConfig::tiny();
        cfg.program_order = ProgramOrder::Any;
        let mut c = Chip::new(cfg);
        c.program_page(addr(0, 5), None).unwrap();
        c.program_page(addr(0, 1), None).unwrap();
        assert_eq!(c.free_pages_in_block(0).unwrap(), 6);
    }

    #[test]
    fn erase_resets_block_and_allows_reprogramming() {
        let mut c = tiny_chip();
        for p in 0..8 {
            c.program_page(addr(0, p), None).unwrap();
        }
        assert_eq!(c.free_pages_in_block(0).unwrap(), 0);
        c.erase_block(0).unwrap();
        assert_eq!(c.free_pages_in_block(0).unwrap(), 8);
        c.program_page(addr(0, 0), None).unwrap();
        assert_eq!(c.wear().cycles(0), 1);
    }

    #[test]
    fn erase_drops_retained_data() {
        let mut c = tiny_chip();
        c.program_page(addr(2, 0), Some(&vec![1u8; 512])).unwrap();
        c.erase_block(2).unwrap();
        let mut out = Vec::new();
        c.read_page(addr(2, 0), Some(&mut out)).unwrap();
        assert!(
            out.iter().all(|&b| b == 0xFF),
            "data must be gone after erase"
        );
    }

    #[test]
    fn copy_back_moves_data_without_bus_cost() {
        let mut c = tiny_chip();
        let payload = vec![0x3C; 512];
        c.program_page(addr(0, 0), Some(&payload)).unwrap();
        let cb_ns = c.copy_back(addr(0, 0), addr(1, 0)).unwrap();
        let mut out = Vec::new();
        c.read_page(addr(1, 0), Some(&mut out)).unwrap();
        assert_eq!(out, payload);
        let t = c.config().timing;
        assert_eq!(cb_ns, t.copy_back_total_ns());
        assert_eq!(c.stats().copy_backs, 1);
    }

    #[test]
    fn wear_limit_turns_block_bad() {
        let mut cfg = ChipConfig::tiny();
        cfg.wear_limit = 2;
        let mut c = Chip::new(cfg);
        c.erase_block(0).unwrap();
        c.erase_block(0).unwrap();
        assert!(c.wear().is_bad(0));
        assert_eq!(
            c.erase_block(0),
            Err(NandError::BadBlock(BlockAddr { chip: 0, block: 0 }))
        );
        assert!(matches!(
            c.program_page(addr(0, 0), None),
            Err(NandError::BadBlock(_))
        ));
    }

    #[test]
    fn dual_plane_program_requires_distinct_planes() {
        let mut cfg = ChipConfig::tiny();
        cfg.geometry.planes_per_chip = 2;
        cfg.geometry.blocks_per_plane = 8;
        let mut c = Chip::new(cfg);
        // blocks 0 and 2 are both plane 0
        let err = c
            .dual_plane_program(addr(0, 0), addr(2, 0), None, None)
            .unwrap_err();
        assert!(matches!(err, NandError::PlaneConflict { .. }));
        // blocks 0 (plane 0) and 1 (plane 1) are fine
        let ns = c
            .dual_plane_program(addr(0, 0), addr(1, 0), None, None)
            .unwrap();
        let t = c.config().timing;
        let single = t.page_program_total_ns(c.geometry().page_data_bytes);
        assert!(
            ns < 2 * single,
            "dual-plane must be cheaper than two programs"
        );
        assert_eq!(c.stats().dual_plane_programs, 1);
        assert_eq!(c.page_state(addr(0, 0)).unwrap(), PageState::Programmed);
        assert_eq!(c.page_state(addr(1, 0)).unwrap(), PageState::Programmed);
    }

    #[test]
    fn dual_plane_erase_costs_one_erase() {
        let mut cfg = ChipConfig::tiny();
        cfg.geometry.planes_per_chip = 2;
        cfg.geometry.blocks_per_plane = 8;
        let mut c = Chip::new(cfg);
        let before = c.stats().busy_ns;
        let ns = c.dual_plane_erase(0, 1).unwrap();
        assert_eq!(ns, c.config().timing.erase_total_ns());
        assert_eq!(c.stats().busy_ns - before, ns);
        assert_eq!(c.stats().dual_plane_erases, 1);
        assert_eq!(c.stats().block_erases, 0);
        assert_eq!(c.wear().cycles(0), 1);
        assert_eq!(c.wear().cycles(1), 1);
    }

    #[test]
    fn out_of_range_addresses_are_rejected() {
        let mut c = tiny_chip();
        assert!(matches!(
            c.read_page(addr(999, 0), None),
            Err(NandError::BlockOutOfRange { .. })
        ));
        assert!(matches!(
            c.program_page(addr(0, 999), None),
            Err(NandError::PageOutOfRange { .. })
        ));
    }

    #[test]
    fn stats_accumulate_busy_time() {
        let mut c = tiny_chip();
        let mut total = 0;
        total += c.program_page(addr(0, 0), None).unwrap();
        total += c.read_page(addr(0, 0), None).unwrap();
        total += c.erase_block(0).unwrap();
        assert_eq!(c.stats().busy_ns, total);
        assert_eq!(c.stats().page_programs, 1);
        assert_eq!(c.stats().page_reads, 1);
        assert_eq!(c.stats().block_erases, 1);
    }

    #[test]
    fn data_size_mismatch_rejected() {
        let mut c = tiny_chip();
        let err = c.program_page(addr(0, 0), Some(&[0u8; 3])).unwrap_err();
        assert_eq!(err, NandError::DataSizeMismatch { got: 3, want: 512 });
    }
}
