//! Logical address arithmetic shared by all FTLs.
//!
//! Host IOs address 512-byte **sectors** (the paper's LBAs). FTLs map
//! them to logical **pages** (the NAND page data size), logical **blocks**
//! (the NAND erase unit) and — for the low-end model — coarser **chunks**
//! and **allocation units**. This module centralizes those conversions so
//! that every FTL agrees on the geometry and the conversions are tested
//! once.

use uflip_nand::NandGeometry;

/// Bytes per logical sector (LBA unit), the universal block-device unit.
pub const SECTOR_BYTES: u64 = 512;

/// Logical layout derived from a NAND geometry and an exported capacity.
#[derive(Debug, Clone, Copy)]
pub struct LogicalLayout {
    /// Bytes per logical page (== NAND page data bytes).
    pub page_bytes: u64,
    /// Pages per logical block (== NAND pages per block).
    pub pages_per_block: u64,
    /// Exported logical capacity in bytes (≤ physical capacity; the
    /// remainder is over-provisioning).
    pub capacity_bytes: u64,
}

impl LogicalLayout {
    /// Build a layout exporting `capacity_bytes` over the given geometry.
    pub fn new(geometry: &NandGeometry, capacity_bytes: u64) -> Self {
        LogicalLayout {
            page_bytes: geometry.page_data_bytes as u64,
            pages_per_block: geometry.pages_per_block as u64,
            capacity_bytes,
        }
    }

    /// Sectors per logical page.
    pub fn sectors_per_page(&self) -> u64 {
        self.page_bytes / SECTOR_BYTES
    }

    /// Exported capacity in sectors.
    pub fn capacity_sectors(&self) -> u64 {
        self.capacity_bytes / SECTOR_BYTES
    }

    /// Exported capacity in logical pages (rounded up so a partial final
    /// page is still addressable).
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_bytes.div_ceil(self.page_bytes)
    }

    /// The inclusive-exclusive logical-page span `[first, last)` touched
    /// by a sector range. A misaligned or sub-page IO touches the pages
    /// it straddles — the mechanism behind the paper's alignment penalty
    /// (§5.2: "Unaligned IO requests result in significant performance
    /// degradation").
    pub fn page_span(&self, lba: u64, sectors: u32) -> (u64, u64) {
        let spp = self.sectors_per_page();
        let first = lba / spp;
        let last = (lba + sectors as u64).div_ceil(spp);
        (first, last)
    }

    /// Pages that are only *partially* covered by the sector range (0, 1
    /// or 2 — head and tail). Partial coverage forces read-modify-write.
    pub fn partial_pages(&self, lba: u64, sectors: u32) -> u64 {
        let spp = self.sectors_per_page();
        let head_partial = !lba.is_multiple_of(spp);
        let end = lba + sectors as u64;
        let tail_partial = !end.is_multiple_of(spp);
        let (first, last) = self.page_span(lba, sectors);
        if last - first == 1 {
            // A single page that is partially covered counts once.
            u64::from(head_partial || tail_partial)
        } else {
            u64::from(head_partial) + u64::from(tail_partial)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uflip_nand::NandGeometry;

    fn layout() -> LogicalLayout {
        // 2 KB pages, 64-page blocks, 1 MiB exported.
        LogicalLayout::new(&NandGeometry::slc_2kb(), 1 << 20)
    }

    #[test]
    fn unit_conversions() {
        let l = layout();
        assert_eq!(l.sectors_per_page(), 4);
        assert_eq!(l.capacity_sectors(), 2048);
        assert_eq!(l.capacity_pages(), 512);
    }

    #[test]
    fn aligned_span_is_exact() {
        let l = layout();
        // 32 KB at offset 0 = sectors [0, 64) = pages [0, 16)
        let (a, b) = l.page_span(0, 64);
        assert_eq!((a, b), (0, 16));
        assert_eq!(l.partial_pages(0, 64), 0);
    }

    #[test]
    fn misaligned_span_straddles_one_extra_page() {
        let l = layout();
        // 32 KB (64 sectors) shifted by one sector: pages [0, 17) — 17
        // pages instead of 16, with partial head and tail.
        let (a, b) = l.page_span(1, 64);
        assert_eq!((a, b), (0, 17));
        assert_eq!(l.partial_pages(1, 64), 2);
    }

    #[test]
    fn sub_page_io_is_one_partial_page() {
        let l = layout();
        let (a, b) = l.page_span(0, 1);
        assert_eq!((a, b), (0, 1));
        assert_eq!(l.partial_pages(0, 1), 1);
    }

    #[test]
    fn sub_page_io_straddling_boundary_is_two_partials() {
        let l = layout();
        // sectors [3, 5) straddle the page-0/page-1 boundary.
        let (a, b) = l.page_span(3, 2);
        assert_eq!((a, b), (0, 2));
        assert_eq!(l.partial_pages(3, 2), 2);
    }

    #[test]
    fn full_page_exact_io_has_no_partials() {
        let l = layout();
        // one full page, aligned: sectors [4, 8)
        assert_eq!(l.partial_pages(4, 4), 0);
    }
}
