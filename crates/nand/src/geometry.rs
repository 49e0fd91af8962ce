//! Physical geometry of NAND chips and addressing types.
//!
//! Terminology follows Section 2.1 of the paper: a chip contains planes,
//! planes contain flash blocks, blocks contain flash pages (typically 64),
//! and a page holds a data area (typically 2 KB) plus a small out-of-band
//! (OOB) area (typically 64 B) for ECC and bookkeeping.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Geometry of one NAND chip and of the array that contains it.
///
/// All derived quantities (`block_bytes`, `chip_bytes`, …) are computed
/// from the five primitive fields so profiles only specify primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NandGeometry {
    /// Bytes in the data area of one flash page (e.g. 2048 or 4096).
    pub page_data_bytes: u32,
    /// Bytes in the out-of-band area of one flash page (e.g. 64).
    pub page_oob_bytes: u32,
    /// Flash pages per flash block (typically 64, per the paper).
    pub pages_per_block: u32,
    /// Flash blocks per plane.
    pub blocks_per_plane: u32,
    /// Planes per chip (1, or 2 with even/odd block interleaving).
    pub planes_per_chip: u32,
}

impl NandGeometry {
    /// Classic 2009-era SLC geometry: 2 KB pages + 64 B OOB, 64-page
    /// (128 KB) blocks, two planes.
    pub const fn slc_2kb() -> Self {
        NandGeometry {
            page_data_bytes: 2048,
            page_oob_bytes: 64,
            pages_per_block: 64,
            blocks_per_plane: 2048,
            planes_per_chip: 2,
        }
    }

    /// 2009-era MLC geometry: 4 KB pages + 128 B OOB, 128-page (512 KB)
    /// blocks, two planes.
    pub const fn mlc_4kb() -> Self {
        NandGeometry {
            page_data_bytes: 4096,
            page_oob_bytes: 128,
            pages_per_block: 128,
            blocks_per_plane: 2048,
            planes_per_chip: 2,
        }
    }

    /// Small geometry for fast unit tests: 512 B pages, 8-page blocks,
    /// 16 blocks per plane, single plane.
    pub const fn tiny() -> Self {
        NandGeometry {
            page_data_bytes: 512,
            page_oob_bytes: 16,
            pages_per_block: 8,
            blocks_per_plane: 16,
            planes_per_chip: 1,
        }
    }

    /// Flash blocks per chip (all planes).
    pub const fn blocks_per_chip(&self) -> u32 {
        self.blocks_per_plane * self.planes_per_chip
    }

    /// Data bytes per flash block.
    pub const fn block_bytes(&self) -> u64 {
        self.page_data_bytes as u64 * self.pages_per_block as u64
    }

    /// Data bytes per chip.
    pub const fn chip_bytes(&self) -> u64 {
        self.block_bytes() * self.blocks_per_chip() as u64
    }

    /// Pages per chip.
    pub const fn pages_per_chip(&self) -> u64 {
        self.pages_per_block as u64 * self.blocks_per_chip() as u64
    }

    /// Which plane a block belongs to. Even blocks are on plane 0, odd on
    /// plane 1 (and so on for hypothetical >2-plane chips), matching the
    /// paper's "one for even blocks, the other for odd blocks".
    pub const fn plane_of_block(&self, block: u32) -> u32 {
        block % self.planes_per_chip
    }
}

/// Address of a flash block on a specific chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockAddr {
    /// Chip index within the array.
    pub chip: u32,
    /// Block index within the chip (across all planes; the plane is
    /// derived as `block % planes_per_chip`).
    pub block: u32,
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}b{}", self.chip, self.block)
    }
}

/// Address of a flash page on a specific chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageAddr {
    /// Chip index within the array.
    pub chip: u32,
    /// Block index within the chip.
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

impl PageAddr {
    /// The block containing this page.
    pub const fn block_addr(&self) -> BlockAddr {
        BlockAddr {
            chip: self.chip,
            block: self.block,
        }
    }

    /// Flat page index within its chip, used for sparse data maps.
    pub const fn flat_index(&self, geometry: &NandGeometry) -> u64 {
        self.block as u64 * geometry.pages_per_block as u64 + self.page as u64
    }
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}b{}p{}", self.chip, self.block, self.page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities_slc() {
        let g = NandGeometry::slc_2kb();
        assert_eq!(g.block_bytes(), 128 * 1024, "64 x 2KB pages = 128KB block");
        assert_eq!(g.blocks_per_chip(), 4096);
        assert_eq!(
            g.chip_bytes(),
            512 * 1024 * 1024,
            "4096 x 128KB = 512MB chip"
        );
        assert_eq!(g.pages_per_chip(), 4096 * 64);
    }

    #[test]
    fn derived_quantities_mlc() {
        let g = NandGeometry::mlc_4kb();
        assert_eq!(g.block_bytes(), 512 * 1024);
        assert_eq!(g.chip_bytes(), 2 * 1024 * 1024 * 1024u64, "2 GB MLC chip");
    }

    #[test]
    fn plane_assignment_is_even_odd() {
        let g = NandGeometry::slc_2kb();
        assert_eq!(g.plane_of_block(0), 0);
        assert_eq!(g.plane_of_block(1), 1);
        assert_eq!(g.plane_of_block(2), 0);
        assert_eq!(g.plane_of_block(4095), 1);
    }

    #[test]
    fn single_plane_chip_maps_all_blocks_to_plane_zero() {
        let g = NandGeometry::tiny();
        for b in 0..g.blocks_per_chip() {
            assert_eq!(g.plane_of_block(b), 0);
        }
    }

    #[test]
    fn flat_index_is_dense_and_unique() {
        let g = NandGeometry::tiny();
        let mut seen = std::collections::HashSet::new();
        for block in 0..g.blocks_per_chip() {
            for page in 0..g.pages_per_block {
                let addr = PageAddr {
                    chip: 0,
                    block,
                    page,
                };
                assert!(seen.insert(addr.flat_index(&g)), "duplicate flat index");
            }
        }
        assert_eq!(seen.len() as u64, g.pages_per_chip());
    }

    #[test]
    fn display_formats() {
        let p = PageAddr {
            chip: 1,
            block: 2,
            page: 3,
        };
        assert_eq!(p.to_string(), "c1b2p3");
        assert_eq!(p.block_addr().to_string(), "c1b2");
    }
}
