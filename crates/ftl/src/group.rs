//! Stripe groups: superblock addressing across chips.
//!
//! Real block managers do not manage single flash blocks in isolation —
//! they gang one (or more) blocks from every chip into a *superblock*
//! (here: stripe group) and stripe consecutive logical pages across the
//! chips. This is how "the block manager should leverage these forms of
//! parallelism" (§2.1): a 32 KB host write becomes one or two page
//! programs per chip, all overlapping on different channels.
//!
//! * The hybrid log FTL uses groups of **one block per chip** as its
//!   data/log block unit.
//! * The low-end block-map FTL uses groups of **several blocks per
//!   chip** as its allocation unit (AU); the AU size is what fixes the
//!   period of the sequential-write oscillation in Figure 4 (≈ 128 IOs
//!   of 32 KB ⇒ 4 MB AU).

use uflip_nand::{NandArray, NandGeometry, PageAddr};

/// Geometry of stripe groups over a chip array.
#[derive(Debug, Clone, Copy)]
pub struct StripeGroups {
    chips: u32,
    blocks_per_chip_group: u32,
    pages_per_block: u32,
    groups: u32,
}

impl StripeGroups {
    /// Create the group geometry: each group takes `blocks_per_chip_group`
    /// consecutive blocks on every one of `chips` chips.
    pub fn new(geometry: &NandGeometry, chips: u32, blocks_per_chip_group: u32) -> Self {
        assert!(blocks_per_chip_group >= 1);
        let groups = geometry.blocks_per_chip() / blocks_per_chip_group;
        StripeGroups {
            chips,
            blocks_per_chip_group,
            pages_per_block: geometry.pages_per_block,
            groups,
        }
    }

    /// Total number of groups in the array.
    pub fn group_count(&self) -> u32 {
        self.groups
    }

    /// Number of chips a group stripes across.
    pub fn chips(&self) -> u32 {
        self.chips
    }

    /// Chip holding striped page `j` of any group.
    pub fn chip_of(&self, j: u32) -> u32 {
        j % self.chips
    }

    /// Pages per group (across all chips).
    pub fn pages_per_group(&self) -> u32 {
        self.chips * self.blocks_per_chip_group * self.pages_per_block
    }

    /// Data bytes per group.
    pub fn group_bytes(&self, page_data_bytes: u32) -> u64 {
        self.pages_per_group() as u64 * page_data_bytes as u64
    }

    /// Physical address of striped page `j` within group `group`.
    ///
    /// Consecutive `j` round-robin across chips; within a chip, pages
    /// fill blocks densely in ascending order — satisfying the NAND
    /// sequential-programming constraint.
    pub fn page_addr(&self, group: u32, j: u32) -> PageAddr {
        debug_assert!(group < self.groups);
        debug_assert!(j < self.pages_per_group());
        let chip = j % self.chips;
        let within_chip = j / self.chips; // page index along this chip's column
        let block_in_group = within_chip / self.pages_per_block;
        let page = within_chip % self.pages_per_block;
        PageAddr {
            chip,
            block: group * self.blocks_per_chip_group + block_in_group,
            page,
        }
    }

    /// Stream the relocation of striped pages `j0 .. j0 + n` — read
    /// from the same positions of group `src` (when given) and program
    /// into group `dst` — as bulk per-chip runs.
    ///
    /// Striping sends consecutive `j` round-robin across chips, so a
    /// contiguous `j` range decomposes into one contiguous
    /// within-column page run per chip, split only at block
    /// boundaries. Reads go down as per-chip tallies (see
    /// [`stream_read_span`](Self::stream_read_span)), programs as
    /// [`NandArray::stream_program_run`] pieces; the accounting is
    /// exactly that of the per-page ops it replaces: per-channel sums
    /// and chip state are identical, only the per-page dispatch is
    /// gone. Must run inside a stream (see
    /// [`NandArray::stream_begin`]).
    pub fn stream_copy_run(
        &self,
        array: &mut NandArray,
        src: Option<u32>,
        dst: u32,
        j0: u32,
        n: u32,
    ) -> crate::Result<()> {
        if src.is_some() {
            self.stream_read_span(array, 0, j0, n)?;
        }
        self.for_chip_runs(j0, n, |chip, block_in_group, page, len| {
            let block = dst * self.blocks_per_chip_group + block_in_group;
            array.stream_program_run(chip, block, page, len)
        })
    }

    /// Stream reads of striped pages `j0 .. j0 + n` of `group` as bulk
    /// per-chip tallies (accounting identical to per-page
    /// [`NandArray::stream_op`] reads). Reads mutate no page state —
    /// only per-chip counters and channel time — so the span needs no
    /// block decomposition, just the page count each chip serves; the
    /// group argument is accordingly irrelevant to the accounting and
    /// accepted only for symmetry. Must run inside a stream.
    pub fn stream_read_span(
        &self,
        array: &mut NandArray,
        _group: u32,
        j0: u32,
        n: u32,
    ) -> crate::Result<()> {
        for t in 0..n.min(self.chips) {
            let chip = (j0 + t) % self.chips;
            array.stream_read_tally(chip, (n - t).div_ceil(self.chips));
        }
        Ok(())
    }

    /// Stream programs of striped pages `j0 .. j0 + n` of `group` as
    /// bulk per-chip runs (accounting identical to per-page
    /// [`NandArray::stream_op`] programs). Must run inside a stream.
    pub fn stream_program_span(
        &self,
        array: &mut NandArray,
        group: u32,
        j0: u32,
        n: u32,
    ) -> crate::Result<()> {
        self.for_chip_runs(j0, n, |chip, block_in_group, page, len| {
            let block = group * self.blocks_per_chip_group + block_in_group;
            array.stream_program_run(chip, block, page, len)
        })
    }

    /// Decompose striped pages `j0 .. j0 + n` into contiguous per-chip
    /// page runs, split at block boundaries, and feed each to `f` as
    /// `(chip, block_in_group, first_page, len)`.
    fn for_chip_runs(
        &self,
        j0: u32,
        n: u32,
        mut f: impl FnMut(u32, u32, u32, u32) -> uflip_nand::Result<()>,
    ) -> crate::Result<()> {
        let ppb = self.pages_per_block;
        // Walk the first min(n, chips) striped pages: each lands on a
        // distinct chip and anchors that chip's whole run, so short
        // spans cost O(n), not O(chips). (Chip visit order follows the
        // stripe, not chip id — irrelevant, stream accounting commutes.)
        for t in 0..n.min(self.chips) {
            let j = j0 + t;
            let chip = j % self.chips;
            let cnt = (n - t).div_ceil(self.chips);
            let mut w = j / self.chips;
            let mut left = cnt;
            while left > 0 {
                let len = left.min(ppb - w % ppb);
                f(chip, w / ppb, w % ppb, len)?;
                w += len;
                left -= len;
            }
        }
        Ok(())
    }

    /// All flash blocks of a group, as (chip, block) pairs.
    pub fn blocks(&self, group: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let base = group * self.blocks_per_chip_group;
        (0..self.chips)
            .flat_map(move |chip| (0..self.blocks_per_chip_group).map(move |b| (chip, base + b)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uflip_nand::NandGeometry;

    fn groups() -> StripeGroups {
        // tiny: 8 pages/block, 16 blocks/chip; 2 chips; 2 blocks per
        // chip-group → group = 2 chips × 2 blocks × 8 pages = 32 pages.
        StripeGroups::new(&NandGeometry::tiny(), 2, 2)
    }

    #[test]
    fn group_counting() {
        let g = groups();
        assert_eq!(g.group_count(), 8);
        assert_eq!(g.pages_per_group(), 32);
        assert_eq!(g.group_bytes(512), 16 * 1024);
    }

    #[test]
    fn consecutive_pages_alternate_chips() {
        let g = groups();
        let a = g.page_addr(0, 0);
        let b = g.page_addr(0, 1);
        assert_eq!(a.chip, 0);
        assert_eq!(b.chip, 1);
        assert_eq!((a.block, a.page), (0, 0));
        assert_eq!((b.block, b.page), (0, 0));
    }

    #[test]
    fn per_chip_pages_are_dense_ascending() {
        let g = groups();
        let mut last: Vec<Option<(u32, u32)>> = vec![None; 2];
        for j in 0..g.pages_per_group() {
            let p = g.page_addr(0, j);
            if let Some((lb, lp)) = last[p.chip as usize] {
                let ok = (p.block == lb && p.page == lp + 1) || (p.block == lb + 1 && p.page == 0);
                assert!(
                    ok,
                    "page order on chip {} regressed: {lb}/{lp} -> {}/{}",
                    p.chip, p.block, p.page
                );
            } else {
                assert_eq!((p.block, p.page), (0, 0));
            }
            last[p.chip as usize] = Some((p.block, p.page));
        }
    }

    #[test]
    fn groups_use_disjoint_blocks() {
        let g = groups();
        let mut seen = std::collections::HashSet::new();
        for group in 0..g.group_count() {
            for (chip, block) in g.blocks(group) {
                assert!(seen.insert((chip, block)), "block reused across groups");
            }
        }
        assert_eq!(seen.len(), 2 * 16);
    }

    #[test]
    fn all_pages_of_group_map_into_its_blocks() {
        let g = groups();
        let blocks: std::collections::HashSet<(u32, u32)> = g.blocks(3).collect();
        for j in 0..g.pages_per_group() {
            let p = g.page_addr(3, j);
            assert!(blocks.contains(&(p.chip, p.block)));
        }
    }
}
