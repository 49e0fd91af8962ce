//! Operation descriptors submitted to a [`NandArray`](crate::NandArray).
//!
//! FTLs describe the physical work of a host IO (or of a merge / garbage
//! collection) as a list of [`NandOp`]s. The array executes them, applying
//! chip-level protocol checks and channel-level parallelism.

use crate::geometry::{BlockAddr, PageAddr};

/// One primitive chip operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NandOp {
    /// Read one page (array → register → bus).
    ReadPage(PageAddr),
    /// Program one page (bus → register → array). The simulator verifies
    /// erase-before-program and the chip's program-order policy.
    ProgramPage(PageAddr),
    /// Erase one block.
    EraseBlock(BlockAddr),
    /// Internal copy-back: move `src`'s content to `dst` on the *same
    /// chip* without a bus transfer. Used heavily by merges.
    CopyBack {
        /// Source page.
        src: PageAddr,
        /// Destination page (must be erased, order-checked).
        dst: PageAddr,
    },
    /// Dual-plane page program: program `a` and `b` simultaneously. The
    /// pages must be on the same chip and in different planes; the cost
    /// is one program time instead of two.
    DualPlaneProgram(PageAddr, PageAddr),
    /// Dual-plane erase: erase two blocks of different planes in the time
    /// of one erase.
    DualPlaneErase(BlockAddr, BlockAddr),
}

impl NandOp {
    /// The chip this operation executes on. Multi-address ops are
    /// validated to be same-chip at execution time; this returns the
    /// first address's chip for routing.
    pub fn chip(&self) -> u32 {
        match self {
            NandOp::ReadPage(p) | NandOp::ProgramPage(p) => p.chip,
            NandOp::EraseBlock(b) => b.chip,
            NandOp::CopyBack { src, .. } => src.chip,
            NandOp::DualPlaneProgram(a, _) => a.chip,
            NandOp::DualPlaneErase(a, _) => a.chip,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(chip: u32) -> PageAddr {
        PageAddr {
            chip,
            block: 0,
            page: 0,
        }
    }

    #[test]
    fn routing_uses_first_address() {
        assert_eq!(NandOp::ReadPage(p(3)).chip(), 3);
        assert_eq!(
            NandOp::CopyBack {
                src: p(2),
                dst: p(2)
            }
            .chip(),
            2
        );
        assert_eq!(
            NandOp::DualPlaneErase(
                BlockAddr { chip: 5, block: 0 },
                BlockAddr { chip: 5, block: 1 }
            )
            .chip(),
            5
        );
    }
}
