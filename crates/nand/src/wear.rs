//! Erase-cycle wear tracking.
//!
//! Section 2.1: "Most flash chips can only support up to 10⁵ erase
//! operations per flash block for MLC chips, and up to 10⁶ in the case of
//! SLC chips. As a result, the block manager must implement some form of
//! wear-leveling… bad cells and worn-out cells are tracked."

/// Per-block erase-cycle accounting for one chip.
#[derive(Debug, Clone)]
pub struct WearState {
    cycles: Vec<u32>,
    limit: u32,
    bad: Vec<bool>,
}

impl WearState {
    /// Erase-cycle endurance of SLC chips (paper: up to 10⁶).
    pub const SLC_LIMIT: u32 = 1_000_000;
    /// Erase-cycle endurance of MLC chips (paper: up to 10⁵).
    pub const MLC_LIMIT: u32 = 100_000;

    /// Create wear state for `blocks` blocks with the given endurance
    /// `limit` (erase count at which a block becomes bad).
    pub fn new(blocks: u32, limit: u32) -> Self {
        WearState {
            cycles: vec![0; blocks as usize],
            limit,
            bad: vec![false; blocks as usize],
        }
    }

    /// Record one erase of `block`. Returns `true` if the block is still
    /// usable, `false` if this erase wore it out (it is now bad).
    pub fn record_erase(&mut self, block: u32) -> bool {
        let i = block as usize;
        self.cycles[i] = self.cycles[i].saturating_add(1);
        if self.cycles[i] >= self.limit {
            self.bad[i] = true;
        }
        !self.bad[i]
    }

    /// Whether a block is bad.
    pub fn is_bad(&self, block: u32) -> bool {
        self.bad[block as usize]
    }

    /// Erase cycles endured so far by `block`.
    pub fn cycles(&self, block: u32) -> u32 {
        self.cycles[block as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_wear_out_at_limit() {
        let mut w = WearState::new(4, 3);
        assert!(w.record_erase(0));
        assert!(w.record_erase(0));
        assert!(!w.record_erase(0), "third erase reaches the limit of 3");
        assert!(w.is_bad(0));
        assert!(!w.is_bad(1));
    }

    #[test]
    fn paper_limits() {
        assert_eq!(WearState::SLC_LIMIT, 1_000_000);
        assert_eq!(WearState::MLC_LIMIT, 100_000);
    }
}
