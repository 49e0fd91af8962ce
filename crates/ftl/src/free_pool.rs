//! Pre-erased physical block pool with watermarks.
//!
//! High-end devices keep a reservoir of already-erased blocks so that
//! incoming writes can proceed at program speed. The pool explains two
//! uFLIP observations:
//!
//! * the **start-up phase** (paper §4.2, Figure 3): after an idle period
//!   the pool is full (`high_watermark`); random writes drain it with
//!   cheap appends until it hits `low_watermark`, at which point
//!   synchronous reclamation kicks in and response times start
//!   oscillating;
//! * the **pause effect** (Table 3): idle time lets background
//!   reclamation refill the pool, so paced random writes never pay for
//!   reclamation synchronously.

/// A FIFO pool of pre-erased physical block ids with watermarks.
#[derive(Debug, Clone)]
pub struct FreePool {
    free: std::collections::VecDeque<u32>,
    low_watermark: usize,
    high_watermark: usize,
}

impl FreePool {
    /// Create a pool with the given watermarks. `low <= high` is
    /// required; the pool starts empty (populate with [`push`]).
    ///
    /// [`push`]: FreePool::push
    pub fn new(low_watermark: usize, high_watermark: usize) -> Self {
        assert!(
            low_watermark <= high_watermark,
            "low watermark must not exceed high"
        );
        FreePool {
            free: std::collections::VecDeque::new(),
            low_watermark,
            high_watermark,
        }
    }

    /// Add an erased block to the pool.
    pub fn push(&mut self, block: u32) {
        self.free.push_back(block);
    }

    /// Take the oldest erased block, if any.
    pub fn pop(&mut self) -> Option<u32> {
        self.free.pop_front()
    }

    /// Number of erased blocks available.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// True if no erased blocks remain.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }

    /// Below the high watermark → background reclamation has work to do.
    pub fn wants_background_reclaim(&self) -> bool {
        self.free.len() < self.high_watermark
    }

    /// Blocks missing to reach the high watermark.
    pub fn background_deficit(&self) -> usize {
        self.high_watermark.saturating_sub(self.free.len())
    }

    /// Low watermark.
    pub fn low_watermark(&self) -> usize {
        self.low_watermark
    }

    /// High watermark.
    pub fn high_watermark(&self) -> usize {
        self.high_watermark
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut p = FreePool::new(0, 4);
        p.push(7);
        p.push(9);
        assert_eq!(p.pop(), Some(7));
        assert_eq!(p.pop(), Some(9));
        assert_eq!(p.pop(), None);
    }

    #[test]
    fn watermark_predicates() {
        let mut p = FreePool::new(1, 3);
        p.push(0);
        p.push(1);
        assert!(p.wants_background_reclaim());
        assert_eq!(p.background_deficit(), 1);
        p.push(2);
        assert!(!p.wants_background_reclaim());
        assert_eq!(p.background_deficit(), 0);
    }

    #[test]
    #[should_panic(expected = "low watermark")]
    fn inverted_watermarks_panic() {
        let _ = FreePool::new(5, 2);
    }
}
