//! Controller RAM write cache.
//!
//! §2.2: "Assuming a flash device contains enough RAM and autonomous
//! power, the flash translation layer might be able to cache and destage
//! both data and bookkeeping information." (Figure 1 shows the Memoright
//! SSD's 16 MB of RAM and its condenser.)
//!
//! The cache tracks *dirty logical pages* in LRU order. Its two effects
//! on uFLIP patterns:
//!
//! * **rewrite absorption (dedup)** — a write to a page that is already
//!   dirty just refreshes RAM; this is why the Samsung SSD's in-place
//!   pattern (Incr = 0) runs at ×0.6 the cost of sequential writes
//!   (Table 3);
//! * **reordering** — destage emits evicted pages sorted by logical
//!   page number, so a *reverse* sequential stream (Incr = −1) leaves
//!   the cache as an ascending stream and merges cheaply.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-shift hasher for the `u64` page keys: the dirty map sits on
/// every cached read's path, where the default SipHash is measurable
/// overhead. Fibonacci multiply + fold spreads dense and strided page
/// numbers well; DoS resistance is irrelevant for simulated page keys.
#[derive(Default)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, x: u64) {
        let h = (x ^ self.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// [`std::hash::BuildHasher`] plugging [`PageHasher`] into a `HashMap`.
pub type PageHashBuilder = BuildHasherDefault<PageHasher>;

/// Configuration of a [`WriteCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WriteCacheConfig {
    /// Capacity in logical pages. 0 disables the cache.
    pub capacity_pages: usize,
    /// Absorb rewrites of already-dirty pages (no flash work).
    pub dedup: bool,
    /// How many pages to evict per destage round once the cache is full.
    /// Larger batches give the FTL sorted runs to merge cheaply.
    pub destage_batch_pages: usize,
}

impl WriteCacheConfig {
    /// A disabled cache.
    pub const fn disabled() -> Self {
        WriteCacheConfig {
            capacity_pages: 0,
            dedup: false,
            destage_batch_pages: 0,
        }
    }

    /// True if the cache holds no pages at all.
    pub const fn is_disabled(&self) -> bool {
        self.capacity_pages == 0
    }
}

/// Outcome of admitting one page into the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// The page was already dirty and the write was absorbed in RAM.
    Absorbed,
    /// The page is newly dirty; it now occupies cache space.
    Cached,
}

/// LRU dirty-page cache keyed by logical page number.
#[derive(Debug, Clone)]
pub struct WriteCache {
    cfg: WriteCacheConfig,
    /// LRU queue of (page, generation) entries (front = oldest). May
    /// contain stale entries for refreshed pages; `dirty` is
    /// authoritative.
    lru: VecDeque<(u64, u64)>,
    /// Dirty pages → generation stamp of their most recent write.
    dirty: HashMap<u64, u64, PageHashBuilder>,
    generation: u64,
}

impl WriteCache {
    /// New empty cache.
    pub fn new(cfg: WriteCacheConfig) -> Self {
        WriteCache {
            cfg,
            lru: VecDeque::new(),
            dirty: HashMap::default(),
            generation: 0,
        }
    }

    /// Configuration.
    pub fn config(&self) -> &WriteCacheConfig {
        &self.cfg
    }

    /// Number of dirty pages held.
    pub fn dirty_pages(&self) -> usize {
        self.dirty.len()
    }

    /// Admit a write to logical page `lpn`.
    pub fn admit(&mut self, lpn: u64) -> Admit {
        self.generation += 1;
        let absorbed = self.cfg.dedup && self.dirty.contains_key(&lpn);
        self.dirty.insert(lpn, self.generation);
        self.lru.push_back((lpn, self.generation));
        if absorbed {
            Admit::Absorbed
        } else {
            Admit::Cached
        }
    }

    /// Whether the cache is over capacity and must destage.
    pub fn needs_destage(&self) -> bool {
        self.dirty.len() > self.cfg.capacity_pages
    }

    /// Whether a page is currently dirty in RAM (reads of dirty pages
    /// are served from the cache at no flash cost).
    pub fn is_dirty(&self, lpn: u64) -> bool {
        self.dirty.contains_key(&lpn)
    }

    /// Evict up to `destage_batch_pages` of the oldest dirty pages,
    /// returned **sorted by logical page number** (the controller
    /// destages in address order, which is what turns reverse streams
    /// into ascending merges).
    pub fn destage(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        let batch = self.cfg.destage_batch_pages.max(1);
        while out.len() < batch {
            let Some((lpn, gen)) = self.lru.pop_front() else {
                break;
            };
            // Skip entries superseded by a later write to the same page.
            if self.dirty.get(&lpn) == Some(&gen) {
                self.dirty.remove(&lpn);
                out.push(lpn);
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize, dedup: bool) -> WriteCache {
        WriteCache::new(WriteCacheConfig {
            capacity_pages: capacity,
            dedup,
            destage_batch_pages: 4,
        })
    }

    #[test]
    fn rewrites_are_absorbed_with_dedup() {
        let mut c = cache(8, true);
        assert_eq!(c.admit(5), Admit::Cached);
        assert_eq!(c.admit(5), Admit::Absorbed);
        assert_eq!(c.dirty_pages(), 1, "one dirty page despite two writes");
    }

    #[test]
    fn rewrites_not_absorbed_without_dedup() {
        let mut c = cache(8, false);
        assert_eq!(c.admit(5), Admit::Cached);
        assert_eq!(c.admit(5), Admit::Cached);
        assert_eq!(c.dirty_pages(), 1, "still a single dirty entry");
    }

    #[test]
    fn destage_returns_oldest_sorted() {
        let mut c = cache(2, true);
        c.admit(9);
        c.admit(3);
        c.admit(7);
        assert!(c.needs_destage());
        let out = c.destage();
        // Batch size is 4 and 3 pages are dirty: all three are evicted,
        // sorted by LBA even though 9 was admitted first.
        assert_eq!(out, vec![3, 7, 9]);
        assert_eq!(c.dirty_pages(), 0);
        assert!(!c.needs_destage());
    }

    #[test]
    fn refreshed_pages_are_not_destaged_early() {
        let mut c = cache(2, true);
        c.admit(1);
        c.admit(2);
        c.admit(1); // refresh: page 1 becomes newest
        c.admit(3);
        let out = c.destage();
        assert!(out.contains(&2), "page 2 is genuinely oldest");
        assert!(
            !out.contains(&1) || out.len() > 1,
            "page 1 must not be destaged before page 2 alone"
        );
    }

    #[test]
    fn reverse_stream_leaves_cache_ascending() {
        let mut c = WriteCache::new(WriteCacheConfig {
            capacity_pages: 0, // force immediate destage
            dedup: true,
            destage_batch_pages: 8,
        });
        for lpn in (0..8).rev() {
            c.admit(lpn);
        }
        let out = c.destage();
        assert_eq!(
            out,
            (0..8).collect::<Vec<_>>(),
            "destage must sort pages ascending"
        );
    }

    #[test]
    fn disabled_config_flag() {
        assert!(WriteCacheConfig::disabled().is_disabled());
        assert!(!WriteCacheConfig {
            capacity_pages: 1,
            dedup: false,
            destage_batch_pages: 1
        }
        .is_disabled());
    }

    #[test]
    fn generation_disambiguates_duplicate_lru_entries() {
        let mut c = WriteCache::new(WriteCacheConfig {
            capacity_pages: 1,
            dedup: true,
            destage_batch_pages: 1,
        });
        c.admit(7);
        c.admit(7);
        c.admit(8);
        // Oldest *live* entry is 7's second write (gen 2), not the stale
        // first entry.
        let out = c.destage();
        assert_eq!(out, vec![7]);
        assert_eq!(c.dirty_pages(), 1, "page 8 remains dirty");
    }
}
