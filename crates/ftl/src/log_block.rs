//! Hybrid log-block FTL: the mid-range device model.
//!
//! A block-granularity direct map (cheap RAM footprint — the reason real
//! mid-range firmwares used it, §2.2) plus two kinds of *log* groups:
//!
//! * **sequential slots** — up to `seq_slots` streams that write a
//!   logical group densely from offset 0 get a dedicated log group with
//!   identity page placement, so a completed stream costs only a *switch
//!   merge* (erase the stale data group and promote the log). The slot
//!   count is the device's **partitioning limit** (Table 3): more
//!   concurrent sequential streams than slots thrash the LRU slot and
//!   every eviction is a *full merge*.
//! * **random log pool** — FAST-style fully-associative log groups that
//!   absorb out-of-order writes as appends. Garbage collection picks the
//!   pool group with the fewest valid pages; every logical group with
//!   live pages in the victim needs a full merge. Random writes confined
//!   to a small area keep invalidating their own log pages, so victims
//!   are nearly empty and random writes cost almost nothing more than
//!   sequential ones — the **locality effect** of Figure 8, with the knee
//!   at `rand_log_groups × group_bytes`. Random writes over a large area
//!   leave every victim full and each host write pays roughly one full
//!   merge — the ~18 ms mid-range random writes of Table 3.
//!
//! An optional controller [`WriteCache`] absorbs rewrites (Samsung's
//! ×0.6 in-place pattern) and reorders descending streams into ascending
//! ones before they reach the flash (Samsung's benign reverse pattern).

use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, VecDeque};

use crate::addr::{LogicalLayout, SECTOR_BYTES};
use crate::error::FtlError;
use crate::group::StripeGroups;
use crate::stats::FtlStats;
use crate::traits::{Ftl, ProbeState, RecoveryReport};
use crate::write_cache::{Admit, WriteCache, WriteCacheConfig};
use crate::Result;
use uflip_nand::{BlockAddr, NandArray, NandArrayConfig, NandOp, NandStats};
use uflip_obs::{CounterId, SinkHandle};

const UNMAPPED: u32 = u32::MAX;

/// Sentinel in `log_map`: the page has no log copy.
const NO_LOG: u64 = u64::MAX;

#[inline]
fn pack_loc(group: u32, page: u32) -> u64 {
    ((group as u64) << 32) | page as u64
}

#[inline]
fn loc_group(packed: u64) -> u32 {
    (packed >> 32) as u32
}

#[inline]
fn loc_page(packed: u64) -> u32 {
    packed as u32
}

/// Configuration of a [`HybridLogFtl`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HybridLogConfig {
    /// NAND array backing the FTL.
    pub array: NandArrayConfig,
    /// Exported logical capacity in bytes.
    pub capacity_bytes: u64,
    /// Dedicated sequential log slots (the partitioning limit).
    pub seq_slots: usize,
    /// Random (fully-associative) log group pool size. The locality area
    /// is `rand_log_groups × group_bytes`.
    pub rand_log_groups: usize,
    /// Optional controller write cache.
    pub write_cache: WriteCacheConfig,
    /// Accept *descending* contiguous streams as stream logs (the
    /// firmware buffers them in RAM and lays them out in arrival order).
    /// This is what makes the Samsung SSD's reverse pattern (Incr = −1)
    /// nearly as cheap as a sequential write (Table 3: ×1.5) while
    /// devices without the capability degrade to the random path.
    pub descending_streams: bool,
    /// Asynchronous reclamation: merge log pages in the background
    /// during idle time and in the shadow of reads. High-end SSDs only
    /// (Memoright, Mtron) — this produces the start-up phase (Figure 3),
    /// the pause effect (Table 3) and the read lingering (Figure 5).
    pub async_reclaim: bool,
    /// Background reclamation keeps this many random-log groups clean;
    /// `bg_reserve_groups × writes-per-group` is the start-up phase
    /// length after an idle period.
    pub bg_reserve_groups: usize,
    /// Multiplier on read latency while background work is pending.
    pub read_contention_factor: f64,
    /// Fraction of read busy-time during which background reclamation
    /// progresses.
    pub bg_rate_during_reads: f64,
    /// Incremental GC: reclaim at most a few logical groups per host
    /// write (small frequent spikes — the high-end firmware style)
    /// instead of cleaning a whole victim log at once (rare huge spikes
    /// — the low-end style, "impressive variations between 0.25 and
    /// 300 msec", §5.1).
    pub incremental_gc: bool,
    /// Mapping/RMW granularity in bytes (0 = the flash page size).
    /// Writes not aligned to this granularity are expanded to full
    /// units with read-modify-write — §5.2: "on the Samsung SSD,
    /// random IOs should be aligned to 16 KB, as otherwise the
    /// response time increases from 18 msec to 32 msec".
    pub rmw_granularity_bytes: u64,
    /// Log-pool associativity. `true` — FAST-style fully-associative
    /// log (any page appends anywhere; GC is deferred and amortized —
    /// the high-end style). `false` — BAST-style block-associative log:
    /// every logical group needs its *own* log group, and a random
    /// write working set larger than the pool forces roughly **one full
    /// merge per write** — the mid-range devices' ≈18 ms random writes
    /// (Samsung, Transcend module) and their sharp locality knee at
    /// `rand_log_groups × group_bytes`.
    pub associative: bool,
}

impl HybridLogConfig {
    /// Tiny configuration for unit tests: 2-chip array, 2 seq slots,
    /// 3 random log groups, no cache.
    pub fn tiny() -> Self {
        let array = NandArrayConfig::tiny();
        HybridLogConfig {
            array,
            // tiny: 2 chips × 16 blocks of 4 KB = 128 KB physical, in 16
            // groups of 8 KB (one block per chip). Export 6 groups
            // (48 KB), leaving 10 spare for 2 seq slots + 3 random logs
            // + reserve.
            capacity_bytes: array.capacity_bytes() * 3 / 8,
            seq_slots: 2,
            rand_log_groups: 3,
            write_cache: WriteCacheConfig::disabled(),
            descending_streams: false,
            async_reclaim: false,
            bg_reserve_groups: 0,
            read_contention_factor: 1.0,
            bg_rate_during_reads: 0.0,
            incremental_gc: false,
            associative: true,
            rmw_granularity_bytes: 0,
        }
    }
}

/// Direction of a stream log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamDir {
    /// Ascending offsets from 0 (classic sequential stream).
    Up,
    /// Descending offsets from the top of the group (reverse stream,
    /// accepted only when the config enables `descending_streams`).
    Down,
}

/// A stream's dedicated log group. Pages are placed in *arrival order*
/// (`appended` counts them); for ascending streams arrival order equals
/// the logical offset, which is what makes a completed stream eligible
/// for a switch merge. Descending streams are a cost-model
/// approximation: the firmware is assumed to reorder them through RAM,
/// so completion costs the same erase-and-promote as a switch merge.
#[derive(Debug, Clone, Copy)]
struct SeqLog {
    /// Logical group the stream is rewriting.
    lgroup: u64,
    /// Physical log group.
    phys: u32,
    /// Pages appended so far (also the next physical position).
    appended: u32,
    /// Next expected logical offset: for `Up` the run must *start*
    /// here; for `Down` the run must *end* here.
    expected: u32,
    /// Stream direction.
    dir: StreamDir,
    /// False once any of its pages was superseded by a random write.
    pristine: bool,
    /// LRU stamp for eviction.
    lru: u64,
}

/// Hybrid log-block FTL (BAST/FAST-style).
#[derive(Debug, Clone)]
pub struct HybridLogFtl {
    cfg: HybridLogConfig,
    layout: LogicalLayout,
    groups: StripeGroups,
    array: NandArray,
    /// Logical group → physical data group.
    data_map: Vec<u32>,
    /// Pre-erased physical groups.
    free: VecDeque<u32>,
    /// Newest log copy per logical page, indexed by LPN: packed
    /// `group << 32 | page`, or [`NO_LOG`] when the page has none.
    log_map: Vec<u64>,
    /// Valid-page count per physical group (0 for non-log groups).
    log_valid: Vec<u32>,
    /// Pages ever appended per physical group (superset of valid ones).
    /// Cleared — allocation kept — when a group is retired or reopened.
    log_members: Vec<Vec<u64>>,
    seq: Vec<Option<SeqLog>>,
    rand_open: Option<(u32, u32)>,
    rand_full: Vec<u32>,
    /// BAST mode: per-logical-group log (lgroup, phys group, next
    /// position, LRU stamp). The pool holds at most `rand_log_groups`
    /// entries, so a linear scan beats hashing.
    assoc_logs: Vec<(u64, u32, u32, u64)>,
    /// One bit per logical page: has it ever been materialized on
    /// flash? Merges copy only materialized pages, so a fresh
    /// out-of-the-box device merges cheaply until it fills — the 4.1
    /// Samsung anomaly.
    filled: Vec<u64>,
    cache: WriteCache,
    tick: u64,
    /// Banked idle/read-shadow time for background reclamation.
    bg_credit_ns: u64,
    /// Scratch: per-chip counts of scattered log-page reads, tallied
    /// in bulk (see [`uflip_nand::NandArray::stream_read_tally`]).
    /// Always left zeroed between uses.
    read_tally: Vec<u32>,
    /// Observability sink; never affects timing.
    sink: SinkHandle,
    /// Cached `sink.is_enabled()` so the no-op path costs one bool test.
    sink_enabled: bool,
    stats: FtlStats,
}

impl HybridLogFtl {
    /// Build the FTL; every physical group starts erased and free.
    pub fn new(cfg: HybridLogConfig) -> Result<Self> {
        let groups = StripeGroups::new(&cfg.array.chip.geometry, cfg.array.chips, 1);
        let layout = LogicalLayout::new(&cfg.array.chip.geometry, cfg.capacity_bytes);
        let ppg = groups.pages_per_group() as u64;
        let logical_groups = layout.capacity_pages().div_ceil(ppg);
        let spare = groups.group_count() as i64 - logical_groups as i64;
        let needed = (cfg.seq_slots + cfg.rand_log_groups + 4) as i64;
        if spare < needed {
            return Err(FtlError::InvalidConfig(format!(
                "hybrid FTL needs {needed} spare groups (seq + rand logs + reserve), \
                 but only {spare} are available beyond the {logical_groups} logical groups"
            )));
        }
        if cfg.capacity_bytes == 0 {
            return Err(FtlError::InvalidConfig("exported capacity is zero".into()));
        }
        Ok(HybridLogFtl {
            layout,
            array: NandArray::new(cfg.array),
            data_map: vec![UNMAPPED; logical_groups as usize],
            free: (0..groups.group_count()).collect(),
            log_map: vec![NO_LOG; layout.capacity_pages() as usize],
            log_valid: vec![0; groups.group_count() as usize],
            log_members: vec![Vec::new(); groups.group_count() as usize],
            seq: vec![None; cfg.seq_slots],
            rand_open: None,
            rand_full: Vec::new(),
            assoc_logs: Vec::new(),
            filled: vec![0; (layout.capacity_pages() as usize).div_ceil(64)],
            cache: WriteCache::new(cfg.write_cache),
            tick: 0,
            bg_credit_ns: 0,
            read_tally: vec![0; groups.chips() as usize],
            sink: SinkHandle::null(),
            sink_enabled: false,
            stats: FtlStats::default(),
            groups,
            cfg,
        })
    }

    /// Backing array (white-box inspection).
    pub fn array(&self) -> &NandArray {
        &self.array
    }

    /// Pages per (stripe) group.
    pub fn pages_per_group(&self) -> u32 {
        self.groups.pages_per_group()
    }

    fn filled_get(&self, lpn: u64) -> bool {
        self.filled[(lpn / 64) as usize] & (1 << (lpn % 64)) != 0
    }

    fn filled_set(&mut self, lpn: u64) {
        self.filled[(lpn / 64) as usize] |= 1 << (lpn % 64);
    }

    fn lgroup_of(&self, lpn: u64) -> u64 {
        lpn / self.groups.pages_per_group() as u64
    }

    fn offset_of(&self, lpn: u64) -> u32 {
        (lpn % self.groups.pages_per_group() as u64) as u32
    }

    fn alloc_group(&mut self) -> Result<u32> {
        self.free.pop_front().ok_or(FtlError::OutOfPhysicalBlocks)
    }

    /// Stream erase ops for every block of a physical group (must be
    /// inside a `stream_begin`/`stream_finish` pair).
    fn stream_erase_group(&mut self, phys: u32) -> Result<()> {
        let groups = self.groups;
        for (chip, block) in groups.blocks(phys) {
            self.array
                .stream_op(NandOp::EraseBlock(BlockAddr { chip, block }))?;
        }
        Ok(())
    }

    /// Remove a page's stale log entry (it is being superseded).
    fn invalidate_log_entry(&mut self, lpn: u64) {
        let packed = self.log_map[lpn as usize];
        if packed != NO_LOG {
            self.log_map[lpn as usize] = NO_LOG;
            let group = loc_group(packed);
            let v = &mut self.log_valid[group as usize];
            *v = v.saturating_sub(1);
            // If the entry lived in a sequential log, that log is no
            // longer pristine and cannot switch-merge.
            for slot in self.seq.iter_mut().flatten() {
                if slot.phys == group {
                    slot.pristine = false;
                }
            }
        }
    }

    /// Append a run of `len` logical pages starting at `lpn` to the
    /// stream log in `slot`. The caller guarantees the run matches the
    /// stream's expectation (direction-aware).
    /// Program `take` consecutive log pages of group `phys` starting at
    /// `page0`, mapping logical pages `start_lpn ..` onto them, and do
    /// the per-page log bookkeeping. The programs go down as bulk
    /// striped runs; accounting is identical to the per-page loop this
    /// replaces. Caller runs inside a stream.
    fn stream_log_append(
        &mut self,
        phys: u32,
        page0: u32,
        start_lpn: u64,
        take: u32,
    ) -> Result<()> {
        let groups = self.groups;
        groups.stream_program_span(&mut self.array, phys, page0, take)?;
        for k in 0..take {
            let lpn = start_lpn + k as u64;
            self.invalidate_log_entry(lpn);
            self.log_map[lpn as usize] = pack_loc(phys, page0 + k);
            self.log_members[phys as usize].push(lpn);
        }
        self.log_valid[phys as usize] += take;
        self.stats.logical_pages_written += u64::from(take);
        Ok(())
    }

    fn seq_append(&mut self, slot: usize, lpn: u64, len: u32) -> Result<u64> {
        let (phys, start) = {
            let s = self.seq[slot]
                .as_ref()
                .ok_or(FtlError::Internal("seq_append on an empty stream slot"))?;
            (s.phys, s.appended)
        };
        self.array.stream_begin();
        self.stream_log_append(phys, start, lpn, len)?;
        let mut ns = self.array.stream_finish();
        let (lgroup, complete, pristine) = {
            let s = self.seq[slot]
                .as_mut()
                .ok_or(FtlError::Internal("seq_append stream slot vanished"))?;
            s.appended += len;
            match s.dir {
                StreamDir::Up => s.expected += len,
                StreamDir::Down => s.expected = (lpn % self.groups.pages_per_group() as u64) as u32,
            }
            (
                s.lgroup,
                s.appended >= self.groups.pages_per_group(),
                s.pristine,
            )
        };
        if complete {
            let stream =
                self.seq[slot].ok_or(FtlError::Internal("complete stream slot vanished"))?;
            let full_valid = self.log_valid[stream.phys as usize] == self.groups.pages_per_group();
            if pristine && full_valid {
                ns += self.switch_merge(slot)?;
            } else {
                ns += self.merge_logical(lgroup)?;
                self.seq[slot] = None;
            }
        }
        Ok(ns)
    }

    /// Promote a complete, pristine sequential log to be the data group.
    fn switch_merge(&mut self, slot: usize) -> Result<u64> {
        let s = self.seq[slot]
            .take()
            .ok_or(FtlError::Internal("switch_merge on an empty stream slot"))?;
        let old = self.data_map[s.lgroup as usize];
        let mut ns = 0;
        if old != UNMAPPED {
            self.array.stream_begin();
            self.stream_erase_group(old)?;
            ns = self.array.stream_finish();
            self.free.push_back(old);
        }
        self.data_map[s.lgroup as usize] = s.phys;
        // The log's pages are now plain data pages.
        let idx = s.phys as usize;
        for i in 0..self.log_members[idx].len() {
            let lpn = self.log_members[idx][i] as usize;
            let packed = self.log_map[lpn];
            if packed != NO_LOG && loc_group(packed) == s.phys {
                self.log_map[lpn] = NO_LOG;
            }
        }
        self.log_members[idx].clear();
        self.log_valid[idx] = 0;
        self.stats.switch_merges += 1;
        if self.sink_enabled {
            self.sink.add(CounterId::SwitchMerges, 1);
        }
        Ok(ns)
    }

    /// Full merge of one logical group: gather the newest copy of every
    /// page into a fresh physical group, retire the old data group, and
    /// drop all log entries of the group.
    fn merge_logical(&mut self, lgroup: u64) -> Result<u64> {
        let new_phys = self.alloc_group()?;
        let ppg = self.groups.pages_per_group();
        let old = self.data_map[lgroup as usize];
        let base_lpn = lgroup * ppg as u64;
        self.array.stream_begin();
        let groups = self.groups;
        let mut touched_logs: BTreeSet<u32> = BTreeSet::new();
        // Merges read through the controller (ECC verification on
        // every relocated page — standard firmware practice) rather
        // than using blind on-chip copy-back; this is what keeps full
        // merges in the ~20 ms range the paper observes on
        // one-to-two-channel groups. Reads mutate no page state, so
        // every source page — old home copy or scattered log copy —
        // just bumps its chip's read tally; the destination programs
        // land on consecutive offsets no matter how scattered the
        // sources are, and stream as long bulk spans broken only at
        // truly absent pages. Accounting within a stream commutes, so
        // none of this reordering is visible.
        let mut prog_run: Option<u32> = None;
        let mut last_log: Option<u32> = None;
        for offset in 0..ppg {
            let lpn = base_lpn + offset as u64;
            let packed = self.log_map[lpn as usize];
            if packed != NO_LOG {
                let g = loc_group(packed);
                // Consecutive offsets usually sit in the same log
                // group (BAST: always); skip the set insert then.
                if last_log != Some(g) {
                    touched_logs.insert(g);
                    last_log = Some(g);
                }
                self.read_tally[groups.chip_of(loc_page(packed)) as usize] += 1;
                prog_run.get_or_insert(offset);
                // Retire the log entry now that the page moved home.
                self.log_map[lpn as usize] = NO_LOG;
                let v = &mut self.log_valid[g as usize];
                *v = v.saturating_sub(1);
            } else if old != UNMAPPED && self.filled_get(lpn) {
                self.read_tally[groups.chip_of(offset) as usize] += 1;
                prog_run.get_or_insert(offset);
            } else if let Some(s) = prog_run.take() {
                groups.stream_program_span(&mut self.array, new_phys, s, offset - s)?;
            }
        }
        if let Some(s) = prog_run.take() {
            groups.stream_program_span(&mut self.array, new_phys, s, ppg - s)?;
        }
        for chip in 0..self.read_tally.len() {
            let n = std::mem::take(&mut self.read_tally[chip]);
            if n > 0 {
                self.array.stream_read_tally(chip as u32, n);
            }
        }
        if old != UNMAPPED {
            self.stream_erase_group(old)?;
        }
        let ns = self.array.stream_finish();
        if old != UNMAPPED {
            self.free.push_back(old);
        }
        self.data_map[lgroup as usize] = new_phys;
        self.stats.full_merges += 1;
        self.stats.sync_merges += 1;
        if self.sink_enabled {
            self.sink.add(CounterId::FullMerges, 1);
            self.sink.add(CounterId::SyncMerges, 1);
        }
        // Opportunistically reclaim log groups that just went empty.
        let mut reclaim_ns = 0;
        for g in touched_logs {
            reclaim_ns += self.reclaim_log_if_empty(g)?;
        }
        Ok(ns + reclaim_ns)
    }

    /// If a *full random* log group holds no valid pages, erase and free
    /// it. (Open logs and seq logs are reclaimed through their own paths.)
    fn reclaim_log_if_empty(&mut self, phys: u32) -> Result<u64> {
        let is_full_rand = self.rand_full.contains(&phys);
        if !is_full_rand || self.log_valid[phys as usize] > 0 {
            return Ok(0);
        }
        self.rand_full.retain(|&g| g != phys);
        self.log_members[phys as usize].clear();
        self.array.stream_begin();
        self.stream_erase_group(phys)?;
        let ns = self.array.stream_finish();
        self.free.push_back(phys);
        Ok(ns)
    }

    /// Ensure an open random log group with at least one free page.
    /// Runs GC when the pool budget is exhausted.
    fn ensure_rand_open(&mut self) -> Result<u64> {
        let mut ns = 0;
        if self.rand_open.is_none() {
            let in_use = self.rand_full.len() + 1; // +1 for the one we want
            if in_use > self.cfg.rand_log_groups {
                ns += self.rand_gc()?;
            }
            // Incremental GC may leave the budget transiently exceeded;
            // cap the overshoot so the spare-group reserve holds.
            let mut guard = 0;
            while self.cfg.incremental_gc
                && self.rand_full.len() + 1 > self.cfg.rand_log_groups + 2
                && guard < 64
            {
                ns += self.rand_gc()?;
                guard += 1;
            }
            let g = self.alloc_group()?;
            self.rand_open = Some((g, 0));
            self.log_valid[g as usize] = 0;
            self.log_members[g as usize].clear();
        }
        Ok(ns)
    }

    /// Erase and free a (now fully-invalid) BAST log group for `lg`.
    fn retire_assoc_log(&mut self, lg: u64) -> Result<u64> {
        let Some(pos) = self.assoc_logs.iter().position(|e| e.0 == lg) else {
            return Ok(0);
        };
        let (_, phys, _, _) = self.assoc_logs.swap_remove(pos);
        debug_assert_eq!(self.log_valid[phys as usize], 0);
        self.log_valid[phys as usize] = 0;
        self.log_members[phys as usize].clear();
        self.array.stream_begin();
        self.stream_erase_group(phys)?;
        let ns = self.array.stream_finish();
        self.free.push_back(phys);
        Ok(ns)
    }

    /// BAST-style random append: the run's pages go to the log group
    /// *owned by their logical group*. Pool misses evict the LRU owner
    /// with a full merge — on a large random working set that is one
    /// merge per write.
    fn bast_append_run(&mut self, lg: u64, start_lpn: u64, len: u32) -> Result<u64> {
        let mut ns = 0;
        let ppg = self.groups.pages_per_group();
        let mut i = 0u32;
        while i < len {
            if let Some(&(_, _, next, _)) = self.assoc_logs.iter().find(|e| e.0 == lg) {
                if next >= ppg {
                    // Own log exhausted: merge and start a fresh one.
                    ns += self.merge_logical(lg)?;
                    ns += self.retire_assoc_log(lg)?;
                }
            }
            if !self.assoc_logs.iter().any(|e| e.0 == lg) {
                if self.assoc_logs.len() >= self.cfg.rand_log_groups {
                    let victim_lg = self
                        .assoc_logs
                        .iter()
                        .min_by_key(|&&(_, _, _, lru)| lru)
                        .map(|&(k, _, _, _)| k)
                        .ok_or(FtlError::Internal("assoc-log pool empty at eviction"))?;
                    ns += self.merge_logical(victim_lg)?;
                    ns += self.retire_assoc_log(victim_lg)?;
                }
                let g = self.alloc_group()?;
                self.tick += 1;
                self.assoc_logs.push((lg, g, 0, self.tick));
                self.log_valid[g as usize] = 0;
                self.log_members[g as usize].clear();
            }
            let pos = self
                .assoc_logs
                .iter()
                .position(|e| e.0 == lg)
                .ok_or(FtlError::Internal("assoc log missing after ensure"))?;
            let (_, phys, next, _) = self.assoc_logs[pos];
            let take = (ppg - next).min(len - i);
            self.array.stream_begin();
            self.stream_log_append(phys, next, start_lpn + i as u64, take)?;
            ns += self.array.stream_finish();
            self.tick += 1;
            self.assoc_logs[pos] = (lg, phys, next + take, self.tick);
            i += take;
        }
        Ok(ns)
    }

    /// Random-path append of a run of logical pages. The whole run is
    /// programmed in one batch: consecutive log positions stripe across
    /// the chips, so a 32 KB write costs one page-program time per
    /// channel — not sixteen serialized programs. (Host IOs hit every
    /// channel in parallel even on the random path; only *merges* are
    /// bound by per-chip bandwidth.)
    fn random_append_run(&mut self, start_lpn: u64, len: u32) -> Result<u64> {
        let mut ns = 0;
        let ppg = self.groups.pages_per_group();
        let mut i = 0u32;
        while i < len {
            ns += self.ensure_rand_open()?;
            let (phys, next) = self
                .rand_open
                .ok_or(FtlError::Internal("random log missing after ensure"))?;
            let take = (ppg - next).min(len - i);
            self.array.stream_begin();
            self.stream_log_append(phys, next, start_lpn + i as u64, take)?;
            ns += self.array.stream_finish();
            let new_next = next + take;
            if new_next >= ppg {
                self.rand_full.push(phys);
                self.rand_open = None;
            } else {
                self.rand_open = Some((phys, new_next));
            }
            i += take;
        }
        Ok(ns)
    }

    /// Pick the best GC victim among full random logs (fewest valid
    /// pages), falling back to sealing the open log.
    fn pick_rand_victim(&mut self) -> Option<u32> {
        match self
            .rand_full
            .iter()
            .copied()
            .min_by_key(|&g| self.log_valid[g as usize])
        {
            Some(v) => Some(v),
            None => match self.rand_open.take() {
                Some((g, _)) => {
                    self.rand_full.push(g);
                    Some(g)
                }
                None => None,
            },
        }
    }

    /// Merge a bounded number of logical groups out of the current
    /// victim log (incremental reclamation). When `full_only`, the open
    /// log group is left alone — background reclamation must not seal a
    /// filling group, or every host write would cost one merge instead
    /// of the pool-turnover amortized share. Returns (ns, cleaned_any).
    fn reclaim_some(&mut self, max_merges: usize, full_only: bool) -> Result<(u64, bool)> {
        let victim = if full_only {
            self.rand_full
                .iter()
                .copied()
                .min_by_key(|&g| self.log_valid[g as usize])
        } else {
            self.pick_rand_victim()
        };
        let Some(victim) = victim else {
            return Ok((0, false));
        };
        let mut ns = 0;
        if self.log_valid[victim as usize] == 0 {
            ns += self.reclaim_log_if_empty(victim)?;
            return Ok((ns, true));
        }
        // The member scan finishes before any merge mutates state, so
        // iterating in place (no clone) observes the same snapshot.
        let mut lgroups: BTreeSet<u64> = BTreeSet::new();
        let vidx = victim as usize;
        for i in 0..self.log_members[vidx].len() {
            let lpn = self.log_members[vidx][i];
            let packed = self.log_map[lpn as usize];
            if packed != NO_LOG && loc_group(packed) == victim {
                lgroups.insert(self.lgroup_of(lpn));
                if lgroups.len() >= max_merges {
                    break;
                }
            }
        }
        for lg in lgroups {
            ns += self.merge_logical(lg)?;
        }
        ns += self.reclaim_log_if_empty(victim)?;
        let freed = !self.rand_full.contains(&victim);
        Ok((ns, freed))
    }

    /// Background reclamation worth up to `budget_ns` (idle time or the
    /// shadow of reads): keep `bg_reserve_groups` of the pool clean.
    fn background_work(&mut self, budget_ns: u64) {
        if !self.cfg.async_reclaim {
            return;
        }
        self.bg_credit_ns = self.bg_credit_ns.saturating_add(budget_ns);
        // Rough cost of one logical-group merge, for credit gating.
        let t = self.cfg.array.chip.timing;
        let ppg = self.groups.pages_per_group() as u64;
        let est =
            ppg / self.cfg.array.chips as u64 * t.copy_back_total_ns() + 2 * t.erase_total_ns();
        let target = self
            .cfg
            .rand_log_groups
            .saturating_sub(self.cfg.bg_reserve_groups);
        loop {
            if self.rand_full.len() <= target {
                break; // pool clean — stale streams may still remain
            }
            if self.bg_credit_ns < est {
                return;
            }
            match self.reclaim_some(1, true) {
                Ok((ns, progressed)) => {
                    self.bg_credit_ns = self.bg_credit_ns.saturating_sub(ns.max(1));
                    self.stats.async_merges += 1;
                    if self.sink_enabled {
                        self.sink.add(CounterId::AsyncMerges, 1);
                    }
                    if !progressed && ns == 0 {
                        break;
                    }
                }
                Err(_) => return,
            }
        }
        // After a *sustained* idle (≥ 1 s of remaining credit) the
        // firmware consolidates stale stream logs too, so the next
        // burst starts from a fully clean slate — this is what produces
        // the start-up phase of Figure 3 at its full length.
        while self.bg_credit_ns > 1_000_000_000 {
            let Some(slot) = self.seq.iter().position(|s| s.is_some()) else {
                break;
            };
            let Some(stream) = self.seq[slot] else { break };
            let before = self.bg_credit_ns;
            match self.merge_logical(stream.lgroup) {
                Ok(ns) => {
                    self.bg_credit_ns = self.bg_credit_ns.saturating_sub(ns.max(1));
                    self.stats.async_merges += 1;
                    if self.sink_enabled {
                        self.sink.add(CounterId::AsyncMerges, 1);
                    }
                }
                Err(_) => break,
            }
            // Retire the stream's log group once its pages are merged.
            let phys = stream.phys;
            if self.log_valid[phys as usize] == 0 {
                self.log_members[phys as usize].clear();
                self.array.stream_begin();
                if self.stream_erase_group(phys).is_ok() {
                    let ns = self.array.stream_finish();
                    self.bg_credit_ns = self.bg_credit_ns.saturating_sub(ns.max(1));
                }
                self.free.push_back(phys);
            }
            self.seq[slot] = None;
            if self.bg_credit_ns >= before {
                break; // defensive: guarantee progress
            }
        }
        // Fully consolidated: do not bank unbounded idle credit.
        if self.rand_full.len() <= target && self.seq.iter().all(|s| s.is_none()) {
            self.bg_credit_ns = 0;
        }
    }

    /// Whether background reclamation still has pending work.
    pub fn background_pending(&self) -> bool {
        self.cfg.async_reclaim
            && self.rand_full.len()
                > self
                    .cfg
                    .rand_log_groups
                    .saturating_sub(self.cfg.bg_reserve_groups)
    }

    /// Reclaim one random log group: merge every logical group with live
    /// pages in the victim, then erase it.
    fn rand_gc(&mut self) -> Result<u64> {
        if self.cfg.incremental_gc {
            // High-end style: clean a couple of logical groups per
            // host write; the pool may transiently exceed its budget.
            let (ns, _) = self.reclaim_some(2, false)?;
            return Ok(ns);
        }
        // Low-end style: clean a whole victim log in one go.
        let Some(victim) = self.pick_rand_victim() else {
            return Ok(0);
        };
        let mut ns = 0;
        // As in reclaim_some: the scan completes before merges mutate.
        let mut lgroups: BTreeSet<u64> = BTreeSet::new();
        let vidx = victim as usize;
        for i in 0..self.log_members[vidx].len() {
            let lpn = self.log_members[vidx][i];
            let packed = self.log_map[lpn as usize];
            if packed != NO_LOG && loc_group(packed) == victim {
                lgroups.insert(self.lgroup_of(lpn));
            }
        }
        for lg in lgroups {
            ns += self.merge_logical(lg)?;
        }
        ns += self.reclaim_log_if_empty(victim)?;
        Ok(ns)
    }

    /// Open a stream for `lgroup` in direction `dir`, evicting the LRU
    /// slot if every slot is busy. Returns the slot index and any
    /// eviction cost.
    fn open_seq_stream(&mut self, lgroup: u64, dir: StreamDir) -> Result<(usize, u64)> {
        let mut ns = 0;
        let slot = match self.seq.iter().position(|s| s.is_none()) {
            Some(i) => i,
            None => {
                // Evict the least-recently-used stream with a full merge.
                let (idx, victim) = self
                    .seq
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.map(|s| (i, s)))
                    .min_by_key(|(_, s)| s.lru)
                    .ok_or(FtlError::Internal("no stream slot to evict"))?;
                ns += self.merge_logical(victim.lgroup)?;
                // merge_logical dropped the log's entries; its group can
                // now be erased and freed.
                let phys = victim.phys;
                if self.log_valid[phys as usize] == 0 {
                    self.log_members[phys as usize].clear();
                    self.array.stream_begin();
                    self.stream_erase_group(phys)?;
                    ns += self.array.stream_finish();
                    self.free.push_back(phys);
                }
                self.seq[idx] = None;
                idx
            }
        };
        let phys = self.alloc_group()?;
        self.tick += 1;
        let expected = match dir {
            StreamDir::Up => 0,
            StreamDir::Down => self.groups.pages_per_group(),
        };
        self.seq[slot] = Some(SeqLog {
            lgroup,
            phys,
            appended: 0,
            expected,
            dir,
            pristine: true,
            lru: self.tick,
        });
        self.log_valid[phys as usize] = 0;
        self.log_members[phys as usize].clear();
        Ok((slot, ns))
    }

    /// Write one run of `run_len` consecutive pages (all within logical
    /// group `lg`) starting at `run_start`, choosing the sequential or
    /// random path. `is_first`/`is_last` say whether the run opens/closes
    /// the host write it came from — stream detection keys off those.
    fn write_run(
        &mut self,
        lg: u64,
        run_start: u64,
        run_len: u32,
        is_first: bool,
        is_last: bool,
    ) -> Result<u64> {
        let start_off = self.offset_of(run_start);
        let end_off = start_off + run_len;
        let ppg = self.groups.pages_per_group();
        let mut ns = 0;
        // 1. continuation of an existing stream (either direction)?
        let cont = self.seq.iter().position(|s| {
            s.is_some_and(|s| {
                s.lgroup == lg
                    && match s.dir {
                        StreamDir::Up => s.expected == start_off,
                        StreamDir::Down => s.expected == end_off,
                    }
            })
        });
        if let Some(slot) = cont {
            self.tick += 1;
            if let Some(s) = self.seq[slot].as_mut() {
                s.lru = self.tick;
            }
            ns += self.seq_append(slot, run_start, run_len)?;
        } else if start_off == 0
            && is_first
            && !self.seq.iter().any(|s| s.is_some_and(|s| s.lgroup == lg))
        {
            // Stream detection requires the *host write itself* to
            // start at the group head — a random IO whose tail spills
            // into the next group is not a stream signal (firmware
            // heuristics are conservative; burning a log block per
            // spurious signal would thrash the slots).

            // 2. a fresh ascending stream starting at the group head.
            // A *restart* (offset 0 while a stream for this group is
            // already open) is a rewind — firmware does not burn a
            // new log block for it; it goes to the random log, which
            // is what keeps the in-place pattern cheap on devices
            // with per-group streams.
            let (slot, open_ns) = self.open_seq_stream(lg, StreamDir::Up)?;
            ns += open_ns;
            ns += self.seq_append(slot, run_start, run_len)?;
        } else if self.cfg.descending_streams
            && end_off == ppg
            && is_last
            && !self.seq.iter().any(|s| s.is_some_and(|s| s.lgroup == lg))
        {
            // 2b. a fresh descending stream starting at the group top.
            let (slot, open_ns) = self.open_seq_stream(lg, StreamDir::Down)?;
            ns += open_ns;
            ns += self.seq_append(slot, run_start, run_len)?;
        } else {
            // 3. random path: the whole run in one striped batch.
            if self.cfg.associative {
                ns += self.random_append_run(run_start, run_len)?;
            } else {
                ns += self.bast_append_run(lg, run_start, run_len)?;
            }
        }
        Ok(ns)
    }

    /// Write a batch of logical pages to flash, choosing the sequential
    /// or random path per run.
    fn flash_write_pages(&mut self, lpns: &[u64]) -> Result<u64> {
        for &lpn in lpns {
            self.filled_set(lpn);
        }
        let mut ns = 0;
        let mut i = 0;
        while i < lpns.len() {
            // Extend a run of consecutive pages within one logical group.
            let lg = self.lgroup_of(lpns[i]);
            let mut j = i + 1;
            while j < lpns.len() && lpns[j] == lpns[j - 1] + 1 && self.lgroup_of(lpns[j]) == lg {
                j += 1;
            }
            ns += self.write_run(lg, lpns[i], (j - i) as u32, i == 0, j == lpns.len())?;
            i = j;
        }
        Ok(ns)
    }

    /// [`Self::flash_write_pages`] for the contiguous span `first..last`
    /// — the common host-write case — without materializing an LPN list.
    /// Runs break exactly where the list version breaks them: at logical
    /// group boundaries.
    fn flash_write_range(&mut self, first: u64, last: u64) -> Result<u64> {
        for lpn in first..last {
            self.filled_set(lpn);
        }
        let ppg = self.groups.pages_per_group() as u64;
        let mut ns = 0;
        let mut i = first;
        while i < last {
            let lg = self.lgroup_of(i);
            let j = last.min((lg + 1) * ppg);
            ns += self.write_run(lg, i, (j - i) as u32, i == first, j == last)?;
            i = j;
        }
        Ok(ns)
    }
}

impl Ftl for HybridLogFtl {
    fn capacity_bytes(&self) -> u64 {
        self.cfg.capacity_bytes
    }

    fn read(&mut self, lba: u64, sectors: u32) -> Result<u64> {
        self.check_request(lba, sectors)?;
        let (first, last) = self.layout.page_span(lba, sectors);
        self.array.stream_begin();
        let groups = self.groups;
        // Reads mutate no page state — wherever the newest copy lives
        // (data group or log), the page just bumps its chip's read
        // tally; the bulk application below is accounting-identical to
        // per-page reads.
        let check_cache = !self.cfg.write_cache.is_disabled() && self.cache.dirty_pages() > 0;
        for lpn in first..last {
            if check_cache && self.cache_holds(lpn) {
                continue; // served from controller RAM
            }
            let packed = self.log_map[lpn as usize];
            if packed != NO_LOG {
                self.read_tally[groups.chip_of(loc_page(packed)) as usize] += 1;
            } else if self.data_map[self.lgroup_of(lpn) as usize] != UNMAPPED {
                let chip = groups.chip_of(self.offset_of(lpn));
                self.read_tally[chip as usize] += 1;
            }
        }
        for chip in 0..self.read_tally.len() {
            let n = std::mem::take(&mut self.read_tally[chip]);
            if n > 0 {
                self.array.stream_read_tally(chip as u32, n);
            }
        }
        let mut ns = self.array.stream_finish();
        // Pending background work contends with reads (Figure 5's
        // lingering effect) and drains in their shadow.
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
        let (mut first, mut last) = self.layout.page_span(lba, sectors);
        let mut ns = 0;
        // Coarse mapping granularity: expand the span to full units
        // (the uncovered pages are read back below and rewritten).
        if self.cfg.rmw_granularity_bytes > self.layout.page_bytes {
            let unit = self.cfg.rmw_granularity_bytes / self.layout.page_bytes;
            let efirst = first / unit * unit;
            let elast = last.div_ceil(unit) * unit;
            if efirst != first || elast != last {
                self.stats.rmw_events += 1;
                if self.sink_enabled {
                    self.sink.add(CounterId::RmwEvents, 1);
                }
                first = efirst;
                last = elast.min(self.layout.capacity_pages());
            }
        }
        // Misaligned head/tail pages: read old content (read-modify-write).
        if self.layout.partial_pages(lba, sectors) > 0 {
            self.array.stream_begin();
            for lpn in [first, last - 1] {
                let packed = self.log_map[lpn as usize];
                if packed != NO_LOG {
                    self.array.stream_op(NandOp::ReadPage(
                        self.groups.page_addr(loc_group(packed), loc_page(packed)),
                    ))?;
                } else {
                    let data = self.data_map[self.lgroup_of(lpn) as usize];
                    if data != UNMAPPED {
                        self.array.stream_op(NandOp::ReadPage(
                            self.groups.page_addr(data, self.offset_of(lpn)),
                        ))?;
                    }
                }
            }
            ns += self.array.stream_finish();
            self.stats.rmw_events += 1;
            if self.sink_enabled {
                self.sink.add(CounterId::RmwEvents, 1);
            }
        }
        if self.cfg.write_cache.is_disabled() {
            ns += self.flash_write_range(first, last)?;
        } else {
            for lpn in first..last {
                if self.cache.admit(lpn) == Admit::Absorbed {
                    // rewrite absorbed in RAM: no flash work now.
                    if self.sink_enabled {
                        self.sink.add(CounterId::WriteCacheHits, 1);
                    }
                    continue;
                }
            }
            while self.cache.needs_destage() {
                let batch = self.cache.destage();
                if batch.is_empty() {
                    break;
                }
                ns += self.flash_write_pages(&batch)?;
            }
        }
        self.stats.host_writes += 1;
        self.stats.sectors_written += sectors as u64;
        if self.sink_enabled {
            self.sink.add(CounterId::HostWrites, 1);
            self.sink.add(
                CounterId::LogicalBytesWritten,
                sectors as u64 * SECTOR_BYTES,
            );
        }
        Ok(ns)
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

    /// Power-loss recovery. What dies with the power:
    ///
    /// * the controller RAM **write cache** — its dirty pages are the
    ///   torn writes: acknowledged to the host but never programmed to
    ///   NAND; they are discarded and counted;
    /// * the open log **cursors** (sequential stream slots, the open
    ///   random log, BAST per-group logs). The pages those logs hold
    ///   are durable NAND, so the logs are *closed*, not discarded:
    ///   stream and per-group logs merge back into their data groups
    ///   through the normal merge path, and the open random log is
    ///   sealed so GC reclaims it like any full log;
    /// * the banked background-work credit.
    ///
    /// `data_map`/`log_map` model the mapping metadata a real firmware
    /// re-derives from per-page OOB tags at mount; they survive as the
    /// rebuilt mapping and are counted as such.
    fn recover(&mut self) -> Result<RecoveryReport> {
        let dropped_cached_pages = self.cache.dirty_pages() as u64;
        let mut closed_log_blocks = 0;
        self.cache = WriteCache::new(self.cfg.write_cache);
        self.bg_credit_ns = 0;
        // Close open sequential streams through the merge path (their
        // appended pages are durable; only the cursor is lost).
        for slot in 0..self.seq.len() {
            let Some(stream) = self.seq[slot] else {
                continue;
            };
            self.merge_logical(stream.lgroup)?;
            let phys = stream.phys;
            if self.log_valid[phys as usize] == 0 {
                self.log_members[phys as usize].clear();
                self.array.stream_begin();
                self.stream_erase_group(phys)?;
                self.array.stream_finish();
                self.free.push_back(phys);
            }
            self.seq[slot] = None;
            closed_log_blocks += 1;
        }
        // Close BAST per-group logs likewise.
        while let Some(&(lg, ..)) = self.assoc_logs.first() {
            self.merge_logical(lg)?;
            self.retire_assoc_log(lg)?;
            closed_log_blocks += 1;
        }
        // Seal the open random log; GC reclaims it like any full one.
        if let Some((g, _)) = self.rand_open.take() {
            self.rand_full.push(g);
            closed_log_blocks += 1;
        }
        let rebuilt_mappings = self.data_map.iter().filter(|&&g| g != UNMAPPED).count() as u64
            + self.log_map.iter().filter(|&&p| p != NO_LOG).count() as u64;
        Ok(RecoveryReport {
            dropped_cached_pages,
            closed_log_blocks,
            rebuilt_mappings,
        })
    }

    fn probe(&self, lba: u64) -> ProbeState {
        if lba >= self.layout.capacity_sectors() {
            return ProbeState::Unmapped;
        }
        let (lpn, _) = self.layout.page_span(lba, 1);
        if self.cache.is_dirty(lpn) {
            return ProbeState::Volatile;
        }
        // `filled` is set exactly when a page reaches flash; log
        // entries are a subset of filled pages.
        if self.filled_get(lpn) {
            ProbeState::Durable
        } else {
            ProbeState::Unmapped
        }
    }
}

impl HybridLogFtl {
    fn cache_holds(&self, lpn: u64) -> bool {
        // WriteCache has no query API by design (FTL owns the policy);
        // we approximate "dirty" by checking dedup-mode caches only.
        self.cache.is_dirty(lpn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::SECTOR_BYTES;
    use uflip_nand::ProgramOrder;

    fn cfg() -> HybridLogConfig {
        let mut c = HybridLogConfig::tiny();
        // merges can leave holes → Ascending order required.
        c.array.chip.program_order = ProgramOrder::Ascending;
        c
    }

    fn tiny() -> HybridLogFtl {
        HybridLogFtl::new(cfg()).unwrap()
    }

    fn spp(f: &HybridLogFtl) -> u64 {
        f.layout.sectors_per_page()
    }

    fn ppg(f: &HybridLogFtl) -> u64 {
        f.groups.pages_per_group() as u64
    }

    /// Write one full logical group sequentially, page by page.
    fn write_group_seq(f: &mut HybridLogFtl, lg: u64) -> u64 {
        let mut total = 0;
        let base = lg * ppg(f) * spp(f);
        for p in 0..ppg(f) {
            total += f.write(base + p * spp(f), spp(f) as u32).unwrap();
        }
        total
    }

    #[test]
    fn construction_requires_spare_groups() {
        let mut c = cfg();
        c.capacity_bytes = c.array.capacity_bytes(); // no spare
        assert!(matches!(
            HybridLogFtl::new(c),
            Err(FtlError::InvalidConfig(_))
        ));
    }

    #[test]
    fn sequential_rewrite_uses_switch_merge() {
        let mut f = tiny();
        write_group_seq(&mut f, 0); // first pass: no old data group
        write_group_seq(&mut f, 0); // second pass: switch-merge the old
        assert!(
            f.stats.switch_merges >= 2,
            "dense streams must switch-merge"
        );
        assert_eq!(f.stats.full_merges, 0, "no full merges for pure sequential");
    }

    #[test]
    fn random_writes_go_to_log_and_eventually_merge() {
        let mut f = tiny();
        let pages = f.layout.capacity_pages();
        let s = spp(&f);
        // Scattered single-page writes at odd offsets (never offset 0 of
        // a group) force the random path.
        let mut x = 7u64;
        for _ in 0..400 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let lpn = x % pages;
            let lpn = if lpn.is_multiple_of(ppg(&f)) {
                lpn + 1
            } else {
                lpn
            };
            f.write(lpn * s, s as u32).unwrap();
        }
        assert!(
            f.stats.full_merges > 0,
            "random churn must trigger full merges"
        );
    }

    #[test]
    fn local_random_writes_merge_less_than_global_ones() {
        // The locality effect (Figure 8): rewrites confined to the log
        // pool's coverage invalidate their own log pages, so victims are
        // cheap. Compare full-merge counts.
        let run = |span_groups: u64| -> u64 {
            let mut f = tiny();
            let s = spp(&f);
            let span_pages = span_groups * ppg(&f);
            let mut x = 3u64;
            for _ in 0..600 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let lpn = x % span_pages;
                let lpn = if lpn.is_multiple_of(ppg(&f)) {
                    lpn + 1
                } else {
                    lpn
                };
                f.write(lpn * s, s as u32).unwrap();
            }
            f.stats.full_merges
        };
        let local = run(1); // inside one group ≪ pool coverage
        let global = run(6); // the whole exported device
        assert!(
            local * 3 < global,
            "local random writes ({local} merges) must merge far less than global ({global})"
        );
    }

    #[test]
    fn more_streams_than_slots_causes_full_merges() {
        // Partitioning limit: tiny config has 2 slots. Interleave 4
        // sequential streams — evictions must produce full merges.
        let mut f = tiny();
        let s = spp(&f);
        let pg = ppg(&f);
        for round in 0..pg {
            for stream in 0..4u64 {
                let lpn = stream * pg + round; // 4 distinct groups
                f.write(lpn * s, s as u32).unwrap();
            }
        }
        assert!(
            f.stats.full_merges > 0,
            "stream thrash beyond slot count must force full merges"
        );
    }

    #[test]
    fn streams_within_slot_count_stay_cheap() {
        let mut f = tiny();
        let s = spp(&f);
        let pg = ppg(&f);
        for round in 0..pg {
            for stream in 0..2u64 {
                let lpn = stream * pg * 3 + round; // groups 0 and 3
                f.write(lpn * s, s as u32).unwrap();
            }
        }
        assert_eq!(f.stats.full_merges, 0, "2 streams fit in 2 slots");
        assert!(f.stats.switch_merges >= 2);
    }

    #[test]
    fn read_after_write_round_trips_through_log_and_data() {
        let mut f = tiny();
        let s = spp(&f);
        // Page still in a log:
        f.write(5 * s, s as u32).unwrap();
        assert!(
            f.read(5 * s, s as u32).unwrap() > 0,
            "log-resident page read from flash"
        );
        // Whole group merged to data:
        write_group_seq(&mut f, 1);
        assert!(
            f.read(ppg(&f) * s, s as u32).unwrap() > 0,
            "data-resident page readable"
        );
        // Never-written page: zero flash time.
        assert_eq!(
            f.read((f.layout.capacity_pages() - 1) * s, s as u32)
                .unwrap(),
            0
        );
    }

    #[test]
    fn full_merge_cost_exceeds_append_cost() {
        let mut f = tiny();
        let s = spp(&f);
        let pages = f.layout.capacity_pages();
        let mut max_ns = 0;
        let mut min_ns = u64::MAX;
        let mut x = 11u64;
        for _ in 0..600 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let lpn = x % pages;
            let lpn = if lpn.is_multiple_of(ppg(&f)) {
                lpn + 1
            } else {
                lpn
            };
            let ns = f.write(lpn * s, s as u32).unwrap();
            max_ns = max_ns.max(ns);
            min_ns = min_ns.min(ns);
        }
        assert!(
            max_ns > min_ns * 5,
            "merge spikes ({max_ns}) must dwarf appends ({min_ns})"
        );
    }

    #[test]
    fn write_cache_absorbs_in_place_rewrites() {
        let mut c = cfg();
        c.write_cache = WriteCacheConfig {
            capacity_pages: 8,
            dedup: true,
            destage_batch_pages: 8,
        };
        let mut f = HybridLogFtl::new(c).unwrap();
        let s = spp(&f);
        let mut total_after_first = 0;
        f.write(0, s as u32 * 4).unwrap();
        for _ in 0..50 {
            total_after_first += f.write(0, s as u32 * 4).unwrap();
        }
        assert_eq!(
            total_after_first, 0,
            "in-place rewrites absorbed entirely in RAM"
        );
    }

    #[test]
    fn cached_pages_read_from_ram() {
        let mut c = cfg();
        c.write_cache = WriteCacheConfig {
            capacity_pages: 8,
            dedup: true,
            destage_batch_pages: 8,
        };
        let mut f = HybridLogFtl::new(c).unwrap();
        let s = spp(&f);
        f.write(0, s as u32).unwrap();
        assert_eq!(
            f.read(0, s as u32).unwrap(),
            0,
            "dirty page served from RAM"
        );
    }

    #[test]
    fn capacity_checks() {
        let mut f = tiny();
        let cap = f.capacity_bytes() / SECTOR_BYTES;
        assert!(matches!(
            f.write(cap, 1),
            Err(FtlError::OutOfCapacity { .. })
        ));
        assert!(matches!(f.read(0, 0), Err(FtlError::ZeroLength)));
    }

    #[test]
    fn log_map_and_valid_counts_agree_under_churn() {
        let mut f = tiny();
        let s = spp(&f);
        let pages = f.layout.capacity_pages();
        let mut x = 99u64;
        for i in 0..500u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let lpn = if i % 3 == 0 { i % pages } else { x % pages };
            f.write(lpn * s, s as u32).unwrap();
        }
        // Every log_map entry's group must have a positive valid count,
        // and totals must match.
        let mut per_group = vec![0u32; f.log_valid.len()];
        for &packed in &f.log_map {
            if packed != NO_LOG {
                per_group[loc_group(packed) as usize] += 1;
            }
        }
        for (g, &count) in per_group.iter().enumerate() {
            assert_eq!(
                f.log_valid[g], count,
                "valid count mismatch for log group {g}"
            );
        }
    }

    #[test]
    fn descending_streams_switch_merge_when_enabled() {
        let mut c = cfg();
        c.descending_streams = true;
        let mut f = HybridLogFtl::new(c).unwrap();
        let s = spp(&f);
        let pg = ppg(&f);
        // Prime group 0 ascending so a data group exists.
        for p in 0..pg {
            f.write(p * s, s as u32).unwrap();
        }
        let merges_before = f.stats.full_merges;
        // Rewrite it strictly descending, page by page.
        for p in (0..pg).rev() {
            f.write(p * s, s as u32).unwrap();
        }
        assert_eq!(
            f.stats.full_merges, merges_before,
            "a tolerated descending stream must not full-merge"
        );
        assert!(
            f.stats.switch_merges >= 2,
            "both passes end in switch merges"
        );
    }

    #[test]
    fn descending_streams_fall_back_to_random_path_when_disabled() {
        let mut f = tiny(); // descending_streams = false
        let s = spp(&f);
        let pg = ppg(&f);
        for p in 0..pg {
            f.write(p * s, s as u32).unwrap();
        }
        let before = f.nand_stats().page_programs;
        for p in (1..pg).rev() {
            f.write(p * s, s as u32).unwrap();
        }
        let appended = f.nand_stats().page_programs - before;
        assert!(
            appended >= pg - 1,
            "descending writes must hit flash through the random log"
        );
    }

    #[test]
    fn recover_drops_cached_pages_and_closes_open_logs() {
        let mut c = cfg();
        c.write_cache = WriteCacheConfig {
            capacity_pages: 8,
            dedup: true,
            destage_batch_pages: 8,
        };
        let mut f = HybridLogFtl::new(c).unwrap();
        let s = spp(&f);
        // A couple of flash-resident pages (destaged by cache pressure).
        for lpn in 0..12u64 {
            f.write(lpn * s, s as u32).unwrap();
        }
        while f.cache.needs_destage() {
            let batch = f.cache.destage();
            f.flash_write_pages(&batch).unwrap();
        }
        // Fresh dirty pages that stay in RAM: these writes are
        // acknowledged but volatile — the torn writes.
        f.write(20 * s, s as u32).unwrap();
        f.write(21 * s, s as u32).unwrap();
        let dirty = f.cache.dirty_pages() as u64;
        assert!(dirty >= 2);
        assert_eq!(f.probe(20 * s), ProbeState::Volatile);
        let report = f.recover().unwrap();
        assert_eq!(report.dropped_cached_pages, dirty);
        // Invariants: nothing volatile after recovery; durable pages
        // stay durable; the dropped never-destaged page is gone.
        for lpn in 0..f.layout.capacity_pages() {
            assert_ne!(f.probe(lpn * s), ProbeState::Volatile, "lpn {lpn}");
        }
        assert_eq!(f.probe(0), ProbeState::Durable);
        assert_eq!(f.probe(20 * s), ProbeState::Unmapped, "torn write dropped");
        // Device keeps working after the remount.
        f.write(20 * s, s as u32).unwrap();
    }

    #[test]
    fn recover_closes_open_streams_and_random_log() {
        let mut f = tiny();
        let s = spp(&f);
        let pg = ppg(&f);
        // Half-open ascending stream in group 0.
        for p in 0..pg / 2 {
            f.write(p * s, s as u32).unwrap();
        }
        // A random-path write opens the random log.
        f.write((2 * pg + 3) * s, s as u32).unwrap();
        assert!(f.seq.iter().any(|x| x.is_some()));
        assert!(f.rand_open.is_some());
        let report = f.recover().unwrap();
        assert!(report.closed_log_blocks >= 2, "stream + random log closed");
        assert!(f.seq.iter().all(|x| x.is_none()));
        assert!(f.rand_open.is_none());
        // All previously-written pages survive as durable.
        for p in 0..pg / 2 {
            assert_eq!(f.probe(p * s), ProbeState::Durable);
        }
        assert_eq!(f.probe((2 * pg + 3) * s), ProbeState::Durable);
        // And the device still accepts the full write paths.
        write_group_seq(&mut f, 1);
        f.write((3 * pg + 1) * s, s as u32).unwrap();
    }

    #[test]
    fn recover_closes_bast_logs() {
        let mut c = cfg();
        c.associative = false;
        let mut f = HybridLogFtl::new(c).unwrap();
        let s = spp(&f);
        let pg = ppg(&f);
        f.write((pg + 1) * s, s as u32).unwrap(); // opens a BAST log
        assert!(!f.assoc_logs.is_empty());
        let report = f.recover().unwrap();
        assert!(report.closed_log_blocks >= 1);
        assert!(f.assoc_logs.is_empty());
        assert_eq!(f.probe((pg + 1) * s), ProbeState::Durable);
    }

    #[test]
    fn device_survives_many_full_overwrites() {
        let mut f = tiny();
        let s = spp(&f);
        let pages = f.layout.capacity_pages();
        for _ in 0..4 {
            for lpn in 0..pages {
                f.write(lpn * s, s as u32).unwrap();
            }
        }
        // Sequential full-device rewrites must be sustainable and cheap.
        assert!(f.stats.switch_merges > 0);
    }
}
