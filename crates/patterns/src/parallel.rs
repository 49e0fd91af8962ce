//! Parallel patterns: a basic pattern replicated over disjoint target
//! sub-spaces (paper §3.1 "Parallel patterns", micro-benchmark 6).
//!
//! Table 1: for process *p* of `ParallelDegree`,
//! `TargetOffsetₚ = p × TargetSize / ParallelDegree` and
//! `TargetSizeₚ = TargetSize / ParallelDegree`. Every process runs the
//! same baseline pattern inside its own slice.
//!
//! How the processes' IOs interleave *in time* depends on completion
//! order and is the executor's concern (`uflip-core` drives them
//! through a device's submission queue, on a virtual or a wall clock,
//! or interleaves them host-side). This module provides the per-process
//! specs and a deterministic round-robin interleaving that the
//! virtual-time executor consumes.

use crate::io::IoRequest;
use crate::pattern::PatternIter;
use crate::spec::PatternSpec;
use serde::{Deserialize, Serialize};

/// Specification of a parallel pattern.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParallelSpec {
    /// The pattern each process executes (its `target_offset`/
    /// `target_size` describe the *whole* window, which is then split).
    pub base: PatternSpec,
    /// Number of concurrent processes (the paper sweeps 2⁰ … 2⁴).
    pub degree: u32,
    /// Device command-queue depth (NCQ) to request for the run.
    /// `None` keeps the device's configured depth (simulated devices
    /// default to 1, the paper-faithful serial service). Host-side
    /// concurrency is still bounded by `degree` — each process is
    /// synchronous — so the effective overlap is
    /// `min(degree, queue_depth)`.
    pub queue_depth: Option<u32>,
}

impl ParallelSpec {
    /// Create a parallel spec.
    pub fn new(base: PatternSpec, degree: u32) -> Self {
        ParallelSpec {
            base,
            degree: degree.max(1),
            queue_depth: None,
        }
    }

    /// Request a specific device queue depth (≥ 1) for the run.
    pub fn with_queue_depth(mut self, depth: u32) -> Self {
        self.queue_depth = Some(depth.max(1));
        self
    }

    /// Per-process pattern specs with disjoint target slices. Each
    /// process issues `base.io_count / degree` IOs so the total work
    /// matches the base pattern, and each gets a distinct seed so random
    /// processes do not clone each other.
    pub fn process_specs(&self) -> Vec<PatternSpec> {
        let p = u64::from(self.degree);
        let slice = self.base.target_size / p;
        let per_count = (self.base.io_count / p).max(1);
        (0..self.degree)
            .map(|i| {
                self.base
                    .with_target(self.base.target_offset + u64::from(i) * slice, slice)
                    .with_counts(per_count, 0)
                    .with_seed(
                        self.base
                            .seed
                            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(i + 1))),
                    )
            })
            .collect()
    }

    /// Validate the spec (each slice must still fit one IO).
    pub fn validate(&self) -> Result<(), String> {
        self.base.validate()?;
        let slice = self.base.target_size / u64::from(self.degree);
        if slice < self.base.io_size {
            return Err(format!(
                "degree {} slices of {} bytes cannot hold IOs of {} bytes",
                self.degree, slice, self.base.io_size
            ));
        }
        Ok(())
    }

    /// Deterministic round-robin interleaving of the processes' IOs
    /// (process 0 first). Total length = Σ per-process counts.
    pub fn iter(&self) -> ParallelPattern {
        ParallelPattern {
            iters: self.process_specs().into_iter().map(|s| s.iter()).collect(),
            next_proc: 0,
            emitted: 0,
        }
    }

    /// Name like `SW(x4)`, or `SW(x4,qd8)` with an explicit queue depth.
    pub fn name(&self) -> String {
        match self.queue_depth {
            Some(d) => format!("{}(x{},qd{})", self.base.code(), self.degree, d),
            None => format!("{}(x{})", self.base.code(), self.degree),
        }
    }
}

/// Round-robin interleaved iterator over the parallel processes.
#[derive(Debug, Clone)]
pub struct ParallelPattern {
    iters: Vec<PatternIter>,
    next_proc: usize,
    emitted: u64,
}

impl Iterator for ParallelPattern {
    type Item = IoRequest;

    fn next(&mut self) -> Option<IoRequest> {
        let n = self.iters.len();
        for _ in 0..n {
            let p = self.next_proc;
            self.next_proc = (self.next_proc + 1) % n;
            if let Some(mut io) = self.iters[p].next() {
                io.process = p as u16;
                io.index = self.emitted;
                self.emitted += 1;
                return Some(io);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::Mode;
    use crate::lba_fn::LbaFn;

    const KB: u64 = 1024;
    const MB: u64 = 1024 * 1024;

    fn base() -> PatternSpec {
        PatternSpec::baseline(LbaFn::Sequential, Mode::Write, 32 * KB, 4 * MB, 64)
    }

    #[test]
    fn slices_are_disjoint_and_cover_the_window() {
        let p = ParallelSpec::new(base(), 4);
        let specs = p.process_specs();
        assert_eq!(specs.len(), 4);
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.target_size, MB);
            assert_eq!(s.target_offset, i as u64 * MB);
            assert_eq!(s.io_count, 16, "64 IOs split across 4 processes");
        }
    }

    #[test]
    fn interleaving_is_round_robin() {
        let p = ParallelSpec::new(base(), 4);
        let procs: Vec<u16> = p.iter().take(8).map(|io| io.process).collect();
        assert_eq!(procs, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn each_process_stays_in_its_slice() {
        let p = ParallelSpec::new(base(), 4);
        for io in p.iter() {
            let slice = u64::from(io.process) * MB;
            assert!(
                io.offset >= slice && io.end() <= slice + MB,
                "process {} escaped its slice: offset {}",
                io.process,
                io.offset
            );
        }
    }

    #[test]
    fn degree_one_is_the_base_pattern() {
        let p = ParallelSpec::new(base(), 1);
        let a: Vec<u64> = p.iter().map(|io| io.offset).collect();
        let b: Vec<u64> = base()
            .with_counts(64, 0)
            .with_seed(base().seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
            .iter()
            .map(|io| io.offset)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn total_io_count_is_preserved() {
        let p = ParallelSpec::new(base(), 4);
        assert_eq!(p.iter().count(), 64);
    }

    #[test]
    fn validation_rejects_oversplit_windows() {
        let tiny = base().with_target(0, 64 * KB); // 2 IOs worth
        assert!(ParallelSpec::new(tiny, 16).validate().is_err());
        assert!(ParallelSpec::new(base(), 4).validate().is_ok());
    }

    #[test]
    fn random_processes_use_distinct_seeds() {
        let p = ParallelSpec::new(base().with_lba(LbaFn::Random), 2);
        let specs = p.process_specs();
        assert_ne!(specs[0].seed, specs[1].seed);
    }
}
