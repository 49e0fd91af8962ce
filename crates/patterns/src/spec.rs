//! Pattern specifications: a fully-parameterized IO pattern.

use crate::io::Mode;
use crate::lba_fn::LbaFn;
use crate::pattern::PatternIter;
use crate::timing_fn::TimingFn;
use serde::{Deserialize, Serialize};

/// A complete basic-pattern specification (paper §3.1): one choice per
/// attribute dimension plus the target-window and length parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PatternSpec {
    /// Timing function for `t(IOᵢ)`.
    pub timing: TimingFn,
    /// LBA function for `LBA(IOᵢ)`.
    pub lba: LbaFn,
    /// IO size in bytes (constant per pattern; 32 KB in the paper's
    /// experiments).
    pub io_size: u64,
    /// Misalignment added to every location (the Alignment
    /// micro-benchmark's `IOShift`), in bytes.
    pub io_shift: u64,
    /// Base of the target window, in bytes.
    pub target_offset: u64,
    /// Size of the target window, in bytes.
    pub target_size: u64,
    /// Read or write.
    pub mode: Mode,
    /// Number of IOs in the pattern (`IOCount`).
    pub io_count: u64,
    /// Warm-up IOs excluded from statistics (`IOIgnore`).
    pub io_ignore: u64,
    /// Seed for the random LBA stream.
    pub seed: u64,
}

impl PatternSpec {
    /// The four baseline patterns (paper §3.1): consecutive timing,
    /// constant size, sequential/random location, read/write mode.
    pub fn baseline(lba: LbaFn, mode: Mode, io_size: u64, target_size: u64, io_count: u64) -> Self {
        PatternSpec {
            timing: TimingFn::Consecutive,
            lba,
            io_size,
            io_shift: 0,
            target_offset: 0,
            target_size,
            mode,
            io_count,
            io_ignore: 0,
            seed: 0xF11Bu64 ^ io_count,
        }
    }

    /// Sequential-read baseline (SR).
    pub fn baseline_sr(io_size: u64, target_size: u64, io_count: u64) -> Self {
        Self::baseline(
            LbaFn::Sequential,
            Mode::Read,
            io_size,
            target_size,
            io_count,
        )
    }

    /// Random-read baseline (RR).
    pub fn baseline_rr(io_size: u64, target_size: u64, io_count: u64) -> Self {
        Self::baseline(LbaFn::Random, Mode::Read, io_size, target_size, io_count)
    }

    /// Sequential-write baseline (SW).
    pub fn baseline_sw(io_size: u64, target_size: u64, io_count: u64) -> Self {
        Self::baseline(
            LbaFn::Sequential,
            Mode::Write,
            io_size,
            target_size,
            io_count,
        )
    }

    /// Random-write baseline (RW).
    pub fn baseline_rw(io_size: u64, target_size: u64, io_count: u64) -> Self {
        Self::baseline(LbaFn::Random, Mode::Write, io_size, target_size, io_count)
    }

    /// Two-letter pattern code (`SR`, `RR`, `SW`, `RW`, or descriptive
    /// for non-baseline LBA functions).
    pub fn code(&self) -> String {
        let loc = match self.lba {
            LbaFn::Sequential => "S".to_string(),
            LbaFn::Random => "R".to_string(),
            LbaFn::Ordered { incr } => format!("O[{incr}]"),
            LbaFn::Partitioned { partitions } => format!("P[{partitions}]"),
        };
        format!("{}{}", loc, self.mode.letter())
    }

    /// Total bytes the pattern transfers.
    pub fn total_bytes(&self) -> u64 {
        self.io_count * self.io_size
    }

    /// Validate the spec's internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.io_size == 0 {
            return Err("IOSize must be positive".into());
        }
        if self.target_size < self.io_size {
            return Err(format!(
                "TargetSize {} smaller than IOSize {}",
                self.target_size, self.io_size
            ));
        }
        if self.io_count == 0 {
            return Err("IOCount must be positive".into());
        }
        if self.io_ignore >= self.io_count {
            return Err(format!(
                "IOIgnore {} must be below IOCount {}",
                self.io_ignore, self.io_count
            ));
        }
        if self.io_shift >= self.io_size {
            return Err(format!(
                "IOShift {} must be below IOSize {} (Table 1 range)",
                self.io_shift, self.io_size
            ));
        }
        if let LbaFn::Partitioned { partitions } = self.lba {
            if partitions == 0 {
                return Err("Partitions must be positive".into());
            }
            if u64::from(partitions) * self.io_size > self.target_size {
                return Err(format!(
                    "{partitions} partitions do not fit {} bytes at IOSize {}",
                    self.target_size, self.io_size
                ));
            }
        }
        Ok(())
    }

    /// Iterate the pattern's IOs.
    pub fn iter(&self) -> PatternIter {
        PatternIter::new(*self)
    }

    /// Upper bound (exclusive) of the byte range the pattern can touch.
    pub fn span_end(&self) -> u64 {
        self.target_offset + self.io_shift + self.target_size
    }

    /// Builder-style helpers for experiment generation.
    pub fn with_timing(mut self, timing: TimingFn) -> Self {
        self.timing = timing;
        self
    }

    /// Replace the LBA function.
    pub fn with_lba(mut self, lba: LbaFn) -> Self {
        self.lba = lba;
        self
    }

    /// Replace the IO size.
    pub fn with_io_size(mut self, io_size: u64) -> Self {
        self.io_size = io_size;
        self
    }

    /// Replace the shift.
    pub fn with_io_shift(mut self, io_shift: u64) -> Self {
        self.io_shift = io_shift;
        self
    }

    /// Replace the target window.
    pub fn with_target(mut self, offset: u64, size: u64) -> Self {
        self.target_offset = offset;
        self.target_size = size;
        self
    }

    /// Replace the IO count / ignore prefix.
    pub fn with_counts(mut self, io_count: u64, io_ignore: u64) -> Self {
        self.io_count = io_count;
        self.io_ignore = io_ignore;
        self
    }

    /// Replace the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn baseline_codes() {
        assert_eq!(PatternSpec::baseline_sr(32 << 10, 1 << 20, 64).code(), "SR");
        assert_eq!(PatternSpec::baseline_rr(32 << 10, 1 << 20, 64).code(), "RR");
        assert_eq!(PatternSpec::baseline_sw(32 << 10, 1 << 20, 64).code(), "SW");
        assert_eq!(PatternSpec::baseline_rw(32 << 10, 1 << 20, 64).code(), "RW");
    }

    #[test]
    fn validation_catches_bad_specs() {
        let ok = PatternSpec::baseline_sr(32 << 10, 1 << 20, 64);
        assert!(ok.validate().is_ok());
        assert!(ok.with_io_size(0).validate().is_err());
        assert!(
            ok.with_target(0, 1024).validate().is_err(),
            "target below IO size"
        );
        assert!(ok.with_counts(0, 0).validate().is_err());
        assert!(
            ok.with_counts(10, 10).validate().is_err(),
            "ignore >= count"
        );
        assert!(
            ok.with_io_shift(32 << 10).validate().is_err(),
            "shift >= size"
        );
        assert!(ok
            .with_lba(LbaFn::Partitioned { partitions: 256 })
            .with_target(0, 32 << 10)
            .validate()
            .is_err());
    }

    #[test]
    fn builders_compose() {
        let s = PatternSpec::baseline_sw(32 << 10, 1 << 20, 64)
            .with_io_shift(512)
            .with_target(1 << 20, 2 << 20)
            .with_counts(128, 16)
            .with_seed(7)
            .with_timing(TimingFn::Pause(Duration::from_millis(1)));
        assert_eq!(s.io_shift, 512);
        assert_eq!(s.target_offset, 1 << 20);
        assert_eq!(s.io_count, 128);
        assert_eq!(s.io_ignore, 16);
        assert_eq!(s.seed, 7);
        assert!(matches!(s.timing, TimingFn::Pause(_)));
        assert!(s.validate().is_ok());
    }

    #[test]
    fn total_bytes_and_span() {
        let s = PatternSpec::baseline_sw(32 << 10, 1 << 20, 64).with_target(1 << 20, 1 << 20);
        assert_eq!(s.total_bytes(), 64 * 32 * 1024);
        assert_eq!(s.span_end(), 2 << 20);
    }
}
