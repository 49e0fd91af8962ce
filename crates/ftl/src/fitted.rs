//! Behavioural FTL fitted from black-box measurements.
//!
//! The mechanistic FTLs in this crate *derive* response times from NAND
//! operations. [`FittedFtl`] is the inverse: it serves IOs from
//! **measured latency curves** — the output of the calibration
//! subsystem (`uflip_core::calibrate`), which runs a reduced uFLIP plan
//! against any block device (simulated or real hardware) and fits the
//! result. This is the paper's central claim made executable: a small
//! set of measured parameters (Tables 2/3) characterizes a device well
//! enough to predict its behaviour under arbitrary IO patterns.
//!
//! The model:
//!
//! * four per-mode latency curves (SR/RR/SW/RW), each a piecewise-linear
//!   interpolation over the granularity sweep's `(IOSize, mean ns)`
//!   points;
//! * sequential-vs-random classification by exact append detection
//!   (an IO starting where the previous one of the same mode ended is
//!   sequential);
//! * an alignment penalty (Table 3 / §5.2): writes not aligned to the
//!   fitted mapping granularity pay a multiplicative factor;
//! * `channels` × `parallel_fraction` internal parallelism: each IO
//!   occupies its (LBA-striped) channel for `latency ×
//!   parallel_fraction` nanoseconds, so deep-queue speedups emerge from
//!   the same per-channel busy tracks the mechanistic FTLs use, and
//!   saturate at the *measured* aggregate throughput.

use crate::stats::FtlStats;
use crate::traits::Ftl;
use crate::Result;
use serde::{Deserialize, Serialize};
use uflip_nand::NandStats;
use uflip_obs::{CounterId, SinkHandle};

/// A measured `(io_bytes, mean latency ns)` curve, interpolated
/// piecewise-linearly and clamped at both ends.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyCurve {
    /// `(io_bytes, latency_ns)` points in strictly ascending `io_bytes`
    /// order. Must be non-empty.
    pub points: Vec<(u64, u64)>,
}

impl LatencyCurve {
    /// Curve through the given points (sorted here; duplicate sizes keep
    /// the last value given).
    pub fn new(mut points: Vec<(u64, u64)>) -> Self {
        // Stable sort: equal sizes stay in insertion order, so keeping
        // the tail of each run keeps the last value given.
        points.sort_by_key(|&(s, _)| s);
        let mut deduped: Vec<(u64, u64)> = Vec::with_capacity(points.len());
        for p in points {
            match deduped.last_mut() {
                Some(last) if last.0 == p.0 => *last = p,
                _ => deduped.push(p),
            }
        }
        LatencyCurve { points: deduped }
    }

    /// A one-point (constant) curve.
    pub fn flat(latency_ns: u64) -> Self {
        LatencyCurve {
            points: vec![(512, latency_ns)],
        }
    }

    /// Interpolated latency for an IO of `bytes`.
    pub fn latency_ns(&self, bytes: u64) -> u64 {
        match self.points.as_slice() {
            [] => 0,
            [(_, l)] => *l,
            pts => {
                if bytes <= pts[0].0 {
                    return pts[0].1;
                }
                if bytes >= pts[pts.len() - 1].0 {
                    return pts[pts.len() - 1].1;
                }
                let i = pts.partition_point(|&(s, _)| s < bytes);
                let (s0, l0) = pts[i - 1];
                let (s1, l1) = pts[i];
                if s1 == s0 {
                    return l1;
                }
                let t = (bytes - s0) as f64 / (s1 - s0) as f64;
                (l0 as f64 + t * (l1 as f64 - l0 as f64)).round() as u64
            }
        }
    }

    /// True if the curve has no points (serves zero latency).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Configuration of a [`FittedFtl`]: the distilled black-box parameters
/// of one device, serializable so fitted profiles round-trip to JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FittedFtlConfig {
    /// Exported logical capacity in bytes.
    pub capacity_bytes: u64,
    /// Internal parallelism: independent channels recovered from the
    /// queue-depth sweep (1 = none detected).
    pub channels: u32,
    /// LBA striping granularity used to assign IOs to channels.
    pub stripe_bytes: u64,
    /// Fraction of an IO's latency that occupies its channel (the rest
    /// — command overhead, interconnect transfer — overlaps freely).
    /// Deep-queue aggregate throughput saturates at
    /// `channels / (latency × parallel_fraction)`.
    pub parallel_fraction: f64,
    /// Sequential-read latency curve.
    pub read_seq: LatencyCurve,
    /// Random-read latency curve.
    pub read_rand: LatencyCurve,
    /// Sequential-write latency curve.
    pub write_seq: LatencyCurve,
    /// Random-write latency curve (measured in the enforced random
    /// state, §4.1 — this *is* the random-write penalty).
    pub write_rand: LatencyCurve,
    /// Mapping granularity writes must align to (0 = no penalty
    /// detected). §5.2: 16 KB on the Samsung SSD.
    pub align_granularity_bytes: u64,
    /// Multiplier on misaligned writes.
    pub align_penalty: f64,
}

impl FittedFtlConfig {
    fn validate(&self) -> Result<()> {
        if self.capacity_bytes == 0 || !self.capacity_bytes.is_multiple_of(512) {
            return Err(crate::FtlError::InvalidConfig(
                "fitted capacity must be a positive multiple of 512".into(),
            ));
        }
        if self.channels == 0 {
            return Err(crate::FtlError::InvalidConfig(
                "fitted channel count must be >= 1".into(),
            ));
        }
        if self.stripe_bytes == 0 || !self.stripe_bytes.is_multiple_of(512) {
            return Err(crate::FtlError::InvalidConfig(
                "fitted stripe must be a positive multiple of 512".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.parallel_fraction) {
            return Err(crate::FtlError::InvalidConfig(
                "parallel_fraction must be in [0, 1]".into(),
            ));
        }
        for (name, c) in [
            ("read_seq", &self.read_seq),
            ("read_rand", &self.read_rand),
            ("write_seq", &self.write_seq),
            ("write_rand", &self.write_rand),
        ] {
            if c.is_empty() {
                return Err(crate::FtlError::InvalidConfig(format!(
                    "fitted {name} curve has no points"
                )));
            }
        }
        Ok(())
    }
}

/// An FTL that serves IOs from fitted latency curves (see the module
/// docs). State is three cursors (sequential-append detectors) plus the
/// per-channel busy totals for the queue engine.
#[derive(Debug, Clone)]
pub struct FittedFtl {
    config: FittedFtlConfig,
    /// End LBA (exclusive) of the last read, for SR/RR classification.
    read_cursor: Option<u64>,
    /// End LBA (exclusive) of the last write, for SW/RW classification.
    write_cursor: Option<u64>,
    /// Cumulative per-channel busy ns (the queue engine diffs these).
    busy_totals: Vec<u64>,
    /// Observability sink; never affects timing. No NAND array behind a
    /// fitted model, so only host-level counters are emitted.
    sink: SinkHandle,
    stats: FtlStats,
}

impl FittedFtl {
    /// Build from a validated configuration.
    pub fn new(config: FittedFtlConfig) -> Result<Self> {
        config.validate()?;
        let channels = config.channels as usize;
        Ok(FittedFtl {
            config,
            read_cursor: None,
            write_cursor: None,
            busy_totals: vec![0; channels],
            sink: SinkHandle::null(),
            stats: FtlStats::default(),
        })
    }

    /// The fitted parameters.
    pub fn config(&self) -> &FittedFtlConfig {
        &self.config
    }

    fn charge(&mut self, lba: u64, latency_ns: u64) {
        let stripe_sectors = (self.config.stripe_bytes / 512).max(1);
        let ch = ((lba / stripe_sectors) % u64::from(self.config.channels)) as usize;
        let busy = (latency_ns as f64 * self.config.parallel_fraction).round() as u64;
        self.busy_totals[ch] += busy;
    }
}

impl Ftl for FittedFtl {
    fn capacity_bytes(&self) -> u64 {
        self.config.capacity_bytes
    }

    fn read(&mut self, lba: u64, sectors: u32) -> Result<u64> {
        self.check_request(lba, sectors)?;
        let sequential = self.read_cursor == Some(lba);
        self.read_cursor = Some(lba + u64::from(sectors));
        let bytes = u64::from(sectors) * 512;
        let curve = if sequential {
            &self.config.read_seq
        } else {
            &self.config.read_rand
        };
        let ns = curve.latency_ns(bytes);
        self.charge(lba, ns);
        self.stats.host_reads += 1;
        self.stats.sectors_read += u64::from(sectors);
        self.sink.add(CounterId::HostReads, 1);
        self.sink.add(CounterId::LogicalBytesRead, bytes);
        Ok(ns)
    }

    fn write(&mut self, lba: u64, sectors: u32) -> Result<u64> {
        self.check_request(lba, sectors)?;
        let sequential = self.write_cursor == Some(lba);
        self.write_cursor = Some(lba + u64::from(sectors));
        let bytes = u64::from(sectors) * 512;
        let curve = if sequential {
            &self.config.write_seq
        } else {
            &self.config.write_rand
        };
        let mut ns = curve.latency_ns(bytes) as f64;
        let g = self.config.align_granularity_bytes;
        // IOs smaller than the mapping granularity are *always*
        // misaligned in the granularity sweep that produced the curve
        // (offsets are multiples of the IO size), so their curve value
        // already embeds the penalty; charging it again would double
        // count.
        if g > 0 && bytes >= g && !(lba * 512).is_multiple_of(g) {
            ns *= self.config.align_penalty;
            self.stats.rmw_events += 1;
            self.sink.add(CounterId::RmwEvents, 1);
        }
        let ns = ns.round() as u64;
        self.charge(lba, ns);
        self.stats.host_writes += 1;
        self.stats.sectors_written += u64::from(sectors);
        self.stats.logical_pages_written += u64::from(sectors).div_ceil(8); // 4 KB pages
        self.sink.add(CounterId::HostWrites, 1);
        self.sink.add(CounterId::LogicalBytesWritten, bytes);
        Ok(ns)
    }

    fn set_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }

    fn channels(&self) -> u32 {
        self.config.channels
    }

    fn channel_busy_ns(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.busy_totals);
    }

    fn clone_box(&self) -> Box<dyn Ftl + Send> {
        Box::new(self.clone())
    }

    fn stats(&self) -> FtlStats {
        self.stats
    }

    fn nand_stats(&self) -> NandStats {
        // No NAND array behind a fitted model: the white-box view is
        // empty by construction.
        NandStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> LatencyCurve {
        LatencyCurve::new(vec![(512, 100_000), (2048, 200_000), (8192, 500_000)])
    }

    fn config() -> FittedFtlConfig {
        FittedFtlConfig {
            capacity_bytes: 64 * 1024 * 1024,
            channels: 4,
            stripe_bytes: 2048,
            parallel_fraction: 0.5,
            read_seq: LatencyCurve::flat(50_000),
            read_rand: curve(),
            write_seq: LatencyCurve::flat(300_000),
            write_rand: LatencyCurve::flat(5_000_000),
            align_granularity_bytes: 16 * 1024,
            align_penalty: 2.0,
        }
    }

    #[test]
    fn duplicate_sizes_keep_the_last_value() {
        let c = LatencyCurve::new(vec![(512, 100), (2048, 300), (512, 999)]);
        assert_eq!(c.points, vec![(512, 999), (2048, 300)]);
        assert_eq!(c.latency_ns(512), 999);
    }

    #[test]
    fn interpolation_clamps_and_blends() {
        let c = curve();
        assert_eq!(c.latency_ns(256), 100_000, "below range clamps");
        assert_eq!(c.latency_ns(512), 100_000);
        assert_eq!(c.latency_ns(1280), 150_000, "midpoint blends");
        assert_eq!(c.latency_ns(8192), 500_000);
        assert_eq!(c.latency_ns(1 << 20), 500_000, "above range clamps");
    }

    #[test]
    fn sequential_runs_use_the_seq_curve() {
        let mut f = FittedFtl::new(config()).unwrap();
        let first = f.read(0, 4).unwrap();
        assert_eq!(first, 200_000, "a cold read is random");
        let appended = f.read(4, 4).unwrap();
        assert_eq!(appended, 50_000, "an appending read is sequential");
        let jump = f.read(1000, 4).unwrap();
        assert_eq!(jump, 200_000, "a jump is random again");
    }

    #[test]
    fn misaligned_writes_pay_the_penalty() {
        let mut f = FittedFtl::new(config()).unwrap();
        let aligned = f.write(0, 32).unwrap(); // 16 KB at offset 0
        let misaligned = f.write(40, 32).unwrap(); // 16 KB at 20 KB offset
        assert_eq!(misaligned, 2 * aligned);
        assert_eq!(f.stats().rmw_events, 1);
        // Sub-granularity IOs embed the penalty in their curve value:
        // no extra charge.
        let small = f.write(8, 8).unwrap(); // 4 KB at 4 KB offset
        assert_eq!(small, f.config().write_rand.latency_ns(4096));
        assert_eq!(f.stats().rmw_events, 1);
    }

    #[test]
    fn busy_time_is_attributed_to_the_striped_channel() {
        let mut f = FittedFtl::new(config()).unwrap();
        f.read(0, 4).unwrap(); // stripe 0 -> channel 0
        f.read(16, 4).unwrap(); // stripe 4 -> channel 0 (4 % 4)
        f.read(4, 4).unwrap(); // stripe 1 -> channel 1
        let mut busy = Vec::new();
        f.channel_busy_ns(&mut busy);
        assert_eq!(busy.len(), 4);
        assert!(busy[0] > busy[1], "channel 0 took two of the three IOs");
        assert_eq!(busy[2], 0);
        // parallel_fraction 0.5: only half of each latency occupies.
        // All three reads are random (none appends to the cursor).
        assert_eq!(busy[0] + busy[1] + busy[3], 3 * 200_000 / 2);
    }

    #[test]
    fn config_round_trips_through_validation() {
        assert!(FittedFtl::new(config()).is_ok());
        let mut bad = config();
        bad.channels = 0;
        assert!(FittedFtl::new(bad).is_err());
        let mut bad = config();
        bad.read_rand = LatencyCurve::new(vec![]);
        assert!(FittedFtl::new(bad).is_err());
    }
}
