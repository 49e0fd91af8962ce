//! Per-channel busy-time utilization timelines.
//!
//! Devices report `(channel, start_ns, busy_ns)` slices of channel
//! occupancy; the timeline accumulates them into a fixed number of
//! time bins. When a run outgrows the covered window the bin width
//! doubles and adjacent bins fold together, so memory stays constant
//! no matter how long the run is — the resolution adapts instead.

use serde::{Deserialize, Serialize};

/// Number of time bins in a utilization timeline. Fixed: growth is by
/// widening bins, never by allocating more.
pub const UTIL_BINS: usize = 64;

/// Starting bin width (1 ms of device time); doubles as needed.
const INITIAL_BIN_NS: u64 = 1_000_000;

/// Busy-time accumulator: per channel, busy nanoseconds per time bin.
#[derive(Debug, Clone)]
pub struct ChannelUtilization {
    bin_ns: u64,
    channels: Vec<[u64; UTIL_BINS]>,
    horizon_ns: u64,
}

impl Default for ChannelUtilization {
    fn default() -> Self {
        Self::new()
    }
}

impl ChannelUtilization {
    /// An empty timeline.
    pub fn new() -> Self {
        ChannelUtilization {
            bin_ns: INITIAL_BIN_NS,
            channels: Vec::new(),
            horizon_ns: 0,
        }
    }

    /// Record `busy_ns` of occupancy on `channel` starting at
    /// `start_ns` (device time). The busy interval is spread
    /// proportionally over the bins it overlaps.
    pub fn record(&mut self, channel: usize, start_ns: u64, busy_ns: u64) {
        if busy_ns == 0 {
            return;
        }
        if channel >= self.channels.len() {
            self.channels.resize(channel + 1, [0; UTIL_BINS]);
        }
        let end_ns = start_ns.saturating_add(busy_ns);
        while end_ns > self.bin_ns.saturating_mul(UTIL_BINS as u64) {
            self.rescale();
        }
        self.horizon_ns = self.horizon_ns.max(end_ns);
        let bins = &mut self.channels[channel];
        let mut at = start_ns;
        while at < end_ns {
            let bin = (at / self.bin_ns) as usize;
            let bin_end = (bin as u64 + 1) * self.bin_ns;
            let slice = end_ns.min(bin_end) - at;
            bins[bin.min(UTIL_BINS - 1)] += slice;
            at = bin_end;
        }
    }

    /// Double the bin width, folding adjacent bins together.
    fn rescale(&mut self) {
        for bins in &mut self.channels {
            for i in 0..UTIL_BINS / 2 {
                bins[i] = bins[2 * i] + bins[2 * i + 1];
            }
            for slot in bins[UTIL_BINS / 2..].iter_mut() {
                *slot = 0;
            }
        }
        self.bin_ns *= 2;
    }

    /// Add `other`'s busy time into this timeline, bin by bin, after
    /// widening the finer of the two to the coarser bin width. Both
    /// widths are the initial width times a power of two and folding
    /// loses nothing, so the result is the timeline one accumulator
    /// would hold had it recorded both streams of intervals.
    pub(crate) fn absorb(&mut self, mut other: ChannelUtilization) {
        while self.bin_ns < other.bin_ns {
            self.rescale();
        }
        while other.bin_ns < self.bin_ns {
            other.rescale();
        }
        if self.channels.len() < other.channels.len() {
            self.channels.resize(other.channels.len(), [0; UTIL_BINS]);
        }
        for (mine, theirs) in self.channels.iter_mut().zip(&other.channels) {
            for (bin, busy) in mine.iter_mut().zip(theirs) {
                *bin += busy;
            }
        }
        self.horizon_ns = self.horizon_ns.max(other.horizon_ns);
    }

    /// Latest busy end time seen, nanoseconds.
    pub fn horizon_ns(&self) -> u64 {
        self.horizon_ns
    }

    /// Number of channels that reported activity.
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// Total busy time of one channel.
    #[cfg(test)]
    fn total_busy_ns(&self, channel: usize) -> u64 {
        self.channels
            .get(channel)
            .map_or(0, |bins| bins.iter().sum())
    }

    /// Serializable copy, trimmed to the bins the run actually used.
    pub fn snapshot(&self) -> UtilizationSnapshot {
        let used = if self.horizon_ns == 0 {
            0
        } else {
            (self.horizon_ns.div_ceil(self.bin_ns) as usize).min(UTIL_BINS)
        };
        UtilizationSnapshot {
            bin_ns: self.bin_ns,
            horizon_ns: self.horizon_ns,
            channels: self
                .channels
                .iter()
                .enumerate()
                .map(|(i, bins)| ChannelTimeline {
                    channel: i,
                    busy_ns: bins[..used].to_vec(),
                })
                .collect(),
        }
    }
}

/// One channel's busy time per bin.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelTimeline {
    /// Channel index.
    pub channel: usize,
    /// Busy nanoseconds per time bin, oldest first.
    pub busy_ns: Vec<u64>,
}

/// Serializable utilization timeline for all channels.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UtilizationSnapshot {
    /// Width of each bin, nanoseconds.
    pub bin_ns: u64,
    /// Latest busy end time recorded.
    pub horizon_ns: u64,
    /// Per-channel timelines.
    pub channels: Vec<ChannelTimeline>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_time_is_conserved_across_rescales() {
        let mut util = ChannelUtilization::new();
        // Far past the initial 64 ms window: forces several rescales.
        util.record(0, 0, 10_000_000);
        util.record(0, 500_000_000, 20_000_000);
        util.record(1, 900_000_000, 5_000_000);
        assert_eq!(util.total_busy_ns(0), 30_000_000);
        assert_eq!(util.total_busy_ns(1), 5_000_000);
        assert_eq!(util.channels(), 2);
        assert!(util.horizon_ns() >= 905_000_000);
    }

    #[test]
    fn snapshot_trims_unused_bins() {
        let mut util = ChannelUtilization::new();
        util.record(0, 0, 2_000_000); // two initial bins
        let snap = util.snapshot();
        assert_eq!(snap.channels.len(), 1);
        assert_eq!(snap.channels[0].busy_ns.len(), 2);
        assert_eq!(snap.channels[0].busy_ns.iter().sum::<u64>(), 2_000_000);
    }

    #[test]
    fn absorbing_equals_recording_into_one_timeline() {
        let short = [(0, 0, 3_000_000), (1, 2_500_000, 700_000)];
        let long = [(0, 1_000_000, 4_000_000), (2, 300_000_000, 9_000_000)];
        let mut one = ChannelUtilization::new();
        for &(ch, start, busy) in short.iter().chain(&long) {
            one.record(ch, start, busy);
        }
        // Absorb in both directions: the finer side is always widened.
        for (first, second) in [(&short, &long), (&long, &short)] {
            let mut a = ChannelUtilization::new();
            let mut b = ChannelUtilization::new();
            for &(ch, start, busy) in first.iter() {
                a.record(ch, start, busy);
            }
            for &(ch, start, busy) in second.iter() {
                b.record(ch, start, busy);
            }
            a.absorb(b);
            assert_eq!(a.snapshot(), one.snapshot());
        }
    }

    #[test]
    fn interval_spreads_over_bins() {
        let mut util = ChannelUtilization::new();
        // 1.5 ms starting at 0.5 ms: half in bin 0, 1 ms in bin 1.
        util.record(0, 500_000, 1_500_000);
        let snap = util.snapshot();
        assert_eq!(snap.channels[0].busy_ns[0], 500_000);
        assert_eq!(snap.channels[0].busy_ns[1], 1_000_000);
    }
}
