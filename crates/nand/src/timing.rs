//! Operation latencies for NAND chips.
//!
//! The figures below are representative of 2008/2009-era large-block NAND
//! datasheets (the chips inside the devices of Table 2 of the paper):
//!
//! | op                | SLC        | MLC        |
//! |-------------------|------------|------------|
//! | page read (tR)    | ~25 µs     | ~60 µs     |
//! | page program (tPROG) | ~200–250 µs | ~680–900 µs |
//! | block erase (tBERS)  | ~1.5–2 ms | ~3 ms      |
//! | bus transfer      | ~25–40 ns/B (25–40 MB/s 8-bit async bus) |
//!
//! Absolute values only anchor the scale of the simulation; the paper's
//! findings are about *ratios and shapes*, which emerge from the FTL
//! mechanics layered on top.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Nanoseconds in a microsecond, for readable latency constants.
pub const NANOS_PER_MICRO: u64 = 1_000;

/// Latency parameters of one NAND chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NandTiming {
    /// Array-to-register page read time (tR), nanoseconds.
    pub read_page_ns: u64,
    /// Register-to-array page program time (tPROG), nanoseconds.
    pub program_page_ns: u64,
    /// Block erase time (tBERS), nanoseconds.
    pub erase_block_ns: u64,
    /// Bus transfer cost per byte (data in/out of the page register),
    /// nanoseconds per byte. Applied to the page *data* area; OOB
    /// transfer is folded into the per-op constants.
    pub bus_ns_per_byte: u64,
    /// Fixed command/address overhead per operation, nanoseconds.
    pub cmd_overhead_ns: u64,
}

impl NandTiming {
    /// Typical 2009 SLC large-block chip.
    pub const fn slc() -> Self {
        NandTiming {
            read_page_ns: 25 * NANOS_PER_MICRO,
            program_page_ns: 220 * NANOS_PER_MICRO,
            erase_block_ns: 1_500 * NANOS_PER_MICRO,
            bus_ns_per_byte: 25,
            cmd_overhead_ns: 2 * NANOS_PER_MICRO,
        }
    }

    /// Typical 2009 MLC large-block chip.
    pub const fn mlc() -> Self {
        NandTiming {
            read_page_ns: 60 * NANOS_PER_MICRO,
            program_page_ns: 800 * NANOS_PER_MICRO,
            erase_block_ns: 3_000 * NANOS_PER_MICRO,
            bus_ns_per_byte: 40,
            cmd_overhead_ns: 2 * NANOS_PER_MICRO,
        }
    }

    /// Total time to read one page of `data_bytes` including bus-out.
    pub const fn page_read_total_ns(&self, data_bytes: u32) -> u64 {
        self.cmd_overhead_ns + self.read_page_ns + self.bus_ns_per_byte * data_bytes as u64
    }

    /// Total time to program one page of `data_bytes` including bus-in.
    pub const fn page_program_total_ns(&self, data_bytes: u32) -> u64 {
        self.cmd_overhead_ns + self.program_page_ns + self.bus_ns_per_byte * data_bytes as u64
    }

    /// Total time to erase a block.
    pub const fn erase_total_ns(&self) -> u64 {
        self.cmd_overhead_ns + self.erase_block_ns
    }

    /// Internal copy-back (read page to register, program register to a
    /// new page) — no bus transfer, so it is cheaper than read+program
    /// through the controller. Block managers use this during merges.
    pub const fn copy_back_total_ns(&self) -> u64 {
        self.cmd_overhead_ns + self.read_page_ns + self.program_page_ns
    }

    /// Convert a nanosecond count to [`Duration`].
    pub const fn ns(n: u64) -> Duration {
        Duration::from_nanos(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slc_is_faster_than_mlc_everywhere() {
        let s = NandTiming::slc();
        let m = NandTiming::mlc();
        assert!(s.read_page_ns < m.read_page_ns);
        assert!(s.program_page_ns < m.program_page_ns);
        assert!(s.erase_block_ns < m.erase_block_ns);
    }

    #[test]
    fn totals_compose_overhead_array_and_bus() {
        let t = NandTiming {
            read_page_ns: 100,
            program_page_ns: 200,
            erase_block_ns: 300,
            bus_ns_per_byte: 2,
            cmd_overhead_ns: 10,
        };
        assert_eq!(t.page_read_total_ns(50), 10 + 100 + 100);
        assert_eq!(t.page_program_total_ns(50), 10 + 200 + 100);
        assert_eq!(t.erase_total_ns(), 310);
        assert_eq!(t.copy_back_total_ns(), 10 + 100 + 200);
    }

    #[test]
    fn copy_back_cheaper_than_read_plus_program_through_bus() {
        let t = NandTiming::slc();
        let through_bus = t.page_read_total_ns(2048) + t.page_program_total_ns(2048);
        assert!(t.copy_back_total_ns() < through_bus);
    }

    #[test]
    fn slc_page_read_is_tens_of_micros() {
        let t = NandTiming::slc();
        let d = NandTiming::ns(t.page_read_total_ns(2048));
        assert!(d > Duration::from_micros(20) && d < Duration::from_micros(150));
    }
}
