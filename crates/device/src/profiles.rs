//! The eleven flash devices of Table 2, as simulation profiles.
//!
//! Each profile couples the paper's catalogue metadata (brand, model,
//! type, marketed capacity, 2008 price) with a *mechanistic* simulation
//! configuration: chip geometry and timings, channel count, FTL family
//! and its parameters, controller model, and (where the paper's Table 3
//! reports behaviour our mechanisms cannot derive from public
//! information) documented black-box calibration knobs.
//!
//! Simulated capacities are scaled down (SSDs 448 MiB, USB/SD 96–192
//! MiB) so the full benchmark — including the random-state
//! enforcement of §4.1, which writes the *whole* device — runs in
//! seconds of host CPU time. The scaling preserves every behaviour the
//! paper measures because the relevant mechanisms (log pools,
//! allocation units, watermarks) are sized in absolute bytes, exactly
//! as on the real devices.
//!
//! The seven devices marked [`DeviceProfile::representative`] are the
//! arrow-marked rows of Table 2 whose results the paper presents.

use crate::sim_device::{ControllerConfig, SimDevice, StrideQuirk};
use serde::{Deserialize, Serialize};
use std::path::Path;
use uflip_ftl::{
    BlockMapConfig, BlockMapFtl, FittedFtl, FittedFtlConfig, HybridLogConfig, HybridLogFtl,
    PageMapConfig, PageMapFtl, ReplacementPolicy, WriteCacheConfig,
};
use uflip_nand::{ChipConfig, NandArrayConfig, NandGeometry, NandTiming, ProgramOrder, WearState};

/// Device form factor (Table 2 "Type" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeviceKind {
    /// 2.5" SATA solid-state drive.
    Ssd,
    /// USB 2.0 flash drive.
    UsbDrive,
    /// IDE flash module (disk-on-module).
    IdeModule,
    /// SD card.
    SdCard,
}

impl DeviceKind {
    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            DeviceKind::Ssd => "SSD",
            DeviceKind::UsbDrive => "USB drive",
            DeviceKind::IdeModule => "IDE module",
            DeviceKind::SdCard => "SD card",
        }
    }
}

/// Which FTL family (and parameters) a profile simulates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum FtlSpec {
    /// High-end SSD: page mapping, pre-erased pool, async reclamation.
    PageMap(PageMapConfig),
    /// Mid-range: hybrid log-block.
    HybridLog(HybridLogConfig),
    /// Low-end: block mapping with allocation units.
    BlockMap(BlockMapConfig),
    /// Behavioural model fitted from black-box calibration runs
    /// (`uflip_core::calibrate`): measured latency curves instead of a
    /// mechanistic NAND/FTL stack.
    Fitted(FittedFtlConfig),
}

/// A complete device profile: catalogue row + simulation config.
///
/// Profiles round-trip through JSON ([`DeviceProfile::save_json`] /
/// [`DeviceProfile::load_json`]), which is how fitted profiles produced
/// by the `calibrate` binary are fed back into every harness binary via
/// the `profile:PATH` device spec.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Short identifier used in reports (e.g. `memoright`).
    pub id: String,
    /// Brand (Table 2), or a provenance note for fitted profiles.
    pub brand: String,
    /// Model (Table 2).
    pub model: String,
    /// Form factor (Table 2).
    pub kind: DeviceKind,
    /// Marketed capacity (Table 2) — the *real* device's size.
    pub marketed: String,
    /// 2008 street price in USD (Table 2); 0 for fitted profiles.
    pub price_usd: u32,
    /// Included in the paper's seven presented devices (Table 2 arrows).
    pub representative: bool,
    /// FTL family and parameters.
    pub ftl: FtlSpec,
    /// Controller / interconnect model.
    pub controller: ControllerConfig,
    /// Optional strided-write calibration quirk (Table 3 "Large Incr").
    pub stride_quirk: Option<StrideQuirk>,
}

impl DeviceProfile {
    /// Simulated (scaled) capacity in bytes.
    pub fn sim_capacity_bytes(&self) -> u64 {
        match &self.ftl {
            FtlSpec::PageMap(c) => c.capacity_bytes,
            FtlSpec::HybridLog(c) => c.capacity_bytes,
            FtlSpec::BlockMap(c) => c.capacity_bytes,
            FtlSpec::Fitted(c) => c.capacity_bytes,
        }
    }

    /// Build the simulated device. Construction is deterministic per
    /// seed: the seed feeds the device's service-time jitter stream
    /// (see [`SimDevice::with_seed`]), so equal seeds give bit-identical
    /// traces and different seeds give diverging ones.
    pub fn build_sim(&self, seed: u64) -> Box<SimDevice> {
        // JSON-loaded profiles were validated at parse time and the
        // built-in catalog is construction-tested, so these cannot fire
        // there; `build_sim`'s 83 call sites keep their infallible
        // signature. (uflip-lint: the allows below each cover one arm.)
        let ftl: Box<dyn uflip_ftl::Ftl + Send> = match &self.ftl {
            FtlSpec::PageMap(c) => {
                // uflip-lint: allow(UF002, reason = "config validated by from_json/catalog tests")
                Box::new(PageMapFtl::new(*c).expect("profile PageMap config must be valid"))
            }
            FtlSpec::HybridLog(c) => {
                // uflip-lint: allow(UF002, reason = "config validated by from_json/catalog tests")
                Box::new(HybridLogFtl::new(*c).expect("profile HybridLog config must be valid"))
            }
            FtlSpec::BlockMap(c) => {
                // uflip-lint: allow(UF002, reason = "config validated by from_json/catalog tests")
                Box::new(BlockMapFtl::new(*c).expect("profile BlockMap config must be valid"))
            }
            FtlSpec::Fitted(c) => {
                // uflip-lint: allow(UF002, reason = "config validated by from_json/catalog tests")
                Box::new(FittedFtl::new(c.clone()).expect("profile Fitted config must be valid"))
            }
        };
        Box::new(
            SimDevice::new(self.id.clone(), ftl, self.controller, self.stride_quirk)
                .with_seed(seed),
        )
    }

    /// FTL family name for reports.
    pub fn ftl_family(&self) -> &'static str {
        match self.ftl {
            FtlSpec::PageMap(_) => "page-map",
            FtlSpec::HybridLog(_) => "hybrid-log",
            FtlSpec::BlockMap(_) => "block-map",
            FtlSpec::Fitted(_) => "fitted",
        }
    }

    /// Wrap a fitted configuration in a profile. The controller is the
    /// identity ([`ControllerConfig::passthrough`]) because the fitted
    /// latency curves already include controller and interconnect
    /// costs.
    pub fn fitted(id: impl Into<String>, source: impl Into<String>, c: FittedFtlConfig) -> Self {
        DeviceProfile {
            id: id.into(),
            brand: source.into(),
            model: "calibrated".into(),
            kind: DeviceKind::Ssd,
            marketed: String::new(),
            price_usd: 0,
            representative: false,
            ftl: FtlSpec::Fitted(c),
            controller: ControllerConfig::passthrough(),
            stride_quirk: None,
        }
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        // uflip-lint: allow(UF002, reason = "serialization of a plain data struct with no maps or non-UTF8 keys cannot fail")
        serde_json::to_string_pretty(self).expect("profiles are always serializable")
    }

    /// Check that the profile's FTL configuration can actually be
    /// constructed, so `build_sim` on a loaded profile cannot panic on
    /// untrusted JSON input.
    pub fn validate(&self) -> std::result::Result<(), String> {
        let check = |r: std::result::Result<(), uflip_ftl::FtlError>| {
            r.map_err(|e| format!("invalid profile `{}`: {e}", self.id))
        };
        match &self.ftl {
            FtlSpec::PageMap(c) => check(PageMapFtl::new(*c).map(drop)),
            FtlSpec::HybridLog(c) => check(HybridLogFtl::new(*c).map(drop)),
            FtlSpec::BlockMap(c) => check(BlockMapFtl::new(*c).map(drop)),
            FtlSpec::Fitted(c) => check(FittedFtl::new(c.clone()).map(drop)),
        }
    }

    /// Parse a profile from JSON, rejecting configurations the FTL
    /// constructors would refuse.
    pub fn from_json(json: &str) -> std::result::Result<Self, String> {
        let profile: Self =
            serde_json::from_str(json).map_err(|e| format!("invalid device profile JSON: {e}"))?;
        profile.validate()?;
        Ok(profile)
    }

    /// Write the profile as JSON, creating parent directories.
    pub fn save_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }

    /// Load a profile from a JSON file (the `profile:PATH` device spec).
    pub fn load_json(path: &Path) -> std::result::Result<Self, String> {
        let json = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read profile {}: {e}", path.display()))?;
        Self::from_json(&json)
    }
}

/// SLC chip with custom program time and a chosen chip size, used to
/// calibrate per-device throughput.
fn slc_chip(blocks_per_plane: u32, program_us: u64, read_us: u64) -> ChipConfig {
    ChipConfig {
        geometry: NandGeometry {
            page_data_bytes: 2048,
            page_oob_bytes: 64,
            pages_per_block: 64,
            blocks_per_plane,
            planes_per_chip: 2,
        },
        timing: NandTiming {
            read_page_ns: read_us * 1_000,
            program_page_ns: program_us * 1_000,
            erase_block_ns: 1_500_000,
            bus_ns_per_byte: 25,
            cmd_overhead_ns: 2_000,
        },
        // Merges may leave holes → Ascending, not Dense.
        program_order: ProgramOrder::Ascending,
        wear_limit: WearState::SLC_LIMIT,
        retain_data: false,
    }
}

/// MLC chip (4 KB pages, 512 KB blocks) with custom timings.
fn mlc_chip(blocks_per_plane: u32, program_us: u64, read_us: u64, erase_us: u64) -> ChipConfig {
    ChipConfig {
        geometry: NandGeometry {
            page_data_bytes: 4096,
            page_oob_bytes: 128,
            pages_per_block: 128,
            blocks_per_plane,
            planes_per_chip: 2,
        },
        timing: NandTiming {
            read_page_ns: read_us * 1_000,
            program_page_ns: program_us * 1_000,
            erase_block_ns: erase_us * 1_000,
            bus_ns_per_byte: 20,
            cmd_overhead_ns: 2_000,
        },
        program_order: ProgramOrder::Ascending,
        wear_limit: WearState::MLC_LIMIT,
        retain_data: false,
    }
}

const MB: u64 = 1024 * 1024;

/// Catalogue of all eleven Table 2 devices.
pub mod catalog {
    use super::*;

    /// Memoright MR25.2-032S — the paper's flagship high-end SSD
    /// (Figure 1 shows its internals: FPGA controller, 16 MB RAM,
    /// condenser). Hybrid FTL with a fully-associative log pool,
    /// 16 channels, incremental + asynchronous reclamation; Table 3:
    /// SR/RR/SW ≈ 0.3–0.4 ms, RW ≈ 5 ms, pause effect, 8 MB locality
    /// (=), 8 partitions (=), benign reverse and in-place, ×4
    /// large-Incr.
    pub fn memoright() -> DeviceProfile {
        let chips = 16;
        let chip = slc_chip(128, 220, 25); // 16 × 32 MB = 512 MB physical
        let array = NandArrayConfig {
            chip,
            chips,
            channels: 16,
        };
        DeviceProfile {
            id: "memoright".into(),
            brand: "Memoright".into(),
            model: "MR25.2-032S".into(),
            kind: DeviceKind::Ssd,
            marketed: "32 GB".into(),
            price_usd: 943,
            representative: true,
            ftl: FtlSpec::HybridLog(HybridLogConfig {
                array,
                capacity_bytes: 448 * MB, // 224 groups of 2 MB
                seq_slots: 8,             // partition limit 8 (=)
                rand_log_groups: 4,       // locality 4 × 2 MB = 8 MB
                write_cache: WriteCacheConfig::disabled(),
                descending_streams: true, // reverse "="
                rmw_granularity_bytes: 0,
                async_reclaim: true,
                bg_reserve_groups: 4, // idle fully cleans the pool:
                // start-up ≈ pool capacity ≈ 256 IOs after a long idle
                read_contention_factor: 4.0,
                bg_rate_during_reads: 1.0, // full-shadow GC: short lingering
                incremental_gc: true,      // frequent small merge spikes
                associative: true,         // FAST-style pool (high-end)
            }),
            controller: ControllerConfig {
                per_io_overhead_ns: 70_000,
                transfer_mb_s: 150,
                pipelined_transfer: true,
            },
            stride_quirk: None, // strided merges mechanistically cost
                                // several × RW (Table 3: ×4)
        }
    }

    /// GSKILL FS-25S2-32GB — high-end SSD, Memoright-class behaviour
    /// (not among the seven presented devices).
    pub fn gskill() -> DeviceProfile {
        let mut p = memoright();
        p.id = "gskill".into();
        p.brand = "GSKILL".into();
        p.model = "FS-25S2-32GB".into();
        p.price_usd = 694;
        p.representative = false;
        if let FtlSpec::HybridLog(ref mut c) = p.ftl {
            c.bg_reserve_groups = 2; // slightly longer start-up
            c.seq_slots = 4;
        }
        p
    }

    /// Mtron SATA7035-016 — high-end SSD with a longer start-up phase
    /// (Figure 3: ≈125 IOs, oscillation to ≈27 ms) and a pronounced
    /// read-lingering effect after random writes (Figure 5: ≈3000
    /// reads ≈ 2.5 s).
    pub fn mtron() -> DeviceProfile {
        let chips = 8;
        let chip = slc_chip(256, 190, 25); // 8 × 64 MB = 512 MB physical
        let array = NandArrayConfig {
            chip,
            chips,
            channels: 8,
        };
        DeviceProfile {
            id: "mtron".into(),
            brand: "Mtron".into(),
            model: "SATA7035-016".into(),
            kind: DeviceKind::Ssd,
            marketed: "16 GB".into(),
            price_usd: 407,
            representative: true,
            ftl: FtlSpec::HybridLog(HybridLogConfig {
                array,
                capacity_bytes: 448 * MB, // 448 groups of 1 MB
                seq_slots: 4,             // partition limit 4 (×1.5)
                rand_log_groups: 8,       // locality 8 × 1 MB = 8 MB
                write_cache: WriteCacheConfig::disabled(),
                descending_streams: true, // reverse "="
                rmw_granularity_bytes: 0,
                async_reclaim: true,
                bg_reserve_groups: 8,        // idle fully cleans the pool
                read_contention_factor: 8.0, // reads visibly slowed (Fig 5)
                bg_rate_during_reads: 0.9,   // ~3000 reads to drain
                incremental_gc: true,
                associative: true, // FAST-style pool (high-end)
            }),
            controller: ControllerConfig {
                per_io_overhead_ns: 90_000,
                transfer_mb_s: 130,
                pipelined_transfer: true,
            },
            stride_quirk: None, // mechanistic strided merges land ≈ ×2
        }
    }

    /// Samsung (quirk below) MCBQE32G5MPP — mid-range SSD: hybrid log-block FTL with
    /// a RAM write cache. Table 3: RW ≈ 18 ms, no pause effect, 16 MB
    /// locality (×1.5), 4 partitions (×2), reverse ×1.5 (descending
    /// streams tolerated), in-place ×0.6 (cache dedup), 16 KB mapping
    /// granularity (§5.2 alignment: 18 → 32 ms when misaligned). Also
    /// the §4.1 out-of-the-box anomaly device.
    pub fn samsung() -> DeviceProfile {
        let chips = 16;
        let chip = slc_chip(128, 230, 28); // 512 MB physical
        let array = NandArrayConfig {
            chip,
            chips,
            channels: 16,
        };
        DeviceProfile {
            id: "samsung".into(),
            brand: "Samsung".into(),
            model: "MCBQE32G5MPP".into(),
            kind: DeviceKind::Ssd,
            marketed: "32 GB".into(),
            price_usd: 517,
            representative: true,
            ftl: FtlSpec::HybridLog(HybridLogConfig {
                array,
                capacity_bytes: 448 * MB, // 224 groups of 2 MB; 32 spare
                seq_slots: 4,             // partition limit 4
                rand_log_groups: 8,       // locality area 8 × 2 MB = 16 MB
                write_cache: WriteCacheConfig {
                    capacity_pages: 64, // 128 KB dedup window
                    dedup: true,
                    destage_batch_pages: 16,
                },
                descending_streams: true,
                rmw_granularity_bytes: 16 * 1024, // §5.2 alignment result
                async_reclaim: false,             // Table 3: no pause effect
                bg_reserve_groups: 0,
                read_contention_factor: 1.0,
                bg_rate_during_reads: 0.0,
                incremental_gc: false,
                associative: false, // BAST: one merge per random write
            }),
            controller: ControllerConfig {
                per_io_overhead_ns: 80_000,
                transfer_mb_s: 110,
                pipelined_transfer: true,
            },
            stride_quirk: Some(StrideQuirk {
                // BAST serves strided and random writes identically, but
                // the real device degrades ×2 (Table 3) — a black-box
                // calibration (see `StrideQuirk`).
                min_stride: 512 * 1024,
                trigger_after: 3,
                factor: 2.0,
            }),
        }
    }

    /// Transcend TS4GDOM40V-S — IDE flash module: hybrid log-block
    /// without cache or descending tolerance. Table 3: SR/RR ≈ 1.2 ms,
    /// RW ≈ 18 ms, 4 MB locality (×2), 4 partitions (×2), reverse ×3,
    /// in-place ×2.
    pub fn transcend_module() -> DeviceProfile {
        let chips = 2;
        let chip = slc_chip(512, 240, 30); // 2 × 128 MB = 256 MB physical
        let array = NandArrayConfig {
            chip,
            chips,
            channels: 2,
        };
        DeviceProfile {
            id: "transcend-module".into(),
            brand: "Transcend".into(),
            model: "TS4GDOM40V-S".into(),
            kind: DeviceKind::IdeModule,
            marketed: "4 GB".into(),
            price_usd: 62,
            representative: true,
            ftl: FtlSpec::HybridLog(HybridLogConfig {
                array,
                capacity_bytes: 192 * MB, // 768 groups of 256 KB
                seq_slots: 4,
                rand_log_groups: 16, // locality 16 × 256 KB = 4 MB
                write_cache: WriteCacheConfig::disabled(),
                descending_streams: false,
                rmw_granularity_bytes: 0,
                async_reclaim: false, // Table 3: no pause effect
                bg_reserve_groups: 0,
                read_contention_factor: 1.0,
                bg_rate_during_reads: 0.0,
                incremental_gc: false, // whole-victim GC: big spikes
                associative: false,    // BAST: one merge per random write
            }),
            controller: ControllerConfig::ide(),
            stride_quirk: Some(StrideQuirk {
                // Same black-box ×2 as the Samsung (Table 3).
                min_stride: 512 * 1024,
                trigger_after: 3,
                factor: 2.0,
            }),
        }
    }

    /// Transcend TS32GSSD25S-M — low-end MLC SSD: block-mapped FTL with
    /// a *paged* replacement area. Table 3: RW ≈ 233 ms, 4 MB locality
    /// (=) — random writes inside the open AUs are plain appends —
    /// 4 partitions (×2), reverse/in-place ×2.
    pub fn transcend_mlc() -> DeviceProfile {
        let chips = 2;
        let chip = mlc_chip(128, 650, 100, 3_000); // 2 × 128 MB = 256 MB
        let array = NandArrayConfig {
            chip,
            chips,
            channels: 2,
        };
        DeviceProfile {
            id: "transcend-mlc".into(),
            brand: "Transcend".into(),
            model: "TS32GSSD25S-M".into(),
            kind: DeviceKind::Ssd,
            marketed: "32 GB".into(),
            price_usd: 199,
            representative: true,
            ftl: FtlSpec::BlockMap(BlockMapConfig {
                array,
                capacity_bytes: 192 * MB, // 192 AUs of 1 MB
                au_blocks_per_chip: 1,    // AU = 2 × 512 KB = 1 MB
                chunk_bytes: 32 * 1024,
                open_aus: 4,
                policy: ReplacementPolicy::Paged,
            }),
            controller: ControllerConfig {
                per_io_overhead_ns: 100_000,
                transfer_mb_s: 90,
                pipelined_transfer: false,
            },
            stride_quirk: None, // Table 3: large Incr ×1
        }
    }

    /// Transcend TS16GSSD25S-S — SLC sibling of the TS32 (not among the
    /// seven presented devices).
    pub fn transcend_slc() -> DeviceProfile {
        let chips = 2;
        let chip = slc_chip(512, 240, 28);
        let array = NandArrayConfig {
            chip,
            chips,
            channels: 2,
        };
        let mut p = transcend_mlc();
        p.id = "transcend-slc".into();
        p.model = "TS16GSSD25S-S".into();
        p.marketed = "16 GB".into();
        p.price_usd = 250;
        p.representative = false;
        p.ftl = FtlSpec::BlockMap(BlockMapConfig {
            array,
            capacity_bytes: 192 * MB,
            au_blocks_per_chip: 4, // AU = 8 × 128 KB = 1 MB
            chunk_bytes: 32 * 1024,
            open_aus: 4,
            policy: ReplacementPolicy::Paged,
        });
        p
    }

    /// Kingston DataTraveler HyperX — "fast" USB drive, still an order
    /// of magnitude slower than SSDs on random writes. Table 3:
    /// RW ≈ 270 ms, 16 MB locality (×20), 8 partitions (×20),
    /// reverse ×7, in-place ×6.
    pub fn kingston_dthx() -> DeviceProfile {
        let chips = 2;
        let chip = mlc_chip(128, 600, 60, 3_000); // 2 × 128 MB = 256 MB
        let array = NandArrayConfig {
            chip,
            chips,
            channels: 2,
        };
        DeviceProfile {
            id: "kingston-dthx".into(),
            brand: "Kingston".into(),
            model: "DT HyperX".into(),
            kind: DeviceKind::UsbDrive,
            marketed: "8 GB".into(),
            price_usd: 153,
            representative: true,
            ftl: FtlSpec::BlockMap(BlockMapConfig {
                array,
                capacity_bytes: 192 * MB, // 96 AUs of 2 MB
                au_blocks_per_chip: 2,    // AU = 4 × 512 KB = 2 MB
                chunk_bytes: 32 * 1024,
                open_aus: 8, // 8 open AUs → 16 MB "locality", 8 partitions
                policy: ReplacementPolicy::Ordered {
                    ooo_random_chunks: 6,  // ~×10 SW inside the open AUs
                    ooo_inplace_chunks: 3, // in-place ×6
                    ooo_reverse_chunks: 3, // reverse ×7
                },
            }),
            controller: ControllerConfig {
                per_io_overhead_ns: 120_000,
                transfer_mb_s: 34,
                pipelined_transfer: false,
            },
            stride_quirk: None,
        }
    }

    /// Corsair Flash Voyager GT — USB drive, DTHX-class (not among the
    /// seven presented devices).
    pub fn corsair() -> DeviceProfile {
        let mut p = kingston_dthx();
        p.id = "corsair".into();
        p.brand = "Corsair".into();
        p.model = "Flash Voyager GT".into();
        p.marketed = "16 GB".into();
        p.price_usd = 110;
        p.representative = false;
        p
    }

    /// Kingston DataTraveler I — entry-level USB drive, the paper's
    /// pathological low end. Figure 4: SW oscillation with period ≈ 128
    /// (4 MB AU at 32 KB IOs); Figure 7: small sequential writes cost
    /// far more than 32 KB ones; Table 3: RW ≈ 256 ms, *no* locality
    /// benefit, 4 partitions (×5), reverse ×8, in-place ×40.
    pub fn kingston_dti() -> DeviceProfile {
        let chips = 2;
        let chip = mlc_chip(64, 300, 60, 3_200); // 2 × 64 MB = 128 MB
        let array = NandArrayConfig {
            chip,
            chips,
            channels: 2,
        };
        DeviceProfile {
            id: "kingston-dti".into(),
            brand: "Kingston".into(),
            model: "DTI 4GB".into(),
            kind: DeviceKind::UsbDrive,
            marketed: "4 GB".into(),
            price_usd: 17,
            representative: true,
            ftl: FtlSpec::BlockMap(BlockMapConfig {
                array,
                capacity_bytes: 96 * MB, // 24 AUs of 4 MB
                au_blocks_per_chip: 4,   // AU = 8 × 512 KB = 4 MB → period 128
                chunk_bytes: 32 * 1024,
                open_aus: 4,
                policy: ReplacementPolicy::Ordered {
                    ooo_random_chunks: 90,  // effectively no locality benefit
                    ooo_inplace_chunks: 40, // in-place ×40
                    ooo_reverse_chunks: 7,  // reverse ×8
                },
            }),
            controller: ControllerConfig {
                per_io_overhead_ns: 150_000,
                transfer_mb_s: 30,
                pipelined_transfer: false,
            },
            stride_quirk: None,
        }
    }

    /// Kingston SD card — slowest device of the set (not among the
    /// seven presented devices).
    pub fn kingston_sd() -> DeviceProfile {
        let mut p = kingston_dti();
        p.id = "kingston-sd".into();
        p.model = "SD 4GB".into();
        p.kind = DeviceKind::SdCard;
        p.marketed = "2 GB".into();
        p.price_usd = 12;
        p.representative = false;
        p.controller = ControllerConfig {
            per_io_overhead_ns: 250_000,
            transfer_mb_s: 18,
            pipelined_transfer: false,
        };
        p
    }

    /// All eleven devices, in Table 2 order.
    pub fn all() -> Vec<DeviceProfile> {
        vec![
            memoright(),
            gskill(),
            samsung(),
            mtron(),
            transcend_slc(),
            transcend_mlc(),
            kingston_dthx(),
            corsair(),
            transcend_module(),
            kingston_dti(),
            kingston_sd(),
        ]
    }

    /// The seven representative devices the paper presents results for
    /// (arrow-marked in Table 2), in Table 3 order.
    pub fn representative() -> Vec<DeviceProfile> {
        vec![
            memoright(),
            mtron(),
            samsung(),
            transcend_module(),
            transcend_mlc(),
            kingston_dthx(),
            kingston_dti(),
        ]
    }

    /// Look a profile up by id, ignoring ASCII case (`Memoright` and
    /// `MEMORIGHT` both find `memoright`).
    pub fn by_id(id: &str) -> Option<DeviceProfile> {
        all().into_iter().find(|p| p.id.eq_ignore_ascii_case(id))
    }

    /// The catalogue ids, in Table 2 order — for "unknown device"
    /// error messages.
    pub fn ids() -> Vec<String> {
        all().into_iter().map(|p| p.id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::catalog;
    use crate::block_device::BlockDevice;

    #[test]
    fn all_eleven_profiles_build() {
        let all = catalog::all();
        assert_eq!(all.len(), 11, "Table 2 lists eleven devices");
        for p in &all {
            let dev = p.build_sim(1);
            assert!(dev.capacity_bytes() > 0, "{} exports capacity", p.id);
            assert_eq!(dev.capacity_bytes(), p.sim_capacity_bytes());
        }
    }

    #[test]
    fn seven_representative_devices_match_table3_order() {
        let reps = catalog::representative();
        let ids: Vec<&str> = reps.iter().map(|p| p.id.as_str()).collect();
        assert_eq!(
            ids,
            vec![
                "memoright",
                "mtron",
                "samsung",
                "transcend-module",
                "transcend-mlc",
                "kingston-dthx",
                "kingston-dti"
            ]
        );
        assert!(reps.iter().all(|p| p.representative));
    }

    #[test]
    fn lookup_by_id() {
        assert!(catalog::by_id("memoright").is_some());
        assert!(catalog::by_id("nope").is_none());
    }

    #[test]
    fn lookup_is_case_insensitive() {
        // A user typing `--device Memoright` means the Memoright; the
        // old lookup rebuilt the catalogue only to miss it.
        assert_eq!(catalog::by_id("Memoright").unwrap().id, "memoright");
        assert_eq!(catalog::by_id("KINGSTON-DTI").unwrap().id, "kingston-dti");
        assert_eq!(catalog::ids().len(), 11);
    }

    #[test]
    fn profiles_round_trip_through_json() {
        for p in catalog::all() {
            let back = super::DeviceProfile::from_json(&p.to_json()).expect("parse back");
            assert_eq!(back.id, p.id);
            assert_eq!(back.price_usd, p.price_usd);
            assert_eq!(back.controller, p.controller);
            assert_eq!(back.sim_capacity_bytes(), p.sim_capacity_bytes());
            assert_eq!(back.ftl_family(), p.ftl_family());
            // The JSON rendering itself is stable across one round trip.
            assert_eq!(back.to_json(), p.to_json());
        }
        assert!(super::DeviceProfile::from_json("{not json").is_err());
    }

    #[test]
    fn build_sim_seeds_diverge() {
        // Regression for the `_seed` bug: two differently-seeded sims of
        // the same profile must not produce identical traces, while
        // equal seeds stay bit-identical.
        let run = |seed: u64| -> Vec<std::time::Duration> {
            let mut dev = catalog::memoright().build_sim(seed);
            (0..64u64)
                .map(|i| dev.write((i * 37 % 256) * 32 * 1024, 32 * 1024).unwrap())
                .collect()
        };
        assert_eq!(run(1), run(1), "equal seeds are reproducible");
        assert_ne!(run(1), run(2), "different seeds must diverge");
    }

    #[test]
    fn fitted_profiles_honour_the_seed_too() {
        // Fitted profiles use the passthrough (zero-overhead)
        // controller; the jitter floor keeps their seed meaningful.
        let curve = uflip_ftl::LatencyCurve::flat(150_000);
        let profile = super::DeviceProfile::fitted(
            "fit",
            "test",
            uflip_ftl::FittedFtlConfig {
                capacity_bytes: 16 * 1024 * 1024,
                channels: 2,
                stripe_bytes: 2048,
                parallel_fraction: 0.5,
                read_seq: curve.clone(),
                read_rand: curve.clone(),
                write_seq: curve.clone(),
                write_rand: curve,
                align_granularity_bytes: 0,
                align_penalty: 1.0,
            },
        );
        let run = |seed: u64| -> Vec<std::time::Duration> {
            let mut dev = profile.build_sim(seed);
            (0..64u64)
                .map(|i| dev.read((i * 13 % 512) * 2048, 2048).unwrap())
                .collect()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4), "fitted sims must diverge across seeds");
    }

    #[test]
    fn ftl_families_match_device_classes() {
        // High-end SSDs are hybrid-mapped with a fully-associative log
        // pool: a page-mapped model cannot keep sequential writes at
        // raw speed after random aging, which the real devices do.
        assert_eq!(catalog::memoright().ftl_family(), "hybrid-log");
        assert_eq!(catalog::mtron().ftl_family(), "hybrid-log");
        assert_eq!(catalog::samsung().ftl_family(), "hybrid-log");
        assert_eq!(catalog::transcend_module().ftl_family(), "hybrid-log");
        assert_eq!(catalog::transcend_mlc().ftl_family(), "block-map");
        assert_eq!(catalog::kingston_dthx().ftl_family(), "block-map");
        assert_eq!(catalog::kingston_dti().ftl_family(), "block-map");
    }

    #[test]
    fn basic_io_works_on_every_profile() {
        for p in catalog::all() {
            let mut dev = p.build_sim(7);
            let w = dev.write(0, 32 * 1024).unwrap();
            let r = dev.read(0, 32 * 1024).unwrap();
            assert!(
                w > std::time::Duration::ZERO,
                "{}: write has nonzero rt",
                p.id
            );
            assert!(
                r > std::time::Duration::ZERO,
                "{}: read has nonzero rt",
                p.id
            );
        }
    }

    #[test]
    fn ssds_are_faster_than_usb_on_sequential_reads() {
        let mut ssd = catalog::memoright().build_sim(1);
        let mut usb = catalog::kingston_dti().build_sim(1);
        let a = ssd.read(0, 32 * 1024).unwrap();
        let b = usb.read(0, 32 * 1024).unwrap();
        assert!(
            b > a * 2,
            "USB ({b:?}) must be much slower than SSD ({a:?})"
        );
    }

    #[test]
    fn prices_match_table2() {
        let p: Vec<u32> = catalog::all().iter().map(|d| d.price_usd).collect();
        assert_eq!(p, vec![943, 694, 517, 407, 250, 199, 153, 110, 62, 17, 12]);
    }
}
