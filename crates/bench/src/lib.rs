//! # uflip-bench — harness shared by the figure/table binaries.
//!
//! Each `fig…`/`table…` binary in `src/bin/` regenerates the table or
//! figure of the paper it is named after. This library holds the
//! plumbing they share: argument parsing, output directories, and the
//! standard preparation sequence (state enforcement + settle) of §4.

use std::path::{Path, PathBuf};
use std::time::Duration;
use uflip_core::methodology::state::enforce_random_state;
use uflip_device::profiles::catalog;
use uflip_device::{BlockDevice, DeviceProfile, DirectIoFile};

/// Common CLI options for the figure/table binaries.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Output directory for CSV/JSON artifacts (default `results/`).
    pub out_dir: PathBuf,
    /// Quick mode: reduced IO counts for smoke runs.
    pub quick: bool,
    /// Restrict to one device id (default: the binary's own set), or
    /// target a real file/block device (`file:PATH[:SIZE]` — see
    /// [`RealDeviceSpec::parse`]).
    pub device: Option<String>,
    /// Emit machine-readable JSON (via `uflip_report::json`) on stdout
    /// instead of the human-readable table. Honored by `qd_sweep` and
    /// `trace_replay`; the figure binaries ignore it.
    pub json: bool,
    /// Write a `uflip_obs::MetricsSnapshot` JSON document here after
    /// the run (`--metrics PATH`): counters, latency histograms,
    /// channel utilization, per-workload write amplification. Without
    /// the flag the stack runs with the no-op sink — bit-identical
    /// timing, no recording.
    pub metrics: Option<PathBuf>,
    /// Fault-injection plan (`--faults PLAN.json`): a serialized
    /// [`uflip_device::FaultPlan`]. When present, [`HarnessOptions::
    /// apply_faults`] wraps the measured device in a
    /// [`uflip_device::FaultyDevice`] applying it; without the flag
    /// the device is untouched — bit-identical behaviour.
    pub faults: Option<PathBuf>,
    /// IO policy (`--io-policy SPEC`, see
    /// [`uflip_core::IoPolicy::parse`]): how the executors respond to
    /// transient device faults — retry budget, backoff, timeout,
    /// degrade-vs-abort. Defaults to `none` (the noop policy): plain
    /// executors, no retries, bit-identical timing.
    pub io_policy: uflip_core::IoPolicy,
}

/// The recording side of `--metrics PATH`: the shared
/// [`uflip_obs::Metrics`] recorder and where to write its snapshot.
#[derive(Debug)]
pub struct MetricsOut {
    /// The live recorder (the attached sink feeds it).
    pub metrics: std::sync::Arc<uflip_obs::Metrics>,
    /// Snapshot destination.
    pub path: PathBuf,
}

impl MetricsOut {
    /// Snapshot the recorder and write the versioned JSON document;
    /// with `render`, also print the ASCII report (histograms,
    /// channel-utilization timeline, write-amp table) to stdout.
    pub fn finish(&self, render: bool) {
        let snap = self.metrics.snapshot();
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    eprintln!("cannot create metrics dir {}: {e}", parent.display());
                    return;
                }
            }
        }
        if let Err(e) = snap.save(&self.path) {
            eprintln!("cannot write metrics snapshot {}: {e}", self.path.display());
            return;
        }
        if render {
            println!("\n{}", uflip_report::obs::render_metrics(&snap));
        }
        eprintln!("wrote metrics snapshot to {}", self.path.display());
    }
}

/// Build the observability sink for an optional `--metrics PATH`
/// value: with a path, a live [`uflip_obs::Metrics`] recorder plus its
/// attach handle; without, the no-op null sink (zero overhead — see
/// `uflip_device::queue`'s observability contract).
pub fn metrics_sink(path: Option<&Path>) -> (Option<MetricsOut>, uflip_obs::SinkHandle) {
    match path {
        Some(path) => {
            let (metrics, handle) = uflip_obs::Metrics::shared();
            (
                Some(MetricsOut {
                    metrics,
                    path: path.to_path_buf(),
                }),
                handle,
            )
        }
        None => (None, uflip_obs::SinkHandle::null()),
    }
}

/// How to open a real target (see [`RealDeviceSpec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RealOpenMode {
    /// Try `O_DIRECT` first, fall back to buffered with a warning —
    /// the right default for scratch files on arbitrary filesystems.
    Auto,
    /// Require `O_DIRECT` (`DirectIoFile::open`); fail if refused.
    Direct,
    /// Page-cached IO (`DirectIoFile::open_buffered`).
    Buffered,
}

/// A parsed `--device file:PATH[:SIZE]` argument (also `direct:` /
/// `buffered:` for an explicit open mode). `SIZE` accepts `K`/`M`/`G`
/// suffixes or plain bytes and defaults to 256 MiB; regular files are
/// extended to it, block devices are probed and must be at least it.
#[derive(Debug, Clone)]
pub struct RealDeviceSpec {
    /// Target path (regular file or block device).
    pub path: PathBuf,
    /// Exposed capacity in bytes.
    pub capacity: u64,
    /// Open mode.
    pub mode: RealOpenMode,
}

/// Default capacity for real targets when the spec names none.
pub const REAL_DEVICE_DEFAULT_CAPACITY: u64 = 256 * 1024 * 1024;

impl RealDeviceSpec {
    /// Parse a device argument. Returns `None` when `arg` is not a
    /// real-device spec (i.e. it is a simulated-profile id), and
    /// `Some(Err(…))` when it *is* one but the `SIZE` suffix is
    /// malformed — a typo like `:1GB` must not silently become part
    /// of the path and benchmark a wrongly-named file at the default
    /// capacity.
    pub fn parse(arg: &str) -> Option<Result<RealDeviceSpec, String>> {
        let (mode, rest) = if let Some(r) = arg.strip_prefix("file:") {
            (RealOpenMode::Auto, r)
        } else if let Some(r) = arg.strip_prefix("direct:") {
            (RealOpenMode::Direct, r)
        } else if let Some(r) = arg.strip_prefix("buffered:") {
            (RealOpenMode::Buffered, r)
        } else {
            return None;
        };
        // An optional trailing `:SIZE` — split from the right so paths
        // containing `:` still work. A suffix starting with a digit is
        // a size attempt and must parse; anything else is path.
        let (path, capacity) = match rest.rsplit_once(':') {
            Some((p, suffix)) if suffix.chars().next().is_some_and(|c| c.is_ascii_digit()) => {
                match parse_size(suffix) {
                    Some(0) => {
                        return Some(Err(format!("SIZE must be > 0 in device spec `{arg}`")))
                    }
                    Some(bytes) => (p, bytes),
                    None => {
                        return Some(Err(format!(
                            "bad SIZE `{suffix}` in device spec `{arg}` \
                             (expected bytes or a K/M/G suffix, e.g. 4096, 64K, 256M, 2G)"
                        )))
                    }
                }
            }
            _ => (rest, REAL_DEVICE_DEFAULT_CAPACITY),
        };
        Some(Ok(RealDeviceSpec {
            path: PathBuf::from(path),
            capacity,
            mode,
        }))
    }

    /// [`RealDeviceSpec::parse`] with the shared harness-binary
    /// behavior for malformed specs: print the message and exit 2.
    pub fn parse_or_exit(arg: &str) -> Option<RealDeviceSpec> {
        match Self::parse(arg)? {
            Ok(spec) => Some(spec),
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// Open the target. `Auto` tries `O_DIRECT` and falls back to
    /// buffered with a note on stderr (CI filesystems — tmpfs,
    /// overlayfs — commonly refuse direct IO).
    pub fn open(&self) -> uflip_device::Result<DirectIoFile> {
        match self.mode {
            RealOpenMode::Direct => DirectIoFile::open(&self.path, self.capacity),
            RealOpenMode::Buffered => DirectIoFile::open_buffered(&self.path, self.capacity),
            RealOpenMode::Auto => DirectIoFile::open(&self.path, self.capacity).or_else(|e| {
                eprintln!("O_DIRECT open failed ({e}); using buffered IO");
                DirectIoFile::open_buffered(&self.path, self.capacity)
            }),
        }
    }
}

/// Parse `4096`, `64K`, `256M`, `2G` (case-insensitive) into bytes.
/// `None` for malformed or unrepresentable (overflowing) sizes.
fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, mult) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 1024u64),
        'm' | 'M' => (&s[..s.len() - 1], 1024 * 1024),
        'g' | 'G' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().and_then(|n| n.checked_mul(mult))
}

/// A resolved `--device` argument: either something the simulator runs
/// (a catalogue id or a calibrated `profile:PATH` JSON file) or a real
/// file / block device spec.
#[derive(Debug, Clone)]
pub enum DeviceTarget {
    /// A simulated profile (catalogue or loaded from `profile:PATH`).
    /// Boxed: a `DeviceProfile` is an order of magnitude larger than a
    /// `RealDeviceSpec`.
    Sim(Box<DeviceProfile>),
    /// A real target (`file:` / `direct:` / `buffered:`).
    Real(RealDeviceSpec),
}

impl DeviceTarget {
    /// Resolve a device argument:
    ///
    /// * `profile:PATH` — a fitted/edited [`DeviceProfile`] JSON file
    ///   (written by the `calibrate` binary);
    /// * `file:PATH[:SIZE]` / `direct:` / `buffered:` — a real target
    ///   (see [`RealDeviceSpec::parse`]);
    /// * anything else — a catalogue id (ASCII-case-insensitive).
    ///
    /// Unknown ids error with the list of valid ids instead of a bare
    /// message, so a typo is a one-glance fix.
    pub fn resolve(arg: &str) -> Result<DeviceTarget, String> {
        if let Some(path) = arg.strip_prefix("profile:") {
            return DeviceProfile::load_json(Path::new(path))
                .map(|p| DeviceTarget::Sim(Box::new(p)));
        }
        if let Some(real) = RealDeviceSpec::parse(arg) {
            return real.map(DeviceTarget::Real);
        }
        catalog::by_id(arg)
            .map(|p| DeviceTarget::Sim(Box::new(p)))
            .ok_or_else(|| unknown_device_message(arg))
    }

    /// [`DeviceTarget::resolve`] with the shared harness-binary error
    /// behavior: print the message and exit 2.
    pub fn resolve_or_exit(arg: &str) -> DeviceTarget {
        DeviceTarget::resolve(arg).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2);
        })
    }
}

/// The error message for an unknown `--device` id: every valid
/// catalogue id plus the spec syntaxes that load profiles and open real
/// targets.
pub fn unknown_device_message(id: &str) -> String {
    format!(
        "unknown device `{id}`; valid ids: {}\n\
         also accepted: profile:PATH (calibrated profile JSON), \
         file:PATH[:SIZE], direct:PATH[:SIZE], buffered:PATH[:SIZE]",
        catalog::ids().join(", ")
    )
}

/// Resolve an argument that must name a *simulated* profile — a
/// catalogue id or `profile:PATH` — exiting with the valid-id listing
/// otherwise (including when the argument names a real device).
pub fn sim_profile_or_exit(arg: &str) -> DeviceProfile {
    match DeviceTarget::resolve_or_exit(arg) {
        DeviceTarget::Sim(p) => *p,
        DeviceTarget::Real(spec) => {
            eprintln!(
                "`{}` names a real target, but this path needs a simulated \
                 profile (a catalogue id or profile:PATH)",
                spec.path.display()
            );
            std::process::exit(2);
        }
    }
}

impl HarnessOptions {
    /// Parse from `std::env::args` (flags: `--out DIR`, `--quick`,
    /// `--device ID`, `--json`, `--metrics PATH`, `--faults PLAN.json`,
    /// `--io-policy SPEC`).
    pub fn from_args() -> Self {
        let mut out = HarnessOptions {
            out_dir: PathBuf::from("results"),
            quick: false,
            device: None,
            json: false,
            metrics: None,
            faults: None,
            io_policy: uflip_core::IoPolicy::none(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--out" => {
                    if let Some(d) = args.next() {
                        out.out_dir = PathBuf::from(d);
                    }
                }
                "--quick" => out.quick = true,
                "--device" => out.device = args.next(),
                "--json" => out.json = true,
                "--metrics" => out.metrics = args.next().map(PathBuf::from),
                "--faults" => out.faults = args.next().map(PathBuf::from),
                "--io-policy" => {
                    let spec = args.next().unwrap_or_default();
                    out.io_policy = uflip_core::IoPolicy::parse(&spec).unwrap_or_else(|msg| {
                        eprintln!("bad --io-policy `{spec}`: {msg}");
                        std::process::exit(2);
                    });
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --out DIR  --quick  --device ID  \
                         --json (qd_sweep/trace_replay only)  \
                         --metrics PATH (observability snapshot)  \
                         --faults PLAN.json (fault-injection plan)  \
                         --io-policy SPEC (none|default|retries=N,base-us=U,\
                         factor=F,cap-ms=C,timeout-ms=T,seed=S,degrade)"
                    );
                    std::process::exit(0);
                }
                other => eprintln!("ignoring unknown flag {other}"),
            }
        }
        out
    }

    /// [`metrics_sink`] for this invocation's `--metrics` flag.
    pub fn metrics_sink(&self) -> (Option<MetricsOut>, uflip_obs::SinkHandle) {
        metrics_sink(self.metrics.as_deref())
    }

    /// Load and validate the `--faults` plan, exiting with the message
    /// on a malformed file. `None` without the flag.
    pub fn fault_plan(&self) -> Option<uflip_device::FaultPlan> {
        let path = self.faults.as_deref()?;
        match uflip_device::FaultPlan::load_json(path) {
            Ok(plan) => Some(plan),
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// Wrap a prepared device in a [`uflip_device::FaultyDevice`]
    /// applying the `--faults` plan. Without the flag the device is
    /// returned untouched (no decorator in the IO path at all).
    pub fn apply_faults(&self, dev: Box<dyn BlockDevice>) -> Box<dyn BlockDevice> {
        match self.fault_plan() {
            Some(plan) => Box::new(uflip_device::FaultyDevice::new(dev, plan)),
            None => dev,
        }
    }
}

/// Build a profile's simulated device, enforce the §4.1 random state,
/// and settle with a long idle — the standard preparation before any
/// measurement.
pub fn prepared_device(profile: &DeviceProfile, quick: bool) -> Box<dyn BlockDevice> {
    let mut dev = profile.build_sim(0xF11B);
    // Coverage must exceed 1 + over-provisioning for the free pool to
    // reach its GC watermark (see CharacterizeConfig::paper()).
    let coverage = if quick { 1.5 } else { 2.0 };
    enforce_random_state(dev.as_mut(), 128 * 1024, coverage, 0xF11B)
        // uflip-lint: allow(UF002, reason = "fresh sim device with seeded state; failure means the profile itself is broken and the harness must stop")
        .expect("state enforcement cannot fail on a healthy simulated device");
    dev.idle(Duration::from_secs(5));
    dev
}

/// Light preparation for a real target: sequentially pre-write the
/// first `window` bytes so later reads hit allocated data instead of
/// sparse holes. Real flash state enforcement (§4.1 random writes over
/// the whole device) is the caller's decision — it is destructive and
/// slow on hardware, and meaningless on a scratch file.
pub fn prefill_real_device(dev: &mut dyn BlockDevice, window: u64) -> uflip_device::Result<()> {
    let chunk = 256 * 1024u64;
    let mut off = 0;
    while off < window {
        let len = chunk.min(window - off);
        dev.write(off, len)?;
        off += len;
    }
    Ok(())
}

/// Mean in milliseconds over a slice of response times.
pub fn mean_ms(rts: &[Duration]) -> f64 {
    if rts.is_empty() {
        return 0.0;
    }
    rts.iter().map(|d| d.as_secs_f64()).sum::<f64>() / rts.len() as f64 * 1e3
}

/// Milliseconds view of a trace (for plotting).
pub fn trace_ms(rts: &[Duration]) -> Vec<f64> {
    rts.iter().map(|d| d.as_secs_f64() * 1e3).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_ms_math() {
        let rts = vec![Duration::from_millis(2), Duration::from_millis(4)];
        assert!((mean_ms(&rts) - 3.0).abs() < 1e-9);
        assert_eq!(mean_ms(&[]), 0.0);
    }

    #[test]
    fn real_device_specs_parse() {
        assert!(RealDeviceSpec::parse("samsung").is_none());
        let s = RealDeviceSpec::parse("file:/tmp/x").unwrap().unwrap();
        assert_eq!(s.path, PathBuf::from("/tmp/x"));
        assert_eq!(s.capacity, REAL_DEVICE_DEFAULT_CAPACITY);
        assert_eq!(s.mode, RealOpenMode::Auto);
        let s = RealDeviceSpec::parse("direct:/dev/sdx:2G")
            .unwrap()
            .unwrap();
        assert_eq!(s.path, PathBuf::from("/dev/sdx"));
        assert_eq!(s.capacity, 2 * 1024 * 1024 * 1024);
        assert_eq!(s.mode, RealOpenMode::Direct);
        let s = RealDeviceSpec::parse("buffered:/tmp/scratch.bin:64m")
            .unwrap()
            .unwrap();
        assert_eq!(s.capacity, 64 * 1024 * 1024);
        assert_eq!(s.mode, RealOpenMode::Buffered);
        let s = RealDeviceSpec::parse("file:/tmp/with:colon")
            .unwrap()
            .unwrap();
        assert_eq!(
            s.path,
            PathBuf::from("/tmp/with:colon"),
            "non-size suffix stays in the path"
        );
        assert_eq!(
            RealDeviceSpec::parse("file:/tmp/x:4096")
                .unwrap()
                .unwrap()
                .capacity,
            4096
        );
    }

    #[test]
    fn malformed_sizes_are_errors_not_paths() {
        // A digit-leading suffix is a size attempt: a typo must error,
        // not silently benchmark a file literally named `…:1GB`.
        assert!(RealDeviceSpec::parse("file:/tmp/x:1GB").unwrap().is_err());
        assert!(RealDeviceSpec::parse("file:/tmp/x:0").unwrap().is_err());
        assert!(RealDeviceSpec::parse("direct:/dev/sdx:12moo")
            .unwrap()
            .is_err());
        // Overflowing sizes are rejected, not wrapped.
        assert!(RealDeviceSpec::parse("file:/tmp/x:20000000000G")
            .unwrap()
            .is_err());
    }

    #[test]
    fn size_suffixes() {
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("64K"), Some(64 * 1024));
        assert_eq!(parse_size("3m"), Some(3 * 1024 * 1024));
        assert_eq!(parse_size("1G"), Some(1 << 30));
        assert_eq!(parse_size("x"), None);
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("20000000000G"), None, "overflow rejected");
    }

    #[test]
    fn trace_ms_preserves_length() {
        let rts = vec![Duration::from_micros(500); 7];
        let t = trace_ms(&rts);
        assert_eq!(t.len(), 7);
        assert!((t[0] - 0.5).abs() < 1e-9);
    }
}
