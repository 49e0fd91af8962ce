//! Real-hardware backend: direct file IO, synchronous and queued.
//!
//! Paper §4.3: "we use direct IO in order to bypass the host file system
//! and synchronous IO to avoid the parallelism features of the operating
//! system and device drivers." On Linux we open the target (a regular
//! file or a raw block device like `/dev/sdX`) with `O_DIRECT | O_SYNC`
//! and issue positioned reads/writes on page-aligned buffers, timing
//! each IO with a monotonic clock.
//!
//! Beyond the paper's synchronous setup, the device also serves the
//! NCQ-style [`crate::IoQueue`] interface through an embedded
//! [`ThreadedIoQueue`] (`BlockDevice::io_queue`), so queue-depth
//! sweeps and open-loop trace replays measure *real* OS/device
//! parallelism — the very effect §4.3's synchronous setting controls
//! away when a run must not overlap.
//!
//! No `libc` dependency: the open flags are passed through
//! `OpenOptionsExt::custom_flags` and the aligned buffer is carved out
//! of an over-allocated `Vec` — all safe `std`.

use crate::block_device::BlockDevice;
use crate::threaded_queue::ThreadedIoQueue;
use crate::Result;
use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(unix)]
use std::os::unix::fs::{FileExt, OpenOptionsExt};

/// `O_DIRECT` on Linux: bypass the page cache. The value is
/// architecture-specific — on arm/aarch64/riscv `0x4000` is
/// `O_DIRECTORY`, which would make every open of a regular file fail
/// with `ENOTDIR`.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
pub const O_DIRECT: i32 = 0x4000;
/// `O_DIRECT` on Linux (arm/aarch64/riscv/loongarch value).
#[cfg(any(
    target_arch = "arm",
    target_arch = "aarch64",
    target_arch = "riscv32",
    target_arch = "riscv64",
    target_arch = "loongarch64"
))]
pub const O_DIRECT: i32 = 0x10000;
/// `O_DIRECT` on Linux (powerpc value).
#[cfg(any(target_arch = "powerpc", target_arch = "powerpc64"))]
pub const O_DIRECT: i32 = 0x20000;
/// `O_DIRECT` on Linux (generic-ABI fallback for other architectures).
#[cfg(not(any(
    target_arch = "x86",
    target_arch = "x86_64",
    target_arch = "arm",
    target_arch = "aarch64",
    target_arch = "riscv32",
    target_arch = "riscv64",
    target_arch = "loongarch64",
    target_arch = "powerpc",
    target_arch = "powerpc64"
)))]
pub const O_DIRECT: i32 = 0x4000;
/// `O_SYNC` on Linux: synchronous file integrity completion.
pub const O_SYNC: i32 = 0x101000;
/// `O_SYNC` on macOS (which has no `O_DIRECT`; see
/// [`DirectIoFile::open`]).
pub const O_SYNC_MACOS: i32 = 0x0080;

/// Buffer alignment required by `O_DIRECT` (logical block size; 4 KiB is
/// safe on every modern device).
pub const DIRECT_IO_ALIGN: usize = 4096;

/// A buffer whose data region is aligned to [`DIRECT_IO_ALIGN`], built
/// without unsafe code by over-allocating and slicing.
#[derive(Debug)]
pub struct AlignedBuf {
    raw: Vec<u8>,
    start: usize,
    len: usize,
}

impl AlignedBuf {
    /// Allocate an aligned, zero-filled buffer of `len` bytes.
    pub fn new(len: usize) -> Self {
        let raw = vec![0u8; len + DIRECT_IO_ALIGN];
        let addr = raw.as_ptr() as usize;
        let start = (DIRECT_IO_ALIGN - (addr % DIRECT_IO_ALIGN)) % DIRECT_IO_ALIGN;
        AlignedBuf { raw, start, len }
    }

    /// The aligned data region.
    pub fn as_slice(&self) -> &[u8] {
        &self.raw[self.start..self.start + self.len]
    }

    /// The aligned data region, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.raw[self.start..self.start + self.len]
    }

    /// Grow (re-allocate) if smaller than `len`.
    pub fn ensure(&mut self, len: usize) {
        if self.len < len {
            *self = AlignedBuf::new(len);
        }
    }
}

/// A real device (or file) driven through `O_DIRECT`/`O_SYNC`.
#[derive(Debug)]
pub struct DirectIoFile {
    name: String,
    file: Arc<File>,
    capacity: u64,
    buf: AlignedBuf,
    epoch: Instant,
    fill: u8,
    queue: ThreadedIoQueue,
    /// Observability sink for the synchronous path; the queued path
    /// emits through the embedded [`ThreadedIoQueue`]'s own handle.
    sink: uflip_obs::SinkHandle,
}

impl DirectIoFile {
    /// Open `path` for direct IO, exposing `capacity` bytes. For regular
    /// files the file is extended to `capacity` first; for block
    /// devices the usable size is probed (seek-to-end) and a `capacity`
    /// beyond it fails fast instead of erroring mid-benchmark on the
    /// first out-of-range IO.
    ///
    /// Non-Linux Unix platforms have no `O_DIRECT`, and the device
    /// name says what actually happened instead of mislabeling
    /// cache-polluted results as `direct:`: macOS opens with plain
    /// `O_SYNC` and reports `osync:…`; other Unixes open buffered,
    /// report `buffered:…`, and warn on stderr.
    pub fn open(path: &Path, capacity: u64) -> Result<Self> {
        let mut opts = OpenOptions::new();
        // Never truncate: benchmarking an existing device/file must not
        // destroy its contents on open (writes are destructive enough).
        opts.read(true).write(true).create(true).truncate(false);
        #[cfg(target_os = "linux")]
        let prefix = {
            opts.custom_flags(O_DIRECT | O_SYNC);
            "direct"
        };
        #[cfg(target_os = "macos")]
        let prefix = {
            opts.custom_flags(O_SYNC_MACOS);
            "osync"
        };
        #[cfg(all(unix, not(any(target_os = "linux", target_os = "macos"))))]
        let prefix = {
            // uflip-lint: allow(UF004, reason = "one-time non-Linux fallback warning at open; obs has no warning channel")
            eprintln!(
                "warning: no O_DIRECT on this platform; {} opens buffered \
                 (results include OS caching)",
                path.display()
            );
            "buffered"
        };
        #[cfg(not(unix))]
        let prefix = "direct";
        let file = opts.open(path)?;
        Self::from_file(file, format!("{prefix}:{}", path.display()), capacity)
    }

    /// Open without `O_DIRECT` (buffered) — used by tests and as an
    /// escape hatch for filesystems that reject direct IO.
    pub fn open_buffered(path: &Path, capacity: u64) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Self::from_file(file, format!("buffered:{}", path.display()), capacity)
    }

    /// Shared tail of the open paths: size the target (extend regular
    /// files, probe block devices), stamp the epoch and build the
    /// queue engine over a shared handle.
    fn from_file(mut file: File, name: String, capacity: u64) -> Result<Self> {
        let meta = file.metadata()?;
        if meta.is_file() {
            if meta.len() < capacity {
                file.set_len(capacity)?;
            }
        } else {
            // Block devices report len() == 0 through metadata; the
            // usable size is where seek-to-end lands. Probing at open
            // turns a mid-benchmark OutOfRange surprise into an
            // immediate, explainable failure.
            use std::io::{Seek, SeekFrom};
            let end = file.seek(SeekFrom::End(0))?;
            file.seek(SeekFrom::Start(0))?;
            if end > 0 && capacity > end {
                return Err(crate::DeviceError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!(
                        "requested capacity {capacity} B exceeds the device's \
                         usable size {end} B ({name})"
                    ),
                )));
            }
        }
        let file = Arc::new(file);
        let epoch = Instant::now();
        let queue = ThreadedIoQueue::new(Arc::clone(&file), capacity, epoch);
        Ok(DirectIoFile {
            name,
            file,
            capacity,
            buf: AlignedBuf::new(DIRECT_IO_ALIGN),
            epoch,
            fill: 0xA5,
            queue,
            sink: uflip_obs::SinkHandle::null(),
        })
    }
}

impl BlockDevice for DirectIoFile {
    fn name(&self) -> &str {
        &self.name
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    #[cfg(unix)]
    fn read(&mut self, offset: u64, len: u64) -> Result<Duration> {
        self.check(offset, len)?;
        self.buf.ensure(len as usize);
        let t0 = Instant::now();
        self.file
            .read_exact_at(&mut self.buf.as_mut_slice()[..len as usize], offset)?;
        self.sink.add(uflip_obs::CounterId::HostReads, 1);
        self.sink.add(uflip_obs::CounterId::LogicalBytesRead, len);
        Ok(t0.elapsed())
    }

    #[cfg(unix)]
    fn write(&mut self, offset: u64, len: u64) -> Result<Duration> {
        self.check(offset, len)?;
        self.buf.ensure(len as usize);
        // Vary the payload so content-aware firmware cannot dedup it.
        self.fill = self.fill.wrapping_add(1);
        let fill = self.fill;
        self.buf.as_mut_slice()[..len as usize].fill(fill);
        let t0 = Instant::now();
        self.file
            .write_all_at(&self.buf.as_slice()[..len as usize], offset)?;
        self.sink.add(uflip_obs::CounterId::HostWrites, 1);
        self.sink
            .add(uflip_obs::CounterId::LogicalBytesWritten, len);
        Ok(t0.elapsed())
    }

    #[cfg(not(unix))]
    fn read(&mut self, _offset: u64, _len: u64) -> Result<Duration> {
        Err(crate::DeviceError::Io(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "direct IO backend requires a Unix platform",
        )))
    }

    #[cfg(not(unix))]
    fn write(&mut self, _offset: u64, _len: u64) -> Result<Duration> {
        Err(crate::DeviceError::Io(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "direct IO backend requires a Unix platform",
        )))
    }

    fn idle(&mut self, d: Duration) {
        std::thread::sleep(d);
    }

    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn io_queue(&mut self) -> Option<&mut dyn crate::queue::IoQueue> {
        Some(&mut self.queue)
    }

    fn io_queue_ref(&self) -> Option<&dyn crate::queue::IoQueue> {
        Some(&self.queue)
    }

    fn take_async_error(&mut self) -> Option<std::io::Error> {
        self.queue.take_error()
    }

    fn set_sink(&mut self, sink: uflip_obs::SinkHandle) {
        self.queue.set_sink(sink.clone());
        self.sink = sink;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_buf_is_aligned() {
        for len in [1usize, 511, 4096, 65536] {
            let b = AlignedBuf::new(len);
            assert_eq!(b.as_slice().as_ptr() as usize % DIRECT_IO_ALIGN, 0);
            assert_eq!(b.as_slice().len(), len);
        }
    }

    #[test]
    fn aligned_buf_grows_on_demand() {
        let mut b = AlignedBuf::new(512);
        b.ensure(8192);
        assert!(b.as_slice().len() >= 8192);
        assert_eq!(b.as_slice().as_ptr() as usize % DIRECT_IO_ALIGN, 0);
    }

    #[cfg(unix)]
    #[test]
    fn buffered_round_trip_on_temp_file() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("uflip-directio-test-{}", std::process::id()));
        let mut dev = DirectIoFile::open_buffered(&path, 1 << 20).unwrap();
        assert_eq!(dev.capacity_bytes(), 1 << 20);
        let w = dev.write(4096, 4096).unwrap();
        let r = dev.read(4096, 4096).unwrap();
        assert!(w > Duration::ZERO || r >= Duration::ZERO);
        assert!(dev.write(1 << 20, 512).is_err(), "out of range rejected");
        assert!(dev.write(100, 512).is_err(), "unaligned rejected");
        let _ = std::fs::remove_file(path);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn direct_open_works_or_reports_cleanly() {
        // Some CI filesystems (tmpfs, overlayfs) reject O_DIRECT; accept
        // either a working open or a clean io::Error — never a panic.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("uflip-odirect-test-{}", std::process::id()));
        match DirectIoFile::open(&path, 1 << 20) {
            Ok(mut dev) => match dev.write(0, 4096) {
                Ok(rt) => assert!(rt > Duration::ZERO),
                Err(crate::DeviceError::Io(_)) => {}
                Err(e) => panic!("unexpected error class: {e}"),
            },
            Err(crate::DeviceError::Io(_)) => {}
            Err(e) => panic!("unexpected error class: {e}"),
        }
        let _ = std::fs::remove_file(path);
    }
}
