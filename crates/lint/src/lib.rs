//! `uflip_lint` — the workspace's in-repo static-analysis pass.
//!
//! The simulator's core guarantees are *global* properties: bit-identical
//! replay (no wall-clock reads inside sim paths), panic-free library code
//! (typed `FtlError`/`DeviceError`/`NandError` returns), and overflow-safe
//! nanosecond/LBA arithmetic. Tests catch regressions after the fact; this
//! pass pins the invariants down structurally, before any test runs.
//!
//! The analyzer is three layers, all dependency-free (no syn, no
//! crates.io) so the whole pass builds in well under a second and can
//! gate CI ahead of the build proper:
//!
//! 1. **Token rules** (UF001–UF006) — per-file patterns over the
//!    hand-rolled lexer's token stream.
//! 2. **Graph rules** (UF010–UF031) — a lightweight item parser builds
//!    a workspace symbol table and a conservative call graph; rules run
//!    over reachability from declared sim roots, the lock-order graph
//!    and error-flow facts.
//! 3. **Workspace rule** (UF040) — a name count over the whole
//!    workspace, applied only by [`scan_workspace`].
//!
//! # Rules
//!
//! | Code  | Layer | Forbids | Invariant |
//! |-------|-------|---------|-----------|
//! | UF001 | token | `Instant::now` / `SystemTime` outside real-device/bench code | determinism: sim paths advance the virtual clock only |
//! | UF002 | token | `unwrap` / `expect` / `panic!` / `unreachable!` / `todo!` / `unimplemented!` in library code | panic-safety: fallible paths return typed errors |
//! | UF003 | token | lossy `as` narrowing of ns/LBA/sector-named expressions | cast-safety: the PR 5 `pow2_sweep` overflow class |
//! | UF004 | token | `println!` / `eprintln!` / `print!` / `eprint!` / `dbg!` in library code | output routes through `uflip_obs` / `uflip_report` |
//! | UF005 | token | `.to_string().contains(…)` on error values | match `FailureKind`, not rendered messages |
//! | UF006 | token | `==` / `!=` against float literals | exact float equality is never the measured contract |
//! | UF010 | graph | wall-clock reads reachable from a sim root | reachability closes the gap UF001's file-local view leaves |
//! | UF011 | graph | unseeded RNG (`thread_rng`, `OsRng`, …) reachable from a sim root | every random stream is seeded by the plan |
//! | UF012 | graph | std `HashMap`/`HashSet` iteration reachable from a sim root | SipHash iteration order is per-process random — fingerprint poison |
//! | UF020 | graph | cycles in the lock-order graph | striped-lock FTLs (ROADMAP item 3) need one global lock order |
//! | UF021 | graph | a guard held across a call that may block | no lock convoy / deadlock-by-blocking |
//! | UF030 | graph | `let _ =` / statement `.ok();` discarding a `Result` in library code | errors are handled or explicitly documented |
//! | UF031 | graph | a surviving UF002 panic site reachable from a sim root | sim paths stay panic-free even where a file-local allow exists |
//! | UF040 | workspace | a library `pub fn` whose name no other identifier in the workspace, `tests/`, `examples/` or `benchmark/` spells | no caller-less public API |
//!
//! Suppression: `// uflip-lint: allow(UF003, reason = "…")` on the same
//! line as the finding or the line before it; the item-scoped form
//! `// uflip-lint: allow-fn(UF021, reason = "…")` covers the whole next
//! function. A marker without a reason, or one that suppresses nothing,
//! is itself reported as `UF000`.
//!
//! Sim roots default to `execute_plan*` / `execute_parallel*` /
//! `replay_trace*` plus all impls of the `Ftl` trait, and can be
//! overridden by a `[roots]` block in `lint.toml` at the workspace root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allow;
pub mod config;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod reach;
pub mod rules;
pub mod scan;

pub use allow::AllowMarker;
pub use config::LintConfig;
pub use scan::{scan_source, scan_sources, scan_workspace, FileClass, ScanResult};

use std::fmt;

/// Diagnostic codes. `UF000` is the meta-code for malformed or unused
/// allow markers; `UF001`–`UF006` are the token rules, `UF010`–`UF031`
/// the graph rules, `UF040` the workspace rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum Code {
    UF000,
    UF001,
    UF002,
    UF003,
    UF004,
    UF005,
    UF006,
    UF010,
    UF011,
    UF012,
    UF020,
    UF021,
    UF030,
    UF031,
    UF040,
}

impl Code {
    /// All rule codes, in order (excluding the meta-code `UF000`).
    pub const RULES: [Code; 14] = [
        Code::UF001,
        Code::UF002,
        Code::UF003,
        Code::UF004,
        Code::UF005,
        Code::UF006,
        Code::UF010,
        Code::UF011,
        Code::UF012,
        Code::UF020,
        Code::UF021,
        Code::UF030,
        Code::UF031,
        Code::UF040,
    ];

    /// The code's canonical `UFxxx` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::UF000 => "UF000",
            Code::UF001 => "UF001",
            Code::UF002 => "UF002",
            Code::UF003 => "UF003",
            Code::UF004 => "UF004",
            Code::UF005 => "UF005",
            Code::UF006 => "UF006",
            Code::UF010 => "UF010",
            Code::UF011 => "UF011",
            Code::UF012 => "UF012",
            Code::UF020 => "UF020",
            Code::UF021 => "UF021",
            Code::UF030 => "UF030",
            Code::UF031 => "UF031",
            Code::UF040 => "UF040",
        }
    }

    /// Parse a `UFxxx` spelling (as written in an allow marker).
    pub fn parse(s: &str) -> Option<Code> {
        match s {
            "UF000" => Some(Code::UF000),
            "UF001" => Some(Code::UF001),
            "UF002" => Some(Code::UF002),
            "UF003" => Some(Code::UF003),
            "UF004" => Some(Code::UF004),
            "UF005" => Some(Code::UF005),
            "UF006" => Some(Code::UF006),
            "UF010" => Some(Code::UF010),
            "UF011" => Some(Code::UF011),
            "UF012" => Some(Code::UF012),
            "UF020" => Some(Code::UF020),
            "UF021" => Some(Code::UF021),
            "UF030" => Some(Code::UF030),
            "UF031" => Some(Code::UF031),
            "UF040" => Some(Code::UF040),
            _ => None,
        }
    }

    /// One-line description used in human output.
    pub fn summary(self) -> &'static str {
        match self {
            Code::UF000 => "malformed or unused uflip-lint allow marker",
            Code::UF001 => "wall-clock read in a deterministic sim path",
            Code::UF002 => "panicking call in non-test library code",
            Code::UF003 => "lossy `as` narrowing of a ns/LBA/sector value",
            Code::UF004 => "direct stdout/stderr print in library code",
            Code::UF005 => "string-matching on a rendered error message",
            Code::UF006 => "exact float comparison",
            Code::UF010 => "wall-clock read reachable from a sim root",
            Code::UF011 => "unseeded randomness reachable from a sim root",
            Code::UF012 => "std HashMap/HashSet iteration reachable from a sim root",
            Code::UF020 => "cycle in the lock-order graph",
            Code::UF021 => "lock guard held across a call that may block",
            Code::UF030 => "Result discarded via `let _ =` or `.ok();` in library code",
            Code::UF031 => "allowed panic site reachable from a sim root",
            Code::UF040 => "library `pub fn` that nothing names",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding, positioned at a file:line:col.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The rule (or `UF000` meta) code.
    pub code: Code,
    /// Path of the offending file, relative to the workspace root.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based character column.
    pub col: usize,
    /// Human-readable description of this specific finding.
    pub message: String,
    /// `Some(reason)` when an allow marker suppressed this finding.
    pub suppressed: Option<String>,
}

/// Append `s` to `out` as a JSON string literal, escaping as needed.
pub(crate) fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                let b = c as u32;
                for shift in [4u32, 0] {
                    let d = (b >> shift) & 0xF;
                    out.push(char::from_digit(d, 16).unwrap_or('0'));
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {} [{}]",
            self.path, self.line, self.col, self.message, self.code
        )?;
        if let Some(reason) = &self.suppressed {
            write!(f, " (allowed: {reason})")?;
        }
        Ok(())
    }
}
