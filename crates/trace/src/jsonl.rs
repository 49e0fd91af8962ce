//! JSON-lines serialization: a one-line header followed by one compact
//! JSON object per record.
//!
//! ```text
//! {"uflip_trace":1,"device":"memoright","label":"RR"}
//! {"op":"Read","lba":320,"sectors":4,"submit_ns":0,"complete_ns":148000,"queue_depth":1}
//! ...
//! ```
//!
//! The format is greppable, diffable, appendable while capturing, and
//! tolerant of trailing newlines / blank lines. For bulk captures use
//! the [`crate::binary`] encoding instead.

use crate::error::TraceError;
use crate::record::TraceRecord;
use crate::trace::Trace;
use crate::Result;
use serde::Value;
use std::path::Path;

/// Format version stamped into (and required from) the header line.
pub const JSONL_VERSION: u64 = 1;

impl Trace {
    /// Render the trace as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let header = Value::Map(vec![
            ("uflip_trace".to_string(), Value::U64(JSONL_VERSION)),
            ("device".to_string(), Value::Str(self.device.clone())),
            ("label".to_string(), Value::Str(self.label.clone())),
        ]);
        let mut out =
            // uflip-lint: allow(UF002, reason = "serialization of a plain header struct cannot fail")
        serde_json::to_string(&header).expect("trace headers are always serializable");
        out.push('\n');
        for r in &self.records {
            // uflip-lint: allow(UF002, reason = "serialization of a plain record struct cannot fail")
            out.push_str(&serde_json::to_string(r).expect("trace records are always serializable"));
            out.push('\n');
        }
        out
    }

    /// Parse a trace from JSON lines (the inverse of
    /// [`Trace::to_jsonl`]). Blank lines are ignored.
    pub fn from_jsonl(text: &str) -> Result<Self> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines
            .next()
            .ok_or_else(|| TraceError::format("empty input: missing header line"))?;
        let header = serde_json::parse(header)?;
        let entries = header
            .as_map()
            .map_err(|e| TraceError::format(format!("header line: {e}")))?;
        let field = |key: &str| -> Result<&Value> {
            entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| TraceError::format(format!("header missing `{key}`")))
        };
        match field("uflip_trace")? {
            Value::U64(v) if *v == JSONL_VERSION => {}
            other => {
                return Err(TraceError::format(format!(
                    "unsupported trace version {other:?} (expected {JSONL_VERSION})"
                )))
            }
        }
        let string_field = |key: &str| -> Result<String> {
            match field(key)? {
                Value::Str(s) => Ok(s.clone()),
                other => Err(TraceError::format(format!(
                    "header `{key}`: expected string, found {}",
                    other.kind()
                ))),
            }
        };
        let mut trace = Trace::new(string_field("device")?, string_field("label")?);
        for (i, line) in lines.enumerate() {
            let record: TraceRecord = serde_json::from_str(line)
                .map_err(|e| TraceError::format(format!("record line {}: {e}", i + 1)))?;
            trace.push(record);
        }
        Ok(trace)
    }

    /// Write the JSONL rendering to a file, creating parent
    /// directories.
    pub fn save_jsonl(&self, path: &Path) -> Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_jsonl())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uflip_patterns::Mode;

    fn sample() -> Trace {
        let mut t = Trace::new("memoright", "RR");
        for i in 0..4u64 {
            t.push(TraceRecord {
                op: if i % 2 == 0 { Mode::Read } else { Mode::Write },
                lba: i * 64,
                sectors: 4,
                submit_ns: i * 1_000,
                complete_ns: i * 1_000 + 148_000,
                queue_depth: 1,
            });
        }
        t
    }

    #[test]
    fn round_trip_is_identity() {
        let t = sample();
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 5, "header + one line per record");
        assert_eq!(Trace::from_jsonl(&text).unwrap(), t);
    }

    #[test]
    fn metadata_strings_are_escaped() {
        let mut t = sample();
        t.device = "dev \"A\"\nline".to_string();
        t.label = "mix,comma".to_string();
        assert_eq!(Trace::from_jsonl(&t.to_jsonl()).unwrap(), t);
    }

    #[test]
    fn blank_lines_are_tolerated() {
        let t = sample();
        let text = t.to_jsonl().replace('\n', "\n\n");
        assert_eq!(Trace::from_jsonl(&text).unwrap(), t);
    }

    #[test]
    fn bad_inputs_are_rejected_with_context() {
        assert!(Trace::from_jsonl("").is_err());
        assert!(Trace::from_jsonl("{\"uflip_trace\":99}").is_err());
        let err =
            Trace::from_jsonl("{\"uflip_trace\":1,\"device\":\"d\",\"label\":\"l\"}\nnot json")
                .unwrap_err();
        assert!(err.to_string().contains("record line 1"));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("uflip-trace-{}", std::process::id()));
        let path = dir.join("nested/t.jsonl");
        let t = sample();
        t.save_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(Trace::from_jsonl(&text).unwrap(), t);
        let _ = std::fs::remove_dir_all(dir);
    }
}
