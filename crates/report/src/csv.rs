//! CSV output for sweeps and traces.
//!
//! uFLIP published its raw results ("tens of millions of data points")
//! at uflip.org; these helpers keep the bench binaries' outputs
//! machine-readable so downstream analysis can reproduce every figure
//! from flat files.

use std::fmt::Write as _;

/// Render a table as CSV. Fields containing commas, quotes or newlines
/// are quoted per RFC 4180.
pub fn to_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    write_row(&mut out, headers.iter().map(|s| s.to_string()));
    for row in rows {
        write_row(&mut out, row.iter().cloned());
    }
    out
}

fn write_row(out: &mut String, fields: impl Iterator<Item = String>) {
    let mut first = true;
    for f in fields {
        if !first {
            out.push(',');
        }
        first = false;
        if f.contains(',') || f.contains('"') || f.contains('\n') {
            let escaped = f.replace('"', "\"\"");
            let _ = write!(out, "\"{escaped}\"");
        } else {
            out.push_str(&f);
        }
    }
    out.push('\n');
}

/// A full IO-trace dump as CSV: one row per [`uflip_trace::Trace`]
/// record with its location, size and measured timing — the
/// machine-readable companion of a capture, written by the
/// `trace_replay` binary next to the JSONL trace itself.
pub fn trace_records_csv(trace: &uflip_trace::Trace) -> String {
    let rows: Vec<Vec<String>> = trace
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            vec![
                i.to_string(),
                r.op.letter().to_string(),
                r.lba.to_string(),
                r.sectors.to_string(),
                r.submit_ns.to_string(),
                r.latency_ns().to_string(),
            ]
        })
        .collect();
    to_csv(
        &["index", "op", "lba", "sectors", "submit_ns", "latency_ns"],
        &rows,
    )
}

/// A response-time trace as CSV (io index, rt in ms).
pub fn trace_csv(rts_ms: &[f64]) -> String {
    let rows: Vec<Vec<String>> = rts_ms
        .iter()
        .enumerate()
        .map(|(i, &y)| vec![format!("{i}"), format!("{y}")])
        .collect();
    to_csv(&["io", "rt_ms"], &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_table() {
        let csv = to_csv(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(csv, "a,b\n1,2\n");
    }

    #[test]
    fn quoting_rules() {
        let csv = to_csv(
            &["x"],
            &[
                vec!["has,comma".into()],
                vec!["has\"quote".into()],
                vec!["plain".into()],
            ],
        );
        assert!(csv.contains("\"has,comma\""));
        assert!(csv.contains("\"has\"\"quote\""));
        assert!(csv.contains("plain\n"));
    }

    #[test]
    fn trace_records_shape() {
        use uflip_patterns::Mode;
        let mut t = uflip_trace::Trace::new("sim", "RW");
        t.push(uflip_trace::TraceRecord {
            op: Mode::Write,
            lba: 64,
            sectors: 4,
            submit_ns: 1_000,
            complete_ns: 3_000,
            queue_depth: 1,
        });
        let csv = trace_records_csv(&t);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "index,op,lba,sectors,submit_ns,latency_ns");
        assert_eq!(lines[1], "0,W,64,4,1000,2000");
    }

    #[test]
    fn trace_shape() {
        let csv = trace_csv(&[1.0, 2.0, 3.0]);
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.starts_with("io,rt_ms\n0,1\n"));
    }
}
