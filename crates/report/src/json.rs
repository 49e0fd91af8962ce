//! JSON serialization of runs and summaries.

use serde::Serialize;
use std::path::Path;

/// Serialize any result to pretty JSON.
pub fn to_json<T: Serialize>(value: &T) -> String {
    // uflip-lint: allow(UF002, reason = "serialization of plain result structs with string keys cannot fail")
    serde_json::to_string_pretty(value).expect("benchmark results are always serializable")
}

/// Write a result to a JSON file, creating parent directories.
pub fn write_json<T: Serialize>(value: &T, path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, to_json(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_json_creates_directories() {
        let dir = std::env::temp_dir().join(format!("uflip-json-{}", std::process::id()));
        let path = dir.join("nested/out.json");
        write_json(&vec![1, 2, 3], &path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains('1'));
        let _ = std::fs::remove_dir_all(dir);
    }
}
