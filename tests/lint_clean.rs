//! The workspace must stay lint-clean: `uflip-lint` over every
//! first-party crate reports zero unsuppressed diagnostics, and every
//! suppression carries a non-empty reason. This is the same gate CI
//! runs via `uflip-lint --deny`; keeping it in the test suite means
//! `cargo test` alone catches regressions.

use std::path::Path;

#[test]
fn workspace_has_no_unsuppressed_lint_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let result = uflip_lint::scan_workspace(root).expect("scan the workspace");
    let unsuppressed: Vec<String> = result
        .diagnostics
        .iter()
        .filter(|d| d.suppressed.is_none())
        .map(|d| d.to_string())
        .collect();
    assert!(
        unsuppressed.is_empty(),
        "uflip-lint found {} unsuppressed diagnostics:\n{}",
        unsuppressed.len(),
        unsuppressed.join("\n")
    );
}

#[test]
fn every_suppression_carries_a_reason() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let result = uflip_lint::scan_workspace(root).expect("scan the workspace");
    let mut allowed = 0;
    for d in &result.diagnostics {
        if let Some(reason) = &d.suppressed {
            allowed += 1;
            assert!(
                !reason.trim().is_empty(),
                "suppression without a reason at {}:{}",
                d.path,
                d.line
            );
        }
    }
    assert!(allowed > 0, "expected at least one documented allow");
}

/// The lock-order graph must stay acyclic: this is the deadlock-freedom
/// contract for the code that shares state across threads (the sharded
/// plan executor, the threaded IO queue's workers), since two locks
/// taken in both orders anywhere can deadlock once those threads
/// overlap. A cycle here fails CI via `--deny` as well; the test keeps
/// the invariant visible under plain `cargo test`.
#[test]
fn lock_order_graph_is_acyclic() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let result = uflip_lint::scan_workspace(root).expect("scan the workspace");
    assert!(
        result.lock_cycles.is_empty(),
        "lock-order cycles in the workspace: {:?}",
        result.lock_cycles
    );
}

/// Allow markers may not grow silently: the count is budgeted in
/// `lint.toml` (`[policy] max_allows`) and a new marker needs a
/// deliberate bump there, reviewed like any other change.
#[test]
fn allow_count_stays_within_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let result = uflip_lint::scan_workspace(root).expect("scan the workspace");
    assert!(
        !result.over_allow_budget(),
        "{} allow markers exceed the lint.toml budget of {:?}",
        result.allow_count,
        result.max_allows
    );
}

/// The graph rules actually exercise this workspace: the executors'
/// sim roots must be found, and the graph artifacts must be non-trivial
/// (a misconfigured `[roots]` block would silently disable UF010–UF031).
#[test]
fn graph_rules_see_the_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let result = uflip_lint::scan_workspace(root).expect("scan the workspace");
    assert!(
        result.callgraph_json.contains("execute_plan"),
        "sim roots missing from the call graph"
    );
    assert!(
        result.lock_order_json.contains("Metrics.utilization"),
        "known workspace lock missing from the lock-order graph"
    );
}
