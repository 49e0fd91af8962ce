//! Call-graph construction over a hand-built three-crate workspace:
//! `engine` (sim roots) → `model` (free fns) → nothing, plus `hw`
//! (methods and an `Ftl` trait impl). Asserts the exact edge set, the
//! reachability partition and the root-path reconstruction that the
//! UF01x/UF03x messages rely on. A second mini workspace, written to
//! disk, pins what UF040 counts as a caller.

use uflip_lint::config::LintConfig;
use uflip_lint::graph::{self, Graph};
use uflip_lint::lexer;
use uflip_lint::parse::{self, ParsedFile};
use uflip_lint::{scan_sources, Code};

const ENGINE: &str = "\
pub fn execute_plan() {
    uflip_model::step();
    let mut dev = uflip_hw::Device::new();
    dev.tick();
}

pub fn setup_only() {
    uflip_model::orphan();
}
";

const MODEL: &str = "\
pub fn step() -> u64 {
    helper() + 1
}

fn helper() -> u64 {
    7
}

pub fn orphan() -> u64 {
    41
}
";

const HW: &str = "\
pub struct Device {
    pub cycles: u64,
}

impl Device {
    pub fn new() -> Device {
        Device { cycles: 0 }
    }

    pub fn tick(&mut self) {
        self.cycles += 1;
    }
}

pub trait Ftl {
    fn map_page(&mut self);
}

impl Ftl for Device {
    fn map_page(&mut self) {
        self.tick();
    }
}
";

fn sources() -> Vec<(String, String)> {
    vec![
        ("crates/engine/src/lib.rs".to_string(), ENGINE.to_string()),
        ("crates/model/src/lib.rs".to_string(), MODEL.to_string()),
        ("crates/hw/src/lib.rs".to_string(), HW.to_string()),
    ]
}

fn build() -> (Vec<ParsedFile>, Graph) {
    let files: Vec<ParsedFile> = sources()
        .iter()
        .map(|(rel, src)| parse::parse_file(rel, &lexer::lex(src)))
        .collect();
    let graph = graph::build(&files, &LintConfig::default());
    (files, graph)
}

fn id_of(files: &[ParsedFile], g: &Graph, display: &str) -> usize {
    (0..g.fns.len())
        .find(|&i| g.item(files, i).display == display)
        .unwrap_or_else(|| panic!("no fn named {display}"))
}

fn callees<'a>(files: &'a [ParsedFile], g: &'a Graph, display: &str) -> Vec<String> {
    let id = id_of(files, g, display);
    let mut v: Vec<String> = g.edges[id]
        .iter()
        .map(|&c| g.item(files, c).display.clone())
        .collect();
    v.sort();
    v
}

#[test]
fn cross_crate_edges_resolve() {
    let (files, g) = build();
    assert_eq!(
        callees(&files, &g, "execute_plan"),
        vec!["Device::new", "Device::tick", "step"],
        "free-fn path, type-qualified path and method calls all resolve \
         across crate boundaries"
    );
    assert_eq!(callees(&files, &g, "step"), vec!["helper"]);
    assert_eq!(
        callees(&files, &g, "Device::map_page"),
        vec!["Device::tick"]
    );
    assert_eq!(callees(&files, &g, "helper"), Vec::<String>::new());
}

#[test]
fn roots_are_name_patterns_plus_ftl_impls() {
    let (files, g) = build();
    let mut roots: Vec<String> = g
        .roots
        .iter()
        .map(|&r| g.item(&files, r).display.clone())
        .collect();
    roots.sort();
    assert_eq!(
        roots,
        vec!["Device::map_page", "Ftl::map_page", "execute_plan"],
        "execute_plan matches the default pattern; the Ftl trait's method \
         stub and Device's impl of it are both roots; setup_only is neither"
    );
}

#[test]
fn reachability_partitions_the_workspace() {
    let (files, g) = build();
    let reachable = [
        "execute_plan",
        "step",
        "helper",
        "Device::new",
        "Device::tick",
        "Device::map_page",
    ];
    for name in reachable {
        assert!(
            g.is_reachable(id_of(&files, &g, name)),
            "{name} must be reachable from a sim root"
        );
    }
    for name in ["setup_only", "orphan"] {
        assert!(
            !g.is_reachable(id_of(&files, &g, name)),
            "{name} must not be reachable (setup_only is not a root, and \
             orphan is only called from it)"
        );
    }
}

#[test]
fn root_path_reconstructs_the_call_chain() {
    let (files, g) = build();
    let helper = id_of(&files, &g, "helper");
    assert_eq!(
        g.root_path(&files, helper),
        vec!["execute_plan", "step", "helper"],
        "UF01x messages print this chain; it must start at the root"
    );
}

#[test]
fn scan_sources_runs_graph_rules_across_crates() {
    // Put a wall-clock read in the model crate, reachable only through
    // the engine crate's root: the finding must land in model's file.
    let mut srcs = sources();
    srcs[1].1 = srcs[1].1.replace(
        "7\n",
        "std::time::Instant::now().elapsed().as_nanos() as u64\n",
    );
    let result = scan_sources(&srcs, &LintConfig::default());
    let uf010: Vec<_> = result
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::UF010)
        .collect();
    assert_eq!(uf010.len(), 1, "{:?}", result.diagnostics);
    assert_eq!(uf010[0].path, "crates/model/src/lib.rs");
    assert!(
        uf010[0].message.contains("execute_plan") && uf010[0].message.contains("step"),
        "message shows the cross-crate chain: {}",
        uf010[0].message
    );
}

/// A library crate for UF040: `orphan` is spelled only by its own
/// definition (the doc link and the string literal are not callers);
/// `kept_by_example` has one caller, in `examples/`; the trait-impl
/// method, the crate-visible fn and the test helper never qualify.
const UF040_LIB: &str = "\
/// Unlike [`orphan`], this one has a caller.
pub fn kept_by_example() -> &'static str {
    \"orphan\"
}

pub fn orphan() {}

pub(crate) fn crate_only() {}

pub struct Device;

impl Drop for Device {
    fn drop(&mut self) {}
}

#[cfg(test)]
mod tests {
    pub fn test_helper() {}
}
";

/// The only caller of `kept_by_example`. Its `unwrap` would be a UF002
/// finding if rules ran on reference-only sources.
const UF040_EXAMPLE: &str = "\
fn main() {
    let s = uflip_model::kept_by_example();
    println!(\"{}\", s.parse::<u8>().unwrap());
}
";

#[test]
fn uf040_flags_pub_fns_nothing_names_on_workspace_scans_only() {
    let root = std::env::temp_dir().join(format!("uflip-lint-uf040-{}", std::process::id()));
    for (rel, src) in [
        ("crates/model/src/lib.rs", UF040_LIB),
        ("examples/demo.rs", UF040_EXAMPLE),
    ] {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("has a parent")).expect("mkdir");
        std::fs::write(path, src).expect("write source");
    }
    let result = uflip_lint::scan_workspace(&root).expect("scan the mini workspace");
    std::fs::remove_dir_all(&root).expect("remove the mini workspace");

    let found: Vec<(&str, usize)> = result
        .diagnostics
        .iter()
        .map(|d| (d.path.as_str(), d.line))
        .collect();
    assert_eq!(
        found,
        vec![("crates/model/src/lib.rs", 6)],
        "only `orphan` is flagged, and nothing in examples/: {:?}",
        result.diagnostics
    );
    assert_eq!(result.diagnostics[0].code, Code::UF040);
    assert_eq!(result.files_scanned, 1, "examples/ is reference-only");

    // A single-file scan never applies the workspace rule.
    let single = scan_sources(
        &[("crates/model/src/lib.rs".to_string(), UF040_LIB.to_string())],
        &LintConfig::default(),
    );
    assert!(single.diagnostics.is_empty(), "{:?}", single.diagnostics);
}
