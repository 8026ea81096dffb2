//! Library results hold what was computed, not how long it took: the
//! runtime's ledger and time axis, the mapper's and the router's results
//! and the DCS reports are functions of their inputs, and host time is
//! reported by trace spans, the shard tier's histograms and the drivers'
//! own timers. This scan keeps the wall clock out of every library crate
//! but the few named in [`CLOCK_READERS`]. (A lint on the types would
//! also reach `crates/core/tests/pe_scale.rs`, which times itself on
//! purpose.)
//!
//! The same scan keeps verification the caller's: only the runtime's
//! export module names the `verify` crate, and `par`'s sources name it
//! nowhere (its tests lint what the engine returns). It keeps the
//! mapper off the serve path: the runtime prices swaps on a checked-in
//! table, so neither its library nor the overlay's names `mapping`. And
//! it keeps modeled time in one place: only the runtime's ledger module
//! names the ledger's time fields. In `par` it keeps the lift of
//! nets into the routing graph in one place: only `troute::terminals`
//! asks the graph for a placed pin's node.

use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directories are readable") {
        let path = entry.expect("source directories are readable").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The lines of `source`, numbered from 1, that name one of `names`
/// outside `//` comments.
fn lines_naming(source: &str, names: &[&str]) -> Vec<usize> {
    source
        .lines()
        .enumerate()
        .filter(|(_, line)| {
            let code = line.split("//").next().unwrap_or_default();
            names.iter().any(|name| code.contains(name))
        })
        .map(|(i, _)| i + 1)
        .collect()
}

/// The library crates that read the clock, each for its reason.
const CLOCK_READERS: [(&str, &str); 4] = [
    ("trace", "a span's timestamps are its product"),
    ("shard", "its latency histograms are its product"),
    (
        "verify",
        "`VerifyReport::seconds`, which the benchmark reads",
    ),
    ("xbench", "the paper drivers time what they run"),
];

#[test]
fn library_crates_read_no_wall_clock() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    let mut crates = 0;
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let dir = entry.expect("crates/ is readable").path();
        let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if dir.join("src").is_dir() && !CLOCK_READERS.iter().any(|(c, _)| *c == name) {
            rust_files(&dir.join("src"), &mut files);
            crates += 1;
        }
    }
    assert!(
        crates >= 10 && files.len() > 50,
        "the scan found the sources"
    );
    let mut hits = Vec::new();
    for path in files {
        let source = std::fs::read_to_string(&path).expect("sources are UTF-8");
        for line in lines_naming(&source, &["Instant", "SystemTime"]) {
            let name = path.strip_prefix(root).expect("under the root").display();
            hits.push(format!("{name}:{line}"));
        }
    }
    hits.sort();
    assert!(
        hits.is_empty(),
        "wall-clock time in library state: {hits:?}"
    );
}

/// Verification is the caller's: the runtime reaches the `verify` crate
/// only from its export module, so no operation can run a pass itself or
/// keep anything derived for one.
#[test]
fn runtime_names_the_verifier_only_in_its_export_module() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/runtime/src");
    let mut files = Vec::new();
    rust_files(&src, &mut files);
    let mut hits = Vec::new();
    let mut exports = 0;
    for path in files {
        let source = std::fs::read_to_string(&path).expect("sources are UTF-8");
        let lines = lines_naming(&source, &["verify::"]);
        if path == src.join("snapshot.rs") {
            exports = lines.len();
            continue;
        }
        let name = path.strip_prefix(&src).expect("under src").display();
        hits.extend(lines.into_iter().map(|line| format!("{name}:{line}")));
    }
    assert!(exports > 0, "the export module names the verifier");
    hits.sort();
    assert!(
        hits.is_empty(),
        "the verifier named outside snapshot.rs: {hits:?}"
    );
}

/// `par` returns results and checks none: no source under its `src/`,
/// unit tests included, names the `verify` crate, so the library has no
/// build edge to it and no operation can lint its own result.
#[test]
fn par_names_the_verifier_nowhere() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("crates/par/src"), &mut files);
    assert!(files.len() > 3, "the scan found the sources");
    let mut hits = Vec::new();
    for path in files {
        let source = std::fs::read_to_string(&path).expect("sources are UTF-8");
        let name = path.strip_prefix(root).expect("under the root").display();
        for line in lines_naming(&source, &["verify::"]) {
            hits.push(format!("{name}:{line}"));
        }
    }
    hits.sort();
    assert!(hits.is_empty(), "the verifier named in par: {hits:?}");
}

/// The runtime maps nothing: the pricing PE's PPC is a checked-in table,
/// so no library source names the mapper (`mapping` is a dev-dependency,
/// for the unit tests that map the PE afresh to check the table against).
/// Nor does the overlay crate's library, whose only mapper caller is the
/// Table I test `crates/core/tests/pe_scale.rs`.
#[test]
fn runtime_maps_nothing() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in ["runtime", "core"] {
        rust_files(&root.join("crates").join(krate).join("src"), &mut files);
    }
    assert!(files.len() > 15, "the scan found the sources");
    let mut hits = Vec::new();
    for path in files {
        let source = std::fs::read_to_string(&path).expect("sources are UTF-8");
        // The library: everything above a file's unit tests.
        let library = source.split("#[cfg(test)]").next().unwrap_or_default();
        let name = path.strip_prefix(root).expect("under the root").display();
        for line in lines_naming(library, &["mapping::"]) {
            hits.push(format!("{name}:{line}"));
        }
    }
    hits.sort();
    assert!(hits.is_empty(), "the mapper named in the runtime: {hits:?}");
}

/// Nets are lifted into the routing graph once: `troute::terminals` is
/// the only library code of `par` that asks the graph for a pin's node,
/// so the router, the warm-start audit and the verifier's route pass all
/// read the same terminals. Unit tests build their own nets on purpose.
#[test]
fn par_lifts_nets_into_the_routing_graph_only_in_troute() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/par/src");
    let mut files = Vec::new();
    rust_files(&src, &mut files);
    let mut hits = Vec::new();
    let mut lift = 0;
    for path in files {
        let source = std::fs::read_to_string(&path).expect("sources are UTF-8");
        // The library: everything above a file's unit tests.
        let library = source.split("#[cfg(test)]").next().unwrap_or_default();
        let lines = lines_naming(library, &[".opin(", ".ipin("]);
        if path == src.join("troute.rs") {
            lift = lines.len();
            continue;
        }
        let name = path.strip_prefix(&src).expect("under src").display();
        hits.extend(lines.into_iter().map(|line| format!("{name}:{line}")));
    }
    assert!(lift > 0, "troute.rs lifts the terminals");
    hits.sort();
    assert!(
        hits.is_empty(),
        "a pin lifted into the graph outside troute.rs: {hits:?}"
    );
}

/// Modeled time has one owner: the `Ledger` keeps the totals and
/// `Runtime::charge`, in `ledger.rs`, is their one writer. The time axis
/// keeps no total, and no other runtime source reads or writes one, so a
/// second copy cannot grow beside the ledger's.
#[test]
fn only_the_ledger_module_names_the_modeled_totals() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/runtime/src");
    let mut files = Vec::new();
    rust_files(&src, &mut files);
    let fields = [
        ".admission_port_time",
        ".swap_port_time",
        ".switch_port_time",
        ".compaction_port_time",
        ".modeled_makespan",
        ".overlap_saved",
    ];
    let mut hits = Vec::new();
    let mut owner = 0;
    for path in files {
        let source = std::fs::read_to_string(&path).expect("sources are UTF-8");
        let lines = lines_naming(&source, &fields);
        if path == src.join("ledger.rs") {
            owner = lines.len();
            continue;
        }
        let name = path.strip_prefix(&src).expect("under src").display();
        hits.extend(lines.into_iter().map(|line| format!("{name}:{line}")));
    }
    assert!(owner > 0, "the ledger module books the totals");
    hits.sort();
    assert!(
        hits.is_empty(),
        "a modeled total named outside ledger.rs: {hits:?}"
    );
}
