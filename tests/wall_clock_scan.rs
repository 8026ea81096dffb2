//! The serve path's library state holds modeled time only: the runtime's
//! ledger and time axis, the mapper's result and the DCS reports are
//! functions of their inputs, and host time is reported by trace spans,
//! the shard tier's histograms and the drivers' own timers. This scan
//! keeps the wall clock out of the three crates whose results those are.
//! (A lint on the types would also reach `crates/core/tests/pe_scale.rs`,
//! which times itself on purpose.)

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

/// The lines of `source`, numbered from 1, that name a wall-clock type
/// outside `//` comments.
fn wall_clock_lines(source: &str) -> Vec<usize> {
    source
        .lines()
        .enumerate()
        .filter(|(_, line)| {
            let code = line.split("//").next().unwrap_or_default();
            code.contains("Instant") || code.contains("SystemTime")
        })
        .map(|(i, _)| i + 1)
        .collect()
}

#[test]
fn runtime_core_and_dcs_sources_read_no_wall_clock() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in ["runtime", "core", "dcs"] {
        rust_files(&root.join("crates").join(krate).join("src"), &mut files);
    }
    assert!(files.len() > 10, "the scan found the sources");
    let mut hits = Vec::new();
    for path in files {
        let source = std::fs::read_to_string(&path).expect("sources are UTF-8");
        for line in wall_clock_lines(&source) {
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
