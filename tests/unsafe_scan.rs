//! The workspace's one `unsafe`: `softfloat::kernel`'s column-tier
//! dispatch calls into its `#[target_feature]` functions, right after the
//! CPU has reported their features. This scan keeps it the only one.

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

/// How often the `unsafe` keyword occurs outside `//` comments
/// (`unsafe_code` in a lint attribute is another word).
fn unsafe_keywords(source: &str) -> usize {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    source
        .lines()
        .map(|line| {
            let code = line.split("//").next().unwrap_or_default();
            code.match_indices("unsafe")
                .filter(|&(at, word)| {
                    !code[..at].ends_with(ident) && !code[at + word.len()..].starts_with(ident)
                })
                .count()
        })
        .sum()
}

#[test]
fn the_column_tier_dispatch_is_the_only_unsafe_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let src = krate.expect("crates/ is readable").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let (mut keywords, mut allows) = (Vec::new(), Vec::new());
    for path in files {
        let source = std::fs::read_to_string(&path).expect("sources are UTF-8");
        let name = path
            .strip_prefix(root)
            .expect("under the root")
            .display()
            .to_string();
        match unsafe_keywords(&source) {
            0 => {}
            n => keywords.push((name.clone(), n)),
        }
        match source.matches("allow(unsafe_code)").count() {
            0 => {}
            n => allows.push((name, n)),
        }
    }
    keywords.sort();
    let kernel = "crates/softfloat/src/kernel.rs".to_string();
    assert_eq!(
        keywords,
        [(kernel.clone(), 2)],
        "`unsafe` outside the tier dispatch's two calls"
    );
    assert_eq!(
        allows,
        [(kernel, 1)],
        "one `#[allow(unsafe_code)]`, on the tier dispatch"
    );
}
