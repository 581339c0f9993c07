//! Cross-reference link check over the repository's Markdown docs.
//!
//! Every relative Markdown link (`[text](path)`) in the documentation
//! set must point at a file or directory that exists in the repository,
//! so docs cannot silently rot as files move. External (`http(s)://`)
//! and intra-page (`#anchor`) links are out of scope. CI runs this as
//! the docs link-check step; it also runs under plain `cargo test`.

use std::path::{Path, PathBuf};

/// The documentation set to check: every tracked Markdown file that
/// carries cross-references.
fn doc_files(root: &Path) -> Vec<PathBuf> {
    let mut files = vec![
        root.join("README.md"),
        root.join("ROADMAP.md"),
        root.join("CHANGES.md"),
        root.join("shims/README.md"),
    ];
    let docs = root.join("docs");
    if let Ok(entries) = std::fs::read_dir(&docs) {
        for e in entries.flatten() {
            let p = e.path();
            if p.extension().is_some_and(|x| x == "md") {
                files.push(p);
            }
        }
    }
    files.retain(|p| p.exists());
    files
}

/// Extracts the targets of inline Markdown links `](target)` from one
/// line. Inline code spans are stripped first, so Markdown syntax shown
/// inside backticks is not treated as a live link.
fn link_targets(line: &str) -> Vec<String> {
    // Drop every odd-indexed segment of a backtick split — the content
    // of inline code spans (an unpaired trailing backtick leaves its
    // tail out, which errs on the side of not checking).
    let stripped: String = line
        .split('`')
        .enumerate()
        .filter_map(|(i, seg)| (i % 2 == 0).then_some(seg))
        .collect::<Vec<_>>()
        .join(" ");
    let line = stripped.as_str();
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b']' && bytes[i + 1] == b'(' {
            if let Some(end) = line[i + 2..].find(')') {
                out.push(line[i + 2..i + 2 + end].to_string());
                i += 2 + end;
                continue;
            }
        }
        i += 1;
    }
    out
}

#[test]
fn code_spans_are_not_links() {
    assert_eq!(
        link_targets("write `[text](fake/path.md)` links, see [real](docs)"),
        vec!["docs".to_string()]
    );
    assert!(link_targets("plain prose, no links").is_empty());
}

#[test]
fn markdown_cross_references_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = doc_files(root);
    assert!(
        files.len() >= 5,
        "documentation set unexpectedly small: {files:?}"
    );
    let mut broken = Vec::new();
    let mut checked = 0usize;
    for file in &files {
        let text = std::fs::read_to_string(file).expect("doc file readable");
        let mut in_fence = false;
        for (lineno, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                in_fence = !in_fence;
                continue;
            }
            if in_fence {
                continue;
            }
            for target in link_targets(line) {
                // External, anchor-only, and mail links are out of scope.
                if target.starts_with("http://")
                    || target.starts_with("https://")
                    || target.starts_with("mailto:")
                    || target.starts_with('#')
                    || target.is_empty()
                {
                    continue;
                }
                let path_part = target.split('#').next().unwrap_or(&target);
                let base = file.parent().expect("doc file has a parent");
                let resolved = base.join(path_part);
                checked += 1;
                if !resolved.exists() {
                    broken.push(format!(
                        "{}:{}: broken link `{}` (resolved to {})",
                        file.strip_prefix(root).unwrap_or(file).display(),
                        lineno + 1,
                        target,
                        resolved.display()
                    ));
                }
            }
        }
    }
    assert!(
        checked > 0,
        "no relative links found — the extractor is probably broken"
    );
    assert!(
        broken.is_empty(),
        "broken doc links:\n{}",
        broken.join("\n")
    );
}

/// The docs name key files by path in prose (backticked); pin the ones
/// the reproduction/benchmark workflow depends on so renames update the
/// guides.
#[test]
fn workflow_paths_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for rel in [
        "docs/REPRODUCTION.md",
        "docs/ARCHITECTURE.md",
        "docs/BENCHMARKS.md",
        "results/BENCH_PR2.json",
        "results/BENCH_PR3.json",
        "shims/README.md",
        "crates/bench/benches/batched_replicas.rs",
        "crates/snc-experiments/src/suite.rs",
    ] {
        assert!(root.join(rel).exists(), "missing workflow file: {rel}");
    }
}
