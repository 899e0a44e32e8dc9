//! Every repo path the prose names must exist: a back-ticked token in
//! README.md, DESIGN.md, EXPERIMENTS.md, CONTRIBUTING.md or `docs/*.md`
//! that starts with a source directory and ends in a file extension is
//! resolved against the tree, and the test fails naming the doc line.
//! Symbols inside those files are not resolved.

use std::path::Path;

use ndirect_audit::workspace_root;

const PREFIXES: [&str; 8] = [
    "crates/",
    "tests/",
    "examples/",
    "benches/",
    "benchmark/",
    "docs/",
    ".github/",
    "results/",
];

/// `path` if `token` is a concrete file path under one of [`PREFIXES`]:
/// a `:line` suffix and trailing punctuation are dropped, globs and
/// `<placeholder>` / `{a,b}` forms are not paths.
fn repo_path(token: &str) -> Option<&str> {
    let path = token
        .split(':')
        .next()?
        .trim_end_matches(['.', ',', ';', ')']);
    let (_, ext) = path.rsplit_once('/')?.1.rsplit_once('.')?;
    let concrete = !path.contains(['*', '<', '>', '{', '}', '$', '…']);
    let has_ext = !ext.is_empty() && ext.chars().all(|c| c.is_ascii_alphanumeric());
    (concrete && has_ext && PREFIXES.iter().any(|p| path.starts_with(p))).then_some(path)
}

/// The anchored `.gitignore` entries: generated locations (as `dir/`
/// prefixes), and the `!` exceptions that are committed all the same.
fn gitignore(root: &Path) -> (Vec<String>, Vec<String>) {
    let text = std::fs::read_to_string(root.join(".gitignore")).expect("read .gitignore");
    let mut ignored = Vec::new();
    let mut committed = Vec::new();
    for line in text.lines() {
        if let Some(path) = line.strip_prefix("!/") {
            committed.push(path.to_owned());
        } else if let Some(path) = line.strip_prefix('/') {
            ignored.push(format!("{}/", path.trim_end_matches("/*")));
        }
    }
    (ignored, committed)
}

#[test]
fn every_repo_path_the_docs_name_exists() {
    let root = workspace_root();
    let (ignored, committed) = gitignore(&root);
    let crates: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("read crates/")
        .map(|e| e.expect("dir entry").path())
        .collect();
    let mut docs: Vec<_> = [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "CONTRIBUTING.md",
    ]
    .iter()
    .map(|name| root.join(name))
    .collect();
    docs.extend(
        std::fs::read_dir(root.join("docs"))
            .expect("read docs/")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "md")),
    );

    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in &docs {
        let text = std::fs::read_to_string(doc).expect("read doc");
        let mut line = 1;
        // Odd segments of a split on back-ticks are the code spans (a
        // fence is three flips, so its body is one too).
        for (i, segment) in text.split('`').enumerate() {
            let code_span = i % 2 == 1;
            for path in segment.split_whitespace().filter_map(repo_path) {
                let generated = ignored.iter().any(|dir| path.starts_with(dir))
                    && !committed.iter().any(|c| c == path);
                if !code_span || generated {
                    continue;
                }
                checked += 1;
                // `benches/x.rs` and the like are relative to their crate.
                let exists =
                    root.join(path).is_file() || crates.iter().any(|c| c.join(path).is_file());
                if !exists {
                    let doc = doc.strip_prefix(&root).expect("doc under root").display();
                    let before = &segment[..segment.find(path).expect("token of segment")];
                    let at = line + before.matches('\n').count();
                    missing.push(format!("{doc}:{at}: `{path}` does not exist"));
                }
            }
            line += segment.matches('\n').count();
        }
    }
    assert!(checked > 20, "suspiciously few doc paths found: {checked}");
    assert!(
        missing.is_empty(),
        "stale paths in the docs:\n{}",
        missing.join("\n")
    );
}
