//! `saga-analyze`: a dependency-free static audit of the SAGA-Bench
//! workspace's atomics protocols. See DESIGN.md §11 for the architecture.
//!
//! Pipeline: [`lexer`] (total, span-tiling) → [`parser`] (item-level
//! event streams) → [`model`] (per-function atomic sites, grouped by
//! field) → [`atomics`] (publish/consume pairing audit) → [`report`]
//! (allowlist filtering, text artifact).
//!
//! Invoked as `cargo xtask analyze`, which first proves the audit flags
//! every seeded violation in `crates/analyze/fixtures/` and then gates on
//! the production tree being clean modulo `analyze.allow`. Lock order is
//! checked at run time instead, by the debug build's lock classes in
//! `saga_utils::sync` (DESIGN.md §7b).

pub mod atomics;
pub mod lexer;
pub mod model;
pub mod parser;
pub mod report;

use std::path::{Path, PathBuf};

use model::{Model, SourceFile};
use report::{parse_allowlist, Finding, Report};

/// Collects every production source file: `crates/*/src/**/*.rs`.
/// Fixtures, tests/, benches/, examples/, and `target/` are outside that
/// glob by construction.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            walk_rs(&src, root, &mut files)?;
        }
    }
    Ok(files)
}

fn walk_rs(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile::new(rel, std::fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// Runs the audit over a set of files, returning the raw findings, the
/// relaxed-ordering listing and a stats line.
pub fn analyze_files(files: &[SourceFile]) -> (Vec<Finding>, Vec<String>, String) {
    let m = Model::build(files);
    let audit = atomics::check(&m);
    let stats = format!(
        "{} files, {} functions, {} atomic sites",
        files.len(),
        m.fns.len(),
        m.fns.iter().map(|f| f.atomics.len()).sum::<usize>(),
    );
    (audit.findings, audit.relaxed_sites, stats)
}

/// Analyzes the production tree under `root`, applying the allowlist
/// text (usually the contents of `analyze.allow`).
pub fn run_repo(root: &Path, allow_text: &str) -> std::io::Result<Report> {
    let files = collect_sources(root)?;
    let (findings, relaxed, stats) = analyze_files(&files);
    let (entries, errors) = parse_allowlist(allow_text);
    let mut report = Report {
        allow_errors: errors,
        relaxed_sites: relaxed,
        stats,
        ..Report::default()
    };
    report.apply_allowlist(findings, &entries);
    Ok(report)
}

/// Self-check over the seeded-violation corpus: each fixture file is
/// analyzed in isolation and its findings' keys must exactly equal the
/// keys declared by `//~ EXPECT: <key>` lines (none declared → the file
/// must analyze clean; `//~ CLEAN` documents that intent). Returns a
/// summary on success, the first mismatch on failure.
pub fn check_fixtures(dir: &Path) -> Result<String, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read fixtures dir {}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no fixtures found in {}", dir.display()));
    }
    let mut flagged = 0usize;
    let mut clean = 0usize;
    for path in &paths {
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let name = path
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let expected: std::collections::BTreeSet<String> = source
            .lines()
            .filter_map(|l| l.trim().strip_prefix("//~ EXPECT:"))
            .map(|k| k.trim().to_string())
            .collect();
        let file = SourceFile::new(name.clone(), source);
        let (findings, _, _) = analyze_files(std::slice::from_ref(&file));
        let actual: std::collections::BTreeSet<String> =
            findings.iter().map(|f| f.key.clone()).collect();
        if actual != expected {
            let missed: Vec<&String> = expected.difference(&actual).collect();
            let extra: Vec<&String> = actual.difference(&expected).collect();
            let detail: Vec<String> = findings
                .iter()
                .map(|f| format!("  [{}] {}", f.key, f.message))
                .collect();
            return Err(format!(
                "fixture {name}: expected keys {expected:?}\n  missed: {missed:?}\n  unexpected: {extra:?}\nfindings:\n{}",
                detail.join("\n")
            ));
        }
        if expected.is_empty() {
            clean += 1;
        } else {
            flagged += 1;
        }
    }
    Ok(format!(
        "fixtures OK: {flagged} seeded-violation files flagged, {clean} clean files clean"
    ))
}
