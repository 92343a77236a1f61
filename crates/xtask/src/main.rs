//! Workspace automation tasks (`cargo xtask <task>`).
//!
//! `lint` is a SAFETY-invariant pass over every `.rs` file in the
//! workspace that enforces the conventions the compiler cannot (see
//! DESIGN.md §7):
//!
//! 1. every `unsafe` block and `unsafe impl` is annotated with a
//!    `// SAFETY:` comment (immediately above, or trailing on the line);
//! 2. every `unsafe fn` declaration carries a `# Safety` section in its
//!    doc comment;
//! 3. `std::thread::spawn` / `std::thread::Builder` appear only inside the
//!    pool (`crates/utils/src/parallel.rs`), the sync facade
//!    (`crates/utils/src/sync.rs`), and the model checker (`crates/loom/`)
//!    — all other code must go through `saga_utils::parallel`;
//! 4. `std::sync::atomic` is imported only by the sync facade, the model
//!    checker, and the trace layer (which sits *below* the facade) — all
//!    other code must use `saga_utils::sync::atomic` so that `--cfg loom`
//!    swaps in the model-checked types everywhere;
//! 5. `std::sync::{Mutex, RwLock, Condvar}` are named in library source
//!    only by the sync facade (which wraps them), the model checker, and
//!    the trace layer — all other library code takes locks from
//!    `saga_utils::sync` for the same `--cfg loom` swap (tests may
//!    serialize themselves on a plain std lock);
//! 6. `println!` / `eprintln!` are banned in library code (any `src/`
//!    file outside `src/bin/`) — library output must route through the
//!    `saga_trace::progress!` facade or `saga_core::report`, so that
//!    binaries own stdout and progress chatter is greppable in one place;
//! 7. hardware prefetch intrinsics (`_mm_prefetch`, or any `core::arch` /
//!    `std::arch` path) live only in `crates/utils/src/prefetch.rs` — hot
//!    paths call `saga_utils::prefetch` / the property arrays' `prefetch`
//!    helpers, so the per-target gating (and its SAFETY argument) stays in
//!    one audited file;
//! 8. every dependency entry of every manifest (the root's and each
//!    `crates/*`, dev- and workspace tables included) is a path or
//!    workspace-path one — the tree builds offline from a fresh clone, with
//!    a lockfile that never changes — and every `[dependencies]` entry is
//!    named somewhere under that package's `src/`: a dependency nobody
//!    imports still costs a build, and once dropped it must not creep back.
//!
//! The old informational `Ordering::Relaxed` listing moved to
//! `cargo xtask analyze`, whose atomics-protocol audit groups sites by
//! field and checks publish/consume pairing instead of just listing them.
//!
//! `check-trace <file>` validates an exported Chrome trace-event JSON file
//! (shape + strict per-track span nesting) via `saga_check::tracecheck` —
//! CI runs it against the trace-smoke artifact.
//!
//! `analyze-trace <file>` decodes such a file back into events and prints
//! the offline analyzer's report (span statistics, stitched per-request
//! trace trees, critical paths) via `saga_trace::analyze`.
//!
//! `check-metrics <file>` validates a Prometheus text-exposition file
//! (grammar + histogram invariants) via `saga_trace::expose` — CI's
//! obs-smoke job runs it against the live `/metrics` scrape.
//!
//! The scanner is deliberately line-based (no full parser is available
//! offline): block comments, line comments, and string literals are
//! stripped before matching, which is exact enough for the workspace's
//! code style and errs on the side of flagging.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        Some("analyze") => analyze(),
        Some("check-trace") => check_trace(args.next()),
        Some("analyze-trace") => analyze_trace(args.next()),
        Some("check-metrics") => check_metrics(args.next()),
        Some(other) => {
            eprintln!(
                "unknown task `{other}`; available tasks: lint, analyze, check-trace, \
                 analyze-trace, check-metrics"
            );
            ExitCode::FAILURE
        }
        None => {
            eprintln!(
                "usage: cargo xtask <task>\n\ntasks:\n  lint                 \
                 SAFETY-invariant pass\n  analyze              static \
                 lock-order & atomics-protocol analysis\n  check-trace <file>   \
                 validate an exported Chrome trace-event JSON file\n  \
                 analyze-trace <file>  span stats + stitched trace trees of an \
                 exported trace\n  check-metrics <file>  validate a Prometheus \
                 text-exposition scrape"
            );
            ExitCode::FAILURE
        }
    }
}

/// Decodes an exported Chrome trace and prints the offline analyzer's
/// report: span statistics and, per stitched request trace, the root and
/// critical path. The obs-smoke CI job runs this over the downloaded
/// `/debug/flight` capture.
fn analyze_trace(path: Option<String>) -> ExitCode {
    let Some(path) = path else {
        eprintln!("usage: cargo xtask analyze-trace <file.trace.json>");
        return ExitCode::FAILURE;
    };
    let doc = match std::fs::read_to_string(&path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("xtask analyze-trace: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let events = match saga_check::tracecheck::decode_events(&doc) {
        Ok(events) => events,
        Err(e) => {
            eprintln!("xtask analyze-trace: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", saga_trace::analyze::render_report(&events));
    ExitCode::SUCCESS
}

/// Validates a Prometheus text-exposition file with the same in-tree
/// parser the seeded round-trip tests pin against the renderer.
fn check_metrics(path: Option<String>) -> ExitCode {
    let Some(path) = path else {
        eprintln!("usage: cargo xtask check-metrics <file.prom>");
        return ExitCode::FAILURE;
    };
    let doc = match std::fs::read_to_string(&path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("xtask check-metrics: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match saga_check::prom::parse_prometheus(&doc) {
        Ok(families) => {
            let samples: usize = families.iter().map(|f| f.samples.len()).sum();
            println!(
                "xtask check-metrics: OK ({path}: {} families, {samples} samples)",
                families.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask check-metrics: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Validates an exported Chrome trace-event JSON file (CI's trace-smoke
/// step runs this against the artifact the `pipelined` binary writes).
fn check_trace(path: Option<String>) -> ExitCode {
    let Some(path) = path else {
        eprintln!("usage: cargo xtask check-trace <file.trace.json>");
        return ExitCode::FAILURE;
    };
    let doc = match std::fs::read_to_string(&path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("xtask check-trace: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match saga_check::tracecheck::validate(&doc) {
        Ok(stats) => {
            println!("xtask check-trace: OK ({path}: {stats})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask check-trace: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the static analyzer (`saga-analyze`) as a gate: first the
/// seeded-violation fixture corpus must be flagged exactly (the analyzer
/// proving it still catches the PR-6 deadlock shape and friends), then
/// the production tree must be clean modulo the justified `analyze.allow`
/// entries. The text report and lock-order DOT graph are written to
/// `target/analyze/` for the CI artifact.
fn analyze() -> ExitCode {
    let root = workspace_root();

    // 1. Fixture self-check: every seeded violation must be flagged.
    match saga_analyze::check_fixtures(&root.join("crates/analyze/fixtures")) {
        Ok(summary) => println!("xtask analyze: {summary}"),
        Err(e) => {
            eprintln!("xtask analyze: fixture self-check FAILED:\n{e}");
            return ExitCode::FAILURE;
        }
    }

    // 2. Whole-repo analysis, filtered by the allowlist.
    let allow = std::fs::read_to_string(root.join("analyze.allow")).unwrap_or_default();
    let report = match saga_analyze::run_repo(&root, &allow) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask analyze: cannot read sources: {e}");
            return ExitCode::FAILURE;
        }
    };

    // 3. Artifacts.
    let out_dir = root.join("target/analyze");
    let rendered = report.render();
    if let Err(e) = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(out_dir.join("report.txt"), &rendered))
        .and_then(|()| std::fs::write(out_dir.join("lock_order.dot"), &report.dot))
    {
        eprintln!("xtask analyze: cannot write artifacts: {e}");
        return ExitCode::FAILURE;
    }

    print!("{rendered}");
    println!("\nartifacts: target/analyze/report.txt, target/analyze/lock_order.dot");
    if report.clean() {
        println!("xtask analyze: OK");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask analyze: FAILED (see violations above)");
        ExitCode::FAILURE
    }
}

/// Workspace root, derived from this crate's manifest directory.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    for top in ["crates", "src", "benches", "tests"] {
        collect_rs_files(&root.join(top), &mut files);
    }
    files.sort();

    let mut violations = Vec::new();
    for path in &files {
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("warning: skipping unreadable {}: {e}", path.display());
                continue;
            }
        };
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let report = scan_file(&rel, &source);
        violations.extend(report.violations);
    }

    let mut packages = vec![root.clone()];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        packages.extend(entries.flatten().map(|e| e.path()));
    }
    packages.sort();
    for package in packages {
        let Ok(manifest) = std::fs::read_to_string(package.join("Cargo.toml")) else {
            continue;
        };
        let src = package.join("src");
        let sources: Vec<String> = files
            .iter()
            .filter(|path| path.starts_with(&src))
            .filter_map(|path| std::fs::read_to_string(path).ok())
            .collect();
        let rel = package.strip_prefix(&root).unwrap_or(&package).join("Cargo.toml");
        let rel = rel.to_string_lossy().replace('\\', "/");
        let problems = dependency_violations(&manifest, &sources);
        violations.extend(problems.iter().map(|problem| format!("{rel}: {problem}")));
    }

    println!("xtask lint: scanned {} files", files.len());
    if violations.is_empty() {
        println!("\nxtask lint: OK (no SAFETY-invariant violations)");
        ExitCode::SUCCESS
    } else {
        eprintln!("\nxtask lint: {} violation(s):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        ExitCode::FAILURE
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Rule 8 over one `manifest`: every entry of every `*dependencies` table
/// that is not a path / workspace-path one, and every `[dependencies]` entry
/// none of the package's `sources` names (as an identifier, outside
/// comments and strings). Pure function so the unit tests can seed both.
fn dependency_violations(manifest: &str, sources: &[String]) -> Vec<String> {
    let code: Vec<Line> = sources.iter().flat_map(|source| strip(source)).collect();
    let mut table = "";
    let mut problems = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            table = line;
            continue;
        }
        let name: String = line
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_'))
            .collect();
        if !table.ends_with("dependencies]") || name.is_empty() {
            continue;
        }
        if !line.contains("path =") && !line.contains("workspace = true") {
            problems.push(format!("{table} `{name}` is not a path dependency"));
        }
        let ident = name.replace('-', "_");
        if table == "[dependencies]"
            && !code.iter().any(|l| contains_token_path(&l.code, &ident))
        {
            problems.push(format!(
                "dependency `{name}` is imported nowhere under src/ — drop it, \
                 or move it to [dev-dependencies] if only tests use it"
            ));
        }
    }
    problems
}

/// Result of scanning one file.
#[derive(Debug, Default)]
struct Report {
    /// Convention violations (fail the lint).
    violations: Vec<String>,
}

/// Files allowed to spawn OS threads directly.
const THREAD_ALLOWLIST: &[&str] = &["crates/utils/src/parallel.rs", "crates/utils/src/sync.rs"];

/// The files allowed to name `std::sync::atomic` and the `std::sync` locks
/// directly: the sync facade and its lock wrappers, which hand them (or
/// the loom-modeled versions) to the rest of the workspace.
const FACADE: &[&str] = &["crates/utils/src/sync.rs", "crates/utils/src/sync/locks.rs"];

/// The one file allowed to name hardware prefetch intrinsics (or any
/// `core::arch` / `std::arch` path): the per-target facade everything else
/// calls through.
const PREFETCH_ALLOWLIST: &[&str] = &["crates/utils/src/prefetch.rs"];

/// Directory prefixes exempt from the facade bans: the model checker IS
/// the other side of the facade, and the trace layer sits *below*
/// `saga-utils` (the pool emits spans), so neither can route through
/// `saga_utils::sync` — both use the real primitives. The analyzer's
/// seeded-violation fixtures are never compiled and deliberately keep the
/// raw idiom so their shapes match real pre-facade code.
const FACADE_EXEMPT_DIRS: &[&str] =
    &["crates/loom/", "crates/trace/", "crates/analyze/fixtures/"];

/// Library files allowed to call `println!` / `eprintln!` directly: the
/// bench reporting facade (`emit*` / `finish_trace` own stdout for the
/// figure binaries) — everything else goes through `saga_trace::progress!`.
const PRINT_ALLOWLIST: &[&str] = &["crates/bench/src/lib.rs"];

/// Directory prefixes exempt from the print ban: xtask is a terminal tool
/// (its reports ARE its output) and `crates/trace/` defines the
/// `progress!` facade itself, which expands to `eprintln!`.
const PRINT_EXEMPT_DIRS: &[&str] = &["crates/xtask/", "crates/trace/"];

/// True for library source: a file under some `src/` that is not a binary
/// target (`src/bin/`, or the crate's `src/main.rs`). Integration tests
/// (`tests/`) and benches own their stdout and are not library code.
fn is_library_source(rel_path: &str) -> bool {
    let in_src = rel_path.starts_with("src/") || rel_path.contains("/src/");
    in_src && !rel_path.contains("/bin/") && !rel_path.ends_with("/main.rs")
}

/// One source line after comment/string stripping.
struct Line {
    /// Code with comments and string-literal contents removed.
    code: String,
    /// Comment text on the line (contents after `//`, or inside `/* */`).
    comment: String,
    /// True when the line holds only a comment (and/or whitespace).
    pure_comment: bool,
}

/// Scans one file's source and reports violations. Pure function of its
/// inputs so the unit tests can seed violations from string literals.
fn scan_file(rel_path: &str, source: &str) -> Report {
    let mut report = Report::default();
    let exempt = FACADE_EXEMPT_DIRS.iter().any(|d| rel_path.starts_with(d));
    let lines = strip(source);

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.as_str();

        if !exempt {
            if (contains_token_path(code, "std::thread::spawn")
                || contains_token_path(code, "std::thread::Builder"))
                && !THREAD_ALLOWLIST.contains(&rel_path)
            {
                report.violations.push(format!(
                    "{rel_path}:{lineno}: direct OS-thread spawn outside \
                     saga_utils::parallel (use the pool or the sync facade)"
                ));
            }
            if code.contains("std::sync::atomic") && !FACADE.contains(&rel_path) {
                report.violations.push(format!(
                    "{rel_path}:{lineno}: direct `std::sync::atomic` use outside the sync \
                     facade (use `saga_utils::sync::atomic` so `--cfg loom` applies)"
                ));
            }
            if is_library_source(rel_path) && !FACADE.contains(&rel_path) && names_std_lock(code) {
                report.violations.push(format!(
                    "{rel_path}:{lineno}: direct `std::sync` lock outside the sync \
                     facade (take locks from `saga_utils::sync` so `--cfg loom` applies)"
                ));
            }
        }

        if (code.contains("_mm_prefetch")
            || contains_token_path(code, "core::arch")
            || contains_token_path(code, "std::arch"))
            && !PREFETCH_ALLOWLIST.contains(&rel_path)
        {
            report.violations.push(format!(
                "{rel_path}:{lineno}: arch intrinsic outside the prefetch facade \
                 (route through `saga_utils::prefetch` so target gating stays in one file)"
            ));
        }

        if is_library_source(rel_path)
            && !PRINT_ALLOWLIST.contains(&rel_path)
            && !PRINT_EXEMPT_DIRS.iter().any(|d| rel_path.starts_with(d))
        {
            for mac in ["eprintln!", "println!"] {
                if contains_macro_call(code, mac) {
                    report.violations.push(format!(
                        "{rel_path}:{lineno}: direct `{mac}` in library code (route \
                         progress through `saga_trace::progress!` or results through \
                         `saga_core::report`)"
                    ));
                }
            }
        }

        for site in unsafe_sites(code) {
            match site {
                UnsafeSite::Fn => {
                    if !comment_block_above(&lines, idx).contains("# Safety") {
                        report.violations.push(format!(
                            "{rel_path}:{lineno}: `unsafe fn` without a `# Safety` doc section"
                        ));
                    }
                }
                UnsafeSite::Impl | UnsafeSite::Block => {
                    let here = line.comment.contains("SAFETY:");
                    let above = comment_block_above(&lines, idx).contains("SAFETY:");
                    if !here && !above {
                        let what = if site == UnsafeSite::Impl { "impl" } else { "block" };
                        report.violations.push(format!(
                            "{rel_path}:{lineno}: `unsafe {what}` without a `// SAFETY:` comment"
                        ));
                    }
                }
            }
        }
    }
    report
}

/// True when `code` names `std::sync::{Mutex, RwLock, Condvar}`, by full
/// path or in a `use std::sync::{…}` list (generic arguments don't count:
/// `std::sync::Arc<Mutex<T>>` holds whichever `Mutex` is in scope).
fn names_std_lock(code: &str) -> bool {
    code.split("std::sync::").skip(1).any(|rest| {
        let path = rest.split(['}', ';', '<', '(']).next().unwrap_or(rest);
        ["Mutex", "RwLock", "Condvar"].iter().any(|lock| contains_token_path(path, lock))
    })
}

/// Kind of `unsafe` occurrence found on a line.
#[derive(Debug, PartialEq, Eq)]
enum UnsafeSite {
    /// `unsafe fn name(...)` declaration (fn-pointer types don't count).
    Fn,
    /// `unsafe impl Trait for T`.
    Impl,
    /// `unsafe { ... }` block (or any other `unsafe` use).
    Block,
}

/// Finds every `unsafe` keyword on a stripped code line and classifies it.
fn unsafe_sites(code: &str) -> Vec<UnsafeSite> {
    let mut sites = Vec::new();
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find("unsafe") {
        let at = start + pos;
        start = at + "unsafe".len();
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let after = &code[at + "unsafe".len()..];
        let after_ok = after.is_empty() || !is_ident_byte(after.as_bytes()[0]);
        if !(before_ok && after_ok) {
            continue; // part of an identifier like `unsafe_op_in_unsafe_fn`
        }
        let rest = after.trim_start();
        if let Some(rest) = rest.strip_prefix("fn") {
            // `unsafe fn(` is a function-pointer *type*; a declaration has
            // an identifier (or generics) after `fn`.
            let is_decl = rest
                .trim_start()
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
            if is_decl {
                sites.push(UnsafeSite::Fn);
            }
        } else if rest.starts_with("impl") || rest.starts_with("extern") {
            sites.push(UnsafeSite::Impl);
        } else {
            sites.push(UnsafeSite::Block);
        }
    }
    sites
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Macro-invocation match with an identifier boundary on the left, so that
/// `println!` does not fire inside `eprintln!` (a `::`-qualified path like
/// `std::println!` still counts). The needle ends in `!`, which bounds the
/// right side by itself.
fn contains_macro_call(code: &str, needle: &str) -> bool {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(needle) {
        let at = start + pos;
        start = at + needle.len();
        if at == 0 || !is_ident_byte(bytes[at - 1]) {
            return true;
        }
    }
    false
}

/// `std::thread::spawn`-style path match with identifier boundaries, so
/// that e.g. `my_std::thread::spawner` doesn't count.
fn contains_token_path(code: &str, needle: &str) -> bool {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(needle) {
        let at = start + pos;
        start = at + needle.len();
        let before_ok = at == 0 || {
            let b = bytes[at - 1];
            !is_ident_byte(b) && b != b':'
        };
        let end = at + needle.len();
        let after_ok = end == code.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

/// Concatenated comment text of the contiguous pure-comment lines directly
/// above `idx` (attribute lines like `#[inline]` are skipped). `///` docs
/// land in `comment` too, which is where `# Safety` sections are matched.
fn comment_block_above(lines: &[Line], idx: usize) -> String {
    let mut text = String::new();
    for line in lines[..idx].iter().rev() {
        let code = line.code.trim();
        if line.pure_comment {
            text.push_str(&line.comment);
            text.push('\n');
        } else if code.starts_with("#[") || code.starts_with("#![") {
            continue; // attributes sit between the comment and the item
        } else {
            break;
        }
    }
    text
}

/// Splits source into [`Line`]s with comments and string contents removed.
///
/// Handles `//` line comments, nested-free `/* */` block comments, and
/// double-quoted string literals with backslash escapes. Char literals and
/// raw strings are not special-cased; the workspace doesn't put `"` or
/// `//` inside them.
fn strip(source: &str) -> Vec<Line> {
    let mut out = Vec::new();
    let mut in_block_comment = false;
    for raw in source.lines() {
        let mut code = String::new();
        let mut comment = String::new();
        let mut chars = raw.chars().peekable();
        let mut in_string = false;
        // Distinguishes a bare `///` (empty comment text, still a comment
        // line) from a genuinely blank line, which ends a comment block.
        let mut saw_comment = in_block_comment;
        while let Some(c) = chars.next() {
            if in_block_comment {
                if c == '*' && chars.peek() == Some(&'/') {
                    chars.next();
                    in_block_comment = false;
                } else {
                    comment.push(c);
                }
                continue;
            }
            if in_string {
                if c == '\\' {
                    chars.next(); // skip the escaped character
                } else if c == '"' {
                    in_string = false;
                    code.push('"');
                }
                continue;
            }
            match c {
                '"' => {
                    in_string = true;
                    code.push('"');
                }
                '/' if chars.peek() == Some(&'/') => {
                    saw_comment = true;
                    comment.push_str(chars.collect::<String>().trim_start_matches('/'));
                    break;
                }
                '/' if chars.peek() == Some(&'*') => {
                    chars.next();
                    in_block_comment = true;
                    saw_comment = true;
                }
                _ => code.push(c),
            }
        }
        let pure_comment = code.trim().is_empty() && saw_comment;
        out.push(Line {
            code,
            comment,
            pure_comment,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_unsafe_block_passes() {
        let src = "fn f() {\n    // SAFETY: pointer is valid.\n    unsafe { g() };\n}\n";
        assert!(scan_file("crates/demo/src/lib.rs", src).violations.is_empty());
    }

    #[test]
    fn trailing_safety_comment_passes() {
        let src = "fn f() {\n    unsafe { g() }; // SAFETY: pointer is valid.\n}\n";
        assert!(scan_file("crates/demo/src/lib.rs", src).violations.is_empty());
    }

    #[test]
    fn seeded_unannotated_unsafe_block_fails() {
        let src = "fn f() {\n    unsafe { g() };\n}\n";
        let report = scan_file("crates/demo/src/lib.rs", src);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("`unsafe block`"), "{report:?}");
        assert!(report.violations[0].contains(":2:"), "{report:?}");
    }

    #[test]
    fn seeded_unannotated_unsafe_impl_fails() {
        let src = "struct S;\nunsafe impl Send for S {}\n";
        let report = scan_file("crates/demo/src/lib.rs", src);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("`unsafe impl`"), "{report:?}");
    }

    #[test]
    fn safety_comment_above_attribute_passes() {
        let src = "// SAFETY: disjoint rows.\n#[allow(dead_code)]\nunsafe impl Send for S {}\n";
        assert!(scan_file("crates/demo/src/lib.rs", src).violations.is_empty());
    }

    #[test]
    fn unsafe_fn_without_safety_docs_fails() {
        let src = "/// Does a thing.\nunsafe fn f() {}\n";
        let report = scan_file("crates/demo/src/lib.rs", src);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("# Safety"), "{report:?}");
    }

    #[test]
    fn unsafe_fn_with_safety_docs_passes() {
        let src = "/// Does a thing.\n///\n/// # Safety\n///\n/// Caller checks x.\n#[inline]\nunsafe fn f() {}\n";
        assert!(scan_file("crates/demo/src/lib.rs", src).violations.is_empty());
    }

    #[test]
    fn fn_pointer_type_is_not_a_declaration() {
        let src = "struct J {\n    call: unsafe fn(*const ()),\n}\n";
        // The field *type* needs no docs; the bare `unsafe` is not a block
        // either, so nothing is flagged.
        let report = scan_file("crates/demo/src/lib.rs", src);
        assert!(
            report.violations.iter().all(|v| !v.contains("# Safety")),
            "{report:?}"
        );
    }

    #[test]
    fn unsafe_inside_string_or_comment_is_ignored() {
        let src = "fn f() {\n    let s = \"unsafe { nope }\";\n    // unsafe impl in prose\n    let _ = s;\n}\n";
        assert!(scan_file("crates/demo/src/lib.rs", src).violations.is_empty());
    }

    #[test]
    fn thread_spawn_outside_pool_fails_and_allowlist_passes() {
        let src = "fn f() {\n    std::thread::spawn(|| {});\n}\n";
        let report = scan_file("crates/demo/src/lib.rs", src);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("OS-thread"), "{report:?}");
        assert!(scan_file("crates/utils/src/parallel.rs", src)
            .violations
            .is_empty());
        assert!(scan_file("crates/loom/src/rt.rs", src).violations.is_empty());
    }

    #[test]
    fn atomic_import_outside_facade_fails_and_facade_passes() {
        let src = "use std::sync::atomic::{AtomicUsize, Ordering};\n";
        let report = scan_file("crates/graph/src/lib.rs", src);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("sync facade"), "{report:?}");
        assert!(scan_file("crates/utils/src/sync.rs", src).violations.is_empty());
        assert!(scan_file("crates/loom/src/sync.rs", src).violations.is_empty());
    }

    #[test]
    fn prefetch_intrinsic_outside_facade_fails_and_facade_passes() {
        let src = "fn f(p: *const u8) {\n    unsafe { core::arch::x86_64::_mm_prefetch::<0>(p as *const i8) }; // SAFETY: no deref.\n}\n";
        let report = scan_file("crates/graph/src/csr.rs", src);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("prefetch facade"), "{report:?}");
        assert!(scan_file("crates/utils/src/prefetch.rs", src)
            .violations
            .is_empty());
    }

    #[test]
    fn arch_path_in_string_or_comment_is_ignored() {
        let src = "fn f() {\n    let s = \"core::arch::x86_64\";\n    // _mm_prefetch in prose\n    let _ = s;\n}\n";
        assert!(scan_file("crates/demo/src/lib.rs", src).violations.is_empty());
    }

    #[test]
    fn relaxed_ordering_is_not_a_lint_violation() {
        // The Relaxed audit lives in `cargo xtask analyze` now.
        let src = "fn f(c: &saga_utils::sync::atomic::AtomicUsize) {\n    c.load(Ordering::Relaxed);\n}\n";
        assert!(scan_file("crates/demo/src/lib.rs", src).violations.is_empty());
    }

    #[test]
    fn std_lock_in_library_source_fails_and_facade_and_tests_pass() {
        for src in [
            "use std::sync::{Arc, Mutex};\n",
            "static L: std::sync::RwLock<()> = std::sync::RwLock::new(());\n",
            "fn f(c: &std::sync::Condvar) {}\n",
        ] {
            let report = scan_file("crates/graph/src/lib.rs", src);
            assert_eq!(report.violations.len(), 1, "{src}");
            assert!(report.violations[0].contains("`std::sync` lock"), "{report:?}");
            for rel in [
                "crates/utils/src/sync/locks.rs", // the facade wraps them
                "crates/loom/src/sync.rs",       // the other side of the facade
                "crates/trace/src/metrics.rs",   // below the facade
                "crates/check/tests/recovery.rs", // tests serialize on std locks
                "tests/arch_sim.rs",
            ] {
                assert!(scan_file(rel, src).violations.is_empty(), "{rel}: {src}");
            }
        }
        let src = "use std::sync::{Arc, OnceLock};\nfn f(m: std::sync::Arc<Mutex<u8>>) {}\n";
        assert!(scan_file("crates/graph/src/lib.rs", src).violations.is_empty());
    }

    #[test]
    fn seeded_println_in_library_code_fails() {
        let src = "fn f() {\n    println!(\"{}\", 1);\n}\n";
        let report = scan_file("crates/demo/src/lib.rs", src);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("`println!`"), "{report:?}");
        assert!(report.violations[0].contains(":2:"), "{report:?}");
    }

    #[test]
    fn seeded_eprintln_reports_its_own_name_once() {
        let src = "fn f() {\n    eprintln!(\"x\");\n}\n";
        let report = scan_file("crates/demo/src/lib.rs", src);
        // `println!` is a substring of `eprintln!`; the identifier-boundary
        // check must not double-report.
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("`eprintln!`"), "{report:?}");
    }

    #[test]
    fn print_ban_spares_binaries_tests_and_facades() {
        let src = "fn main() {\n    println!(\"ok\");\n}\n";
        for rel in [
            "crates/demo/src/bin/tool.rs",  // binary target
            "crates/demo/src/main.rs",      // crate root binary
            "crates/xtask/src/main.rs",     // terminal tool
            "crates/trace/src/lib.rs",      // defines the progress! facade
            "crates/bench/src/lib.rs",      // emit*/finish_trace facade
            "tests/pipeline.rs",            // integration test, not library
        ] {
            assert!(
                scan_file(rel, src).violations.is_empty(),
                "{rel} should be exempt from the print ban"
            );
        }
    }

    #[test]
    fn println_inside_string_or_comment_is_ignored() {
        let src = "fn f() {\n    let s = \"println!(1)\";\n    // eprintln! in prose\n    let _ = s;\n}\n";
        assert!(scan_file("crates/demo/src/lib.rs", src).violations.is_empty());
    }

    #[test]
    fn dependency_nobody_imports_is_reported() {
        let manifest = "[package]\nname = \"demo\"\n\n[dependencies]\n\
                        saga-utils.workspace = true\n# a comment\nsaga-perf = { path = \"../perf\" }\n\
                        saga-bsp.workspace = true\n\n[dev-dependencies]\nsaga-check.workspace = true\n";
        let sources = [
            "use saga_utils::parallel::ThreadPool;\n// saga_bsp::engine in prose\n".to_string(),
            "fn f() {\n    let operand = \"saga_perf::cache\";\n}\n".to_string(),
        ];
        let problems = dependency_violations(manifest, &sources);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("`saga-perf` is imported nowhere"), "{problems:?}");
        assert!(problems[1].contains("`saga-bsp` is imported nowhere"), "{problems:?}");
        let sources = [format!(
            "{}use saga_perf::cache::CacheConfig;\nfn g() {{ saga_bsp::run() }}\n",
            sources[0]
        )];
        assert!(dependency_violations(manifest, &sources).is_empty());
    }

    #[test]
    fn registry_dependency_in_any_table_is_reported() {
        let manifest = "[workspace.dependencies]\nsaga-utils = { path = \"crates/utils\" }\n\
                        serde = \"1\"\n\n[dependencies]\nsaga-utils.workspace = true\n\n\
                        [dev-dependencies]\nproptest = { version = \"1\" }\n\n\
                        [profile.release]\ndebug = true\n";
        let sources = ["use saga_utils::rng::for_each_seed;\n".to_string()];
        assert_eq!(
            dependency_violations(manifest, &sources),
            [
                "[workspace.dependencies] `serde` is not a path dependency",
                "[dev-dependencies] `proptest` is not a path dependency",
            ]
        );
    }

    #[test]
    fn block_comment_spanning_lines_is_stripped() {
        let src = "/* unsafe impl Send for S {}\n   still comment */\nfn f() {}\n";
        assert!(scan_file("crates/demo/src/lib.rs", src).violations.is_empty());
    }
}
