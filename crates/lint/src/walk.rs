//! Workspace traversal: which files `subfed-lint check` and `certify`
//! scan, each parsed once.
//!
//! The scan covers the **library code** of the five crates in
//! [`CRATES`] — `src/**/*.rs`, minus integration-test trees and any
//! module a crate declares as `#[cfg(test)] mod name;`. Benches,
//! `vendor/`, the CLI, and this crate are out of scope: panics there
//! abort one process, not a federation. The same five crates inherit
//! the workspace's `[workspace.lints.clippy]` panic lints, so clippy and
//! this linter cover the same code.

use crate::callgraph::SourceFile;
use crate::rules::cfg_test_mod_decls;
use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose `src/` trees are scanned. `metrics` is among them for
/// its sinks, the workspace's most lock-dependent code; the hot-path
/// rules skip it (see `crate::dataflow`).
pub const CRATES: [&str; 5] = ["tensor", "nn", "pruning", "core", "metrics"];

/// Locates the workspace root: walks up from `start` until a directory
/// holding both `Cargo.toml` and `crates/` appears.
///
/// # Errors
///
/// Returns a message when no ancestor looks like the workspace.
pub fn find_workspace_root(start: &Path) -> Result<PathBuf, String> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err(format!(
                "no workspace root (Cargo.toml + crates/) above {}",
                start.display()
            ));
        }
    }
}

/// Recursively lists `.rs` files under `dir`, sorted for deterministic
/// output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            rust_files(&p, out)?;
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Reads and parses the [`CRATES`]' library `.rs` files under `root`,
/// each once, minus the files of modules declared
/// `#[cfg(test)] mod name;`. Labels are workspace-relative with `/`
/// separators; the list is sorted by label within each crate.
///
/// # Errors
///
/// Returns a message when a source tree cannot be read.
pub fn parse_workspace(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut out = Vec::new();
    for krate in CRATES {
        let src = root.join("crates").join(krate).join("src");
        if !src.is_dir() {
            return Err(format!("missing crate source tree {}", src.display()));
        }
        let mut paths = Vec::new();
        rust_files(&src, &mut paths)?;

        let mut parsed = Vec::new();
        let mut test_files: Vec<PathBuf> = Vec::new();
        for path in paths {
            let text =
                fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            let label =
                path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
            let file = SourceFile::parse(&label, &text);
            // A `#[cfg(test)] mod x;` declaration makes its backing file
            // test code wholesale.
            for m in cfg_test_mod_decls(&file.lexed.tokens) {
                let dir = path.parent().unwrap_or(&src);
                test_files.push(dir.join(format!("{m}.rs")));
                test_files.push(dir.join(&m).join("mod.rs"));
            }
            parsed.push((path, file));
        }
        out.extend(
            parsed.into_iter().filter(|(path, _)| !test_files.contains(path)).map(|(_, f)| f),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_workspace;

    #[test]
    fn finds_workspace_root_from_nested_dir() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("crates/tensor/src/lib.rs").is_file());
    }

    #[test]
    fn workspace_scan_covers_all_target_crates() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        let files = parse_workspace(&root).expect("scan");
        assert!(files.len() >= 30, "only {} files", files.len());
        // tests_support.rs is declared `#[cfg(test)] mod` by subfed-core
        // and must not be scanned.
        assert!(files.iter().all(|f| !f.label.contains("tests_support")));
        for krate in CRATES {
            let prefix = format!("crates/{krate}/src/");
            assert!(files.iter().any(|f| f.label.starts_with(&prefix)), "{krate} not scanned");
        }
    }

    #[test]
    fn workspace_is_clean() {
        // The acceptance gate of the lint itself: zero unsuppressed
        // findings in the scanned crates.
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        let report = check_workspace(&root).expect("scan");
        let live = report.unsuppressed();
        assert!(
            live.is_empty(),
            "unsuppressed findings:\n{}",
            live.iter().map(|f| f.render()).collect::<Vec<_>>().join("\n")
        );
    }

    /// The lines of the TOML table headed `[name]`, up to the next
    /// header.
    fn toml_table<'a>(text: &'a str, name: &str) -> Vec<&'a str> {
        let header = format!("[{name}]");
        text.lines()
            .skip_while(|l| l.trim() != header)
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    #[test]
    fn scanned_crates_inherit_the_workspace_panic_lints() {
        // Clippy enforces the panic lints (`unwrap_used`, `expect_used`,
        // `panic`, `todo`, `unimplemented`) that no rule here repeats, so
        // its scope must stay the scan's: every lint is denied at the
        // workspace root and every scanned crate inherits the table.
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml");
        let lints = toml_table(&manifest, "workspace.lints.clippy");
        for lint in ["unwrap_used", "expect_used", "panic", "todo", "unimplemented"] {
            assert!(
                lints.iter().any(|l| l.replace(' ', "") == format!("{lint}=\"deny\"")),
                "[workspace.lints.clippy] does not deny `{lint}`: {lints:?}"
            );
        }
        for krate in CRATES {
            let path = root.join("crates").join(krate).join("Cargo.toml");
            let manifest = fs::read_to_string(&path).expect("crate Cargo.toml");
            let table = toml_table(&manifest, "lints");
            assert!(
                table.iter().any(|l| l.replace(' ', "") == "workspace=true"),
                "{} does not inherit the workspace lints: {table:?}",
                path.display()
            );
        }
    }
}
