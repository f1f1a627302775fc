//! gptune-xtask — the workspace lint suite.
//!
//! Domain-specific static analysis for the invariants GPTune's correctness
//! actually rests on, none of which a generic linter checks:
//!
//! * **NaN-safety** (GX101–GX103): surrogate fitting must never feed
//!   NaN/inf into the Cholesky, so float comparisons and sorts must be
//!   total (`f64::total_cmp`, `gptune_la::ord`).
//! * **Socket deadlines** (GX303): every serve-side socket is
//!   deadline-armed before it can block.
//! * **Determinism** (GX402–GX403): checkpoint/resume replays to identical
//!   results only if every random draw is seed-threaded through
//!   `MlaOptions` and no recorded output depends on hash-map order.
//! * **Observability** (GX601–GX602): phase timing goes through the
//!   tracer, and every span/metric name is a taxonomy literal.
//! * **Concurrency** (GX701–GX704): whole-workspace lock-order graph,
//!   interprocedural guard-across-blocking detection, double-acquire
//!   paths, and relaxed-atomic handshake mismatches — built on per-fn
//!   summaries propagated to fixpoint (see `parse`/`summary`/`graph`/
//!   `concurrency`).
//! * **Dependencies** (GX801): every non-path dependency in the workspace
//!   manifests is named in lint.toml's `[[dependency]]` allowlist, so a
//!   registry crate cannot come in unreviewed (see `deps`).
//!
//! Panic-freedom of the runtime, the db and core (a dead measurement must
//! never kill the tuner) and the ban on `unsafe` are left to clippy and
//! rustc, which check them with types: see the `deny` lists in those
//! crate roots and the workspace `[lints]` table.
//!
//! Run it as `cargo run -p gptune-xtask -- lint` (wired into `tier1.sh`);
//! see `lint.toml` at the workspace root for the allowlist format and
//! DESIGN.md §"Static-analysis policy" for the full rule catalogue.

pub mod concurrency;
pub mod config;
pub mod context;
pub mod deps;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod summary;

use config::Config;
use context::FileCtx;
use rules::Diagnostic;
use std::path::{Path, PathBuf};

/// Lints one file's source text under its repo-relative path. Per-file
/// rules only — the cross-file concurrency tier needs the whole
/// workspace and runs from [`lint_files`].
pub fn lint_source(path_rel: &str, source: &str, cfg: &Config) -> Vec<Diagnostic> {
    let lexed = lexer::lex(source);
    let ctx = FileCtx::new(path_rel, &lexed);
    rules::check_file(&ctx, cfg)
}

/// Lints a set of `(repo-relative path, source)` pairs: per-file rules on
/// each, then the workspace concurrency tier across all of them.
/// Diagnostics are sorted by path then line, so output is byte-stable.
pub fn lint_files(files: &[(String, String)], cfg: &Config) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    let mut parsed = Vec::new();
    for (rel, source) in files {
        let lexed = lexer::lex(source);
        let ctx = FileCtx::new(rel, &lexed);
        diagnostics.extend(rules::check_file(&ctx, cfg));
        parsed.push(parse::parse_file(&ctx));
    }
    diagnostics.extend(concurrency::check(&parsed, cfg));
    diagnostics.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    diagnostics
}

/// Parses every workspace file (no linting) — the substrate for
/// `lint --lock-graph`.
pub fn parse_workspace(root: &Path) -> std::io::Result<Vec<parse::ParsedFile>> {
    let files = read_workspace_sources(root)?;
    Ok(files
        .iter()
        .map(|(rel, source)| {
            let lexed = lexer::lex(source);
            parse::parse_file(&FileCtx::new(rel, &lexed))
        })
        .collect())
}

/// Reads every lintable workspace source file as `(rel-path, text)`.
pub fn read_workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            collect_rs(&member.join("src"), &mut paths)?;
        }
    }
    collect_rs(&root.join("src"), &mut paths)?;
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for file in &paths {
        let source = std::fs::read_to_string(file)?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        out.push((rel, source));
    }
    Ok(out)
}

/// Reads the root `Cargo.toml` and every `crates/*/Cargo.toml` under
/// `root` as `(rel-path, text)` — the manifests GX801 scans. `perfbench/`
/// is its own cargo workspace and is not included.
pub fn read_workspace_manifests(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut paths: Vec<PathBuf> = vec![root.join("Cargo.toml")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path().join("Cargo.toml"))
            .filter(|p| p.is_file())
            .collect();
        members.sort();
        paths.extend(members);
    }
    let mut out = Vec::with_capacity(paths.len());
    for file in paths.iter().filter(|p| p.is_file()) {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        out.push((rel, std::fs::read_to_string(file)?));
    }
    Ok(out)
}

/// Result of a workspace lint run.
pub struct LintReport {
    pub diagnostics: Vec<Diagnostic>,
    pub files_scanned: usize,
}

/// Lints every `crates/*/src/**/*.rs` plus the root package's `src/`
/// under `root` — per-file rules plus the workspace concurrency tier —
/// and the workspace manifests (GX801).
pub fn lint_workspace(root: &Path, cfg: &Config) -> std::io::Result<LintReport> {
    let files = read_workspace_sources(root)?;
    let manifests = read_workspace_manifests(root)?;
    let mut diagnostics = lint_files(&files, cfg);
    diagnostics.extend(deps::check_manifests(&manifests, cfg));
    diagnostics.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(LintReport {
        diagnostics,
        files_scanned: files.len() + manifests.len(),
    })
}

/// Recursively collects `.rs` files under `dir` (no-op when absent).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            collect_rs(&entry, out)?;
        } else if entry.extension().is_some_and(|x| x == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Loads `lint.toml` from the workspace root (empty allowlist when the
/// file does not exist).
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("lint.toml");
    match std::fs::read_to_string(&path) {
        Ok(src) => Config::parse(&src).map_err(|e| e.to_string()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Config::default()),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}
