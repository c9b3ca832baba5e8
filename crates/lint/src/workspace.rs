//! Workspace discovery, the whole-tree lint run, and the two
//! workspace-level checks (`forbid-unsafe`, `ci-roster`).
//!
//! The run is two-phase: phase 1 analyzes every file in isolation
//! (tokens, symbols, line-rule findings, directives), then the call
//! graph is built over *all* files at once and the semantic pass
//! ([`crate::semantic`]) computes cross-file reachability before any
//! allow-directive suppression happens. Library crates under `crates/`
//! are linted under the strict profile; the workspace root crate
//! (`src/`, including `src/bin/`) and `examples/` are linted under the
//! relaxed profile — see [`crate::rules::Profile`].

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::callgraph::{self, FileCtx, GraphSummary};
use crate::engine::{analyze_source, finalize_file, Analysis, Finding};
use crate::lexer::{lex, TokKind};
use crate::rules::Profile;
use crate::semantic;
use crate::LintError;

/// Aggregate result of linting the workspace.
#[derive(Debug)]
pub struct RunReport {
    /// Library crates that were scanned, sorted by name.
    pub crates: Vec<String>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All findings in canonical order (file, line, col, rule).
    pub findings: Vec<Finding>,
    /// Advisory findings (relaxed-profile downgrades) in the same
    /// canonical order. Advisories never fail `--deny`.
    pub advisories: Vec<Finding>,
    /// Per-file count of slice/array indexing expressions (files with a
    /// non-zero count only) — the panic-surface audit metric.
    pub index_audit: BTreeMap<String, u64>,
    /// Total allow directives seen.
    pub allows_total: u64,
    /// Allow directives that suppressed at least one finding.
    pub allows_used: u64,
    /// Canonical `CALLGRAPH.json` document for this run.
    pub callgraph: String,
    /// Headline call-graph numbers (mirrored in the JSON summary).
    pub graph: GraphSummary,
}

/// One discovered library crate.
struct CrateInfo {
    /// Package name from `Cargo.toml` (e.g. `qfc-core`).
    name: String,
    /// Directory under `crates/`.
    dir: PathBuf,
}

/// One lint scope: a directory tree analyzed under one crate name and
/// one profile.
struct Scope {
    name: String,
    profile: Profile,
    dir: PathBuf,
    /// Crate-root file that must declare `#![forbid(unsafe_code)]`,
    /// when this scope carries the forbid-unsafe obligation.
    forbid_lib: Option<PathBuf>,
}

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Result<PathBuf, LintError> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(LintError::NotAWorkspace(start.display().to_string()));
        }
    }
}

/// Runs the full lint pass: every library crate under `root/crates`
/// (strict), plus the root crate `src/` and `examples/` when present
/// (relaxed).
pub fn run(root: &Path) -> Result<RunReport, LintError> {
    let mut crates = Vec::new();
    let crates_dir = root.join("crates");
    let mut entries: Vec<PathBuf> = read_dir_sorted(&crates_dir)?;
    entries.retain(|p| p.is_dir());
    for dir in entries {
        let Some(dirname) = dir.file_name().and_then(|n| n.to_str()).map(String::from) else {
            continue;
        };
        let name = package_name(&dir.join("Cargo.toml"))?.unwrap_or(format!("qfc-{dirname}"));
        crates.push(CrateInfo { name, dir });
    }
    crates.sort_by(|a, b| a.name.cmp(&b.name));

    let mut scopes: Vec<Scope> = crates
        .iter()
        .map(|info| Scope {
            name: info.name.clone(),
            profile: Profile::Strict,
            dir: info.dir.join("src"),
            forbid_lib: Some(info.dir.join("src").join("lib.rs")),
        })
        .collect();
    // The workspace root crate (binaries + shared plumbing) and the
    // examples tree ride along under the relaxed profile. Both are
    // optional so reduced fixtures (mini workspaces in tests) lint
    // cleanly without them.
    let root_src = root.join("src");
    if root_src.is_dir() {
        let name = package_name(&root.join("Cargo.toml"))?.unwrap_or_else(|| "qfc".to_string());
        let lib = root_src.join("lib.rs");
        let forbid_lib = lib.is_file().then_some(lib);
        scopes.push(Scope {
            name,
            profile: Profile::Relaxed,
            dir: root_src,
            forbid_lib,
        });
    }
    let examples_dir = root.join("examples");
    if examples_dir.is_dir() {
        scopes.push(Scope {
            name: "examples".to_string(),
            profile: Profile::Relaxed,
            dir: examples_dir,
            forbid_lib: None,
        });
    }

    // Phase 1: per-file analysis, in deterministic scope-then-path order.
    let mut analyses: Vec<Analysis> = Vec::new();
    let mut fn_allows = Vec::new();
    let mut extra_findings: Vec<Finding> = Vec::new();
    let mut files_scanned = 0usize;
    for scope in &scopes {
        let mut files = Vec::new();
        collect_rs_files(&scope.dir, &mut files)?;
        files.sort();
        let mut saw_forbid_unsafe = scope.forbid_lib.is_none();
        for path in files {
            let rel = rel_path(root, &path);
            let text = fs::read_to_string(&path).map_err(|e| LintError::io(&path, &e))?;
            if scope.forbid_lib.as_deref() == Some(path.as_path()) {
                saw_forbid_unsafe = has_forbid_unsafe(&text);
            }
            let analysis = analyze_source(&scope.name, &rel, &text, scope.profile);
            fn_allows.push(analysis.fn_allow_lines());
            analyses.push(analysis);
            files_scanned += 1;
        }
        if !saw_forbid_unsafe {
            let lib = scope
                .forbid_lib
                .clone()
                .unwrap_or_else(|| scope.dir.join("lib.rs"));
            extra_findings.push(Finding {
                rule: "forbid-unsafe",
                file: rel_path(root, &lib),
                line: 1,
                col: 1,
                message: format!(
                    "crate `{}` must declare #![forbid(unsafe_code)] in its crate root",
                    scope.name
                ),
                snippet: String::new(),
            });
        }
    }

    // Phase 2: the workspace call graph and the semantic pass over it.
    let ctxs: Vec<FileCtx> = analyses.iter().map(|a| a.ctx.clone()).collect();
    let graph = callgraph::build(&ctxs);
    let sem = semantic::analyze(&ctxs, &graph, &fn_allows);
    let callgraph_json = callgraph::to_json(&ctxs, &graph, &sem.summary);

    let mut report = RunReport {
        crates: crates.iter().map(|c| c.name.clone()).collect(),
        files_scanned,
        findings: extra_findings,
        advisories: Vec::new(),
        index_audit: BTreeMap::new(),
        allows_total: 0,
        allows_used: 0,
        callgraph: callgraph_json,
        graph: sem.summary,
    };
    let mut sem_findings = sem.findings;
    let mut sem_advisories = sem.advisories;
    for (i, analysis) in analyses.into_iter().enumerate() {
        let rel = analysis.ctx.file.clone();
        let file_report = finalize_file(
            analysis,
            std::mem::take(&mut sem_findings[i]),
            std::mem::take(&mut sem_advisories[i]),
            &sem.used_fn_allows[i],
        );
        report.allows_total += file_report.allows_total;
        report.allows_used += file_report.allows_used;
        if file_report.index_audit > 0 {
            report.index_audit.insert(rel, file_report.index_audit);
        }
        report.findings.extend(file_report.findings);
        report.advisories.extend(file_report.advisories);
    }

    check_ci_roster(root, &report.crates, &mut report.findings);

    let sort = |v: &mut Vec<Finding>| {
        v.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.col, a.rule, a.message.as_str()).cmp(&(
                b.file.as_str(),
                b.line,
                b.col,
                b.rule,
                b.message.as_str(),
            ))
        });
    };
    sort(&mut report.findings);
    sort(&mut report.advisories);
    Ok(report)
}

/// The `ci-roster` check: `scripts/ci.sh` must (a) invoke `qfc-lint`,
/// (b) either derive its clippy roster from `crates/*` (the `for d in
/// crates/*/` idiom) or hand-list every library crate — and in either
/// form never exclude a [`crate::rules::CLIPPY_REQUIRED`] crate through
/// an exclusion branch — and (c) verify call-graph drift: some
/// non-comment line must compare a freshly generated `CALLGRAPH.json`
/// against a second run (`cmp`/`diff`), keeping the byte-determinism
/// contract under CI.
fn check_ci_roster(root: &Path, crates: &[String], findings: &mut Vec<Finding>) {
    let ci_path = root.join("scripts").join("ci.sh");
    let rel = rel_path(root, &ci_path);
    let push = |findings: &mut Vec<Finding>, message: String| {
        findings.push(Finding {
            rule: "ci-roster",
            file: rel.clone(),
            line: 1,
            col: 1,
            message,
            snippet: String::new(),
        });
    };
    let Ok(text) = fs::read_to_string(&ci_path) else {
        push(
            findings,
            "scripts/ci.sh is missing — the CI gate is gone".to_string(),
        );
        return;
    };
    if !text.contains("qfc-lint") {
        push(
            findings,
            "scripts/ci.sh does not invoke qfc-lint — the static-analysis gate is \
             not wired into CI"
                .to_string(),
        );
    }
    let derives_dynamically = text.contains("crates/*/");
    if !derives_dynamically {
        let missing: Vec<&String> = crates
            .iter()
            .filter(|c| !text.contains(&format!("-p {c}")))
            .collect();
        if !missing.is_empty() {
            push(
                findings,
                format!(
                    "scripts/ci.sh hand-lists its clippy roster but omits {} — derive \
                     the roster from crates/* so new crates cannot skip the gate",
                    missing
                        .iter()
                        .map(|s| s.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            );
        }
    }
    // A required crate (e.g. qfc-campaign) must never be carved out of
    // the clippy roster: neither skipped by an exclusion branch in the
    // dynamic loop (a `!= "<crate>"` test) nor omitted from a
    // hand-written list.
    for name in crate::rules::CLIPPY_REQUIRED {
        if !crates.iter().any(|c| c == name) {
            continue;
        }
        let excluded = text
            .lines()
            .any(|l| l.contains(name) && l.contains("!="));
        let listed = derives_dynamically || text.contains(&format!("-p {name}"));
        if excluded || !listed {
            push(
                findings,
                format!(
                    "scripts/ci.sh must keep `{name}` in the clippy no-unwrap roster — \
                     its crash-recovery guarantees rest on error-path returns, so \
                     excluding it from the panic-freedom gate is a robustness regression"
                ),
            );
        }
    }
    let checks_drift = text.lines().any(|l| {
        let l = l.trim_start();
        !l.starts_with('#')
            && l.contains("CALLGRAPH")
            && (l.contains("cmp") || l.contains("diff"))
    });
    if !checks_drift {
        push(
            findings,
            "scripts/ci.sh never compares CALLGRAPH.json across two lint runs \
             (`cmp`/`diff`) — the byte-determinism contract is not enforced in CI"
                .to_string(),
        );
    }
}

/// Whether the crate-root source declares `#![forbid(unsafe_code)]`.
pub fn has_forbid_unsafe(lib_rs: &str) -> bool {
    let toks = lex(lib_rs);
    let code: Vec<&crate::lexer::Token> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    code.windows(8).any(|w| {
        w[0].text == "#"
            && w[1].text == "!"
            && w[2].text == "["
            && w[3].text == "forbid"
            && w[4].text == "("
            && w[5].text == "unsafe_code"
            && w[6].text == ")"
            && w[7].text == "]"
    })
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let rd = fs::read_dir(dir).map_err(|e| LintError::io(dir, &e))?;
    let mut out = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| LintError::io(dir, &e))?;
        out.push(entry.path());
    }
    out.sort();
    Ok(out)
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    for path in read_dir_sorted(dir)? {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes (canonical report form).
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Extracts `name = "…"` from a Cargo manifest's `[package]` section.
fn package_name(manifest: &Path) -> Result<Option<String>, LintError> {
    let text = fs::read_to_string(manifest).map_err(|e| LintError::io(manifest, &e))?;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(rest) = rest.strip_prefix('=') {
                let v = rest.trim().trim_matches('"');
                return Ok(Some(v.to_string()));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forbid_unsafe_detection() {
        assert!(has_forbid_unsafe(
            "//! docs\n#![forbid(unsafe_code)]\npub fn f() {}\n"
        ));
        assert!(!has_forbid_unsafe("#![warn(missing_docs)]\n"));
        // A mention inside a comment does not count.
        assert!(!has_forbid_unsafe("// #![forbid(unsafe_code)]\n"));
    }
}
