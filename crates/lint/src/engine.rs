//! The per-file rule engine: test-region masking, allow directives, the
//! token-pattern matchers for each line rule, and the glue that merges
//! semantic (call-graph) findings with the per-file directive layer.
//!
//! Since v2 the engine runs in two phases: `analyze_source` produces
//! a per-file `Analysis` (tokens, resolved symbols, raw line-rule
//! findings, directives), and `finalize_file` merges in the semantic
//! findings for that file, applies allow-directive suppression, and
//! emits `unused-allow` for stale directives. [`lint_source`] composes
//! both over a single file (with a single-file call graph), which keeps
//! fixture tests and doctests self-contained; the workspace runner
//! composes them over every file at once so cross-file reachability is
//! visible.

use std::collections::BTreeSet;

use crate::callgraph::{build, FileCtx};
use crate::lexer::{lex, TokKind, Token};
use crate::resolve::{is_keyword_before_bracket, resolve_file};
use crate::rules::{
    rule_applies, rule_by_name, Profile, ENTROPY_IDENTS, NUMERIC_TYPES, RNG_LANE_IDENTS,
    WALLCLOCK_IDENTS,
};
use crate::semantic;

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (see [`crate::rules::RULES`]).
    pub rule: &'static str,
    /// Workspace-relative file path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// The trimmed source line the finding points at.
    pub snippet: String,
}

/// Result of linting a single file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Findings after allow-directive suppression, in source order.
    pub findings: Vec<Finding>,
    /// Advisory findings (relaxed-profile downgrades), in source order.
    /// Advisories never fail `--deny` and are not allow-suppressible.
    pub advisories: Vec<Finding>,
    /// Number of slice/array indexing expressions outside test code —
    /// the panic-surface *audit* metric (informational, not a finding).
    pub index_audit: u64,
    /// Total allow directives seen outside test code.
    pub allows_total: u64,
    /// Allow directives that suppressed at least one finding.
    pub allows_used: u64,
}

/// A parsed `// qfc-lint: allow(rule, …) — justification` directive.
#[derive(Debug, Clone)]
pub(crate) struct Directive {
    pub(crate) rules: Vec<String>,
    pub(crate) line: u32,
    pub(crate) target_line: u32,
    pub(crate) used: bool,
}

/// Phase-1 output for one file: everything the semantic pass and the
/// finalizer need.
#[derive(Debug)]
pub(crate) struct Analysis {
    /// Identity, tokens, and resolved symbols (consumed by the call
    /// graph and the semantic pass).
    pub(crate) ctx: FileCtx,
    /// Raw line-rule findings, pre-suppression.
    pub(crate) raw: Vec<Finding>,
    /// Advisory line findings (relaxed-profile downgrades).
    pub(crate) advisories: Vec<Finding>,
    /// Parsed allow directives.
    pub(crate) directives: Vec<Directive>,
    /// Slice/array indexing count outside tests.
    pub(crate) index_audit: u64,
    /// Source lines (snippet rendering for semantic findings).
    pub(crate) lines: Vec<String>,
}

impl Analysis {
    /// Target lines of directives allowing `panic-reachability` (the
    /// semantic pass matches them against fn declaration lines).
    pub(crate) fn fn_allow_lines(&self) -> BTreeSet<u32> {
        self.directives
            .iter()
            .filter(|d| d.rules.iter().any(|r| r == "panic-reachability"))
            .map(|d| d.target_line)
            .collect()
    }
}

/// Lints one file's source text in the context of `crate_name`, under
/// the strict profile, with a call graph confined to this file.
///
/// `rel_path` is only used to label findings; no I/O happens here, which
/// is what makes the engine trivially testable against fixture snippets.
/// Cross-file reachability requires the workspace runner ([`crate::run`]).
pub fn lint_source(crate_name: &str, rel_path: &str, text: &str) -> FileReport {
    let analysis = analyze_source(crate_name, rel_path, text, Profile::Strict);
    let ctxs = std::slice::from_ref(&analysis.ctx);
    let graph = build(ctxs);
    let fn_allows = vec![analysis.fn_allow_lines()];
    let sem = semantic::analyze(ctxs, &graph, &fn_allows);
    let mut sem_findings = sem.findings;
    let mut sem_advisories = sem.advisories;
    let mut used_fn = sem.used_fn_allows;
    finalize_file(
        analysis,
        sem_findings.pop().unwrap_or_default(),
        sem_advisories.pop().unwrap_or_default(),
        &used_fn.pop().unwrap_or_default(),
    )
}

/// Phase 1: lexes, resolves, and runs every line rule over one file.
pub(crate) fn analyze_source(
    crate_name: &str,
    rel_path: &str,
    text: &str,
    profile: Profile,
) -> Analysis {
    let tokens = lex(text);
    let in_test = test_region_mask(&tokens);
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    let snippet = |line: u32| -> String {
        let idx = usize::try_from(line).unwrap_or(1).saturating_sub(1);
        let s = lines.get(idx).map(String::as_str).unwrap_or("").trim();
        let mut out: String = s.chars().take(160).collect();
        if s.chars().count() > 160 {
            out.push('…');
        }
        out
    };

    let mut raw: Vec<Finding> = Vec::new();
    let mut advisories: Vec<Finding> = Vec::new();
    let mut index_audit = 0u64;
    let directives = collect_directives(crate_name, rel_path, &tokens, &in_test, &mut raw, &snippet);
    let in_hot = hot_region_mask(rel_path, &tokens, &in_test, &mut raw, &snippet);

    // Indices of code tokens (non-comment, outside test regions) for the
    // pattern matchers; comments must not split a pattern like `as f64`.
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| {
            !in_test[i] && !matches!(tokens[i].kind, TokKind::LineComment | TokKind::BlockComment)
        })
        .collect();

    let mut push = |rule: &'static str, tok: &Token, message: String, advisory: bool| {
        if rule_applies(rule, crate_name) {
            let f = Finding {
                rule,
                file: rel_path.to_string(),
                line: tok.line,
                col: tok.col,
                message,
                snippet: snippet(tok.line),
            };
            if advisory {
                advisories.push(f);
            } else {
                raw.push(f);
            }
        }
    };
    let relaxed = profile == Profile::Relaxed;

    for (j, &ti) in code.iter().enumerate() {
        let tok = &tokens[ti];
        let next = code.get(j + 1).map(|&k| &tokens[k]);
        match tok.kind {
            TokKind::Ident => {
                let name = tok.text.as_str();
                let next_is = |c: &str| {
                    next.map(|t| t.kind == TokKind::Punct && t.text == c)
                        .unwrap_or(false)
                };
                let code_at = |k: usize| code.get(k).map(|&m| &tokens[m]);
                let punct_at = |k: usize, c: &str| {
                    code_at(k)
                        .map(|t| t.kind == TokKind::Punct && t.text == c)
                        .unwrap_or(false)
                };
                if in_hot[ti] {
                    // `Vec::new`, `vec![`, `.clone()` — the three
                    // allocation shapes banned inside hot shot kernels.
                    if name == "Vec"
                        && punct_at(j + 1, ":")
                        && punct_at(j + 2, ":")
                        && code_at(j + 3)
                            .map(|t| t.kind == TokKind::Ident && t.text == "new")
                            .unwrap_or(false)
                    {
                        push(
                            "hot-loop-alloc",
                            tok,
                            "`Vec::new` inside a `qfc-lint: hot` region — hoist the \
                             buffer out of the shot loop"
                                .to_string(),
                            false,
                        );
                    } else if name == "vec" && next_is("!") {
                        push(
                            "hot-loop-alloc",
                            tok,
                            "`vec![…]` inside a `qfc-lint: hot` region — hoist the \
                             buffer out of the shot loop"
                                .to_string(),
                            false,
                        );
                    } else if name == "clone" && j > 0 && punct_at(j - 1, ".") && next_is("(") {
                        push(
                            "hot-loop-alloc",
                            tok,
                            "`.clone()` inside a `qfc-lint: hot` region — borrow or \
                             reuse a scratch buffer instead"
                                .to_string(),
                            false,
                        );
                    }
                }
                // Determinism idents fire only in *use* position — when
                // followed by `::`, `(`, `!`, or `<` — so imports, field
                // types, and return types stay quiet; the use site is
                // where the nondeterminism actually enters.
                let use_position =
                    next_is(":") || next_is("(") || next_is("!") || next_is("<");
                if name == "as" {
                    if let Some(n) = next {
                        if n.kind == TokKind::Ident && NUMERIC_TYPES.contains(&n.text.as_str()) {
                            push(
                                "lossy-cast",
                                tok,
                                format!(
                                    "`as {}` numeric cast — use qfc_mathkit::cast, \
                                     From/try_from, to_bits, or total_cmp",
                                    n.text
                                ),
                                relaxed,
                            );
                        }
                    }
                } else if WALLCLOCK_IDENTS.contains(&name) && use_position {
                    push(
                        "determinism",
                        tok,
                        format!(
                            "`{name}` reads the wall clock — results must be a pure \
                             function of explicit seeds"
                        ),
                        relaxed,
                    );
                } else if ENTROPY_IDENTS.contains(&name) && use_position {
                    push(
                        "determinism",
                        tok,
                        format!(
                            "`{name}` injects ambient entropy or unordered iteration — \
                             results must be a pure function of explicit seeds"
                        ),
                        false,
                    );
                } else if RNG_LANE_IDENTS.contains(&name) {
                    push(
                        "rng-lane",
                        tok,
                        format!(
                            "`{name}` bypasses the split_seed lane discipline — derive \
                             RNGs with qfc_mathkit::rng::rng_from_seed(split_seed(..))"
                        ),
                        false,
                    );
                } else if name == "pub" {
                    if let Some(f) = check_error_taxonomy(&tokens, &code, j) {
                        push("error-taxonomy", f.0, f.1, relaxed);
                    }
                }
            }
            // Indexing audit: `expr[...]` — `[` directly after an
            // identifier, `)` or `]` is an index expression, not an
            // array literal, attribute, or slice type.
            TokKind::Punct if tok.text == "[" && j > 0 => {
                let prev = &tokens[code[j - 1]];
                let indexing = prev.kind == TokKind::Ident
                    && !is_keyword_before_bracket(&prev.text)
                    || (prev.kind == TokKind::Punct && (prev.text == ")" || prev.text == "]"));
                if indexing {
                    index_audit += 1;
                }
            }
            _ => {}
        }
    }

    let symbols = resolve_file(&tokens, &in_test);
    Analysis {
        ctx: FileCtx {
            crate_name: crate_name.to_string(),
            file: rel_path.to_string(),
            profile,
            tokens,
            in_test,
            symbols,
        },
        raw,
        advisories,
        directives,
        index_audit,
        lines,
    }
}

/// Phase 2: merges semantic findings into one file's analysis, applies
/// allow-directive suppression, and reports stale directives.
///
/// `used_fn_lines` carries the fn-level `panic-reachability` directives
/// (by target line) that the semantic pass proved load-bearing.
pub(crate) fn finalize_file(
    analysis: Analysis,
    sem_findings: Vec<Finding>,
    sem_advisories: Vec<Finding>,
    used_fn_lines: &BTreeSet<u32>,
) -> FileReport {
    let Analysis {
        ctx,
        raw,
        advisories,
        mut directives,
        index_audit,
        lines,
    } = analysis;
    let rel_path = ctx.file;
    let snippet = |line: u32| -> String {
        let idx = usize::try_from(line).unwrap_or(1).saturating_sub(1);
        let s = lines.get(idx).map(String::as_str).unwrap_or("").trim();
        let mut out: String = s.chars().take(160).collect();
        if s.chars().count() > 160 {
            out.push('…');
        }
        out
    };
    let fill = |mut f: Finding| -> Finding {
        if f.snippet.is_empty() {
            f.snippet = snippet(f.line);
        }
        f
    };

    let mut report = FileReport {
        index_audit,
        ..FileReport::default()
    };

    // Fn-level panic-reachability allows proved load-bearing by the
    // semantic pass count as used even though no finding lands on their
    // target line.
    for d in directives.iter_mut() {
        if d.rules.iter().any(|r| r == "panic-reachability")
            && used_fn_lines.contains(&d.target_line)
        {
            d.used = true;
        }
    }

    let mut kept = Vec::new();
    for f in raw.into_iter().chain(sem_findings.into_iter().map(fill)) {
        let mut suppressed = false;
        if rule_by_name(f.rule).map(|r| r.allowable).unwrap_or(false) {
            for d in directives.iter_mut() {
                if d.target_line == f.line && d.rules.iter().any(|r| r == f.rule) {
                    d.used = true;
                    suppressed = true;
                }
            }
        }
        if !suppressed {
            kept.push(f);
        }
    }
    for d in &directives {
        report.allows_total += 1;
        if d.used {
            report.allows_used += 1;
        } else {
            kept.push(Finding {
                rule: "unused-allow",
                file: rel_path.clone(),
                line: d.line,
                col: 1,
                message: format!(
                    "allow({}) suppresses nothing on its target line — remove the \
                     stale directive",
                    d.rules.join(", ")
                ),
                snippet: snippet(d.line),
            });
        }
    }
    let sort_key = |f: &Finding| (f.line, f.col, f.rule, f.message.clone());
    kept.sort_by(|a, b| sort_key(a).cmp(&sort_key(b)));
    report.findings = kept;

    let mut adv: Vec<Finding> = advisories
        .into_iter()
        .chain(sem_advisories.into_iter().map(fill))
        .collect();
    adv.sort_by(|a, b| sort_key(a).cmp(&sort_key(b)));
    adv.dedup();
    report.advisories = adv;
    report
}

/// Marks every token covered by a `#[cfg(test)]`-gated item (plus the
/// attribute itself). Rules do not apply inside test code: tests may use
/// casts, panics, and ad-hoc errors freely.
pub(crate) fn test_region_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !matches!(tokens[i].kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let is = |j: usize, kind: TokKind, text: &str| {
        code.get(j)
            .map(|&ti| tokens[ti].kind == kind && tokens[ti].text == text)
            .unwrap_or(false)
    };
    let mut j = 0usize;
    while j < code.len() {
        // Match `# [ cfg ( test ) ]`.
        let hit = is(j, TokKind::Punct, "#")
            && is(j + 1, TokKind::Punct, "[")
            && is(j + 2, TokKind::Ident, "cfg")
            && is(j + 3, TokKind::Punct, "(")
            && is(j + 4, TokKind::Ident, "test")
            && is(j + 5, TokKind::Punct, ")")
            && is(j + 6, TokKind::Punct, "]");
        if !hit {
            j += 1;
            continue;
        }
        let start = code[j];
        let mut k = j + 7;
        // Skip any further attributes on the same item.
        while is(k, TokKind::Punct, "#") && is(k + 1, TokKind::Punct, "[") {
            let mut depth = 0usize;
            k += 1;
            while k < code.len() {
                let t = &tokens[code[k]];
                if t.kind == TokKind::Punct {
                    if t.text == "[" {
                        depth += 1;
                    } else if t.text == "]" {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                }
                k += 1;
            }
        }
        // The item body: ends at the first top-level `;`, or spans the
        // balanced `{ … }` block if one opens first.
        let mut depth = 0i64;
        let mut end = code.len().saturating_sub(1);
        while k < code.len() {
            let t = &tokens[code[k]];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    ";" if depth == 0 => {
                        end = k;
                        break;
                    }
                    "{" if depth == 0 => {
                        let mut brace = 0i64;
                        while k < code.len() {
                            let b = &tokens[code[k]];
                            if b.kind == TokKind::Punct {
                                if b.text == "{" {
                                    brace += 1;
                                } else if b.text == "}" {
                                    brace -= 1;
                                    if brace == 0 {
                                        break;
                                    }
                                }
                            }
                            k += 1;
                        }
                        end = k.min(code.len() - 1);
                        break;
                    }
                    _ => {}
                }
            }
            end = k;
            k += 1;
        }
        let end_ti = code.get(end).copied().unwrap_or(tokens.len() - 1);
        for m in mask.iter_mut().take(end_ti + 1).skip(start) {
            *m = true;
        }
        j = end + 1;
    }
    mask
}

/// Extracts allow directives from comments; malformed ones become
/// `bad-directive` findings immediately.
fn collect_directives(
    crate_name: &str,
    rel_path: &str,
    tokens: &[Token],
    in_test: &[bool],
    raw: &mut Vec<Finding>,
    snippet: &dyn Fn(u32) -> String,
) -> Vec<Directive> {
    let _ = crate_name;
    let mut out = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if in_test[i] || tok.kind != TokKind::LineComment {
            continue;
        }
        // Doc comments (`///`, `//!`) never carry directives — they may
        // legitimately *describe* the directive grammar.
        if tok.text.starts_with('/') || tok.text.starts_with('!') {
            continue;
        }
        let body = tok.text.trim_start();
        if !body.starts_with("qfc-lint") {
            continue;
        }
        // `// qfc-lint: hot` markers are region openers, not allow
        // directives; they are consumed by `collect_hot_regions`.
        if is_hot_marker(body) {
            continue;
        }
        match parse_directive(body) {
            Ok(rules) => {
                // Trailing directive (code earlier on the same line) covers
                // its own line; a standalone comment covers the next code line.
                let trailing = tokens[..i].iter().any(|t| {
                    t.line == tok.line
                        && !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
                });
                let target_line = if trailing {
                    tok.line
                } else {
                    tokens[i + 1..]
                        .iter()
                        .find(|t| {
                            !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
                                && t.line > tok.line
                        })
                        .map(|t| t.line)
                        .unwrap_or(0)
                };
                out.push(Directive {
                    rules,
                    line: tok.line,
                    target_line,
                    used: false,
                });
            }
            Err(why) => raw.push(Finding {
                rule: "bad-directive",
                file: rel_path.to_string(),
                line: tok.line,
                col: tok.col,
                message: why,
                snippet: snippet(tok.line),
            }),
        }
    }
    out
}

/// `true` when a comment body (starting at `qfc-lint`) is the hot-region
/// marker `qfc-lint: hot`.
fn is_hot_marker(body: &str) -> bool {
    body.strip_prefix("qfc-lint")
        .and_then(|r| r.trim_start().strip_prefix(':'))
        .map(|r| r.trim() == "hot")
        .unwrap_or(false)
}

/// Marks every token inside a `// qfc-lint: hot` region: from the first
/// code token after the marker through the matching `}` of the first
/// `{` that follows. A marker with no block after it is a
/// `bad-directive` finding.
fn hot_region_mask(
    rel_path: &str,
    tokens: &[Token],
    in_test: &[bool],
    raw: &mut Vec<Finding>,
    snippet: &dyn Fn(u32) -> String,
) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    for (i, tok) in tokens.iter().enumerate() {
        if in_test[i]
            || tok.kind != TokKind::LineComment
            || tok.text.starts_with('/')
            || tok.text.starts_with('!')
            || !is_hot_marker(tok.text.trim_start())
        {
            continue;
        }
        // Find the opening brace of the marked block, then span it.
        let mut start: Option<usize> = None;
        let mut open: Option<usize> = None;
        for (k, t) in tokens.iter().enumerate().skip(i + 1) {
            if matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
                continue;
            }
            start.get_or_insert(k);
            if t.kind == TokKind::Punct && t.text == "{" {
                open = Some(k);
                break;
            }
        }
        let Some(open) = open else {
            raw.push(Finding {
                rule: "bad-directive",
                file: rel_path.to_string(),
                line: tok.line,
                col: tok.col,
                message: "`qfc-lint: hot` marker must precede a block".to_string(),
                snippet: snippet(tok.line),
            });
            continue;
        };
        let mut depth = 0i64;
        let mut end = tokens.len() - 1;
        for (k, t) in tokens.iter().enumerate().skip(open) {
            if t.kind == TokKind::Punct {
                if t.text == "{" {
                    depth += 1;
                } else if t.text == "}" {
                    depth -= 1;
                    if depth == 0 {
                        end = k;
                        break;
                    }
                }
            }
        }
        let first = start.unwrap_or(open);
        for m in mask.iter_mut().take(end + 1).skip(first) {
            *m = true;
        }
    }
    mask
}

/// Parses the text of a directive starting at `qfc-lint`. Grammar:
///
/// ```text
/// qfc-lint: allow(<rule>[, <rule>]*) — <non-empty justification>
/// ```
///
/// The separator before the justification may be `—`, `–`, `-`, or `:`.
fn parse_directive(body: &str) -> Result<Vec<String>, String> {
    let rest = body
        .strip_prefix("qfc-lint")
        .and_then(|r| r.trim_start().strip_prefix(':'))
        .ok_or_else(|| "directive must start with `qfc-lint:`".to_string())?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("allow").ok_or_else(|| {
        "directive must be `qfc-lint: allow(<rule>) — <justification>`".to_string()
    })?;
    let rest = rest.trim_start();
    let rest = rest
        .strip_prefix('(')
        .ok_or_else(|| "expected `(` after `allow`".to_string())?;
    let close = rest
        .find(')')
        .ok_or_else(|| "unclosed rule list in allow directive".to_string())?;
    let mut rules = Vec::new();
    for name in rest[..close].split(',') {
        let name = name.trim();
        match rule_by_name(name) {
            Some(r) if r.allowable => rules.push(name.to_string()),
            Some(_) => return Err(format!("rule `{name}` cannot be allow-suppressed")),
            None => return Err(format!("unknown rule `{name}` in allow directive")),
        }
    }
    if rules.is_empty() {
        return Err("allow directive names no rules".to_string());
    }
    let just = rest[close + 1..]
        .trim_start()
        .trim_start_matches(['—', '–', '-', ':', ' '])
        .trim();
    if just.is_empty() {
        return Err("allow directive requires a justification after the rule list".to_string());
    }
    Ok(rules)
}

/// `error-taxonomy`: starting from `pub` at code index `j`, decide
/// whether this is a `pub fn` whose return type mentions `Result` without
/// `QfcError`/`QfcResult`. Returns the fn-name token and a message.
fn check_error_taxonomy<'t>(
    tokens: &'t [Token],
    code: &[usize],
    j: usize,
) -> Option<(&'t Token, String)> {
    let tok = |k: usize| code.get(k).map(|&ti| &tokens[ti]);
    let mut k = j + 1;
    // `pub(crate)` / `pub(super)` are not public API.
    if tok(k).map(|t| t.kind == TokKind::Punct && t.text == "(") == Some(true) {
        return None;
    }
    // Skip qualifiers: `const`, `async`, `unsafe`, `extern "C"`.
    while let Some(t) = tok(k) {
        match (t.kind, t.text.as_str()) {
            (TokKind::Ident, "const" | "async" | "unsafe" | "extern") | (TokKind::StrLit, _) => {
                k += 1
            }
            _ => break,
        }
    }
    if tok(k).map(|t| t.kind == TokKind::Ident && t.text == "fn") != Some(true) {
        return None;
    }
    k += 1;
    let name_tok = tok(k)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let fn_name = name_tok.text.clone();
    k += 1;
    // Generics: consume a balanced `<…>` group, treating `->` arrows as
    // atomic so the `>` does not unbalance the angle count.
    if tok(k).map(|t| t.kind == TokKind::Punct && t.text == "<") == Some(true) {
        let mut angle = 0i64;
        while let Some(t) = tok(k) {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "<" => angle += 1,
                    "-" if tok(k + 1).map(|n| n.text == ">") == Some(true) => k += 1,
                    ">" => {
                        angle -= 1;
                        if angle == 0 {
                            k += 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            k += 1;
        }
    }
    // Parameter list.
    if tok(k).map(|t| t.kind == TokKind::Punct && t.text == "(") != Some(true) {
        return None;
    }
    let mut paren = 0i64;
    while let Some(t) = tok(k) {
        if t.kind == TokKind::Punct {
            if t.text == "(" {
                paren += 1;
            } else if t.text == ")" {
                paren -= 1;
                if paren == 0 {
                    k += 1;
                    break;
                }
            }
        }
        k += 1;
    }
    // Return type, if any.
    if !(tok(k).map(|t| t.text == "-") == Some(true)
        && tok(k + 1).map(|t| t.text == ">") == Some(true))
    {
        return None;
    }
    k += 2;
    let mut depth = 0i64;
    let mut ret_idents: Vec<String> = Vec::new();
    while let Some(t) = tok(k) {
        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" => depth -= 1,
                "-" if tok(k + 1).map(|n| n.text == ">") == Some(true) => k += 1,
                ">" => depth -= 1,
                "{" | ";" if depth <= 0 => break,
                _ => {}
            },
            TokKind::Ident => {
                if t.text == "where" && depth <= 0 {
                    break;
                }
                ret_idents.push(t.text.clone());
            }
            _ => {}
        }
        k += 1;
    }
    let has = |n: &str| ret_idents.iter().any(|i| i == n);
    if has("Result") && !has("QfcResult") && !has("QfcError") {
        Some((
            name_tok,
            format!(
                "public fallible fn `{fn_name}` returns a non-QfcError Result — \
                 the workspace error taxonomy requires QfcError/QfcResult"
            ),
        ))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<(&'static str, u32)> {
        lint_source("qfc-core", "test.rs", src)
            .findings
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn cast_in_test_module_is_ignored() {
        let src =
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g(n: usize) -> f64 { n as f64 }\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn trailing_and_standalone_directives_cover_the_right_line() {
        let src = "\
fn f(n: usize) -> f64 {
    // qfc-lint: allow(lossy-cast) — exact below 2^53
    n as f64
}
fn g(n: usize) -> f64 {
    n as f64 // qfc-lint: allow(lossy-cast) — exact below 2^53
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn unjustified_directive_is_a_finding() {
        let src = "// qfc-lint: allow(lossy-cast)\nfn f(n: usize) -> f64 { n as f64 }\n";
        let got = run(src);
        assert!(got.contains(&("bad-directive", 1)), "{got:?}");
        // The malformed directive suppresses nothing.
        assert!(got.contains(&("lossy-cast", 2)), "{got:?}");
    }

    #[test]
    fn stale_allow_is_reported() {
        let src = "// qfc-lint: allow(determinism) — nothing here\nlet x = 1;\n";
        assert_eq!(run(src), vec![("unused-allow", 1)]);
    }

    #[test]
    fn error_taxonomy_flags_foreign_results_only() {
        let src = "\
pub fn bad(x: u8) -> Result<u8, String> { Ok(x) }
pub fn good(x: u8) -> QfcResult<u8> { Ok(x) }
pub fn also_good(x: u8) -> Result<u8, QfcError> { Ok(x) }
pub(crate) fn internal(x: u8) -> Result<u8, String> { Ok(x) }
fn private(x: u8) -> Result<u8, String> { Ok(x) }
pub fn infallible(x: u8) -> u8 { x }
pub fn generic<F: Fn(f64) -> f64>(f: F) -> Result<f64, QfcError> { Ok(f(0.0)) }
";
        assert_eq!(run(src), vec![("error-taxonomy", 1)]);
    }

    #[test]
    fn index_audit_counts_only_index_expressions() {
        let r = lint_source(
            "qfc-core",
            "t.rs",
            "fn f(xs: &[f64]) -> f64 { let a = [0; 4]; xs[0] + a[1] }\n",
        );
        assert_eq!(r.index_audit, 2);
    }

    #[test]
    fn determinism_fires_in_use_position_only() {
        // Imports, field types, and return types are quiet; the call is
        // the finding.
        let src = "\
use std::time::Instant;
struct S { started: Instant }
fn now() -> Instant { Instant::now() }
fn m() { let h = HashMap::new(); let _ = h; }
";
        let got = run(src);
        assert_eq!(got, vec![("determinism", 3), ("determinism", 4)], "{got:?}");
    }

    #[test]
    fn panic_reachability_requires_a_public_path() {
        // A panic in a private fn that nothing public reaches is fine.
        let src = "fn helper() { panic!(\"boom\") }\n";
        assert!(run(src).is_empty());
        // The same panic reachable from a pub fn is a finding at the site.
        let src = "pub fn run() { helper() }\nfn helper() { panic!(\"boom\") }\n";
        assert_eq!(run(src), vec![("panic-reachability", 2)]);
        // Direct panic in a pub fn is a finding.
        let src = "pub fn f() { panic!(\"boom\") }\n";
        assert_eq!(run(src), vec![("panic-reachability", 1)]);
    }

    #[test]
    fn fn_level_allow_excuses_the_subtree_and_registers_as_used() {
        let src = "\
// qfc-lint: allow(panic-reachability) — validated legacy wrapper, panics on contract violation
pub fn run() { helper() }
fn helper() { other.unwrap() }
";
        let r = lint_source("qfc-core", "t.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!((r.allows_total, r.allows_used), (1, 1));
    }

    #[test]
    fn par_merge_order_flags_captured_accumulators() {
        let src = "\
fn f(xs: &[f64]) -> f64 {
    let mut total = 0.0;
    par_map(xs, |x| { total += x; 0.0 });
    total
}
";
        assert_eq!(run(src), vec![("par-merge-order", 3)]);
        // A closure-local accumulator is fine.
        let src = "\
fn f(xs: &[f64]) {
    par_map(xs, |x| { let mut acc = 0.0; acc += x; acc });
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn rng_lane_flow_catches_laundered_seeds() {
        let src = "\
fn helper(x: u64, seed: u64) -> u64 {
    let mut rng = rng_from_seed(seed);
    x
}
pub fn sweep(xs: &[u64], seed: u64) {
    par_map(xs, |x| helper(*x, seed));
}
";
        let got = run(src);
        assert!(
            got.contains(&("rng-lane-flow", 6)),
            "expected a finding at the par_map call site: {got:?}"
        );
        // Splitting at the boundary is clean.
        let src = "\
fn helper(x: u64, seed: u64) -> u64 {
    let mut rng = rng_from_seed(seed);
    x
}
pub fn sweep(xs: &[u64], seed: u64) {
    par_map(xs, |x| helper(*x, split_seed(seed, *x)));
}
";
        let got = run(src);
        assert!(
            !got.iter().any(|(r, _)| *r == "rng-lane-flow"),
            "split_seed lane must be clean: {got:?}"
        );
    }
}
