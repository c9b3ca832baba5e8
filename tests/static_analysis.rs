//! Workspace-level static-analysis gate, as a test: the whole tree must
//! be clean under `qfc-lint --deny` semantics, and the canonical report
//! must be byte-identical across runs (the same determinism bar the
//! simulations themselves are held to).

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;

use qfc_lint::lexer::{lex, TokKind};
use qfc_lint::report::to_json;
use qfc_lint::{find_workspace_root, run};

#[test]
fn workspace_is_lint_clean_at_deny_level() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let report = run(&root).expect("lint run");
    assert!(
        report.crates.iter().any(|c| c == "qfc-lint"),
        "qfc-lint must scan itself; scanned: {:?}",
        report.crates
    );
    assert!(report.files_scanned > 50, "suspiciously few files scanned");
    assert!(
        report.findings.is_empty(),
        "workspace has lint findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {}:{}:{} [{}] {}", f.file, f.line, f.col, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Every allow directive must still be earning its keep. The v2
    // semantic re-audit (exact remove-one-recompute for fn-level
    // panic-reachability allows) ran as part of `run`, so this equality
    // is the zero-unused-allow regression gate.
    assert_eq!(
        report.allows_total, report.allows_used,
        "stale allow directives present"
    );
    // The allow budget is capped: the semantic engine exists to *shrink*
    // the excuse surface, so the directive count must never creep back
    // above today's 20 (down from the pre-semantic baseline of 50).
    assert!(
        report.allows_total <= 20,
        "allow-directive budget exceeded: {} > 20",
        report.allows_total
    );
    // The call graph is populated and the panic audit is live.
    assert!(report.graph.nodes > 500, "call graph suspiciously small");
    assert!(report.graph.edges > 1000, "call graph suspiciously sparse");
    assert!(
        report.graph.panic_sites >= report.graph.reachable_panic_sites,
        "reachable panic sites exceed total panic sites"
    );
}

#[test]
fn lint_report_is_byte_identical_across_runs() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let first = run(&root).expect("first run");
    let second = run(&root).expect("second run");
    assert_eq!(
        to_json(&first),
        to_json(&second),
        "canonical JSON report is not deterministic"
    );
    assert_eq!(
        first.callgraph, second.callgraph,
        "CALLGRAPH.json is not byte-deterministic"
    );
    assert!(
        first.callgraph.contains("\"schema\": \"qfc-callgraph/1\""),
        "call graph missing its schema marker"
    );
    let json = to_json(&first);
    assert!(!json.contains(&root.display().to_string()), "report leaks absolute paths");
    assert!(
        !first.callgraph.contains(&root.display().to_string()),
        "call graph leaks absolute paths"
    );
}

/// Rust files under `dir`, recursively, as (path relative to `root`, text).
fn rust_sources(root: &Path, dir: &str, out: &mut Vec<(String, String)>) {
    let mut stack = vec![root.join(dir)];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("read_dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(root)
                    .expect("under root")
                    .display()
                    .to_string();
                out.push((rel, std::fs::read_to_string(&path).expect("read source")));
            }
        }
    }
}

/// Appends every identifier-shaped word of `text` with its char offset
/// plus `base`.
fn push_words(text: &[char], base: usize, out: &mut Vec<(String, usize)>) {
    let word = |c: char| c == '_' || c.is_alphanumeric();
    let mut i = 0;
    while i < text.len() {
        let start = i;
        while i < text.len() && word(text[i]) {
            i += 1;
        }
        if i == start {
            i += 1;
        } else if !text[start].is_ascii_digit() {
            out.push((text[start..i].iter().collect(), base + start));
        }
    }
}

/// One `pub fn` of library code: its file, name and line, and the char
/// span from its name to the end of its body.
struct PubFn {
    file: usize,
    name: String,
    line: u32,
    span: Range<usize>,
}

/// A scanned source file: the words of its code (string literals
/// included, comments and doc prose not, doctest fences appended past the
/// end of the file) and where its unit tests start.
struct Scanned {
    path: String,
    words: Vec<(String, usize)>,
    tests: Range<usize>,
}

/// Scans `src`; for library files also collects the `pub fn`s before the
/// first column-0 `#[cfg(test)]` into `fns`.
fn scan(file: usize, path: String, src: &str, library: bool, fns: &mut Vec<PubFn>) -> Scanned {
    let toks = lex(src);
    let chars: Vec<char> = src.chars().collect();
    let mut line_starts = vec![0];
    line_starts.extend(
        (0..chars.len())
            .filter(|&i| chars[i] == '\n')
            .map(|i| i + 1),
    );
    let at: Vec<usize> = toks
        .iter()
        .map(|t| line_starts[t.line as usize - 1] + t.col as usize - 1)
        .collect();
    let tests_at = src
        .find("\n#[cfg(test)]")
        .map_or(chars.len(), |i| src[..=i].chars().count());

    let mut code = chars.clone();
    let mut doctests = Vec::new();
    let mut fence: Option<Vec<char>> = None;
    let comment = |k: usize| matches!(toks[k].kind, TokKind::LineComment | TokKind::BlockComment);
    for (k, t) in toks.iter().enumerate() {
        if !comment(k) {
            continue;
        }
        code[at[k]..at.get(k + 1).copied().unwrap_or(chars.len())].fill(' ');
        let doc = t.kind == TokKind::LineComment
            && ((t.text.starts_with('/') && !t.text.starts_with("//")) || t.text.starts_with('!'));
        if !doc {
            continue;
        }
        let line = &t.text[1..];
        match (fence.take(), line.trim_start().strip_prefix("```")) {
            (None, Some(info)) => {
                let rust = info.split(',').all(|a| {
                    let a = a.trim();
                    matches!(
                        a,
                        "" | "rust" | "no_run" | "ignore" | "should_panic" | "compile_fail"
                    )
                });
                fence = rust.then(Vec::new);
            }
            (Some(body), Some(_)) => doctests.extend(body),
            (Some(mut body), None) => {
                body.extend(line.chars().chain(['\n']));
                fence = Some(body);
            }
            (None, None) => {}
        }
    }
    let mut words = Vec::new();
    push_words(&code, 0, &mut words);
    push_words(&doctests, chars.len(), &mut words);

    if library {
        let code_toks: Vec<usize> = (0..toks.len())
            .filter(|&k| at[k] < tests_at && !comment(k))
            .collect();
        let text = |j: usize| code_toks.get(j).map_or("", |&k| toks[k].text.as_str());
        for j in 0..code_toks.len() {
            let name = match (text(j), text(j + 1), text(j + 2)) {
                ("pub", "fn", _) => j + 2,
                ("pub", "const", "fn") => j + 3,
                _ => continue,
            };
            // The body is the first `{ … }` outside the signature's
            // parentheses and brackets; a `;` there means there is none.
            let (mut depth, mut end) = (0i32, None);
            for b in name + 1..code_toks.len() {
                match (text(b), depth) {
                    ("(" | "[", _) => depth += 1,
                    (")" | "]", _) => depth -= 1,
                    (";", 0) => end = Some(b),
                    ("{", 0) => {
                        let mut braces = 0;
                        end = (b..code_toks.len()).find(|&c| {
                            braces += match text(c) {
                                "{" => 1,
                                "}" => -1,
                                _ => 0,
                            };
                            braces == 0
                        });
                    }
                    _ => continue,
                }
                if end.is_some() || depth < 0 {
                    break;
                }
            }
            let last = end.map_or(tests_at, |e| at[code_toks[e]] + 1);
            fns.push(PubFn {
                file,
                name: text(name).to_owned(),
                line: toks[code_toks[name]].line,
                span: at[code_toks[name]]..last,
            });
        }
    }
    Scanned {
        path,
        words,
        tests: tests_at..chars.len(),
    }
}

/// Every `pub fn` of library code must be referenced from somewhere other
/// than its own file's unit tests: a driver, a binary, an example, a root
/// test, perfbench, a doctest, or another module (its tests included).
///
/// A reference is an identifier-shaped word of the same name in code or
/// in a string literal, so shared names (`new`, `validate`) keep each
/// other and the check errs toward keeping. Comments and doc prose do
/// not count, nor does a word inside the function's own definition, in
/// its own file after the first column-0 `#[cfg(test)]`, or inside the
/// body of another function this check finds unreferenced: a chain of
/// dead helpers is reported whole.
#[test]
fn every_library_pub_fn_is_referenced() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let mut sources = Vec::new();
    for dir in ["crates", "src", "examples", "tests", "perfbench/src"] {
        rust_sources(&root, dir, &mut sources);
    }
    sources.sort();

    let mut fns = Vec::new();
    let scanned: Vec<Scanned> = sources
        .into_iter()
        .enumerate()
        .map(|(file, (path, src))| {
            let library = path.starts_with("src/")
                || (path.starts_with("crates/") && path.split('/').nth(2) == Some("src"));
            scan(file, path, &src, library, &mut fns)
        })
        .collect();
    let mut uses: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (file, s) in scanned.iter().enumerate() {
        for (word, at) in &s.words {
            uses.entry(word).or_default().push((file, *at));
        }
    }

    let mut dead = vec![false; fns.len()];
    loop {
        let mut changed = false;
        for i in 0..fns.len() {
            let f = &fns[i];
            let inside = |g: &PubFn, file: usize, at: usize| g.file == file && g.span.contains(&at);
            let referenced = uses[f.name.as_str()].iter().any(|&(file, at)| {
                let own =
                    inside(f, file, at) || (file == f.file && scanned[file].tests.contains(&at));
                let in_dead = fns
                    .iter()
                    .zip(&dead)
                    .any(|(g, &d)| d && inside(g, file, at));
                !own && !in_dead
            });
            if !dead[i] && !referenced {
                dead[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let unreferenced: Vec<String> = fns
        .iter()
        .zip(&dead)
        .filter(|(_, &d)| d)
        .map(|(f, _)| format!("  {}:{} {}", scanned[f.file].path, f.line, f.name))
        .collect();
    assert!(
        fns.len() > 500,
        "suspiciously few pub fns found: {}",
        fns.len()
    );
    assert!(
        unreferenced.is_empty(),
        "{} library pub fns are referenced only by their own definition, their own \
         file's tests, or other functions listed here; delete them or give them a caller:\n{}",
        unreferenced.len(),
        unreferenced.join("\n")
    );
}
