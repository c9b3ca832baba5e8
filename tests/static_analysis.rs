//! Workspace-level static-analysis gate, as a test: the whole tree must
//! be clean under `qfc-lint --deny` semantics, and the canonical report
//! must be byte-identical across runs (the same determinism bar the
//! simulations themselves are held to).

use std::path::Path;

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
    // above today's 29 (down from the pre-semantic baseline of 50).
    assert!(
        report.allows_total <= 29,
        "allow-directive budget exceeded: {} > 29",
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
