//! The deterministic workspace call graph.
//!
//! Nodes are the `fn` items recovered by [`crate::resolve`]; edges link
//! a caller to **every** workspace fn sharing the callee's name (the
//! resolver is name-based and keeps no type information, so the graph
//! is a deliberate over-approximation — see DESIGN.md §16). The graph
//! serializes to a canonical `target/CALLGRAPH.json` that is
//! byte-identical across runs and machines: nodes are sorted by
//! (file, line), edges by (from, to), and no timestamp or absolute
//! path ever enters the output.

use std::collections::BTreeMap;

use crate::lexer::Token;
use crate::report::json_str;
use crate::resolve::{ClosureRole, FileSymbols};
use crate::rules::Profile;

/// One analyzed file: identity, token stream, and resolved symbols.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Owning crate (package name, e.g. `qfc-core`), or the pseudo
    /// crates `qfc` / `examples` for relaxed-profile scopes.
    pub crate_name: String,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// Lint profile the file is analyzed under.
    pub profile: Profile,
    /// Full token stream (the semantic pass classifies sub-expressions).
    pub tokens: Vec<Token>,
    /// Per-token `#[cfg(test)]` mask aligned with `tokens`.
    pub in_test: Vec<bool>,
    /// Resolved symbols.
    pub symbols: FileSymbols,
}

/// One call-graph node (a `fn` item in some file).
#[derive(Debug, Clone)]
pub struct Node {
    /// Index into the [`FileCtx`] slice the graph was built from.
    pub file_idx: usize,
    /// Index into that file's [`FileSymbols::fns`].
    pub fn_idx: usize,
    /// Stable id: `{file}:{line}:{name}`.
    pub id: String,
}

/// The workspace call graph.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// Nodes sorted by (file order, source order).
    pub nodes: Vec<Node>,
    /// Function name → node indices bearing that name.
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Deduplicated (caller, callee-candidate) node-index pairs, sorted.
    pub edges: Vec<(usize, usize)>,
    /// Successor adjacency derived from `edges`.
    pub succ: Vec<Vec<usize>>,
}

/// Headline numbers for the JSON summary block. The reachability
/// fields are filled by the semantic pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphSummary {
    /// Total fn nodes.
    pub nodes: u64,
    /// Total (deduplicated) candidate call edges.
    pub edges: u64,
    /// Public fns of strict-profile files (panic-reachability entries).
    pub entry_points: u64,
    /// Total statically identified panic sites.
    pub panic_sites: u64,
    /// Panic sites reachable from an entry point (before allows).
    pub reachable_panic_sites: u64,
    /// Fns reachable from inside a parallel closure.
    pub par_reachable_fns: u64,
    /// Total slice/array indexing expressions (audit metric).
    pub index_sites: u64,
}

/// Builds the call graph over `files` (which must already be in final
/// sorted order — node order follows file order).
pub fn build(files: &[FileCtx]) -> CallGraph {
    let mut nodes = Vec::new();
    let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (file_idx, f) in files.iter().enumerate() {
        for (fn_idx, item) in f.symbols.fns.iter().enumerate() {
            let id = format!("{}:{}:{}", f.file, item.line, item.name);
            by_name
                .entry(item.name.clone())
                .or_default()
                .push(nodes.len());
            nodes.push(Node {
                file_idx,
                fn_idx,
                id,
            });
        }
    }
    let mut edges = Vec::new();
    for (ni, node) in nodes.iter().enumerate() {
        let item = &files[node.file_idx].symbols.fns[node.fn_idx];
        for call in &item.calls {
            if let Some(targets) = by_name.get(&call.callee) {
                for &t in targets {
                    edges.push((ni, t));
                }
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    let mut succ = vec![Vec::new(); nodes.len()];
    for &(a, b) in &edges {
        succ[a].push(b);
    }
    CallGraph {
        nodes,
        by_name,
        edges,
        succ,
    }
}

/// Node indices that are panic-reachability entry points: public fns of
/// strict-profile files.
pub fn entry_points(files: &[FileCtx], graph: &CallGraph) -> Vec<usize> {
    graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            files[n.file_idx].profile == Profile::Strict
                && files[n.file_idx].symbols.fns[n.fn_idx].is_pub
        })
        .map(|(i, _)| i)
        .collect()
}

/// Serializes the graph to the canonical `qfc-callgraph/1` JSON schema.
/// `summary` carries the reachability stats computed by the semantic
/// pass. The output is deterministic: same inputs, same bytes.
pub fn to_json(files: &[FileCtx], graph: &CallGraph, summary: &GraphSummary) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"qfc-callgraph/1\",\n");
    out.push_str(&format!(
        "  \"tool_version\": {},\n",
        json_str(env!("CARGO_PKG_VERSION"))
    ));

    out.push_str("  \"nodes\": [\n");
    for (i, node) in graph.nodes.iter().enumerate() {
        let f = &files[node.file_idx];
        let item = &f.symbols.fns[node.fn_idx];
        let mut callees: Vec<&str> = item.calls.iter().map(|c| c.callee.as_str()).collect();
        callees.sort_unstable();
        callees.dedup();
        let callee_list: Vec<String> = callees.iter().map(|c| json_str(c)).collect();
        out.push_str(&format!(
            "    {{\"id\": {}, \"crate\": {}, \"file\": {}, \"line\": {}, \"name\": {}, \
             \"pub\": {}, \"panic_sites\": {}, \"index_sites\": {}, \"rng_ctors\": {}, \
             \"calls\": [{}]}}{}\n",
            json_str(&node.id),
            json_str(&f.crate_name),
            json_str(&f.file),
            item.line,
            json_str(&item.name),
            item.is_pub,
            item.panic_sites.len(),
            item.index_sites,
            item.rng_ctors.len(),
            callee_list.join(", "),
            if i + 1 < graph.nodes.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");

    out.push_str("  \"edges\": [\n");
    for (i, &(a, b)) in graph.edges.iter().enumerate() {
        out.push_str(&format!(
            "    [{}, {}]{}\n",
            json_str(&graph.nodes[a].id),
            json_str(&graph.nodes[b].id),
            if i + 1 < graph.edges.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");

    let entries = entry_points(files, graph);
    out.push_str("  \"entry_points\": [\n");
    for (i, &e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {}{}\n",
            json_str(&graph.nodes[e].id),
            if i + 1 < entries.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");

    let mut closures = Vec::new();
    for f in files {
        for c in &f.symbols.par_closures {
            closures.push(format!(
                "    {{\"kind\": {}, \"file\": {}, \"line\": {}, \"role\": {}}}",
                json_str(&c.kind),
                json_str(&f.file),
                c.line,
                json_str(match c.role {
                    ClosureRole::Parallel => "parallel",
                    ClosureRole::Merge => "merge",
                    ClosureRole::Driver => "driver",
                }),
            ));
        }
    }
    out.push_str("  \"par_closures\": [\n");
    out.push_str(&closures.join(",\n"));
    if !closures.is_empty() {
        out.push('\n');
    }
    out.push_str("  ],\n");

    out.push_str(&format!(
        "  \"summary\": {{\"nodes\": {}, \"edges\": {}, \"entry_points\": {}, \
         \"panic_sites\": {}, \"reachable_panic_sites\": {}, \"par_reachable_fns\": {}, \
         \"index_sites\": {}}}\n",
        summary.nodes,
        summary.edges,
        summary.entry_points,
        summary.panic_sites,
        summary.reachable_panic_sites,
        summary.par_reachable_fns,
        summary.index_sites,
    ));
    out.push_str("}\n");
    out
}

/// Widens a count for the summary block (infallible in practice).
pub fn count_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Computes the static half of the summary (everything except the
/// reachability fields, which the semantic pass owns).
pub fn base_summary(files: &[FileCtx], graph: &CallGraph) -> GraphSummary {
    let mut s = GraphSummary {
        nodes: count_u64(graph.nodes.len()),
        edges: count_u64(graph.edges.len()),
        entry_points: count_u64(entry_points(files, graph).len()),
        ..GraphSummary::default()
    };
    for f in files {
        for item in &f.symbols.fns {
            s.panic_sites += count_u64(item.panic_sites.len());
            s.index_sites += u64::from(item.index_sites);
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::resolve::resolve_file;

    fn ctx(crate_name: &str, file: &str, profile: Profile, src: &str) -> FileCtx {
        let tokens = lex(src);
        let in_test = vec![false; tokens.len()];
        let symbols = resolve_file(&tokens, &in_test);
        FileCtx {
            crate_name: crate_name.to_string(),
            file: file.to_string(),
            profile,
            tokens,
            in_test,
            symbols,
        }
    }

    #[test]
    fn edges_link_by_name_across_files() {
        let files = vec![
            ctx(
                "qfc-a",
                "crates/a/src/lib.rs",
                Profile::Strict,
                "pub fn entry() { helper() }\n",
            ),
            ctx(
                "qfc-b",
                "crates/b/src/lib.rs",
                Profile::Strict,
                "pub fn helper() { }\nfn helper_unrelated() { }\n",
            ),
        ];
        let g = build(&files);
        assert_eq!(g.nodes.len(), 3);
        assert_eq!(g.edges.len(), 1);
        let (a, b) = g.edges[0];
        assert_eq!(g.nodes[a].id, "crates/a/src/lib.rs:1:entry");
        assert_eq!(g.nodes[b].id, "crates/b/src/lib.rs:1:helper");
        assert_eq!(entry_points(&files, &g).len(), 2);
    }

    #[test]
    fn json_is_deterministic() {
        let files = vec![ctx(
            "qfc-a",
            "crates/a/src/lib.rs",
            Profile::Strict,
            "pub fn f() { g() }\nfn g() { h.unwrap(); }\n",
        )];
        let g = build(&files);
        let s = base_summary(&files, &g);
        let one = to_json(&files, &g, &s);
        let two = to_json(&files, &build(&files), &base_summary(&files, &build(&files)));
        assert_eq!(one, two);
        assert!(one.contains("\"schema\": \"qfc-callgraph/1\""));
        assert!(one.contains("\"panic_sites\": 1"));
    }
}
