//! Per-file symbol resolution: function items, call sites, panic sites,
//! RNG-constructor sites, parallel-closure spans, and the local facts
//! (bindings, compound assignments) the flow rules consume.
//!
//! This is deliberately *not* a parser. It walks the token stream from
//! [`crate::lexer`] with a handful of balanced-delimiter scans, which is
//! enough to recover the workspace's call structure by name. The
//! soundness caveats (name-based resolution, no type information) are
//! documented in DESIGN.md §16; every consumer treats the result as an
//! over-approximation of the real call graph.

use std::collections::BTreeSet;

use crate::lexer::{TokKind, Token};
use crate::rules::PANIC_MACROS;

/// One function parameter.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name (the last pattern identifier, or `self`).
    pub name: String,
    /// Flattened type text (token texts joined by spaces).
    pub ty: String,
}

/// A call expression `callee(…)`, `recv.callee(…)`, or `callee::<T>(…)`.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Last path segment of the callee.
    pub callee: String,
    /// Whether the call is a method call (`.callee(…)`).
    pub is_method: bool,
    /// Token index of the callee identifier.
    pub tok: usize,
    /// 1-based source line of the callee identifier.
    pub line: u32,
    /// 1-based source column of the callee identifier.
    pub col: u32,
    /// Half-open token ranges of the top-level arguments.
    pub args: Vec<(usize, usize)>,
}

/// What kind of panic a panic site is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    Macro,
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(…)`.
    Expect,
}

/// A statically-identified panic site.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// Which construct panics here.
    pub kind: PanicKind,
    /// The construct's display form (`panic!`, `unwrap`, …).
    pub what: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

/// A `rng_from_seed(…)` constructor call.
#[derive(Debug, Clone)]
pub struct RngCtor {
    /// Token index of the `rng_from_seed` identifier.
    pub tok: usize,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
    /// Half-open token range of the seed argument, if present.
    pub arg: Option<(usize, usize)>,
}

/// A shared-state hazard identifier (the `par-merge-order` alphabet).
#[derive(Debug, Clone)]
pub struct HazardSite {
    /// The offending identifier (`Mutex`, `fetch_add`, `lock`, …).
    pub what: String,
    /// Token index of the identifier.
    pub tok: usize,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

/// A compound assignment (`+=`, `-=`, `<<=`, …) and its base binding.
#[derive(Debug, Clone)]
pub struct CompoundAssign {
    /// The operator characters (e.g. `+=`).
    pub op: String,
    /// Root identifier of the left-hand side (`a` in `a.b[i] += x`).
    pub root: Option<String>,
    /// Token index of the operator.
    pub tok: usize,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

/// One `fn` item (free function, method, or bodiless trait signature).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the name token.
    pub line: u32,
    /// 1-based column of the name token.
    pub col: u32,
    /// 1-based line where the declaration starts (`pub`/`fn` qualifier).
    pub decl_line: u32,
    /// Whether the item carries an unscoped `pub` qualifier.
    pub is_pub: bool,
    /// Declared parameters in order.
    pub params: Vec<Param>,
    /// Half-open token range of the `{…}` body (absent for trait
    /// signatures without a default body).
    pub body: Option<(usize, usize)>,
    /// Call sites inside the body.
    pub calls: Vec<CallSite>,
    /// Panic sites inside the body.
    pub panic_sites: Vec<PanicSite>,
    /// `rng_from_seed` constructor calls inside the body.
    pub rng_ctors: Vec<RngCtor>,
    /// Shared-state hazard identifiers inside the body.
    pub hazards: Vec<HazardSite>,
    /// Compound assignments inside the body.
    pub assigns: Vec<CompoundAssign>,
    /// Slice/array indexing expressions inside the body (audit metric).
    pub index_sites: u32,
}

/// Role of a closure argument to a `par_*` runtime call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClosureRole {
    /// Runs concurrently on the worker team (per-item / per-shard, or a
    /// `par_team` kernel).
    Parallel,
    /// The serial merge stage of `par_shots`.
    Merge,
    /// The driver of a `par_team` region: caller-thread code that runs
    /// between the team's steps, never concurrently with itself.
    Driver,
}

/// One closure argument of a `par_map`/`par_chunks`/`par_shots`/
/// `par_for_each_mut`/`par_team` call.
#[derive(Debug, Clone)]
pub struct ParClosure {
    /// Which runtime entry point the closure is passed to.
    pub kind: String,
    /// Role of this argument.
    pub role: ClosureRole,
    /// 1-based line of the runtime call.
    pub line: u32,
    /// 1-based column of the runtime call.
    pub col: u32,
    /// Half-open token range of the closure body (after the `|…|`).
    pub body: (usize, usize),
    /// Closure parameter identifiers (all idents in the `|…|` group).
    pub params: Vec<String>,
    /// Index into [`FileSymbols::fns`] of the enclosing function.
    pub owner: Option<usize>,
    /// For an argument passed as a bare function name: that name.
    pub merge_callee: Option<String>,
}

/// Everything the semantic layer needs to know about one file.
#[derive(Debug, Clone, Default)]
pub struct FileSymbols {
    /// Function items in source order.
    pub fns: Vec<FnItem>,
    /// Parallel/merge closure spans in source order.
    pub par_closures: Vec<ParClosure>,
}

/// Runtime entry points whose closure arguments run on the worker team
/// (see [`ClosureRole`] for the exceptions).
pub const PAR_ENTRY_POINTS: &[&str] =
    &["par_map", "par_chunks", "par_shots", "par_for_each_mut", "par_team"];

/// Identifiers that can directly precede `(` without being a call.
fn is_call_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "loop"
            | "break"
            | "continue"
            | "move"
            | "in"
            | "as"
            | "let"
            | "else"
            | "fn"
            | "impl"
            | "where"
            | "use"
            | "mod"
            | "unsafe"
            | "async"
            | "await"
            | "dyn"
            | "ref"
            | "mut"
            | "pub"
            | "crate"
            | "super"
            | "self"
            | "Self"
            | "static"
            | "const"
            | "type"
            | "struct"
            | "enum"
            | "trait"
    )
}

/// Keywords that can directly precede `[` without forming an index
/// expression (e.g. `return [a, b]`, `in [0, 1]`).
pub fn is_keyword_before_bracket(name: &str) -> bool {
    matches!(
        name,
        "return" | "in" | "if" | "else" | "match" | "break" | "as" | "mut" | "dyn" | "where"
    )
}

/// A resolver over one file's token stream. `code` holds the indices of
/// non-comment tokens outside `#[cfg(test)]` regions.
struct Resolver<'t> {
    tokens: &'t [Token],
    code: &'t [usize],
}

impl<'t> Resolver<'t> {
    fn tok(&self, j: usize) -> Option<&'t Token> {
        self.code.get(j).map(|&ti| &self.tokens[ti])
    }

    fn is_punct(&self, j: usize, c: &str) -> bool {
        self.tok(j)
            .map(|t| t.kind == TokKind::Punct && t.text == c)
            .unwrap_or(false)
    }

    fn is_ident(&self, j: usize, name: &str) -> bool {
        self.tok(j)
            .map(|t| t.kind == TokKind::Ident && t.text == name)
            .unwrap_or(false)
    }

    /// Skips a balanced `<…>` group starting at `j` (which must be `<`),
    /// treating `->` as atomic. Returns the code index just past `>`.
    fn skip_angles(&self, mut j: usize) -> usize {
        let mut depth = 0i64;
        while let Some(t) = self.tok(j) {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "<" => depth += 1,
                    "-" if self.is_punct(j + 1, ">") => j += 1,
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            return j + 1;
                        }
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        j
    }

    /// Splits the argument list opening at code index `j` (which must be
    /// `(`) into half-open *token* ranges at top-level commas. Returns
    /// the ranges and the code index just past the closing `)`.
    fn split_args(&self, j: usize) -> (Vec<(usize, usize)>, usize) {
        let mut args = Vec::new();
        let mut depth = 0i64;
        let mut angle = 0i64;
        let mut k = j;
        let mut start: Option<usize> = None;
        // Inside a closure's `|…|` parameter list, whose commas do not
        // separate call arguments.
        let mut in_params = false;
        while let Some(t) = self.tok(k) {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => {
                        depth += 1;
                        if depth == 1 {
                            k += 1;
                            start = self.code.get(k).copied();
                            continue;
                        }
                    }
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth == 0 {
                            let end = self.code.get(k).copied().unwrap_or(self.tokens.len());
                            if let Some(s) = start {
                                if s < end {
                                    args.push((s, end));
                                }
                            }
                            return (args, k + 1);
                        }
                    }
                    "<" if depth >= 1 => angle += 1,
                    "-" if self.is_punct(k + 1, ">") => k += 1,
                    ">" if angle > 0 => angle -= 1,
                    "|" if depth == 1 => {
                        let arg_start = |i: usize| self.code.get(i).copied() == start;
                        let opens = arg_start(k)
                            || (k > 0
                                && arg_start(k - 1)
                                && self.tok(k - 1).is_some_and(|p| p.text == "move"));
                        in_params = !in_params && opens;
                    }
                    "," if depth == 1 && angle == 0 && !in_params => {
                        let end = self.code.get(k).copied().unwrap_or(self.tokens.len());
                        if let Some(s) = start {
                            args.push((s, end));
                        }
                        start = self.code.get(k + 1).copied();
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        (args, k)
    }
}

/// Resolves one file. `tokens` is the full lex stream; `in_test` masks
/// `#[cfg(test)]` regions (resolved items never include test code).
pub fn resolve_file(tokens: &[Token], in_test: &[bool]) -> FileSymbols {
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| {
            !in_test[i] && !matches!(tokens[i].kind, TokKind::LineComment | TokKind::BlockComment)
        })
        .collect();
    let r = Resolver {
        tokens,
        code: &code,
    };

    let mut fns = collect_fns(&r);
    let par_closures = collect_events(&r, &mut fns);
    FileSymbols { fns, par_closures }
}

/// Pass 1: find every `fn` item, its visibility, parameters, and body span.
fn collect_fns(r: &Resolver<'_>) -> Vec<FnItem> {
    let mut fns = Vec::new();
    let mut j = 0usize;
    while j < r.code.len() {
        if !r.is_ident(j, "fn") {
            j += 1;
            continue;
        }
        let Some(name_tok) = r.tok(j + 1) else {
            break;
        };
        if name_tok.kind != TokKind::Ident {
            // `fn(u8) -> u8` function-pointer type.
            j += 1;
            continue;
        }
        let (is_pub, decl_line) = scan_qualifiers(r, j, name_tok.line);
        let mut k = j + 2;
        if r.is_punct(k, "<") {
            k = r.skip_angles(k);
        }
        if !r.is_punct(k, "(") {
            j += 1;
            continue;
        }
        let (param_ranges, after) = r.split_args(k);
        let params = param_ranges
            .iter()
            .map(|&(s, e)| parse_param(r.tokens, s, e))
            .collect();
        let body = find_body(r, after);
        fns.push(FnItem {
            name: name_tok.text.clone(),
            line: name_tok.line,
            col: name_tok.col,
            decl_line,
            is_pub,
            params,
            body,
            calls: Vec::new(),
            panic_sites: Vec::new(),
            rng_ctors: Vec::new(),
            hazards: Vec::new(),
            assigns: Vec::new(),
            index_sites: 0,
        });
        // Continue from just past the name so nested fns are found too.
        j += 2;
    }
    fns
}

/// Walks backward from the `fn` keyword over declaration qualifiers.
/// Returns whether an unscoped `pub` was seen and the declaration line.
fn scan_qualifiers(r: &Resolver<'_>, fn_j: usize, name_line: u32) -> (bool, u32) {
    let mut is_pub = false;
    let mut decl_line = name_line;
    let mut k = fn_j;
    while k > 0 {
        let Some(t) = r.tok(k - 1) else { break };
        let accept = match t.kind {
            TokKind::Ident => matches!(
                t.text.as_str(),
                "const" | "async" | "unsafe" | "extern" | "crate" | "super" | "self" | "in"
            ),
            TokKind::StrLit => true, // `extern "C"`
            TokKind::Punct => t.text == "(" || t.text == ")",
            _ => false,
        };
        if t.kind == TokKind::Ident && t.text == "pub" {
            // `pub(crate)` and friends are not public API.
            if !r.is_punct(k, "(") {
                is_pub = true;
            }
            decl_line = t.line;
            k -= 1;
            continue;
        }
        if !accept {
            break;
        }
        decl_line = t.line;
        k -= 1;
    }
    (is_pub, decl_line)
}

/// Extracts a parameter's binding name and type text from a token range.
fn parse_param(tokens: &[Token], start: usize, end: usize) -> Param {
    let idents_before_colon = |upto: usize| -> Vec<&str> {
        (start..upto)
            .filter(|&i| tokens[i].kind == TokKind::Ident)
            .map(|i| tokens[i].text.as_str())
            .collect()
    };
    // Find the top-level `:` separating pattern from type.
    let mut depth = 0i64;
    let mut colon: Option<usize> = None;
    for i in start..end {
        let t = &tokens[i];
        if matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" | ">" => depth -= 1,
                ":" if depth == 0 => {
                    // `::` path separators are two adjacent colons.
                    let next_is_colon = tokens
                        .get(i + 1)
                        .map(|n| n.kind == TokKind::Punct && n.text == ":")
                        .unwrap_or(false);
                    let prev_is_colon = i > start
                        && tokens[i - 1].kind == TokKind::Punct
                        && tokens[i - 1].text == ":";
                    if !next_is_colon && !prev_is_colon {
                        colon = Some(i);
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    match colon {
        Some(c) => {
            let pat = idents_before_colon(c);
            let name = pat
                .iter()
                .rev()
                .find(|n| **n != "mut" && **n != "ref")
                .copied()
                .unwrap_or("_")
                .to_string();
            let ty: Vec<&str> = (c + 1..end)
                .filter(|&i| {
                    !matches!(tokens[i].kind, TokKind::LineComment | TokKind::BlockComment)
                })
                .map(|i| tokens[i].text.as_str())
                .collect();
            Param {
                name,
                ty: ty.join(" "),
            }
        }
        None => {
            // Receiver forms: `self`, `&self`, `&mut self`, `mut self`.
            let has_self = idents_before_colon(end).contains(&"self");
            Param {
                name: if has_self { "self" } else { "_" }.to_string(),
                ty: if has_self { "Self" } else { "" }.to_string(),
            }
        }
    }
}

/// From the code index just past the parameter list, finds the `{…}`
/// body. Returns its half-open token range, or `None` at a `;`.
fn find_body(r: &Resolver<'_>, mut k: usize) -> Option<(usize, usize)> {
    let mut depth = 0i64;
    while let Some(t) = r.tok(k) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "-" if r.is_punct(k + 1, ">") => k += 1,
                ";" if depth <= 0 => return None,
                "{" if depth <= 0 => {
                    let open = r.code[k];
                    let mut brace = 0i64;
                    while let Some(b) = r.tok(k) {
                        if b.kind == TokKind::Punct {
                            if b.text == "{" {
                                brace += 1;
                            } else if b.text == "}" {
                                brace -= 1;
                                if brace == 0 {
                                    return Some((open, r.code[k] + 1));
                                }
                            }
                        }
                        k += 1;
                    }
                    return Some((open, r.tokens.len()));
                }
                _ => {}
            }
        }
        k += 1;
    }
    None
}

/// Pass 2: walk the code tokens once, attributing call/panic/RNG/hazard
/// events to the innermost enclosing fn and collecting `par_*` closures.
fn collect_events(r: &Resolver<'_>, fns: &mut [FnItem]) -> Vec<ParClosure> {
    // Innermost enclosing fn by body-span containment. Spans are copied
    // out up front so the closure does not hold a borrow of `fns`.
    let spans: Vec<Option<(usize, usize)>> = fns.iter().map(|f| f.body).collect();
    let owner_of = move |ti: usize| -> Option<usize> {
        let mut best: Option<usize> = None;
        for (fi, span) in spans.iter().enumerate() {
            if let Some((s, e)) = span {
                if *s <= ti
                    && ti < *e
                    && best
                        .map(|b: usize| spans[b].map(|(bs, _)| bs < *s).unwrap_or(true))
                        .unwrap_or(true)
                {
                    best = Some(fi);
                }
            }
        }
        best
    };

    let mut par_closures = Vec::new();
    for j in 0..r.code.len() {
        let ti = r.code[j];
        let tok = &r.tokens[ti];
        match tok.kind {
            TokKind::Ident => {
                let name = tok.text.as_str();
                let owner = owner_of(ti);
                // Panic macros.
                if PANIC_MACROS.contains(&name) && r.is_punct(j + 1, "!") {
                    if let Some(fi) = owner {
                        fns[fi].panic_sites.push(PanicSite {
                            kind: PanicKind::Macro,
                            what: format!("{name}!"),
                            line: tok.line,
                            col: tok.col,
                        });
                    }
                    continue;
                }
                // `.unwrap()` / `.expect(…)`.
                if (name == "unwrap" || name == "expect")
                    && j > 0
                    && r.is_punct(j - 1, ".")
                    && r.is_punct(j + 1, "(")
                {
                    if let Some(fi) = owner {
                        fns[fi].panic_sites.push(PanicSite {
                            kind: if name == "unwrap" {
                                PanicKind::Unwrap
                            } else {
                                PanicKind::Expect
                            },
                            what: name.to_string(),
                            line: tok.line,
                            col: tok.col,
                        });
                    }
                    // An unwrap/expect is also a call-shaped token; fall
                    // through is not needed — it resolves to no workspace fn.
                    continue;
                }
                // Shared-state hazard identifiers.
                let method_like = j > 0 && r.is_punct(j - 1, ".") && r.is_punct(j + 1, "(");
                let hazard = name == "Mutex"
                    || name == "RwLock"
                    || name.starts_with("Atomic")
                    || (method_like
                        && (name.starts_with("fetch_")
                            || name == "lock"
                            || name == "send"
                            || name == "recv"));
                if hazard {
                    if let Some(fi) = owner {
                        fns[fi].hazards.push(HazardSite {
                            what: name.to_string(),
                            tok: ti,
                            line: tok.line,
                            col: tok.col,
                        });
                    }
                }
                // Call sites (skip keywords, type constructors, macros,
                // and the name position of `fn` declarations).
                if is_call_keyword(name)
                    || name.chars().next().map(char::is_uppercase).unwrap_or(false)
                    || r.is_punct(j + 1, "!")
                    || (j > 0 && r.is_ident(j - 1, "fn"))
                {
                    continue;
                }
                let open = if r.is_punct(j + 1, "(") {
                    Some(j + 1)
                } else if r.is_punct(j + 1, ":") && r.is_punct(j + 2, ":") && r.is_punct(j + 3, "<")
                {
                    let past = r.skip_angles(j + 3);
                    if r.is_punct(past, "(") {
                        Some(past)
                    } else {
                        None
                    }
                } else {
                    None
                };
                let Some(open) = open else { continue };
                let (args, _) = r.split_args(open);
                let is_method = j > 0 && r.is_punct(j - 1, ".");
                let call = CallSite {
                    callee: name.to_string(),
                    is_method,
                    tok: ti,
                    line: tok.line,
                    col: tok.col,
                    args: args.clone(),
                };
                if name == "rng_from_seed" {
                    if let Some(fi) = owner {
                        fns[fi].rng_ctors.push(RngCtor {
                            tok: ti,
                            line: tok.line,
                            col: tok.col,
                            arg: args.first().copied(),
                        });
                    }
                }
                if PAR_ENTRY_POINTS.contains(&name) {
                    collect_par_closures(r, name, tok, &args, owner, &mut par_closures);
                }
                if let Some(fi) = owner {
                    fns[fi].calls.push(call);
                }
            }
            TokKind::Punct if tok.text == "[" && j > 0 => {
                let prev = &r.tokens[r.code[j - 1]];
                let indexing = (prev.kind == TokKind::Ident
                    && !is_keyword_before_bracket(&prev.text))
                    || (prev.kind == TokKind::Punct && (prev.text == ")" || prev.text == "]"));
                if indexing {
                    if let Some(fi) = owner_of(ti) {
                        fns[fi].index_sites += 1;
                    }
                }
            }
            TokKind::Punct
                if matches!(tok.text.as_str(), "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^") =>
            {
                // Compound assignment: the raw next token must be an
                // immediately adjacent `=` (so `a + = b` is not one, and
                // `==`/`!=`/`<=`/`>=` never match).
                let adjacent_eq = r.tokens.get(ti + 1).map(|n| {
                    n.kind == TokKind::Punct
                        && n.text == "="
                        && n.line == tok.line
                        && n.col == tok.col + 1
                });
                // `&&`/`||` shortcut operators and `->` are not assignments;
                // require the token *after* `=` to not be `=` (rules out `==`
                // never matching here anyway) and the previous raw token to
                // not be an operator character.
                if adjacent_eq != Some(true) {
                    continue;
                }
                let prev_is_op = ti > 0
                    && r.tokens[ti - 1].kind == TokKind::Punct
                    && matches!(
                        r.tokens[ti - 1].text.as_str(),
                        "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^" | "<" | ">" | "="
                    )
                    && r.tokens[ti - 1].line == tok.line
                    && r.tokens[ti - 1].col + 1 == tok.col;
                if prev_is_op {
                    // `<<=`, `>>=`: handled at the inner operator; skip the
                    // outer one so the event is recorded exactly once.
                    continue;
                }
                if let Some(fi) = owner_of(ti) {
                    let root = assign_root(r, j);
                    fns[fi].assigns.push(CompoundAssign {
                        op: format!("{}=", tok.text),
                        root,
                        tok: ti,
                        line: tok.line,
                        col: tok.col,
                    });
                }
            }
            _ => {}
        }
    }
    par_closures
}

/// Root identifier of the assignment target ending just before code
/// index `op_j`: walks back over `.field`, `.0`, and `[…]` projections.
fn assign_root(r: &Resolver<'_>, op_j: usize) -> Option<String> {
    let mut m = op_j.checked_sub(1)?;
    let mut root: Option<String> = None;
    loop {
        let t = r.tok(m)?;
        match t.kind {
            TokKind::Punct if t.text == "]" => {
                // Skip the balanced index expression.
                let mut depth = 0i64;
                loop {
                    let u = r.tok(m)?;
                    if u.kind == TokKind::Punct {
                        if u.text == "]" {
                            depth += 1;
                        } else if u.text == "[" {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                    }
                    m = m.checked_sub(1)?;
                }
                m = m.checked_sub(1)?;
            }
            TokKind::Ident | TokKind::Number => {
                if t.kind == TokKind::Ident {
                    root = Some(t.text.clone());
                }
                if m > 0 && r.is_punct(m - 1, ".") {
                    m = m.checked_sub(2)?;
                } else {
                    return root;
                }
            }
            _ => return root,
        }
    }
}

/// Parses the closure arguments of one `par_*` call.
fn collect_par_closures(
    r: &Resolver<'_>,
    kind: &str,
    call_tok: &Token,
    args: &[(usize, usize)],
    owner: Option<usize>,
    out: &mut Vec<ParClosure>,
) {
    let last = args.len().saturating_sub(1);
    for (ai, &(start, end)) in args.iter().enumerate() {
        // `par_team(slots, kernel, driver)`: the kernel runs on every
        // member, the driver on the calling thread between steps.
        let is_team_kernel = kind == "par_team" && ai + 2 == args.len();
        let role = match kind {
            "par_shots" if ai == last => ClosureRole::Merge,
            "par_team" if ai == last => ClosureRole::Driver,
            _ => ClosureRole::Parallel,
        };
        // Code tokens within the argument range.
        let arg_code: Vec<usize> = r
            .code
            .iter()
            .copied()
            .filter(|&ti| ti >= start && ti < end)
            .collect();
        let mut k = 0usize;
        if arg_code
            .get(k)
            .map(|&ti| r.tokens[ti].kind == TokKind::Ident && r.tokens[ti].text == "move")
            .unwrap_or(false)
        {
            k += 1;
        }
        let opens_closure = arg_code
            .get(k)
            .map(|&ti| r.tokens[ti].kind == TokKind::Punct && r.tokens[ti].text == "|")
            .unwrap_or(false);
        if !opens_closure {
            // The last argument passed as a bare function name (a merge
            // fn, a team driver, or a per-item fn handed straight to the
            // pool), or a team kernel so passed; other positions are data
            // arguments.
            if (ai == last || is_team_kernel) && arg_code.len() == 1 {
                if let Some(&ti) = arg_code.first() {
                    if r.tokens[ti].kind == TokKind::Ident {
                        out.push(ParClosure {
                            kind: kind.to_string(),
                            role,
                            line: call_tok.line,
                            col: call_tok.col,
                            body: (start, start),
                            params: Vec::new(),
                            owner,
                            merge_callee: Some(r.tokens[ti].text.clone()),
                        });
                    }
                }
            }
            continue;
        }
        // Closure parameters: idents up to the matching `|` at depth 0.
        let mut params = Vec::new();
        let mut depth = 0i64;
        let mut body_start = end;
        for (n, &ti) in arg_code.iter().enumerate().skip(k + 1) {
            let t = &r.tokens[ti];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "|" if depth == 0 => {
                        body_start = arg_code.get(n + 1).copied().unwrap_or(end);
                        break;
                    }
                    _ => {}
                }
            } else if t.kind == TokKind::Ident && t.text != "mut" && t.text != "ref" {
                params.push(t.text.clone());
            }
        }
        out.push(ParClosure {
            kind: kind.to_string(),
            role,
            line: call_tok.line,
            col: call_tok.col,
            body: (body_start, end),
            params,
            owner,
            merge_callee: None,
        });
    }
}

/// All binding identifiers introduced inside the half-open token range
/// `[start, end)`: `let` patterns, `for` loop variables, and closure
/// parameter groups. Used to separate local accumulators from captured
/// state inside parallel closures.
pub fn bindings_in(
    tokens: &[Token],
    in_test: &[bool],
    start: usize,
    end: usize,
) -> BTreeSet<String> {
    let code: Vec<usize> = (start..end.min(tokens.len()))
        .filter(|&i| {
            !in_test[i] && !matches!(tokens[i].kind, TokKind::LineComment | TokKind::BlockComment)
        })
        .collect();
    let mut out = BTreeSet::new();
    let mut j = 0usize;
    while j < code.len() {
        let t = &tokens[code[j]];
        if t.kind == TokKind::Ident && (t.text == "let" || t.text == "for") {
            let stop_at = if t.text == "let" { "=" } else { "in" };
            let mut k = j + 1;
            while let Some(&ti) = code.get(k) {
                let u = &tokens[ti];
                let stop = match u.kind {
                    TokKind::Punct => u.text == stop_at || u.text == ";" || u.text == "{",
                    TokKind::Ident => u.text == stop_at,
                    _ => false,
                };
                if stop {
                    break;
                }
                if u.kind == TokKind::Ident && u.text != "mut" && u.text != "ref" {
                    out.insert(u.text.clone());
                }
                k += 1;
            }
            j = k;
            continue;
        }
        // Closure parameter group: `|` in closure position.
        if t.kind == TokKind::Punct && t.text == "|" {
            let closure_position = j == 0
                || code.get(j - 1).map(|&ti| {
                    let p = &tokens[ti];
                    (p.kind == TokKind::Punct
                        && matches!(p.text.as_str(), "(" | "," | "=" | "{" | ";"))
                        || (p.kind == TokKind::Ident
                            && matches!(p.text.as_str(), "move" | "return" | "else"))
                }) == Some(true);
            if closure_position {
                let mut depth = 0i64;
                let mut k = j + 1;
                while let Some(&ti) = code.get(k) {
                    let u = &tokens[ti];
                    if u.kind == TokKind::Punct {
                        match u.text.as_str() {
                            "(" | "[" => depth += 1,
                            ")" | "]" => depth -= 1,
                            "|" if depth == 0 => break,
                            _ => {}
                        }
                    } else if u.kind == TokKind::Ident && u.text != "mut" && u.text != "ref" {
                        out.insert(u.text.clone());
                    }
                    k += 1;
                }
                j = k + 1;
                continue;
            }
        }
        j += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn resolve(src: &str) -> FileSymbols {
        let tokens = lex(src);
        let in_test = vec![false; tokens.len()];
        resolve_file(&tokens, &in_test)
    }

    #[test]
    fn fn_items_with_visibility_and_params() {
        let s = resolve(
            "pub fn alpha(n: usize, tau: f64) -> f64 { beta(n) }\n\
             fn beta(k: usize) -> f64 { 0.0 }\n\
             pub(crate) fn gamma() {}\n",
        );
        assert_eq!(s.fns.len(), 3);
        assert!(s.fns[0].is_pub);
        assert!(!s.fns[1].is_pub);
        assert!(!s.fns[2].is_pub, "pub(crate) is not public");
        assert_eq!(s.fns[0].params.len(), 2);
        assert_eq!(s.fns[0].params[0].name, "n");
        assert_eq!(s.fns[0].params[1].ty, "f64");
        assert_eq!(s.fns[0].calls.len(), 1);
        assert_eq!(s.fns[0].calls[0].callee, "beta");
    }

    #[test]
    fn panic_sites_and_nested_attribution() {
        let s = resolve(
            "fn outer() {\n    fn inner() { panic!(\"x\") }\n    inner();\n    a.unwrap();\n}\n",
        );
        let outer = s.fns.iter().find(|f| f.name == "outer").expect("outer");
        let inner = s.fns.iter().find(|f| f.name == "inner").expect("inner");
        assert_eq!(inner.panic_sites.len(), 1);
        assert_eq!(inner.panic_sites[0].kind, PanicKind::Macro);
        assert_eq!(outer.panic_sites.len(), 1);
        assert_eq!(outer.panic_sites[0].kind, PanicKind::Unwrap);
        // `unwrap_or` must not count.
        let s2 = resolve("fn f() { a.unwrap_or(0); }\n");
        assert!(s2.fns[0].panic_sites.is_empty());
    }

    #[test]
    fn rng_ctor_and_turbofish_calls() {
        let s = resolve(
            "fn f(seed: u64) {\n    let mut rng = rng_from_seed(split_seed(seed, 1));\n    \
             parse::<u64>(x);\n}\n",
        );
        assert_eq!(s.fns[0].rng_ctors.len(), 1);
        assert!(s.fns[0].calls.iter().any(|c| c.callee == "parse"));
        assert!(s.fns[0].calls.iter().any(|c| c.callee == "split_seed"));
    }

    #[test]
    fn par_closures_and_roles() {
        let s = resolve(
            "fn f(items: &[u64], seed: u64) {\n\
             let v = par_map(items, |&x| x + 1);\n\
             let w = par_shots(100, seed, |shard| shard.len, merge_all);\n}\n",
        );
        assert_eq!(s.par_closures.len(), 3);
        assert_eq!(s.par_closures[0].kind, "par_map");
        assert_eq!(s.par_closures[0].role, ClosureRole::Parallel);
        assert_eq!(s.par_closures[0].params, vec!["x".to_string()]);
        assert_eq!(s.par_closures[1].role, ClosureRole::Parallel);
        assert_eq!(s.par_closures[1].params, vec!["shard".to_string()]);
        assert_eq!(s.par_closures[2].role, ClosureRole::Merge);
        assert_eq!(
            s.par_closures[2].merge_callee.as_deref(),
            Some("merge_all")
        );
    }

    #[test]
    fn team_kernel_is_parallel_and_driver_runs_on_the_caller() {
        let s = resolve(
            "fn f(chunks: &mut [u64]) {\n\
             par_team(chunks, |rho: &u64, _, c| *c += rho, |team| team.step(&mut 1));\n\
             par_team(chunks, sweep_one, drive);\n}\n",
        );
        let roles: Vec<(ClosureRole, Option<&str>)> = s
            .par_closures
            .iter()
            .map(|c| (c.role, c.merge_callee.as_deref()))
            .collect();
        assert_eq!(
            roles,
            vec![
                (ClosureRole::Parallel, None),
                (ClosureRole::Driver, None),
                (ClosureRole::Parallel, Some("sweep_one")),
                (ClosureRole::Driver, Some("drive")),
            ]
        );
        assert_eq!(s.par_closures[0].params, vec!["rho", "u64", "_", "c"]);
        assert_eq!(s.par_closures[1].params, vec!["team".to_string()]);
    }

    #[test]
    fn compound_assign_roots() {
        let s = resolve("fn f() { total += 1.0; self.acc[i] -= x; a == b; c <= d; }\n");
        let roots: Vec<Option<String>> = s.fns[0].assigns.iter().map(|a| a.root.clone()).collect();
        assert_eq!(
            roots,
            vec![Some("total".to_string()), Some("self".to_string())]
        );
    }

    #[test]
    fn bindings_cover_lets_loops_and_closure_params() {
        let src = "{ let mut total = 0.0; for k in 0..4 { } items.map(|&(a, b)| a); }";
        let tokens = lex(src);
        let in_test = vec![false; tokens.len()];
        let b = bindings_in(&tokens, &in_test, 0, tokens.len());
        for name in ["total", "k", "a", "b"] {
            assert!(b.contains(name), "missing binding {name}: {b:?}");
        }
    }

    #[test]
    fn trait_signatures_have_no_body() {
        let s = resolve("trait W { fn run_shard(&self, slot: usize) -> u64; }\n");
        assert_eq!(s.fns.len(), 1);
        assert!(s.fns[0].body.is_none());
        assert_eq!(s.fns[0].params[0].name, "self");
    }
}
