//! The rule taxonomy: names, summaries, rationale, and per-crate
//! applicability.
//!
//! Rules encode *domain* invariants of this workspace — the software
//! analogue of the paper's metrological-stability claim is that every
//! published number is a pure, byte-identical function of explicit
//! seeds, so anything that injects wall-clock time, ambient entropy,
//! unordered iteration, silent value truncation, or an unstructured
//! panic into a library crate is a defect class, not a style nit.
//!
//! Since the semantic layer (v2) the engine distinguishes two lint
//! profiles: library crates under `crates/` run [`Profile::Strict`];
//! the root crate (`src/`, `src/bin/`) and `examples/` run
//! [`Profile::Relaxed`], where panic rules and wall-clock determinism
//! are advisory (reported, never denied) but entropy-determinism and
//! RNG-lane rules stay enforced — a CLI may time itself, but it must
//! never let ambient entropy into a result.

/// Static description of one lint rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable kebab-case rule name (used in reports and allow directives).
    pub name: &'static str,
    /// One-line summary shown by `qfc-lint --list-rules`.
    pub summary: &'static str,
    /// Whether a `// qfc-lint: allow(<rule>) — <justification>` directive
    /// may suppress this rule at a specific line.
    pub allowable: bool,
    /// Why the rule exists, shown by `qfc-lint --explain <rule>`.
    pub rationale: &'static str,
    /// A minimal before/after example, shown by `qfc-lint --explain`.
    pub example: &'static str,
}

/// Lint profile a file is analyzed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Profile {
    /// Library crates: every rule enforced.
    Strict,
    /// Root crate binaries and examples: panic rules and wall-clock
    /// determinism downgrade to advisories; entropy determinism and
    /// RNG-lane discipline stay enforced.
    Relaxed,
}

/// Every rule the engine can emit, in canonical (report) order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "lossy-cast",
        summary: "no `as` numeric casts in library crates — use qfc_mathkit::cast, \
                  From/try_from, to_bits, or total_cmp",
        allowable: true,
        rationale: "`as` silently truncates, wraps, and saturates; a narrowed shot \
                    count or a sign-flipped index corrupts published numbers without \
                    an error. The vetted qfc_mathkit::cast helpers make every \
                    conversion's clamping behavior explicit and tested.",
        example: "// bad:  let n = shots as u32;\n\
                  // good: let n = qfc_mathkit::cast::u64_to_u32_clamp(shots);",
    },
    Rule {
        name: "determinism",
        summary: "no wall-clock, ambient entropy, or unordered-iteration types \
                  (Instant/SystemTime/thread_rng/from_entropy/HashMap/HashSet) \
                  in result-affecting code; wall-clock is advisory in the \
                  relaxed profile",
        allowable: true,
        rationale: "Published results must be byte-identical functions of (config, \
                    seed). Wall-clock reads, ambient entropy, and hash-order \
                    iteration each inject machine state into that function. CLI \
                    timing (relaxed profile) may read clocks, but nothing may \
                    draw ambient entropy.",
        example: "// bad:  let mut seen = HashMap::new();\n\
                  // good: let mut seen = BTreeMap::new();",
    },
    Rule {
        name: "rng-lane",
        summary: "drivers obtain RNGs only via qfc_mathkit::rng split_seed lanes, \
                  never raw seed_from_u64/from_seed",
        allowable: true,
        rationale: "Counter-based split_seed lanes keep every parallel shard's \
                    stream disjoint and reproducible at any thread count. A raw \
                    seed_from_u64 bypasses the lane book-keeping and risks stream \
                    collisions between shards.",
        example: "// bad:  let rng = StdRng::seed_from_u64(seed);\n\
                  // good: let rng = rng_from_seed(split_seed(seed, lane));",
    },
    Rule {
        name: "rng-lane-flow",
        summary: "an RNG constructed inside (or reachable from) a parallel closure \
                  must take its seed from a split_seed lane, even when the seed is \
                  laundered through helper-fn parameters",
        allowable: true,
        rationale: "The per-line rng-lane rule cannot see a raw seed passed through \
                    a function boundary into a par_map/par_chunks/par_shots \
                    closure. Two shards seeding rng_from_seed with the same raw \
                    value draw identical streams, which silently correlates \
                    samples and breaks thread-count invariance of the merged \
                    result. The flow rule traces seed arguments interprocedurally \
                    from every parallel region back to a split_seed lane.",
        example: "// bad:  par_map(&items, |it| helper(it, seed));      // raw capture\n\
                  // good: par_map(&items, |it| helper(it, split_seed(seed, it.lane)));",
    },
    Rule {
        name: "panic-reachability",
        summary: "no panic site (panic!/unreachable!/todo!/unimplemented!/unwrap/\
                  expect) reachable from a public fn of a library crate without a \
                  justifying allow directive at the site or on the entry fn; \
                  advisory in the relaxed profile",
        allowable: true,
        rationale: "A panic reachable from public API can abort a multi-hour \
                    campaign from deep inside a call chain the caller never sees. \
                    The call-graph proof replaces the old per-line panic-surface \
                    heuristic: a private helper that panics is flagged exactly \
                    when some public entry point can actually reach it, and the \
                    finding carries the offending call path.",
        example: "// bad:  pub fn run() { helper() }  fn helper() { x.unwrap(); }\n\
                  // good: pub fn run() -> QfcResult<()> { helper()? }  \
                  fn helper() -> QfcResult<T> { x.ok_or(...) }",
    },
    Rule {
        name: "par-merge-order",
        summary: "parallel closure results merge only by deterministic \
                  shard-index-ordered folds — no shared-state mutation inside or \
                  reachable from a parallel closure, no order-sensitive merge \
                  stage",
        allowable: true,
        rationale: "The runtime already returns shard results in index order; a \
                    closure that instead mutates a captured accumulator (+=, \
                    Mutex, atomics, channels) or a merge stage that reorders its \
                    input (rev/pop/swap_remove) makes the merged f64 depend on \
                    scheduling, which breaks byte-identity across thread counts.",
        example: "// bad:  par_map(&xs, |x| { total += f(x); 0 });\n\
                  // good: let parts = par_map(&xs, f); let total: f64 = parts.iter().sum();",
    },
    Rule {
        name: "error-taxonomy",
        summary: "public fallible fns in library crates return QfcError/QfcResult",
        allowable: true,
        rationale: "A single error taxonomy lets the supervisor and the campaign \
                    engine classify failures (retry vs quarantine vs abort) \
                    without string-matching ad-hoc error types.",
        example: "// bad:  pub fn load(p: &Path) -> Result<Cfg, String>\n\
                  // good: pub fn load(p: &Path) -> QfcResult<Cfg>",
    },
    Rule {
        name: "hot-loop-alloc",
        summary: "no Vec::new/vec!/.clone() inside a `// qfc-lint: hot` region — \
                  preallocate or hoist buffers out of shot kernels",
        allowable: true,
        rationale: "Shot kernels run millions of times; a per-shot allocation \
                    dominates the profile and fails the allocation budget of \
                    tests/alloc_scaling.rs.",
        example: "// bad:  for _ in 0..shots { let mut buf = Vec::new(); ... }\n\
                  // good: let mut buf = Vec::with_capacity(n); for _ in 0..shots { buf.clear(); ... }",
    },
    Rule {
        name: "forbid-unsafe",
        summary: "every library crate root declares #![forbid(unsafe_code)]",
        allowable: false,
        rationale: "The workspace's determinism proofs are all source-level; a \
                    single unsafe block could invalidate them invisibly. Forbid \
                    (not deny) so no inner attribute can re-enable it.",
        example: "// lib.rs first line:\n#![forbid(unsafe_code)]",
    },
    Rule {
        name: "ci-roster",
        summary: "scripts/ci.sh derives its clippy roster from the workspace \
                  (never excluding qfc-campaign), invokes qfc-lint, and checks \
                  CALLGRAPH.json drift, so no crate or analysis can silently \
                  skip a gate",
        allowable: false,
        rationale: "Every gate that is not structurally derived from the workspace \
                    eventually rots: a hand-listed roster misses new crates, and \
                    an analyzer whose output is never diffed can go \
                    nondeterministic unnoticed.",
        example: "# ci.sh fragments the rule looks for:\n\
                  cargo run -p qfc-lint -- --deny\n\
                  for d in crates/*/; do ... clippy ... done\n\
                  cmp target/CALLGRAPH.json target/CALLGRAPH.second.json",
    },
    Rule {
        name: "bad-directive",
        summary: "a qfc-lint allow directive must name known rules and carry a \
                  non-empty justification",
        allowable: false,
        rationale: "An allow directive is a reviewed exception; without a named \
                    rule and a reason it degenerates into an unconditional lint \
                    mute that hides future regressions.",
        example: "// qfc-lint: allow(lossy-cast) — u16 channel ids, bounded by N_CHANNELS",
    },
    Rule {
        name: "unused-allow",
        summary: "an allow directive whose target line (or, for fn-level \
                  panic-reachability allows, target fn) has no matching finding \
                  is stale and must be removed",
        allowable: false,
        rationale: "A stale allow is a latent hole: the code it excused is gone, \
                    but the directive would silently excuse the next regression \
                    at the same line.",
        example: "// delete the directive once the code it excused is fixed",
    },
];

/// Looks up a rule by name.
pub fn rule_by_name(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

/// Crates the clippy no-unwrap roster must always gate when they exist
/// in the workspace (the `ci-roster` check). `qfc-campaign` is pinned
/// explicitly: its crash-recovery guarantees rest on error-path
/// returns, so excluding it from the panic-freedom gate would be a
/// silent robustness regression.
pub const CLIPPY_REQUIRED: &[&str] = &["qfc-campaign"];

/// Crates exempt from `error-taxonomy`: they sit *below* `qfc-faults`
/// in the dependency graph (or are zero-dependency by design) and so
/// cannot name `QfcError`. Their local error types convert into
/// `QfcError` at the faults boundary.
const ERROR_TAXONOMY_EXEMPT: &[&str] = &["qfc-mathkit", "qfc-obs", "qfc-runtime", "qfc-lint"];

/// Crates exempt from `rng-lane` and `rng-lane-flow`: `qfc-mathkit`
/// *implements* the lane discipline (`rng_from_seed`/`split_seed`), so
/// it is the one place a raw `seed_from_u64` is legitimate.
const RNG_LANE_EXEMPT: &[&str] = &["qfc-mathkit"];

/// Crates exempt from the transitive (reachability) half of
/// `par-merge-order`: `qfc-runtime` owns the worker pool (its scoped
/// channels and join machinery *are* the deterministic merge), and
/// `qfc-obs` guards its global collector with a Mutex that is
/// re-entrancy-safe by construction and never feeds back into results
/// (collector-off byte-identity is asserted by tests/observability.rs).
/// Hazards written directly inside a parallel closure are still
/// flagged even in these crates.
pub const PAR_MERGE_EXEMPT: &[&str] = &["qfc-runtime", "qfc-obs"];

/// Whether `rule` applies to `crate_name` (a library crate).
pub fn rule_applies(rule: &str, crate_name: &str) -> bool {
    match rule {
        "error-taxonomy" => !ERROR_TAXONOMY_EXEMPT.contains(&crate_name),
        "rng-lane" | "rng-lane-flow" => !RNG_LANE_EXEMPT.contains(&crate_name),
        _ => true,
    }
}

/// Primitive numeric type names, the right-hand side of a flagged `as`.
pub const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Wall-clock identifiers flagged by the `determinism` rule. Enforced
/// in the strict profile, advisory in the relaxed profile (a CLI may
/// time itself).
pub const WALLCLOCK_IDENTS: &[&str] = &["Instant", "SystemTime"];

/// Ambient-entropy / unordered-iteration identifiers flagged by the
/// `determinism` rule. Enforced in *every* profile.
pub const ENTROPY_IDENTS: &[&str] = &["thread_rng", "from_entropy", "HashMap", "HashSet"];

/// Identifiers flagged by the `rng-lane` rule.
pub const RNG_LANE_IDENTS: &[&str] = &["seed_from_u64", "from_seed"];

/// Macro names treated as panic sites (when followed by `!`) by the
/// `panic-reachability` rule.
pub const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_are_unique_and_kebab_case() {
        for (i, r) in RULES.iter().enumerate() {
            assert!(
                r.name.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{}",
                r.name
            );
            assert!(RULES[i + 1..].iter().all(|s| s.name != r.name));
        }
    }

    #[test]
    fn every_rule_documents_itself() {
        for r in RULES {
            assert!(!r.rationale.is_empty(), "{} has no rationale", r.name);
            assert!(!r.example.is_empty(), "{} has no example", r.name);
        }
    }

    #[test]
    fn scoping_encodes_the_dependency_graph() {
        assert!(!rule_applies("error-taxonomy", "qfc-mathkit"));
        assert!(rule_applies("error-taxonomy", "qfc-core"));
        assert!(!rule_applies("rng-lane", "qfc-mathkit"));
        assert!(!rule_applies("rng-lane-flow", "qfc-mathkit"));
        assert!(rule_applies("rng-lane", "qfc-core"));
        assert!(rule_applies("rng-lane-flow", "qfc-core"));
        assert!(rule_applies("lossy-cast", "qfc-mathkit"));
        assert!(rule_applies("par-merge-order", "qfc-runtime"));
    }

    #[test]
    fn lookup_finds_every_rule() {
        for r in RULES {
            assert!(rule_by_name(r.name).is_some());
        }
        assert!(rule_by_name("nope").is_none());
        assert!(rule_by_name("panic-surface").is_none(), "v1 rule retired");
    }

    #[test]
    fn semantic_rules_are_allowable() {
        for name in ["panic-reachability", "par-merge-order", "rng-lane-flow"] {
            let r = rule_by_name(name).expect("rule exists");
            assert!(r.allowable, "{name} must accept allow directives");
        }
    }
}
