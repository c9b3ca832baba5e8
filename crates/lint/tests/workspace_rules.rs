//! The two workspace-level rules (`forbid-unsafe`, `ci-roster`) need a
//! filesystem to fire against; these tests synthesize a miniature
//! workspace under `CARGO_TARGET_TMPDIR`, prove both rules fire, then
//! repair it and prove the run goes clean.

use std::fs;
use std::path::{Path, PathBuf};

fn mini_workspace(tag: &str) -> PathBuf {
    let base = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("qfc_lint_mini_{tag}"));
    let _ = fs::remove_dir_all(&base);
    fs::create_dir_all(base.join("crates/alpha/src")).expect("mkdir");
    fs::write(
        base.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/alpha\"]\n",
    )
    .expect("root manifest");
    fs::write(
        base.join("crates/alpha/Cargo.toml"),
        "[package]\nname = \"qfc-alpha\"\nversion = \"0.1.0\"\n",
    )
    .expect("crate manifest");
    base
}

fn rules_fired(root: &Path) -> Vec<String> {
    let report = qfc_lint::run(root).expect("lint run");
    let mut rules: Vec<String> = report.findings.iter().map(|f| f.rule.to_string()).collect();
    rules.dedup();
    rules
}

#[test]
fn forbid_unsafe_and_ci_roster_fire_then_clear() {
    let root = mini_workspace("fire");
    // No #![forbid(unsafe_code)], no scripts/ci.sh: both rules must fire.
    fs::write(root.join("crates/alpha/src/lib.rs"), "pub fn f() {}\n").expect("lib.rs");
    let fired = rules_fired(&root);
    assert!(
        fired.contains(&"forbid-unsafe".to_string()),
        "forbid-unsafe did not fire: {fired:?}"
    );
    assert!(
        fired.contains(&"ci-roster".to_string()),
        "ci-roster did not fire: {fired:?}"
    );

    // Repair both: the run must go fully clean.
    fs::write(
        root.join("crates/alpha/src/lib.rs"),
        "#![forbid(unsafe_code)]\npub fn f() {}\n",
    )
    .expect("lib.rs");
    fs::create_dir_all(root.join("scripts")).expect("scripts dir");
    fs::write(
        root.join("scripts/ci.sh"),
        "#!/usr/bin/env bash\ncargo run -p qfc-lint -- --deny\nfor d in crates/*/; do :; done\ncmp target/CALLGRAPH.json target/CALLGRAPH.2.json\n",
    )
    .expect("ci.sh");
    let report = qfc_lint::run(&root).expect("lint run");
    assert!(
        report.findings.is_empty(),
        "repaired mini workspace still has findings: {:?}",
        report.findings
    );
}

#[test]
fn campaign_crate_cannot_be_carved_out_of_the_clippy_roster() {
    let root = mini_workspace("campaign");
    fs::write(
        root.join("crates/alpha/src/lib.rs"),
        "#![forbid(unsafe_code)]\npub fn f() {}\n",
    )
    .expect("lib.rs");
    // Add a campaign crate to the mini workspace so the pinned-roster
    // requirement applies.
    fs::create_dir_all(root.join("crates/campaign/src")).expect("mkdir");
    fs::write(
        root.join("crates/campaign/Cargo.toml"),
        "[package]\nname = \"qfc-campaign\"\nversion = \"0.1.0\"\n",
    )
    .expect("crate manifest");
    fs::write(
        root.join("crates/campaign/src/lib.rs"),
        "#![forbid(unsafe_code)]\npub fn g() {}\n",
    )
    .expect("lib.rs");
    fs::create_dir_all(root.join("scripts")).expect("scripts dir");

    // The roster derives dynamically but carves qfc-campaign out with an
    // exclusion branch in the loop: ci-roster must fire.
    fs::write(
        root.join("scripts/ci.sh"),
        "#!/usr/bin/env bash\ncargo run -p qfc-lint -- --deny\n\
         for d in crates/*/; do\n\
           if [ \"$name\" != \"qfc-campaign\" ]; then :; fi\n\
         done\n",
    )
    .expect("ci.sh");
    let report = qfc_lint::run(&root).expect("lint run");
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "ci-roster" && f.message.contains("qfc-campaign")),
        "ci-roster did not flag the excluded campaign crate: {:?}",
        report.findings
    );

    // Without the exclusion the dynamic roster covers it: fully clean.
    fs::write(
        root.join("scripts/ci.sh"),
        "#!/usr/bin/env bash\ncargo run -p qfc-lint -- --deny\nfor d in crates/*/; do :; done\ncmp target/CALLGRAPH.json target/CALLGRAPH.2.json\n",
    )
    .expect("ci.sh");
    let report = qfc_lint::run(&root).expect("lint run");
    assert!(
        report.findings.is_empty(),
        "dynamic roster with campaign crate still has findings: {:?}",
        report.findings
    );
}

#[test]
fn hand_listed_roster_must_name_every_crate() {
    let root = mini_workspace("roster");
    fs::write(
        root.join("crates/alpha/src/lib.rs"),
        "#![forbid(unsafe_code)]\npub fn f() {}\n",
    )
    .expect("lib.rs");
    fs::create_dir_all(root.join("scripts")).expect("scripts dir");
    // Invokes qfc-lint, hand-lists a roster, but omits qfc-alpha.
    fs::write(
        root.join("scripts/ci.sh"),
        "#!/usr/bin/env bash\ncargo run -p qfc-lint -- --deny\ncargo clippy -p qfc-other\n",
    )
    .expect("ci.sh");
    let fired = rules_fired(&root);
    assert!(
        fired.contains(&"ci-roster".to_string()),
        "ci-roster did not flag the incomplete hand-listed roster: {fired:?}"
    );
}

#[test]
fn drift_check_must_be_wired() {
    let root = mini_workspace("drift");
    fs::write(
        root.join("crates/alpha/src/lib.rs"),
        "#![forbid(unsafe_code)]\npub fn f() {}\n",
    )
    .expect("lib.rs");
    fs::create_dir_all(root.join("scripts")).expect("scripts dir");
    // Invokes qfc-lint and derives the roster, but never compares a
    // regenerated CALLGRAPH.json: the determinism contract is unenforced.
    fs::write(
        root.join("scripts/ci.sh"),
        "#!/usr/bin/env bash\ncargo run -p qfc-lint -- --deny\nfor d in crates/*/; do :; done\n\
         # cmp CALLGRAPH.json mentioned in a comment does not count\n",
    )
    .expect("ci.sh");
    let report = qfc_lint::run(&root).expect("lint run");
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "ci-roster" && f.message.contains("CALLGRAPH")),
        "ci-roster did not flag the missing drift check: {:?}",
        report.findings
    );
}

#[test]
fn cross_crate_panic_chain_is_traced_and_excusable_at_the_entry() {
    let root = mini_workspace("chain");
    fs::create_dir_all(root.join("crates/beta/src")).expect("mkdir");
    fs::write(
        root.join("crates/beta/Cargo.toml"),
        "[package]\nname = \"qfc-beta\"\nversion = \"0.1.0\"\n",
    )
    .expect("crate manifest");
    fs::create_dir_all(root.join("scripts")).expect("scripts dir");
    fs::write(
        root.join("scripts/ci.sh"),
        "#!/usr/bin/env bash\ncargo run -p qfc-lint -- --deny\nfor d in crates/*/; do :; done\ncmp target/CALLGRAPH.json target/CALLGRAPH.2.json\n",
    )
    .expect("ci.sh");
    // The only public entry lives in alpha; the panic sits three private
    // hops deep in beta. Only the workspace call graph can connect them.
    fs::write(
        root.join("crates/alpha/src/lib.rs"),
        "#![forbid(unsafe_code)]\npub fn entry() { qfc_beta::stage_one() }\n",
    )
    .expect("alpha lib.rs");
    fs::write(
        root.join("crates/beta/src/lib.rs"),
        "#![forbid(unsafe_code)]\npub(crate) fn stage_one() { stage_two() }\nfn stage_two() { stage_three() }\nfn stage_three() { panic!(\"deep\") }\n",
    )
    .expect("beta lib.rs");
    let report = qfc_lint::run(&root).expect("lint run");
    let hit = report
        .findings
        .iter()
        .find(|f| f.rule == "panic-reachability")
        .expect("cross-crate panic chain was not flagged");
    assert_eq!(hit.file, "crates/beta/src/lib.rs");
    assert_eq!(hit.line, 4);
    assert!(
        hit.message.contains("entry") && hit.message.contains("stage_two"),
        "path missing from message: {}",
        hit.message
    );

    // A fn-level allow at the public entry excuses the whole chain and
    // registers as used under the exact remove-one re-audit.
    fs::write(
        root.join("crates/alpha/src/lib.rs"),
        "#![forbid(unsafe_code)]\n// qfc-lint: allow(panic-reachability) — mini-workspace fixture: the chain panics by contract\npub fn entry() { qfc_beta::stage_one() }\n",
    )
    .expect("alpha lib.rs");
    let report = qfc_lint::run(&root).expect("lint run");
    assert!(
        report.findings.is_empty(),
        "fn-level allow did not excuse the chain: {:?}",
        report.findings
    );
    assert_eq!((report.allows_total, report.allows_used), (1, 1));
}
