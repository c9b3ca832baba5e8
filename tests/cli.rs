//! Drives the `qfc-cli` binary: every experiment its `--help` lists runs
//! to a zero exit with `--fast`, and an unknown verb fails loudly.

use std::process::{Command, Output};

fn qfc_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qfc-cli"))
        .args(args)
        .output()
        .expect("spawn qfc-cli")
}

/// The experiment verbs from the `experiments:` line of `--help`.
fn help_verbs() -> Vec<String> {
    let out = qfc_cli(&["--help"]);
    assert!(out.status.success(), "--help failed: {:?}", out.status);
    let help = String::from_utf8(out.stderr).expect("utf-8 help");
    let line = help
        .lines()
        .find_map(|l| l.strip_prefix("experiments:"))
        .unwrap_or_else(|| panic!("no experiments line in --help:\n{help}"));
    line.split_whitespace().map(str::to_owned).collect()
}

fn assert_runs(verb: &str) {
    let out = qfc_cli(&[verb, "--fast"]);
    assert!(
        out.status.success(),
        "`qfc-cli {verb} --fast` failed ({:?}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !out.stdout.is_empty(),
        "`qfc-cli {verb} --fast` printed nothing"
    );
}

#[test]
fn every_listed_verb_runs_fast() {
    let verbs = help_verbs();
    assert!(
        verbs.iter().any(|v| v == "all"),
        "--help lists no `all`: {verbs:?}"
    );
    // `all` re-runs every other verb; it has its own test below.
    for verb in verbs.iter().filter(|v| *v != "all") {
        assert_runs(verb);
    }
}

#[test]
fn all_runs_fast() {
    assert_runs("all");
}

#[test]
fn unknown_verb_fails_with_an_error() {
    let out = qfc_cli(&["reach"]);
    assert!(!out.status.success(), "`qfc-cli reach` succeeded");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: ") && stderr.contains("unknown experiment 'reach'"),
        "unexpected stderr: {stderr}"
    );
}
