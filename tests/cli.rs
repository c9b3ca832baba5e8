//! Drives the `qfc-cli` binary: every experiment its `--help` lists runs
//! to a zero exit with `--fast`, prints one JSON value under `--json`,
//! and an unknown verb fails loudly.

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

/// Any one JSON value: deserializing into it accepts every value tree,
/// so `serde_json::from_str` checks only that the text is exactly one
/// JSON value.
struct AnyJson;

impl serde::Deserialize for AnyJson {
    fn from_value(_: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Self)
    }
}

#[test]
fn every_listed_verb_prints_one_json_value() {
    // `all` prints one document per verb: a sequence, not one value.
    for verb in help_verbs().iter().filter(|v| *v != "all") {
        let out = qfc_cli(&[verb, "--fast", "--json"]);
        assert!(out.status.success(), "`qfc-cli {verb} --fast --json` failed");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        if let Err(e) = serde_json::from_str::<AnyJson>(&stdout) {
            panic!("`qfc-cli {verb} --fast --json` is not one JSON value ({e}):\n{stdout}");
        }
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
