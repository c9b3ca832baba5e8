#!/usr/bin/env bash
# Tier-1 gate: release build, a check that the repository benchmark
# (perfbench/) still builds, root test suite, every crate's tests, the
# paper's headline runs, the serial-vs-parallel byte identity of whole
# drivers, the allocation budget of the hot kernels and the golden
# fixtures in an optimized build, the concurrency tests, the coincidence sweep's differential
# test (the two-lane sweep against the two-pointer oracle) and the Exp(1)
# sampler's law tests in release,
# workspace static analysis
# (qfc-lint), a check that two qfc-lint runs write the same CALLGRAPH and
# report (neither is committed; the step compares the two runs), a drift
# check of the committed EXPERIMENTS.md, per-crate lints and rustdoc with
# warnings denied. Wall time is gated
# only by the repository benchmark's per-change bounds (BENCHMARK.json).
# Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

# perfbench/ is its own workspace on path dependencies into crates/*, so
# an API change there breaks it without breaking anything above.
echo "==> cargo check perfbench (the benchmark builds against this tree)"
cargo check --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q --workspace (root suite plus every crate's tests)"
cargo test -q --workspace

echo "==> paper headline numbers (release, the #[ignore]d full-paper runs)"
cargo test --release -q --test paper_numbers -- --ignored

# Whole drivers at 1 and N threads must give the same bytes, and the hot
# kernels must not allocate per shot, iteration or sweep point, also once
# the optimizer has reordered and inlined them. The golden fixtures are
# written by a release build (`golden_fixtures`), so they must replay
# under the optimizer as well as in the debug suite: byte_identity runs
# here too. The §V reconstruction (the T4 MLE) now runs inside a campaign
# shard on the worker pool, so the campaign suite runs here as well.
echo "==> thread invariance, allocation budget and golden fixtures, optimized"
cargo test --release -q --test determinism --test alloc_scaling --test byte_identity --test campaign

# The worker team's barrier/atomic protocol and the MLE that steps on it,
# optimized: on x86-64 a too-weak atomic ordering usually passes in a
# debug build and shows up only once the optimizer reorders. qfc-timetag
# runs here too, so the coincidence sweep's differential test checks the
# optimizer's branch-free two-lane code against the two-pointer oracle,
# the lane cut and the sign-bit step included. qfc-mathkit runs here so
# the Exp(1) ziggurat's law tests also check the sampler as the optimizer
# inlines it.
echo "==> concurrency and kernel tests, optimized (qfc-runtime, qfc-tomography, qfc-timetag, qfc-mathkit)"
cargo test --release -q -p qfc-runtime -p qfc-tomography -p qfc-timetag -p qfc-mathkit

echo "==> qfc-lint --deny (workspace static analysis)"
cargo run --release -p qfc-lint -- --deny

echo "==> qfc-lint drift check (CALLGRAPH.json + LINT_REPORT.json byte-identity)"
# A second run must reproduce both artifacts byte-for-byte: the analyzer's
# determinism contract is itself under test, not just asserted.
cargo run --release -p qfc-lint -- \
  --json target/LINT_REPORT.2.json --callgraph target/CALLGRAPH.2.json > /dev/null
cmp target/CALLGRAPH.json target/CALLGRAPH.2.json
cmp target/LINT_REPORT.json target/LINT_REPORT.2.json
rm -f target/LINT_REPORT.2.json target/CALLGRAPH.2.json

echo "==> EXPERIMENTS.md drift check (full_reproduction stdout byte-identity)"
# The committed paper-vs-measured record must be exactly what the
# deterministic full-paper run prints today.
cargo run --release -q --example full_reproduction 2>/dev/null | cmp - EXPERIMENTS.md

echo "==> cargo clippy -p qfc-runtime -- -D warnings"
cargo clippy -p qfc-runtime -- -D warnings

# Library crates must not panic via unwrap/expect: every fallible path
# either returns a QfcError or panics through a validated legacy wrapper.
# The roster is derived from crates/*/ so a new crate cannot skip the
# gate by omission (qfc-lint's ci-roster rule cross-checks this file).
echo "==> cargo clippy (library no-unwrap gate)"
roster=()
for d in crates/*/; do
  name="$(sed -n 's/^name = "\(.*\)"/\1/p' "$d/Cargo.toml" | head -n1)"
  roster+=(-p "$name")
done
cargo clippy --no-deps --lib "${roster[@]}" \
  -- -D warnings -D clippy::unwrap_used -D clippy::expect_used

echo "==> cargo doc (intra-doc links, warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> campaign crash-recovery smoke (abort -> resume -> byte-identity)"
# Kills a sharded campaign mid-run via an injected shard abort, resumes it
# from the surviving checkpoints, and fails unless the merged report is
# byte-identical to a fresh single-process driver run.
cargo run --release --example campaign_recovery

echo "==> fault matrix (graceful-degradation smoke run)"
cargo run --release --example fault_matrix > target/FAULT_MATRIX.md

echo "CI gate passed."
