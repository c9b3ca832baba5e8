#!/usr/bin/env bash
# Tier-1 gate: release build, a check that the repository benchmark
# (perfbench/) still builds, root test suite, every crate's tests, the
# paper's headline runs, the concurrency tests in release, workspace
# static analysis (qfc-lint), drift checks of the committed CALLGRAPH
# and EXPERIMENTS.md, per-crate lints, rustdoc with warnings denied,
# and a seconds-scale bench smoke run that cross-checks serial vs
# parallel determinism. Run from the repository root.
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

# The worker team's barrier/atomic protocol and the MLE that steps on it,
# optimized: on x86-64 a too-weak atomic ordering usually passes in a
# debug build and shows up only once the optimizer reorders.
echo "==> concurrency tests, optimized (qfc-runtime, qfc-tomography)"
cargo test --release -q -p qfc-runtime -p qfc-tomography

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

echo "==> qfc-bench --smoke --check-baseline (determinism + bench-regression gate)"
# Fails when any workload loses serial/parallel byte-identity, allocates
# more than 10 % (+64 calls) beyond the committed baseline's serial leg,
# or slows down by more than the --max-slowdown factor plus a 50 ms
# absolute slack (generous: wall time is machine-dependent and ms-scale
# workloads sit in fs/scheduler noise; allocation counts are not).
./target/release/qfc-bench --smoke --check-baseline BENCH_baseline.json \
  --max-slowdown 4.0 --out target/BENCH_smoke.json
if grep -q '"oversubscribed": true' target/BENCH_smoke.json; then
  echo "WARNING: bench ran more threads than host CPUs; speedup figures" \
       "are oversubscription noise (only the determinism check is valid)." >&2
fi
if grep -q '"parallel_unvalidated": true' target/BENCH_smoke.json; then
  echo "WARNING: parallel leg unvalidated (single-CPU host or --threads 1);" \
       "speedup factors are meaningless — only byte-identity and the" \
       "allocation columns were checked." >&2
fi

echo "==> campaign crash-recovery smoke (abort -> resume -> byte-identity)"
# Kills a sharded campaign mid-run via an injected shard abort, resumes it
# from the surviving checkpoints, and fails unless the merged report is
# byte-identical to a fresh single-process driver run.
cargo run --release --example campaign_recovery

echo "==> fault matrix (graceful-degradation smoke run)"
cargo run --release --example fault_matrix > target/FAULT_MATRIX.md

echo "CI gate passed."
