#!/usr/bin/env bash
# Local CI for the Plug Your Volt reproduction. Entirely offline: every
# dependency is an in-tree path crate (see shims/), so this runs with no
# registry access. The GitHub workflow (.github/workflows/ci.yml) runs
# exactly this script — keep every gate here so CI and a developer's
# pre-push check can never disagree.
#
#   1. formatting          cargo fmt --check
#   2. static analysis     plugvolt-lint SARIF + baseline ratchet gate
#   3. lint-wall coverage  every workspace member opts into [workspace.lints]
#   4. hygiene             no build artifacts tracked by git
#   5. build               cargo build --release (whole workspace)
#   6. tests               cargo test -q (tier-1 suite + all members)
#   7. benchmark tests     perfbench's self-tests (its own cargo workspace)
#   8. bench gate          plugvolt-cli bench --smoke vs committed BENCH.json
#   9. attribution smoke   plugvolt-cli bench --attr --smoke + Chrome trace
#  10. soak gate           plugvolt-cli soak --smoke + corpus replay
#  11. trace replay gate   committed MSR transcript replayed through the
#                          HAL replay backend (tape-clean + oracles +
#                          sim-differential byte identity)
#  12. golden gate         results/ regenerate bit-for-bit vs golden.manifest
set -euo pipefail
cd "$(dirname "$0")"

# Each step prints how long the previous one took, so a CI log doubles
# as a per-stage timing profile. The same wall milliseconds land in
# target/ci-stages.json ([{"stage": …, "ms": …}, …], rewritten as each
# stage ends), which the workflow uploads, so end-to-end CI cost has a
# trajectory too — a failing run keeps the stages it finished.
mkdir -p target
rm -f target/ci-stages.json
# Wall clock in milliseconds: bash >= 5's $EPOCHREALTIME (seconds with
# six fractional digits; the separator follows the locale, so keep only
# the digits), else whole $SECONDS.
now_ms() {
    if [ -n "${EPOCHREALTIME:-}" ]; then
        local us=${EPOCHREALTIME//[!0-9]/}
        echo $((10#$us / 1000))
    else
        echo $((SECONDS * 1000))
    fi
}
ci_started=$(now_ms)
step_started=$ci_started
stage=""
stages=""
step() {
    local now elapsed
    now=$(now_ms)
    elapsed=$((now - step_started))
    printf '\n==> %s (previous step: %d ms)\n' "$1" "$elapsed"
    if [ -n "$stage" ]; then
        stages="${stages:+$stages, }{\"stage\": \"${stage//\"/\\\"}\", \"ms\": $elapsed}"
        printf '[%s]\n' "$stages" > target/ci-stages.json
    fi
    stage=$1
    step_started=$now
}

step "cargo fmt --check"
cargo fmt --all --check

step "plugvolt-lint --workspace (SARIF + baseline ratchet)"
# Whole-workspace scan: symbol index, call graph, and the cross-file
# rules, reported as SARIF 2.1.0 and gated by the committed baseline.
# The exit status is the gate: a new error-severity finding fails, and
# so does a stale baseline entry whose finding has been fixed — the
# ratchet only shrinks. The SARIF log lands in target/plugvolt-lint.sarif
# and is uploaded as a CI artifact; the baseline gates the exit code but
# never censors the report. Suppressions: // plugvolt-lint: allow(<rule>)
cargo run -q -p plugvolt-analysis --bin plugvolt-lint -- --workspace \
    --format sarif --baseline results/lint-baseline.json \
    > target/plugvolt-lint.sarif

step "plugvolt-lint crates/telemetry"
# The telemetry crate instruments every hot path; hold it to the same
# determinism gate explicitly so a workspace-list regression cannot
# silently skip it.
cargo run -q -p plugvolt-analysis --bin plugvolt-lint -- --root crates/telemetry --json

step "every member opts into workspace lints"
# Portable replacement for the old GNU-only `grep -Pzq` probe, and it
# covers the whole workspace instead of one crate: the lint wall
# ([workspace.lints]: forbid unsafe_code, deny unused_must_use) only
# applies to members that carry `[lints] workspace = true`.
cargo run -q -p plugvolt-analysis --bin plugvolt-lint -- --check-workspace-lints

step "no build artifacts in git"
# target/ was purged from the index once; keep it out forever.
tracked=$(git ls-files target/ | wc -l)
if [ "$tracked" -ne 0 ]; then
    echo "git tracks $tracked file(s) under target/ — run 'git rm -r --cached target/'" >&2
    exit 1
fi

step "cargo build --release"
cargo build --release --workspace

step "host backend builds (plugvolt-hal)"
# The read-only Linux host backend (/dev/cpu/*/msr + sysfs cpufreq) is
# compile-gated on target_os = "linux"; build the HAL crate explicitly
# so a cfg regression can never hide behind the workspace build, and so
# the gate is self-describing in the CI log.
cargo build --release -p plugvolt-hal

step "cargo test -q"
cargo test -q --workspace

step "perfbench self-tests"
# perfbench/ is a cargo workspace of its own (it builds against the
# crates by path), so `cargo test --workspace` never reaches it. Its
# self-tests pin the benchmark's output checks and failure accounting.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

step "plugvolt-cli bench --smoke"
# Smoke-size perf harness run: validates the pinned BENCH.json schema
# and fails if any before/after speedup decayed to less than half the
# ratio the committed report records (speedups are host-normalized, so
# the comparison is meaningful on any machine).
./target/release/plugvolt-cli bench --smoke --baseline BENCH.json

step "plugvolt-cli bench --attr --smoke"
# Span-tracer attribution pass over a coarse characterize-grid run:
# prints the per-subsystem hot-path table (the DESIGN.md §5d evidence)
# and exports the Chrome trace-event JSON, which the workflow uploads
# as an artifact so any CI run's hot paths can be opened in Perfetto.
./target/release/plugvolt-cli bench --attr --smoke \
    --trace-out target/bench-smoke.trace.json

step "plugvolt-cli soak --smoke"
# Randomized attack campaigns vs all four deployment levels, judged by
# the three soak oracles (zero faults under §5 deployments, bounded
# exposure under polling, none-vs-polling non-interference), after
# replaying every pinned reproducer in results/fuzz-corpus/. Exits
# nonzero on any oracle violation or corpus regression; the run's own
# self-test (deliberately weakened poller) guards against the harness
# rotting into a rubber stamp.
./target/release/plugvolt-cli soak --smoke --corpus results/fuzz-corpus \
    --out target/soak-report.json

step "plugvolt-cli soak --backend replay (trace fixture)"
# Replays the committed MSR transcript through the HAL replay backend
# across all four deployment levels. Fails on any tape divergence,
# overrun or leftover, on any soak-oracle violation, and unless the
# replayed run's telemetry profiles and poll stats are byte-identical
# to a plain sim run — the differential proof that the sim and trace
# backends sit behind one seam with no behavioral drift.
./target/release/plugvolt-cli soak --backend replay \
    --trace results/traces/fixture.trace.jsonl

step "golden results match"
# Regenerates every results/ artifact into a temp dir and diffs the
# SHA-256 manifest; any drift in any pinned number fails the build.
# Intended drift: scripts/golden.sh update && git add results/
scripts/golden.sh check

step "all green"
printf 'total: %d ms\n' "$(($(now_ms) - ci_started))"
