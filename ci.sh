#!/usr/bin/env sh
# CI gate: build → test (default / check / telemetry / telemetry crate
# armed) → clippy → fedlint →
# fedtrace smoke → perf-smoke → fedscope-smoke → fedresil-smoke →
# fedprof-smoke → fedobs-smoke → fedsim-smoke. Any failing stage fails
# the run.
set -eu

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace (facade, crate and vendor-shim suites)"
cargo test -q --workspace

echo "==> cargo test -q --features check (numeric guards as hard errors)"
cargo test -q --features check

echo "==> cargo test -q --features telemetry (instrumentation compiled in)"
cargo test -q --features telemetry

echo "==> cargo test -q -p fedprox-telemetry --features enabled (collector suites armed)"
cargo test -q -p fedprox-telemetry --features enabled

# unwrap_used/expect_used are denied via [workspace.lints]; every
# `#[allow]` escaping the deny must carry an adjacent justified
# `// fedlint: allow(...)` annotation (enforced by the fedlint
# clippy-allow-sync rule in the gate below).
if command -v cargo-clippy >/dev/null 2>&1 || cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "==> clippy not installed; skipping lint stage"
fi

# fedlint-gate: the full AST/call-graph engine (determinism,
# panic-reachability and feature-gate rules) against the committed
# per-rule budgets. Any count over budget exits nonzero.
echo "==> fedlint-gate (check --baseline LINT_BASELINE.json --gate)"
cargo run -q --release -p fedprox-conformance --bin fedlint -- \
    check --baseline LINT_BASELINE.json --gate

echo "==> fedtrace smoke (summarize the checked-in fixture trace)"
cargo run -q --release -p fedprox-telemetry --bin fedtrace -- \
    crates/telemetry/tests/fixtures/sample_trace.jsonl >/dev/null

# perf-smoke: run the fedperf harness twice in --quick mode, validate the
# emitted reports against the fedperf/v1 schema, and check the two runs are
# structurally identical (same benchmark ids, same iteration counts).
# Deliberately NO gating on absolute times — CI machines are too noisy for
# that; regression gating (--baseline/--gate) is a manual/local workflow.
echo "==> perf-smoke (fedperf --quick: schema + determinism, no time gating)"
PERF_TMP="$(mktemp -d)"
trap 'rm -rf "$PERF_TMP"' EXIT
cargo build -q --release -p fedprox-perfbench
./target/release/fedperf --quick --name smoke-a --out "$PERF_TMP" >/dev/null
./target/release/fedperf --quick --name smoke-b --out "$PERF_TMP" >/dev/null
./target/release/fedperf --validate "$PERF_TMP/BENCH_smoke-a.json" "$PERF_TMP/BENCH_smoke-b.json"
./target/release/fedperf --check-determinism \
    "$PERF_TMP/BENCH_smoke-a.json" "$PERF_TMP/BENCH_smoke-b.json"

# kernel-diff: bitwise + speed gate over the tiled kernel rewrite. The
# cpu_reference differential suite proves tiled == naive bitwise; the
# root determinism suite extends that to
# full networked runs. The fedperf baseline gate then catches kernel
# *speed* regressions against the committed BENCH_seed.json (recorded
# from the tiled kernels). The default ratio is deliberately loose
# (3.0, override with FEDPERF_GATE_RATIO): back-to-back identical runs
# on shared hosts swing 2-3x, so a tight gate would be flakier than it
# is protective — tight gating (e.g. 1.25) stays a manual/local
# workflow on a quiet machine.
echo "==> kernel-diff (cpu_reference suite + fedperf --baseline --gate)"
cargo test -q --release -p fedprox-tensor --test cpu_reference
cargo test -q --release -p fedprox --test determinism
./target/release/fedperf --baseline BENCH_seed.json --gate "${FEDPERF_GATE_RATIO:-3.0}"

# fedscope-smoke: a tiny armed run writes a --health JSONL, `fedscope
# check` validates its schema, the report renders, and a self-diff must
# be regression-free (exit 0). Reuses the perf-smoke tmp dir + trap.
echo "==> fedscope-smoke (armed tiny run -> schema check -> self-diff)"
cat > "$PERF_TMP/fedscope_spec.json" <<'EOF'
{
  "dataset": {"kind": "synthetic", "alpha": 1.0, "beta": 1.0},
  "model": {"kind": "logistic"},
  "algorithms": ["fedproxvr-svrg"],
  "devices": 3, "min_size": 30, "max_size": 60,
  "beta": 5.0, "tau": 5, "mu": 0.5, "batch": 8, "rounds": 4
}
EOF
cargo build -q --release -p fedprox-bench --features telemetry
cargo build -q --release -p fedprox-telemetry
./target/release/fedrun "$PERF_TMP/fedscope_spec.json" \
    --health "$PERF_TMP/health.jsonl" >/dev/null
./target/release/fedscope check "$PERF_TMP/health.jsonl"
./target/release/fedscope report "$PERF_TMP/health.jsonl" >/dev/null
./target/release/fedscope diff "$PERF_TMP/health.jsonl" "$PERF_TMP/health.jsonl" >/dev/null

# fedresil-smoke: a short seeded faulted scenario (device crash at round 3
# plus a 20% flaky link) must complete, record exactly the expected
# participation (1 crashed device, 0 skipped rounds — enforced by the
# --expect-* flags), and produce a health stream `fedscope check` accepts.
# Reuses the telemetry-enabled bench build from the fedscope stage.
echo "==> fedresil-smoke (seeded faulted scenario -> expected participation)"
./target/release/fedresil --devices 4 --rounds 6 --seed 11 \
    --crash 1:3 --flaky 2:0.2:1:6 \
    --health "$PERF_TMP/resil_health.jsonl" \
    --expect-crashed 1 --expect-skipped 0 >/dev/null
./target/release/fedscope check "$PERF_TMP/resil_health.jsonl"

# fedprof-smoke: two identical-seed armed fig2 runs write --prof span-tree
# profiles; `fedprof report` must render a ≥4-level tree, `fedprof flame`
# must emit well-formed collapsed stacks with no root-level
# device_update/matvec/softmax stack, and `fedprof agg
# --check-deterministic` must find the deterministic columns (activation
# counts, alloc bytes/calls) bitwise-identical across the two runs —
# wall-clock columns are expected to differ and are reported as medians.
# Reuses the telemetry-enabled bench build from the fedscope stage.
echo "==> fedprof-smoke (two same-seed --prof runs -> report/flame -> zero-delta agg)"
./target/release/fig2_convex --scale small --rounds 3 --seed 7 \
    --prof "$PERF_TMP/prof_a.jsonl" >/dev/null
./target/release/fig2_convex --scale small --rounds 3 --seed 7 \
    --prof "$PERF_TMP/prof_b.jsonl" >/dev/null
./target/release/fedprof report "$PERF_TMP/prof_a.jsonl" | grep -q "local_solve" \
    || { echo "fedprof-smoke: report missing the local_solve path"; exit 1; }
./target/release/fedprof flame "$PERF_TMP/prof_a.jsonl" > "$PERF_TMP/prof_a.flame"
grep -Eq '^([^ ;]+;)+[^ ;]+ [0-9]+$' "$PERF_TMP/prof_a.flame" \
    || { echo "fedprof-smoke: flame output has no nested collapsed stack"; exit 1; }
# Fan-out workers nest their spans under the caller's open path, so no
# device solve or kernel span may root a stack.
if grep -Eq '^(device_update|matvec|softmax)[ ;]' "$PERF_TMP/prof_a.flame"; then
    echo "fedprof-smoke: root-level device_update/matvec/softmax stack in flame output"
    exit 1
fi
./target/release/fedprof agg "$PERF_TMP/prof_a.jsonl" "$PERF_TMP/prof_b.jsonl" \
    --check-deterministic >/dev/null

# fedobs-smoke: the correlation layer end to end. A faulted fedresil run
# (device 1 crashes at round 3, quorum demands all 3 devices, so every
# later round skips) streams the obs feed; the flight recorder must fire
# and `fedobs postmortem` must blame the crashed device. Then two
# same-seed runs must carry identical run-ledger headers (`fedobs ledger
# diff` exits 0 and prints "identical"). Reuses the telemetry-enabled
# bench build from the fedscope stage.
echo "==> fedobs-smoke (faulted --obs run -> postmortem blame -> ledger self-diff)"
cargo build -q --release -p fedprox-obs
./target/release/fedresil --devices 3 --rounds 6 --seed 11 \
    --crash 1:3 --quorum-count 3 \
    --obs "$PERF_TMP/obs_a.jsonl" >/dev/null
./target/release/fedobs postmortem "$PERF_TMP/obs_a.jsonl" \
    | grep -q "quorum_skip at round 3 (device 1)" \
    || { echo "fedobs-smoke: postmortem did not blame the crashed device"; exit 1; }
./target/release/fedresil --devices 3 --rounds 6 --seed 11 \
    --crash 1:3 --quorum-count 3 \
    --obs "$PERF_TMP/obs_b.jsonl" >/dev/null
./target/release/fedobs ledger diff "$PERF_TMP/obs_a.jsonl" "$PERF_TMP/obs_b.jsonl" \
    | grep -q "^identical" \
    || { echo "fedobs-smoke: same-seed run ledgers differ"; exit 1; }
./target/release/fedobs critpath "$PERF_TMP/obs_a.jsonl" >/dev/null

# fedsim-smoke: the event-driven backend at population scale. Two
# same-seed 100k-device power-law runs sampling K=32 per round must
# finish with per-round allocation bounded by the active set (not the
# population — the --max-round-alloc-mib gate uses the counting
# allocator baked into the telemetry bench build), sample exactly 32
# devices every round (--expect-sampled), and stream obs feeds whose
# run ledgers are bitwise-identical. The eq. (19) critical path must
# reconstruct cleanly from a sampled round's sparse device legs.
# Device 28563 is sampled in round 1 only (seed 29), so crashing it
# exercises stable-id fault addressing on compact participation
# records: the crash must still be counted although the final round
# never samples the device. Reuses the telemetry-enabled bench build
# from the fedscope stage.
echo "==> fedsim-smoke (two same-seed 100k-device sampled runs -> alloc bound + ledger diff)"
./target/release/fedsim --devices 100000 --rounds 4 --seed 29 --sample k:32 \
    --crash 28563:1 --expect-crashed 1 \
    --expect-sampled 32 --max-round-alloc-mib 64 \
    --obs "$PERF_TMP/sim_a.jsonl" >/dev/null
./target/release/fedsim --devices 100000 --rounds 4 --seed 29 --sample k:32 \
    --crash 28563:1 --expect-crashed 1 \
    --expect-sampled 32 --max-round-alloc-mib 64 \
    --obs "$PERF_TMP/sim_b.jsonl" >/dev/null
./target/release/fedobs ledger diff "$PERF_TMP/sim_a.jsonl" "$PERF_TMP/sim_b.jsonl" \
    | grep -q "^identical" \
    || { echo "fedsim-smoke: same-seed sampled-run ledgers differ"; exit 1; }
./target/release/fedobs critpath "$PERF_TMP/sim_a.jsonl" >/dev/null

echo "CI green."
