#!/usr/bin/env sh
# CI gate: build → test (default / check / telemetry / telemetry crate
# armed / bench --obs stream armed) → clippy → fedlint →
# fedobs-summary smoke → perf-smoke → kernel-diff → specs-golden →
# health-smoke → fedresil-smoke → prof-smoke → fedobs-smoke →
# fedsim-smoke → examples. Every smoke run is `fedrun` on a committed
# spec under `specs/`; every smoke stage writes one `--obs` file per run
# and reads it with `fedobs`. Any failing stage fails the run.
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

echo "==> cargo test -q -p fedprox-bench --features telemetry (one --obs stream feeds every reader)"
cargo test -q -p fedprox-bench --features telemetry

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

echo "==> fedobs-summary smoke (summarize the checked-in fixture trace)"
cargo run -q --release -p fedprox-obs --bin fedobs -- \
    summary crates/telemetry/tests/fixtures/sample_trace.jsonl >/dev/null

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
# full networked runs, and the solve_pins suite holds whole-run digests
# (networked, event-driven, parallel, every algorithm, MLP and CNN)
# recorded before the row-interleaved matvec and the reused solve
# scratch. All three run in --release: the shipped target-cpu=native
# release codegen is what must stay bitwise. The fedperf baseline gate
# then checks every entry shared with the committed BENCH_seed.json
# (recorded from the tiled kernels): bytes/iter and allocs/iter are
# exact run to run, so either one above the baseline fails outright;
# ns/iter fails only past a deliberately loose ratio (3.0, override
# with FEDPERF_GATE_RATIO): back-to-back identical runs on shared hosts
# swing 2-3x, so a tight time gate would be flakier than it is
# protective — tight time gating (e.g. 1.25) stays a manual/local
# workflow on a quiet machine.
echo "==> kernel-diff (cpu_reference + determinism + solve_pins in --release, fedperf --baseline --gate)"
cargo test -q --release -p fedprox-tensor --test cpu_reference
cargo test -q --release -p fedprox --test determinism
cargo test -q --release -p fedprox --test solve_pins
./target/release/fedperf --baseline BENCH_seed.json --gate "${FEDPERF_GATE_RATIO:-3.0}"

# specs-golden: the committed specs must regenerate, byte for byte,
# every file the figure, table, fedresil and fedsim binaries they
# replaced wrote at these invocations (SHA-256 digests recorded from
# those binaries in specs/golden.sha256; the two networked fedresil
# files were re-recorded when their per-round `bytes` began counting
# each round's own traffic, no other field moving). Builds the telemetry bench
# binaries the smoke stages below reuse (the fedsim spec's allocation
# gate needs the counting allocator). Reuses the perf-smoke tmp dir.
echo "==> specs-golden (committed specs regenerate the golden files byte for byte)"
cargo build -q --release -p fedprox-bench --features telemetry
cargo build -q --release -p fedprox-obs
REPO="$(pwd)"
GOLDEN="$PERF_TMP/golden"
golden() { out="$1"; shift; ./target/release/fedrun "$@" --out "$GOLDEN/$out" >/dev/null; }
golden fig1 specs/fig1.small.json
golden fig2 specs/fig2.small.json --rounds 10
golden fig3 specs/fig3.small.json --rounds 2
golden fig4 specs/fig4.small.json
golden table1 specs/table1.small.json
golden table2 specs/table2.small.json
golden fedresil_flaky specs/fedresil.small.json
golden fedresil_quorum specs/fedresil_quorum.small.json
golden fedsim specs/fedsim.small.json
(cd "$GOLDEN" && sha256sum --quiet -c "$REPO/specs/golden.sha256") \
    || { echo "specs-golden: a regenerated file differs from its golden digest"; exit 1; }

# health-smoke: a tiny armed run writes an --obs JSONL, `fedobs health
# check` validates its health schema, the report renders, and a
# self-diff must be regression-free (exit 0). The sequential run's 4
# rounds must each close with a `round_end`, so `fedobs summary` counts
# them. No kernel span may root a stack: data synthesis runs under its
# own `build_federation` root.
echo "==> health-smoke (armed tiny run -> round count -> schema check -> self-diff -> rooted kernels)"
./target/release/fedrun specs/health.small.json --obs "$PERF_TMP/health.jsonl" >/dev/null
./target/release/fedobs summary "$PERF_TMP/health.jsonl" | grep -q "^fedobs summary: 4 rounds," \
    || { echo "health-smoke: fedobs summary does not count the run's 4 rounds"; exit 1; }
./target/release/fedobs health check "$PERF_TMP/health.jsonl"
./target/release/fedobs health report "$PERF_TMP/health.jsonl" >/dev/null
./target/release/fedobs health diff "$PERF_TMP/health.jsonl" "$PERF_TMP/health.jsonl" >/dev/null
./target/release/fedobs prof flame "$PERF_TMP/health.jsonl" > "$PERF_TMP/health.flame"
if grep -Eq '^(device_update|matvec|softmax)[ ;]' "$PERF_TMP/health.flame"; then
    echo "health-smoke: root-level device_update/matvec/softmax stack in flame output"
    exit 1
fi

# fedresil-smoke: a short seeded faulted scenario (device crash at round 3
# plus a 20% flaky link) must complete, record exactly the expected
# participation (1 crashed device, 0 skipped rounds — the spec's
# `expect` block; a mismatch exits 1), and produce an obs stream
# `fedobs health check` accepts. Reuses the telemetry-enabled bench build.
echo "==> fedresil-smoke (seeded faulted scenario -> expected participation)"
grep -q '"expect": {"crashed": 1, "skipped": 0}' specs/fedresil.small.json \
    || { echo "fedresil-smoke: the spec no longer expects 1 crashed, 0 skipped"; exit 1; }
./target/release/fedrun specs/fedresil.small.json --obs "$PERF_TMP/resil_health.jsonl" >/dev/null
./target/release/fedobs health check "$PERF_TMP/resil_health.jsonl"

# prof-smoke: two identical-seed armed fig2 runs write --obs streams;
# `fedobs prof report` must render a ≥4-level tree, `fedobs prof flame`
# must emit well-formed collapsed stacks with no root-level
# device_update/matvec/softmax stack, and `fedobs prof agg
# --check-deterministic` must find the deterministic columns (activation
# counts, alloc bytes/calls) bitwise-identical across the two runs —
# wall-clock columns are expected to differ and are reported as medians.
# Reuses the telemetry-enabled bench build.
echo "==> prof-smoke (two same-seed --obs runs -> prof report/flame -> zero-delta agg)"
./target/release/fedrun specs/fig2.small.json --rounds 3 --seed 7 \
    --obs "$PERF_TMP/prof_a.jsonl" >/dev/null
./target/release/fedrun specs/fig2.small.json --rounds 3 --seed 7 \
    --obs "$PERF_TMP/prof_b.jsonl" >/dev/null
./target/release/fedobs prof report "$PERF_TMP/prof_a.jsonl" | grep -q "local_solve" \
    || { echo "prof-smoke: report missing the local_solve path"; exit 1; }
./target/release/fedobs prof flame "$PERF_TMP/prof_a.jsonl" > "$PERF_TMP/prof_a.flame"
grep -Eq '^([^ ;]+;)+[^ ;]+ [0-9]+$' "$PERF_TMP/prof_a.flame" \
    || { echo "prof-smoke: flame output has no nested collapsed stack"; exit 1; }
# Fan-out workers nest their spans under the caller's open path, so no
# device solve or kernel span may root a stack.
if grep -Eq '^(device_update|matvec|softmax)[ ;]' "$PERF_TMP/prof_a.flame"; then
    echo "prof-smoke: root-level device_update/matvec/softmax stack in flame output"
    exit 1
fi
./target/release/fedobs prof agg "$PERF_TMP/prof_a.jsonl" "$PERF_TMP/prof_b.jsonl" \
    --check-deterministic >/dev/null

# fedobs-smoke: the correlation layer end to end. A faulted fedresil
# scenario (device 1 crashes at round 3, quorum demands all 3 devices, so
# every later round skips) streams the obs feed; the flight recorder must
# fire and `fedobs postmortem` must blame the crashed device. Then two
# same-seed runs must carry identical run-ledger headers (`fedobs ledger
# diff` exits 0 and prints "identical"). The critical path must also
# render as a `fedobs/v1` JSON document. Reuses the telemetry-enabled
# bench build and the fedobs build.
echo "==> fedobs-smoke (faulted --obs run -> postmortem blame -> ledger self-diff)"
./target/release/fedrun specs/fedresil_quorum.small.json --obs "$PERF_TMP/obs_a.jsonl" >/dev/null
./target/release/fedobs postmortem "$PERF_TMP/obs_a.jsonl" \
    | grep -q "quorum_skip at round 3 (device 1)" \
    || { echo "fedobs-smoke: postmortem did not blame the crashed device"; exit 1; }
./target/release/fedrun specs/fedresil_quorum.small.json --obs "$PERF_TMP/obs_b.jsonl" >/dev/null
./target/release/fedobs ledger diff "$PERF_TMP/obs_a.jsonl" "$PERF_TMP/obs_b.jsonl" \
    | grep -q "^identical" \
    || { echo "fedobs-smoke: same-seed run ledgers differ"; exit 1; }
./target/release/fedobs critpath "$PERF_TMP/obs_a.jsonl" >/dev/null
./target/release/fedobs critpath "$PERF_TMP/obs_a.jsonl" --json | grep -q '^{"schema":"fedobs/v1",' \
    || { echo "fedobs-smoke: critpath --json is not a fedobs/v1 document"; exit 1; }

# fedsim-smoke: the event-driven backend at population scale. Two
# same-seed 100k-device power-law runs sampling K=32 per round must
# finish with per-round allocation bounded by the active set (not the
# population — the --max-round-alloc-mib gate uses the counting
# allocator baked into the telemetry bench build), sample exactly 32
# devices every round, and stream obs feeds whose run ledgers are
# bitwise-identical (the spec's `expect` block enforces sampled 32,
# crashed 1 and the 64 MiB cap; a mismatch exits 1). The eq. (19)
# critical path must reconstruct cleanly from a sampled round's sparse
# device legs. Device 28563 is sampled in round 1 only (seed 29), so
# crashing it exercises stable-id fault addressing on compact
# participation records: the crash must still be counted although the
# final round never samples the device. The lazy rounds fan out on the
# same pool as fig2's, so the two profiles' deterministic columns
# (activation counts, alloc bytes/calls) must match exactly as in
# prof-smoke. Reuses the telemetry-enabled bench build.
echo "==> fedsim-smoke (two same-seed 100k-device sampled runs -> alloc bound + ledger diff + zero-delta agg)"
grep -q '"expect": {"crashed": 1, "sampled": 32, "max_round_alloc_mib": 64}' specs/fedsim.small.json \
    || { echo "fedsim-smoke: the spec no longer expects crashed 1, sampled 32, <= 64 MiB"; exit 1; }
./target/release/fedrun specs/fedsim.small.json --obs "$PERF_TMP/sim_a.jsonl" >/dev/null
./target/release/fedrun specs/fedsim.small.json --obs "$PERF_TMP/sim_b.jsonl" >/dev/null
./target/release/fedobs ledger diff "$PERF_TMP/sim_a.jsonl" "$PERF_TMP/sim_b.jsonl" \
    | grep -q "^identical" \
    || { echo "fedsim-smoke: same-seed sampled-run ledgers differ"; exit 1; }
./target/release/fedobs critpath "$PERF_TMP/sim_a.jsonl" >/dev/null
./target/release/fedobs prof agg "$PERF_TMP/sim_a.jsonl" "$PERF_TMP/sim_b.jsonl" \
    --check-deterministic >/dev/null

# examples: every example under examples/ runs in --release and must
# exit 0; quickstart runs once more with the instrumentation compiled
# in, and its --obs file must read back through `fedobs summary`.
# Reuses the fedobs build and the perf-smoke tmp dir.
echo "==> examples (every example in --release; armed quickstart -> fedobs summary)"
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    cargo run -q --release --example "$name" >/dev/null \
        || { echo "examples: $name exited nonzero"; exit 1; }
done
cargo run -q --release --features telemetry --example quickstart -- \
    --obs "$PERF_TMP/q.jsonl" >/dev/null
./target/release/fedobs summary "$PERF_TMP/q.jsonl" >/dev/null

echo "CI green."
