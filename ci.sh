#!/bin/sh
# The full local CI gate. The workspace has zero external dependencies, so
# everything runs --offline from a clean checkout: no registry, no network.
set -eu
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> benchmark harness build"
# perfbench/ is its own workspace on top of the crates' public API; build
# it here so an API change that breaks it fails locally.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> telemetry smoke gate"
# A tiny traced campaign must produce (a) a JSON-lines trace that
# trace-check can parse with rt::json, and (b) a report with a telemetry
# section carrying per-stage quantiles and solver statistics — and both
# must be byte-identical replays across thread counts.
SMOKE=target/telemetry-smoke
mkdir -p "$SMOKE"
# The timeout caps a hung executor: a deadlock never finishes, so a hard
# cap is the right gate.
timeout 300 target/release/yinyang fuzz --iterations 2 --rounds 1 --seed 7 \
    --threads 1 --json --trace "$SMOKE/seq.jsonl" > "$SMOKE/seq.json"
timeout 300 target/release/yinyang fuzz --iterations 2 --rounds 1 --seed 7 \
    --threads 3 --json --trace "$SMOKE/par.jsonl" > "$SMOKE/par.json"
cmp "$SMOKE/seq.json" "$SMOKE/par.json"
cmp "$SMOKE/seq.jsonl" "$SMOKE/par.jsonl"
target/release/yinyang trace-check "$SMOKE/seq.jsonl" > /dev/null
grep -q '"telemetry"' "$SMOKE/seq.json"
grep -q '"stages"' "$SMOKE/seq.json"
grep -q '"solver.sat.decisions"' "$SMOKE/seq.json"

echo "==> forensics smoke gate"
# A faulted campaign must yield at least one reproduction bundle whose
# ddmin-reduced script is strictly smaller than its fused script (and
# still triggers the bug — the reducer's oracle enforces that); the
# trace must fold into a span profile; and EXPERIMENTS.md's
# deterministic generated block must not be stale.
FORENSICS=target/forensics-smoke
rm -rf "$FORENSICS"
mkdir -p "$FORENSICS"
target/release/yinyang fuzz --iterations 2 --rounds 1 --seed 7 --quiet \
    --json --trace "$FORENSICS/trace.jsonl" \
    --bundle-dir "$FORENSICS/bundles" \
    --metrics-out "$FORENSICS/metrics.json" > "$FORENSICS/report.json"
test -s "$FORENSICS/metrics.json"
grep -q '"coverage_rounds"' "$FORENSICS/report.json"
test "$(ls "$FORENSICS/bundles" | wc -l)" -ge 1
SHRUNK=0
for d in "$FORENSICS/bundles"/*/; do
    test -s "$d/verdict.json"
    fused=$(wc -c < "$d/fused.smt2")
    reduced=$(wc -c < "$d/reduced.smt2")
    if [ "$reduced" -lt "$fused" ]; then SHRUNK=1; fi
done
test "$SHRUNK" -eq 1
# Redirect, then grep: without pipefail a pipeline takes grep's status,
# so a yinyang that prints and then fails would pass.
target/release/yinyang profile "$FORENSICS/trace.jsonl" > "$FORENSICS/profile.txt"
grep -q "span tree" "$FORENSICS/profile.txt"
target/release/yinyang experiments-md --check

echo "==> regress smoke gate"
# Replaying a campaign's own bundles against the same build must classify
# every finding still-broken (nothing fixed, flaky, or stale), and the
# report must be byte-identical across thread counts and repeated runs.
REGRESS=target/regress-smoke
rm -rf "$REGRESS"
mkdir -p "$REGRESS"
target/release/yinyang regress "$FORENSICS/bundles" --json --threads 1 \
    > "$REGRESS/seq.json"
target/release/yinyang regress "$FORENSICS/bundles" --json --threads 4 \
    > "$REGRESS/par.json"
cmp "$REGRESS/seq.json" "$REGRESS/par.json"
target/release/yinyang regress "$FORENSICS/bundles" --json --threads 1 \
    > "$REGRESS/again.json"
cmp "$REGRESS/again.json" "$REGRESS/seq.json"
grep -q '"fixed": 0' "$REGRESS/seq.json"
grep -q '"flaky": 0' "$REGRESS/seq.json"
grep -q '"stale": 0' "$REGRESS/seq.json"
grep -q '"still-broken"' "$REGRESS/seq.json"
target/release/yinyang regress "$FORENSICS/bundles" > "$REGRESS/report.md"
grep -q "still-broken" "$REGRESS/report.md"

echo "==> solve-cache smoke gate"
# The cache may only change speed, never bytes: a cache-on campaign must
# report exactly what the cache-off run (the telemetry gate's seq.json)
# reported, trace included, and a regress replay of a bundle whose fused
# and reduced scripts coincide must score a nonzero hit rate within one
# process — both summarized on stderr, never in the report.
CACHE=target/cache-smoke
rm -rf "$CACHE"
mkdir -p "$CACHE"
target/release/yinyang fuzz --iterations 2 --rounds 1 --seed 7 --threads 1 \
    --cache --json --trace "$CACHE/cached.jsonl" \
    > "$CACHE/cached.json" 2> "$CACHE/fuzz-stderr.txt"
cmp "$SMOKE/seq.json" "$CACHE/cached.json"
cmp "$SMOKE/seq.jsonl" "$CACHE/cached.jsonl"
grep -q "solve cache:" "$CACHE/fuzz-stderr.txt"
# Craft a minimal bundle with fused == reduced: regress solves both under
# one cache key, so the second solve is a guaranteed within-run hit.
BUNDLE="$CACHE/corpus/zirkon-smoke-unknown-QF_LIA"
mkdir -p "$BUNDLE"
printf '(set-logic QF_LIA)\n(declare-fun x () Int)\n(assert (> x 0))\n(check-sat)\n' \
    > "$BUNDLE/fused.smt2"
cp "$BUNDLE/fused.smt2" "$BUNDLE/reduced.smt2"
printf '{\n  "solver": "zirkon-trunk",\n  "bug_id": null,\n  "behavior": "SpuriousUnknown",\n  "oracle": "sat",\n  "fixed_bugs": []\n}\n' \
    > "$BUNDLE/verdict.json"
target/release/yinyang regress "$CACHE/corpus" --json --cache \
    > "$CACHE/regress-on.json" 2> "$CACHE/regress-stderr.txt"
grep -q "solve cache: hits [1-9]" "$CACHE/regress-stderr.txt"
target/release/yinyang regress "$CACHE/corpus" --json > "$CACHE/regress-off.json"
cmp "$CACHE/regress-off.json" "$CACHE/regress-on.json"

echo "==> status server + export smoke gate"
# The status server is observability only: a campaign run with
# --status-addr must print the exact report and trace a serverless run
# prints, while /metrics, /status, and /healthz answer well-formed over
# plain TCP (the `fetch` subcommand — no curl in the loop). The
# exporters must rewrite identical bytes on a rerun.
STATUS=target/status-smoke
rm -rf "$STATUS"
mkdir -p "$STATUS"
YINYANG_STATUS_HOLD_MS=20000 target/release/yinyang fuzz \
    --iterations 2 --rounds 1 --seed 7 --threads 3 --json \
    --trace "$STATUS/served.jsonl" --status-addr 127.0.0.1:0 \
    > "$STATUS/served.json" 2> "$STATUS/stderr.txt" &
FUZZ_PID=$!
# The bind announcement is the first stderr line; poll for it, then probe
# the advertised ephemeral port while the hold keeps the server up.
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's|.*status server listening on http://\([0-9.:]*\).*|\1|p' \
        "$STATUS/stderr.txt" | head -n 1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
test -n "$ADDR"
target/release/yinyang fetch "$ADDR" /healthz | grep -qx "ok"
target/release/yinyang fetch "$ADDR" /status > "$STATUS/status.json"
grep -q '"phase": "fuzz"' "$STATUS/status.json"
grep -q '"jobs"' "$STATUS/status.json"
# Wait for the campaign to finish (the report lands on stdout), then
# scrape /metrics during the hold window — every per-job delta has
# merged by now, so the span histograms are guaranteed present.
# Serverless replay check folded into the wait: the probed run's report
# must be byte-identical to the telemetry gate's --threads 3 run.
for _ in $(seq 1 300); do
    cmp -s "$SMOKE/par.json" "$STATUS/served.json" && break
    sleep 0.1
done
cmp "$SMOKE/par.json" "$STATUS/served.json"
cmp "$SMOKE/par.jsonl" "$STATUS/served.jsonl"
target/release/yinyang fetch "$ADDR" /metrics > "$STATUS/metrics.txt"
grep -q '^# HELP yinyang_up ' "$STATUS/metrics.txt"
grep -q '^# TYPE yinyang_up gauge$' "$STATUS/metrics.txt"
grep -q '^yinyang_build_info{version="' "$STATUS/metrics.txt"
grep -q '^# TYPE span_solve histogram$' "$STATUS/metrics.txt"
grep -q 'span_solve_bucket{le="+Inf"}' "$STATUS/metrics.txt"
grep -q '^span_solve_count ' "$STATUS/metrics.txt"
kill "$FUZZ_PID" 2>/dev/null || true
wait "$FUZZ_PID" 2>/dev/null || true
# Exporters: valid outputs, byte-identical across reruns.
target/release/yinyang export "$STATUS/served.jsonl" \
    --chrome-trace "$STATUS/a.json" --flamegraph "$STATUS/a.folded" --lanes 3 \
    > /dev/null
target/release/yinyang export "$STATUS/served.jsonl" \
    --chrome-trace "$STATUS/b.json" --flamegraph "$STATUS/b.folded" --lanes 3 \
    > /dev/null
cmp "$STATUS/a.json" "$STATUS/b.json"
cmp "$STATUS/a.folded" "$STATUS/b.folded"
grep -q '"traceEvents"' "$STATUS/a.json"
grep -q '^solve' "$STATUS/a.folded"

echo "==> fleet smoke gate"
# Fleet is sharding plus observability, never semantics: a 2-shard fleet
# must merge to the exact report and trace bytes of the telemetry gate's
# single-process run. Federated endpoints must roll up both workers with
# per-shard labels, and killing a worker mid-run must degrade /healthz
# (naming the shard) and fail the supervisor rather than hang it.
FLEET=target/fleet-smoke
rm -rf "$FLEET"
mkdir -p "$FLEET"
# Healthy leg, backgrounded with a post-run hold: the supervisor emits
# the merged report, then keeps the federated endpoints (and the held
# workers) up long enough to scrape the per-shard series.
YINYANG_STATUS_HOLD_MS=20000 target/release/yinyang fleet --shards 2 \
    --iterations 2 --rounds 1 --seed 7 --threads 1 \
    --partial-dir "$FLEET/parts" --status-addr 127.0.0.1:0 \
    --json --trace "$FLEET/merged.jsonl" > "$FLEET/merged.json" \
    2> "$FLEET/healthy-stderr.txt" &
HEALTHY_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's|.*fleet status server listening on http://\([0-9.:]*\).*|\1|p' \
        "$FLEET/healthy-stderr.txt" | head -n 1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
test -n "$ADDR"
# Wait for the merged report, then check it replays the single-process
# bytes exactly.
for _ in $(seq 1 300); do
    cmp -s "$SMOKE/seq.json" "$FLEET/merged.json" && break
    sleep 0.1
done
cmp "$SMOKE/seq.json" "$FLEET/merged.json"
cmp "$SMOKE/seq.jsonl" "$FLEET/merged.jsonl"
# During the hold the workers are still scrapeable: the federated
# /metrics must re-export their span histograms as shard-labeled series
# with HELP metadata.
for _ in $(seq 1 100); do
    target/release/yinyang fetch "$ADDR" /metrics > "$FLEET/metrics-healthy.txt" || true
    grep -q 'span_solve_count{shard="1"}' "$FLEET/metrics-healthy.txt" && break
    sleep 0.1
done
grep -q '^# HELP span_solve ' "$FLEET/metrics-healthy.txt"
grep -q 'span_solve_count{shard="0"}' "$FLEET/metrics-healthy.txt"
grep -q 'span_solve_count{shard="1"}' "$FLEET/metrics-healthy.txt"
kill "$HEALTHY_PID" 2>/dev/null || true
wait "$HEALTHY_PID" 2>/dev/null || true
# Degraded leg: stall the workers so the kill lands before their round-0
# partials exist, forcing the supervisor down the dead-shard path.
YINYANG_FLEET_STALL_MS=6000 target/release/yinyang fleet --shards 2 \
    --iterations 2 --rounds 1 --seed 7 --threads 1 --quiet \
    --partial-dir "$FLEET/parts2" --status-addr 127.0.0.1:0 \
    > /dev/null 2> "$FLEET/stderr.txt" &
FLEET_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's|.*fleet status server listening on http://\([0-9.:]*\).*|\1|p' \
        "$FLEET/stderr.txt" | head -n 1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
test -n "$ADDR"
target/release/yinyang fetch "$ADDR" /healthz | grep -qx "ok"
target/release/yinyang fetch "$ADDR" /status | grep -q '"phase": "fleet"'
# The per-shard series appear after the supervisor's first scrape lands.
for _ in $(seq 1 100); do
    target/release/yinyang fetch "$ADDR" /metrics > "$FLEET/metrics.txt" || true
    grep -q 'yinyang_shard_up{shard="1"} 1' "$FLEET/metrics.txt" && break
    sleep 0.1
done
grep -q 'yinyang_shard_up{shard="0"} 1' "$FLEET/metrics.txt"
grep -q 'yinyang_shard_up{shard="1"} 1' "$FLEET/metrics.txt"
SHARD1_PID=$(sed -n 's|.*fleet: shard 1 is pid \([0-9]*\).*|\1|p' \
    "$FLEET/stderr.txt" | head -n 1)
test -n "$SHARD1_PID"
kill -9 "$SHARD1_PID"
DEGRADED=0
for _ in $(seq 1 100); do
    if target/release/yinyang fetch "$ADDR" /healthz 2>&1 \
        | grep -q "degraded: shard 1"; then DEGRADED=1; break; fi
    sleep 0.1
done
test "$DEGRADED" -eq 1
if wait "$FLEET_PID"; then
    echo "fleet run with a dead shard must fail" >&2
    exit 1
fi
grep -q "shard 1" "$FLEET/stderr.txt"

echo "==> bench report regeneration (fast mode)"
YINYANG_BENCH_FAST=1 cargo bench --offline -p yinyang-bench --bench throughput
test -s crates/bench/target/yinyang-bench/report.json

echo "CI green."
