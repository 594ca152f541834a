#!/bin/bash
# Local CI gate: formatting, lints, the tier-1 build+test, and docs.
# Everything runs offline; a clean exit means the tree is shippable.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

# Environment hygiene (see docs/ROBUSTNESS.md): the PSA_* environment
# is read once, at binary entry, by RunnerOptions::from_env, and lives in
# an Executor from then on. No code may mutate the process environment,
# and no other code may read it. perfbench/ is the frozen benchmark
# harness with its own entry point and is not scanned.
echo "== environment hygiene (one read, no mutation) =="
ENV_DIRS=(crates src tests examples)
if grep -rnE 'env::(set_var|remove_var)' --include='*.rs' "${ENV_DIRS[@]}"; then
  echo "the process environment is mutated above; set RunnerOptions fields instead"
  exit 1
fi
ENV_READS="$(find "${ENV_DIRS[@]}" -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { inside = 0 }
  FILENAME == "crates/experiments/src/runner.rs" && /pub fn from_env\(\)/ { inside = 1 }
  /env::var/ && !inside { print FILENAME ":" FNR ": " $0 }
  inside && /^    }$/ { inside = 0 }
')"
if [ -n "$ENV_READS" ]; then
  echo "$ENV_READS"
  echo "the environment is read above, outside RunnerOptions::from_env"
  exit 1
fi

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== examples build =="
cargo build --release --examples

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== workspace tests =="
cargo test -q --workspace

echo "== tier-1 under the invariant checker (PSA_CHECK=1) =="
PSA_CHECK=1 cargo test -q

echo "== cargo doc --no-deps (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

# If bench results exist, refuse to ship a tree whose last bench sweep
# recorded failed jobs or drifted off the documented schema. The typed
# validator (src/bin/validate_bench.rs) checks structure before content —
# unlike the old grep gate, a document missing the "failures" key fails
# loudly instead of passing silently.
if compgen -G "${PSA_BENCH_JSON_DIR:-bench_results}/BENCH_*.json" > /dev/null; then
  echo "== bench schema + failure gate =="
  cargo run --release --quiet --bin validate_bench -- \
    "${PSA_BENCH_JSON_DIR:-bench_results}"/BENCH_*.json
fi

# Checkpoint determinism gate (see docs/CHECKPOINT.md): run the fig08
# bench cold, then again warmed from the on-disk checkpoint store. The
# stable document sections must match byte for byte, and the warmed
# batch must be >=1.5x faster (the warm-up work is skipped, not redone).
echo "== checkpoint determinism gate (fig08 cold vs warm) =="
CKPT_TMP="$(mktemp -d)"
COLD_TMP="$(mktemp -d)"
WARM_TMP="$(mktemp -d)"
trap 'rm -rf "$CKPT_TMP" "$COLD_TMP" "$WARM_TMP"' EXIT
# Warm-up-dominated budget so the gate measures checkpointing, not
# parallelism (it must hold on a single-core runner too).
CKPT_ENV=(PSA_WARMUP=60000 PSA_INSTRUCTIONS=20000 PSA_WORKLOAD_LIMIT=4
          PSA_THREADS=1 PSA_CKPT_DIR="$CKPT_TMP")
env "${CKPT_ENV[@]}" PSA_BENCH_JSON_DIR="$COLD_TMP" \
  cargo bench -q -p psa-bench --bench fig08_spp_variants > /dev/null
env "${CKPT_ENV[@]}" PSA_BENCH_JSON_DIR="$WARM_TMP" \
  cargo bench -q -p psa-bench --bench fig08_spp_variants > /dev/null
# Everything up to the executor timing block is deterministic output.
for d in "$COLD_TMP" "$WARM_TMP"; do
  sed -n '1,/"executor"/p' "$d/BENCH_fig08.json" > "$d/stable.json"
done
if ! cmp -s "$COLD_TMP/stable.json" "$WARM_TMP/stable.json"; then
  echo "checkpoint-warmed fig08 rows differ from the cold run:"
  diff "$COLD_TMP/stable.json" "$WARM_TMP/stable.json" | head -20
  exit 1
fi
grep -q '"ckpt_hits": 0' "$WARM_TMP/BENCH_fig08.json" && {
  echo "warm run restored nothing from $CKPT_TMP"; exit 1; }
ratio_ok="$(awk '
  match($0, /"batch_wall_seconds": [0-9.eE+-]+/) {
    v[++n] = substr($0, RSTART + 22, RLENGTH - 22)
  }
  END { exit !(n == 2 && v[2] > 0 && v[1] / v[2] >= 1.5) }
' "$COLD_TMP/BENCH_fig08.json" "$WARM_TMP/BENCH_fig08.json" \
  && echo yes || echo no)"
if [ "$ratio_ok" != yes ]; then
  echo "warm batch is not >=1.5x faster than cold:"
  grep '"batch_wall_seconds"' "$COLD_TMP/BENCH_fig08.json" \
                              "$WARM_TMP/BENCH_fig08.json"
  exit 1
fi
echo "rows identical, warm-up sharing >=1.5x faster"

# Observability smoke: a tiny observed fig08 run must export a valid
# Chrome trace_event document (chrome://tracing / Perfetto loadable) and
# a schema-valid bench document (see docs/OBSERVABILITY.md).
echo "== observability trace smoke (PSA_OBS=1) =="
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$CKPT_TMP" "$COLD_TMP" "$WARM_TMP" "$OBS_TMP"' EXIT
env PSA_WARMUP=2000 PSA_INSTRUCTIONS=8000 PSA_WORKLOAD_LIMIT=2 PSA_THREADS=1 \
    PSA_OBS=1 PSA_OBS_TRACE="$OBS_TMP/trace.json" PSA_BENCH_JSON_DIR="$OBS_TMP" \
  cargo bench -q -p psa-bench --bench fig08_spp_variants > /dev/null
cargo run --release --quiet --bin validate_bench -- --trace "$OBS_TMP/trace.json"
cargo run --release --quiet --bin validate_bench -- "$OBS_TMP/BENCH_fig08.json"

# Golden bit-identity gate (see docs/HIERARCHY.md): a fixed-budget fig08
# sweep must produce byte-for-byte the committed stable sections — any
# hierarchy refactor that changes timing shows up here as a diff, not as
# a silent drift. The document is schema-validated first, then compared.
# The gate runs under BOTH optimized profiles: `bench` (what the sweeps
# use) and `release` (the tier-1 binary) — the data-oriented hot path
# leans on optimizer behaviour, so each shipped codegen configuration
# must reproduce the golden bytes independently.
# After an *intentional* behaviour change, regenerate deliberately with
# PSA_UPDATE_GOLDEN=1 ./ci.sh (and review the diff in the commit).
echo "== golden bit-identity gate (fig08 stable sections) =="
GOLDEN=crates/experiments/tests/golden/fig08_stable.json
GOLD_TMP="$(mktemp -d)"
trap 'rm -rf "$CKPT_TMP" "$COLD_TMP" "$WARM_TMP" "$OBS_TMP" "$GOLD_TMP"' EXIT
for profile in bench release; do
  PDIR="$GOLD_TMP/$profile"
  mkdir -p "$PDIR"
  env PSA_WARMUP=2000 PSA_INSTRUCTIONS=8000 PSA_WORKLOAD_LIMIT=2 PSA_THREADS=1 \
      PSA_BENCH_JSON_DIR="$PDIR" \
    cargo bench -q -p psa-bench --bench fig08_spp_variants \
      --profile "$profile" > /dev/null
  cargo run --release --quiet --bin validate_bench -- "$PDIR/BENCH_fig08.json"
  sed -n '1,/"executor"/p' "$PDIR/BENCH_fig08.json" > "$PDIR/stable.json"
done
if ! cmp -s "$GOLD_TMP/bench/stable.json" "$GOLD_TMP/release/stable.json"; then
  echo "bench-profile and release-profile fig08 stable sections disagree:"
  diff "$GOLD_TMP/bench/stable.json" "$GOLD_TMP/release/stable.json" | head -20
  exit 1
fi
if [ "${PSA_UPDATE_GOLDEN:-0}" = 1 ]; then
  cp "$GOLD_TMP/bench/stable.json" "$GOLDEN"
  echo "golden file regenerated: $GOLDEN"
else
  for profile in bench release; do
    if ! cmp -s "$GOLD_TMP/$profile/stable.json" "$GOLDEN"; then
      echo "fig08 stable sections ($profile profile) drifted from $GOLDEN:"
      diff "$GOLDEN" "$GOLD_TMP/$profile/stable.json" | head -20
      echo "(intentional change? regenerate with PSA_UPDATE_GOLDEN=1 ./ci.sh)"
      exit 1
    fi
  done
  echo "stable sections bit-identical to $GOLDEN (bench + release profiles)"
fi

# The same gate for the new prefetcher families (see docs/EXPERIMENTS.md,
# Figure 16): a fixed-budget Pangloss/DSPatch sweep, schema-validated and
# compared byte-for-byte against its own committed stable sections, under
# both optimized profiles.
echo "== golden bit-identity gate (fig16 stable sections) =="
GOLDEN16=crates/experiments/tests/golden/fig16_stable.json
GOLD16_TMP="$(mktemp -d)"
trap 'rm -rf "$CKPT_TMP" "$COLD_TMP" "$WARM_TMP" "$OBS_TMP" "$GOLD_TMP" \
  "$GOLD16_TMP"' EXIT
for profile in bench release; do
  PDIR="$GOLD16_TMP/$profile"
  mkdir -p "$PDIR"
  env PSA_WARMUP=2000 PSA_INSTRUCTIONS=8000 PSA_WORKLOAD_LIMIT=2 PSA_THREADS=1 \
      PSA_BENCH_JSON_DIR="$PDIR" \
    cargo bench -q -p psa-bench --bench fig16_new_families \
      --profile "$profile" > /dev/null
  cargo run --release --quiet --bin validate_bench -- "$PDIR/BENCH_fig16.json"
  sed -n '1,/"executor"/p' "$PDIR/BENCH_fig16.json" > "$PDIR/stable.json"
done
if ! cmp -s "$GOLD16_TMP/bench/stable.json" "$GOLD16_TMP/release/stable.json"; then
  echo "bench-profile and release-profile fig16 stable sections disagree:"
  diff "$GOLD16_TMP/bench/stable.json" "$GOLD16_TMP/release/stable.json" | head -20
  exit 1
fi
if [ "${PSA_UPDATE_GOLDEN:-0}" = 1 ]; then
  cp "$GOLD16_TMP/bench/stable.json" "$GOLDEN16"
  echo "golden file regenerated: $GOLDEN16"
else
  for profile in bench release; do
    if ! cmp -s "$GOLD16_TMP/$profile/stable.json" "$GOLDEN16"; then
      echo "fig16 stable sections ($profile profile) drifted from $GOLDEN16:"
      diff "$GOLDEN16" "$GOLD16_TMP/$profile/stable.json" | head -20
      echo "(intentional change? regenerate with PSA_UPDATE_GOLDEN=1 ./ci.sh)"
      exit 1
    fi
  done
  echo "stable sections bit-identical to $GOLDEN16 (bench + release profiles)"
fi

# Trace-replay gate (see docs/TRACES.md): the committed sample trace
# must be (a) byte-identical to what `psa_trace_tool gen` deterministically
# regenerates, (b) verifiable by the full streaming walk, and (c) replay
# to byte-identical committed stable sections under BOTH optimized
# profiles — pinning the .psatrace codec and the replay semantics at once.
echo "== trace-replay gate (fixture regen + golden stable sections) =="
FIXTURE=crates/experiments/tests/golden/sample.psatrace
GOLDENTR=crates/experiments/tests/golden/trace_replay_stable.json
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$CKPT_TMP" "$COLD_TMP" "$WARM_TMP" "$OBS_TMP" "$GOLD_TMP" \
  "$GOLD16_TMP" "$TRACE_TMP"' EXIT
cargo run --release --quiet --bin psa_trace_tool -- \
  gen mcf "$TRACE_TMP/sample.psatrace" --seed 7 --instructions 12000 > /dev/null
if ! cmp -s "$TRACE_TMP/sample.psatrace" "$FIXTURE"; then
  echo "psa_trace_tool gen no longer reproduces the committed fixture $FIXTURE"
  echo "(format or generator drift; regenerate the fixture AND its goldens deliberately)"
  exit 1
fi
cargo run --release --quiet --bin psa_trace_tool -- verify "$FIXTURE" > /dev/null
for profile in bench release; do
  PDIR="$TRACE_TMP/$profile"
  mkdir -p "$PDIR"
  env PSA_WARMUP=2000 PSA_INSTRUCTIONS=8000 PSA_THREADS=1 \
      PSA_BENCH_JSON_DIR="$PDIR" \
    cargo bench -q -p psa-bench --bench trace_replay \
      --profile "$profile" > /dev/null
  cargo run --release --quiet --bin validate_bench -- "$PDIR/BENCH_trace_replay.json"
  sed -n '1,/"executor"/p' "$PDIR/BENCH_trace_replay.json" > "$PDIR/stable.json"
done
if ! cmp -s "$TRACE_TMP/bench/stable.json" "$TRACE_TMP/release/stable.json"; then
  echo "bench-profile and release-profile trace_replay stable sections disagree:"
  diff "$TRACE_TMP/bench/stable.json" "$TRACE_TMP/release/stable.json" | head -20
  exit 1
fi
if [ "${PSA_UPDATE_GOLDEN:-0}" = 1 ]; then
  cp "$TRACE_TMP/bench/stable.json" "$GOLDENTR"
  echo "golden file regenerated: $GOLDENTR"
else
  for profile in bench release; do
    if ! cmp -s "$TRACE_TMP/$profile/stable.json" "$GOLDENTR"; then
      echo "trace_replay stable sections ($profile profile) drifted from $GOLDENTR:"
      diff "$GOLDENTR" "$TRACE_TMP/$profile/stable.json" | head -20
      echo "(intentional change? regenerate with PSA_UPDATE_GOLDEN=1 ./ci.sh)"
      exit 1
    fi
  done
  echo "fixture regenerates byte-identically; replay stable sections match $GOLDENTR"
fi

# IO fault-injection gate (see docs/ROBUSTNESS.md): the same fixed-budget
# fig08 sweep, but with the checkpoint store running over a seeded
# FaultPlan that mixes all four fault kinds (torn writes, bit flips,
# ENOSPC, transient EIO). Cold pass seeds the faulted store, warm pass
# reads back through it. Both documents must schema-validate with an
# empty failures array, both stable sections must match the golden bytes
# (graceful degradation: faults cost re-work, never wrong bits), and the
# store counters must prove faults actually fired.
echo "== IO fault-injection gate (fig08 under PSA_FAULT_PLAN) =="
FAULT_TMP="$(mktemp -d)"
trap 'rm -rf "$CKPT_TMP" "$COLD_TMP" "$WARM_TMP" "$OBS_TMP" "$GOLD_TMP" \
  "$GOLD16_TMP" "$FAULT_TMP"' EXIT
mkdir -p "$FAULT_TMP/store" "$FAULT_TMP/cold" "$FAULT_TMP/warm"
FAULT_ENV=(PSA_WARMUP=2000 PSA_INSTRUCTIONS=8000 PSA_WORKLOAD_LIMIT=2
           PSA_THREADS=1 PSA_CKPT_DIR="$FAULT_TMP/store"
           PSA_FAULT_PLAN="seed=7,torn=0.05,flip=0.05,enospc=0.02,eio=0.10")
for pass in cold warm; do
  env "${FAULT_ENV[@]}" PSA_BENCH_JSON_DIR="$FAULT_TMP/$pass" \
    cargo bench -q -p psa-bench --bench fig08_spp_variants > /dev/null
  cargo run --release --quiet --bin validate_bench -- \
    "$FAULT_TMP/$pass/BENCH_fig08.json"
  sed -n '1,/"executor"/p' "$FAULT_TMP/$pass/BENCH_fig08.json" \
    > "$FAULT_TMP/$pass/stable.json"
  if ! cmp -s "$FAULT_TMP/$pass/stable.json" "$GOLDEN"; then
    echo "faulted $pass fig08 run drifted from $GOLDEN:"
    diff "$GOLDEN" "$FAULT_TMP/$pass/stable.json" | head -20
    exit 1
  fi
done
if grep -q '"injected_faults": 0' "$FAULT_TMP/cold/BENCH_fig08.json" \
   && grep -q '"injected_faults": 0' "$FAULT_TMP/warm/BENCH_fig08.json"; then
  echo "fault plan injected nothing across cold+warm passes"
  exit 1
fi
echo "rows identical under injected faults, plan verifiably active"

# Server smoke gate (see docs/SERVER.md): boot the psa_serve daemon on
# an ephemeral port, run one sweep end to end over real sockets with
# the bundled client (no curl needed), schema-validate the served
# document, scrape /metrics, prove a repeat submission dedups, then
# SIGTERM with queued work in flight — the daemon must drain and exit 0.
echo "== server smoke gate (psa_serve e2e + SIGTERM drain) =="
SERVE_TMP="$(mktemp -d)"
SERVE_PID=""
trap 'rm -rf "$CKPT_TMP" "$COLD_TMP" "$WARM_TMP" "$OBS_TMP" "$GOLD_TMP" \
  "$GOLD16_TMP" "$FAULT_TMP" "$SERVE_TMP"
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true' EXIT
target/release/psa_serve serve --addr 127.0.0.1:0 --job-delay-ms 200 \
  --port-file "$SERVE_TMP/port" > "$SERVE_TMP/log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$SERVE_TMP/port" ] && break; sleep 0.1; done
[ -s "$SERVE_TMP/port" ] || {
  echo "psa_serve never wrote its port file"; cat "$SERVE_TMP/log"; exit 1; }
BASE="http://127.0.0.1:$(cat "$SERVE_TMP/port")"
CLIENT=(target/release/psa_serve client)
"${CLIENT[@]}" GET "$BASE/healthz" > "$SERVE_TMP/health"
grep -q '"ok"' "$SERVE_TMP/health"
SPEC='{"figure": "fig08", "workloads": ["lbm"],
       "variants": ["SPP", "no-prefetch"], "seed": 9,
       "warmup": 2000, "instructions": 8000}'
"${CLIENT[@]}" POST "$BASE/jobs" --body "$SPEC" > "$SERVE_TMP/submit"
JOB="$(grep -o '"id": "[^"]*"' "$SERVE_TMP/submit" | head -1 | cut -d'"' -f4)"
[ -n "$JOB" ] || { echo "job submission failed:"; cat "$SERVE_TMP/submit"; exit 1; }
for _ in $(seq 1 600); do
  "${CLIENT[@]}" GET "$BASE/jobs/$JOB" > "$SERVE_TMP/status"
  grep -q '"state": "done"' "$SERVE_TMP/status" && break
  grep -q '"state": "failed"' "$SERVE_TMP/status" && {
    echo "served job failed:"; cat "$SERVE_TMP/status"; exit 1; }
  sleep 0.1
done
grep -q '"state": "done"' "$SERVE_TMP/status" || {
  echo "served job never finished:"; cat "$SERVE_TMP/status"; exit 1; }
"${CLIENT[@]}" GET "$BASE/results/$JOB" > "$SERVE_TMP/BENCH_served.json"
cargo run --release --quiet --bin validate_bench -- "$SERVE_TMP/BENCH_served.json"
"${CLIENT[@]}" GET "$BASE/metrics" > "$SERVE_TMP/metrics"
grep -q '^psa_serve_jobs_completed_total 1$' "$SERVE_TMP/metrics"
grep -q '^# TYPE psa_executor_simulated_runs_total counter$' "$SERVE_TMP/metrics"
grep -q '^# TYPE psa_store_hits_total counter$' "$SERVE_TMP/metrics"
# An identical resubmission must join the finished job, not re-run it.
"${CLIENT[@]}" POST "$BASE/jobs" --body "$SPEC" > "$SERVE_TMP/resubmit"
grep -q '"deduped": true' "$SERVE_TMP/resubmit"
# Queue one more sweep and SIGTERM while it is in flight: the daemon
# must drain it ("draining N jobs" ... "shutdown complete") and exit 0.
SPEC2='{"figure": "fig08", "workloads": ["lbm"],
        "variants": ["SPP", "no-prefetch"], "seed": 10,
        "warmup": 2000, "instructions": 8000}'
"${CLIENT[@]}" POST "$BASE/jobs" --body "$SPEC2" > /dev/null
kill -TERM "$SERVE_PID"
SERVE_RC=0; wait "$SERVE_PID" || SERVE_RC=$?
SERVE_PID=""
[ "$SERVE_RC" = 0 ] || {
  echo "psa_serve exited $SERVE_RC:"; cat "$SERVE_TMP/log"; exit 1; }
grep -q 'draining' "$SERVE_TMP/log" || {
  echo "daemon never reported draining:"; cat "$SERVE_TMP/log"; exit 1; }
grep -q 'shutdown complete' "$SERVE_TMP/log" || {
  echo "daemon never reported shutdown:"; cat "$SERVE_TMP/log"; exit 1; }
echo "served document validated, dedup live, metrics scraped, drain clean"

echo "ci.sh: all green"
