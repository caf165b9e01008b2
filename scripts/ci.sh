#!/usr/bin/env bash
# CI entry point and the one definition of every CI stage: the GitHub
# workflow calls these stages instead of repeating their shell.
#
# Usage: scripts/ci.sh [jobs] [stage...]
#
# Runs the named stages in order, or all of them (default asan-ubsan bench
# campaign soak stream megacity) when none is named. Stages:
#
#   default, asan-ubsan  configure + build + ctest under that preset. The
#                        sanitizer pass matters because the discrete-event
#                        core is all callbacks and shared_ptr payload
#                        fan-out, exactly the code ASan/UBSan are good at.
#   build                configure + build the default preset, no tests (for
#                        a job that only needs the binaries).
#   bench                one small run per bench family, each writing a
#                        BENCH_<name>.json validated against the schema; the
#                        micro, e2e (allocation) and megacity baseline gates;
#                        megacity partition invariance; a traced example fed
#                        through trace_report. Writes build/bench-out/.
#   campaign             campaign engine run + resume byte-identity.
#   soak                 time-boxed chaos soak + its negative control.
#   stream               stream soak checkpoint/kill/resume byte-identity,
#                        trace replay gate, 10-sim-minute flood.
#   megacity             megacity checkpoint/kill/resume byte-identity +
#                        chaos kills.
#
# The soak stages write build/soak-out/ (logs with replay seeds).
# Every stage after `default`/`build` expects the default build to exist.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="${1:-$(nproc)}"
if [ $# -gt 0 ]; then shift; fi
stages=("$@")
if [ ${#stages[@]} -eq 0 ]; then
  stages=(default asan-ubsan bench campaign soak stream megacity)
fi

bench_out="build/bench-out"
soak_out="build/soak-out"

stage_preset() {
  local preset="$1"
  echo "==== [$preset] configure ===="
  cmake --preset "$preset"
  echo "==== [$preset] build ===="
  cmake --build --preset "$preset" -j "$jobs"
  echo "==== [$preset] test ===="
  ctest --preset "$preset" -j "$jobs"
}

stage_build() {
  echo "==== [default] configure + build ===="
  cmake --preset default
  cmake --build --preset default -j "$jobs"
}

stage_bench() {
  echo "==== bench smoke ===="
  rm -rf "$bench_out" && mkdir -p "$bench_out"
  export BLACKDP_BENCH_OUT="$PWD/$bench_out"
  (
    cd build
    ./bench/table1_scenario
    ./bench/fig4_detection 2 --jobs "$jobs"
    ./bench/fig5_packets --jobs "$jobs"
    ./bench/ablation_baselines 5 --jobs "$jobs"
    ./bench/ablation_pdr 2 --jobs "$jobs"
    ./bench/ablation_watchdog 2 --jobs "$jobs"
    ./bench/ablation_fog --jobs "$jobs"
    ./bench/ablation_faults 2 --jobs "$jobs"
    ./bench/ablation_adversarial 3 --jobs "$jobs"
    ./bench/urban_detection 2 --jobs "$jobs"
    ./bench/sensitivity_sweep 3 --jobs "$jobs"
    ./bench/ablation_overhead --benchmark_min_time=0.01
    ./bench/micro_substrates --benchmark_min_time=0.01
    ./bench/e2e_throughput --jobs "$jobs"
    ./bench/megacity --segments 8 --vehicles 800 --epochs 6 --jobs "$jobs" \
      --surfaces-out-a "$BLACKDP_BENCH_OUT"/megacity.shards1.txt \
      --surfaces-out-b "$BLACKDP_BENCH_OUT"/megacity.shards4.txt
    ./examples/cooperative_blackhole 7 \
      --trace "$BLACKDP_BENCH_OUT"/coop_trace.jsonl
    ./tools/trace_report "$BLACKDP_BENCH_OUT"/coop_trace.jsonl
  ) | tee "$bench_out/bench-smoke.log"
  python3 scripts/validate_bench_json.py "$bench_out"/BENCH_*.json
  python3 scripts/bench_compare.py \
    bench/baselines/BENCH_micro_substrates.json \
    "$bench_out"/BENCH_micro_substrates.json

  echo "==== perf smoke (e2e throughput + allocation gate) ===="
  # The e2e bench links the counting operator new/delete; bench_compare
  # holds both frames_per_second (generous, wall-clock noise) and
  # allocations_per_frame (tight: the zero-allocation steady state is a
  # correctness property of the arena/dense-id design, not a speed number).
  python3 scripts/bench_compare.py \
    bench/baselines/BENCH_e2e_throughput.json \
    "$bench_out"/BENCH_e2e_throughput.json

  echo "==== megacity smoke (sharded corridor, shards=1 vs shards=4) ===="
  # The partition-invariance gate: both runs of the tiny corridor above
  # dumped their deterministic surfaces (metrics JSON + canonical
  # per-segment log); they must be byte-identical, or region partitioning
  # has become observable.
  cmp "$bench_out"/megacity.shards1.txt "$bench_out"/megacity.shards4.txt
  python3 scripts/bench_compare.py \
    bench/baselines/BENCH_megacity.json \
    "$bench_out"/BENCH_megacity.json
  # The committed baseline must demonstrate the point of the sharding: the
  # partitioned run strictly outruns the monolith on the baseline machine,
  # and running its shards on several threads beats running them on one.
  python3 - <<'PY'
import json
side = json.load(open("bench/baselines/BENCH_megacity.json"))["sharding"]
assert side["identical"] is True, "baseline surfaces were not identical"
assert side["speedup"] > 1.0, f"baseline speedup {side['speedup']} <= 1.0"
assert side["parallel_speedup"] > 1.0, \
    f"baseline parallel_speedup {side['parallel_speedup']} <= 1.0"
print(f"baseline: speedup {side['speedup']:.2f} "
      f"(algorithmic {side['algorithmic_speedup']:.2f} x "
      f"parallel {side['parallel_speedup']:.2f}), "
      f"balance {side['balance_ratio']:.3f} — OK")
PY
}

stage_campaign() {
  echo "==== campaign smoke ===="
  # Exercise the campaign engine end to end: run the tiny built-in spec with
  # a pinned sidecar, validate the manifest + bench JSON, then truncate the
  # manifest mid-campaign and check --resume reproduces the exact same
  # bytes.
  local campdir="$bench_out/campaign"
  rm -rf "$campdir" && mkdir -p "$campdir"
  build/tools/campaign_run smoke --jobs 2 --out "$campdir" --pin-sidecar
  python3 scripts/validate_bench_json.py \
    "$campdir"/smoke.manifest.jsonl "$campdir"/BENCH_smoke.json
  cp "$campdir"/smoke.manifest.jsonl "$campdir"/smoke.full.jsonl
  head -n 3 "$campdir"/smoke.manifest.jsonl > "$campdir"/smoke.tmp.jsonl
  mv "$campdir"/smoke.tmp.jsonl "$campdir"/smoke.manifest.jsonl
  cp "$campdir"/BENCH_smoke.json "$campdir"/BENCH_smoke.full.json
  build/tools/campaign_run smoke --jobs 1 --out "$campdir" --pin-sidecar \
    --resume
  cmp "$campdir"/smoke.manifest.jsonl "$campdir"/smoke.full.jsonl
  cmp "$campdir"/BENCH_smoke.json "$campdir"/BENCH_smoke.full.json
  rm "$campdir"/smoke.full.jsonl "$campdir"/BENCH_smoke.full.json
}

stage_soak() {
  echo "==== soak smoke ===="
  # Time-boxed chaos soak: randomized adversarial trials, every invariant
  # must hold. On failure soak_run prints one replay line per violation
  # (soak_run --seed S --trial K); the log is kept for upload as an
  # artifact.
  mkdir -p "$soak_out"
  build/tools/soak_run --seconds 30 --jobs "$jobs" --seed 1 \
    | tee "$soak_out/soak-smoke.log"
  # Negative control: an injected honest-isolation violation must be
  # caught, reported with a replay seed, and fail the run.
  if build/tools/soak_run --trials 1 --seed 1 --inject-violation \
      > "$soak_out/soak-inject.log"; then
    echo "soak_run --inject-violation did NOT fail — harness is blind" >&2
    exit 1
  fi
  grep -q "replay: soak_run --seed" "$soak_out/soak-inject.log"
}

stage_stream() {
  echo "==== stream soak (checkpoint / kill / resume) ===="
  # Detector-as-a-service crash consistency. An uninterrupted checkpointed
  # run and a run killed between checkpoints then resumed must converge:
  # identical metrics JSON, identical recorded d_req trace and a
  # byte-identical final checkpoint. The recorded trace replayed through
  # replay_serve must reproduce the recorded verdict hash, and
  # validate_bench_json.py audits the checkpoint manifest (size + CRC-32 +
  # envelope header per entry).
  local streamdir="$soak_out/stream"
  rm -rf "$streamdir" && mkdir -p "$streamdir"
  build/tools/soak_run --stream --epochs 40 --stream-seed 4242 \
    --checkpoint-every 10 --checkpoint-dir "$streamdir/full" \
    --trace "$streamdir/trace.jsonl" --json "$streamdir/metrics.full.json" \
    --quiet
  python3 scripts/validate_bench_json.py "$streamdir/full/manifest.jsonl"
  # Kill after epoch 25 — between the epoch-20 and epoch-30 checkpoints —
  # then resume; the resumed run restarts from epoch 20 and must catch up
  # exactly, without recording epochs 20..24 twice in its trace.
  build/tools/soak_run --stream --epochs 40 --stream-seed 4242 \
    --checkpoint-every 10 --checkpoint-dir "$streamdir/cut" \
    --trace "$streamdir/trace.resumed.jsonl" --stop-after 25 --quiet
  build/tools/soak_run --stream --epochs 40 --stream-seed 4242 \
    --checkpoint-every 10 --checkpoint-dir "$streamdir/cut" \
    --trace "$streamdir/trace.resumed.jsonl" --resume \
    --json "$streamdir/metrics.resumed.json" --quiet
  python3 scripts/validate_bench_json.py "$streamdir/cut/manifest.jsonl"
  cmp "$streamdir/metrics.full.json" "$streamdir/metrics.resumed.json"
  cmp "$streamdir/full/ckpt-000040.bdpc" "$streamdir/cut/ckpt-000040.bdpc"
  cmp "$streamdir/trace.jsonl" "$streamdir/trace.resumed.jsonl"
  # Replay the recorded trace; the verdict timeline must hash to the same
  # value the recording run reported.
  local expected_hash
  expected_hash=$(python3 -c "import json, sys
print(json.load(open(sys.argv[1]))['verdict_hash'])" \
    "$streamdir/metrics.full.json")
  build/tools/replay_serve --trace "$streamdir/trace.jsonl" \
    --stream-seed 4242 --expect-hash "$expected_hash" \
    | tee "$streamdir/replay.log"
  # Flood leg: 600 one-second epochs (10 sim-minutes) of continuous d_req
  # ingest; the memory watermark must hold with zero table-growth
  # violations.
  build/tools/soak_run --stream --epochs 600 --stream-seed 7 --quiet \
    --json "$streamdir/metrics.flood.json" \
    | tee "$soak_out/stream-flood.log"
}

stage_megacity() {
  echo "==== megacity kill/resume smoke (sharded checkpoint crash consistency) ===="
  # The fault-tolerance gate for the sharded corridor: an 8-segment run
  # killed mid-run (between checkpoints) and resumed from its last complete
  # BDPC checkpoint must reproduce the uninterrupted run's deterministic
  # surfaces (metrics JSON + canonical log, dumped into one file per run)
  # AND its final checkpoint, byte for byte. The chaos leg repeats the
  # cycle at hashed kill epochs. megacity/replay.txt records the
  # deterministic replay recipe and is uploaded with the soak artifacts on
  # failure.
  local megadir="$soak_out/megacity"
  rm -rf "$megadir" && mkdir -p "$megadir"
  local mega_args=(--megacity --segments 8 --vehicles 800 --shards 4
                   --epochs 6 --megacity-seed 4242 --checkpoint-every 2
                   --jobs "$jobs" --quiet)
  echo "replay: soak_run --megacity --megacity-seed 4242 --segments 8 \
--vehicles 800 --shards 4 --epochs 6 --checkpoint-every 2" \
    > "$megadir/replay.txt"
  build/tools/soak_run "${mega_args[@]}" --checkpoint-dir "$megadir/full" \
    --surfaces-out "$megadir/surfaces.full.txt"
  python3 scripts/validate_bench_json.py "$megadir/full/manifest.jsonl"
  # Kill after epoch 3 — between the epoch-2 and epoch-4 checkpoints — then
  # resume; the resumed run restarts from epoch 2 and must catch up exactly.
  build/tools/soak_run "${mega_args[@]}" --checkpoint-dir "$megadir/cut" \
    --stop-after 3
  build/tools/soak_run "${mega_args[@]}" --checkpoint-dir "$megadir/cut" \
    --resume --surfaces-out "$megadir/surfaces.resumed.txt"
  python3 scripts/validate_bench_json.py "$megadir/cut/manifest.jsonl"
  cmp "$megadir/surfaces.full.txt" "$megadir/surfaces.resumed.txt"
  cmp "$megadir/full/ckpt-000006.bdpc" "$megadir/cut/ckpt-000006.bdpc"
  # Chaos leg: scripted kill/resume cycles at hashed epochs, each
  # byte-compared against an uninterrupted reference run in-process.
  build/tools/soak_run "${mega_args[@]}" --checkpoint-dir "$megadir/chaos" \
    --chaos-kills 3 | tee "$soak_out/megacity-chaos.log"
}

for stage in "${stages[@]}"; do
  case "$stage" in
    default|asan-ubsan|build|bench|campaign|soak|stream|megacity) ;;
    *) echo "unknown stage: $stage" >&2; exit 2 ;;
  esac
done
for stage in "${stages[@]}"; do
  case "$stage" in
    default|asan-ubsan) stage_preset "$stage" ;;
    *) "stage_$stage" ;;
  esac
done

echo "CI: stages green: ${stages[*]}."
