#!/usr/bin/env bash
# The whole correctness gate in one command:
#
#   tools/ci.sh            # lint + tier-1 + ASan/UBSan (+ TSan stress)
#   tools/ci.sh --fast     # lint + tier-1 only
#
# Stages:
#   1. tools/lint.py repo rules + tools/test_lint.py rule unit tests
#      (+ clang-tidy when installed; with CI=1 a missing clang-tidy is a
#      hard failure instead of a skip)
#   2. tier-1: Release build + full ctest suite      (preset: release)
#   3. bench-smoke: one bench run + BENCH_*.json schema validation
#   4. perf-smoke: bench_micro_conv engine comparison; the batch-parallel
#      conv engine must not be slower than the serial batch walk, the
#      implicit-GEMM forward and backward must each hold ≥ 0.95× of the
#      materialized im2col lowering (tests/im2col_oracle.*) on every
#      bench shape, the fused conv→BN→ReLU epilogue must beat the
#      unfused chain, the ReLU kernels must be branchless (random-sign
#      input no slower than 1.5x all-positive), the fused BN→ReLU
#      sweep no slower than the two-layer walk in FP32 and FP16
#      (DESIGN §15) and the binary16 round trip branchless (ReLU output
#      no slower than 1.5x all-normal input, DESIGN §17);
#      bench_micro_gemm's GFLOP/s report is schema-checked
#   5. alloc-smoke: bench_alloc_census per-phase allocation ratchet,
#      pooled (tools/alloc_budget.json, all budgets 0) and with
#      EXACLIM_POOL=off (tools/alloc_budget_pool_off.json) — DESIGN §11/§12
#   5b. overlap-smoke (bench): bench_overlap under a deterministic wire
#      latency — overlapped step must beat serialized, FP16 wire must
#      halve the bytes, exchange allocation ratchet
#      (tools/alloc_budget_exchange.json) — DESIGN §14
#   6. ASan+UBSan: Debug build + full ctest suite    (preset: asan)
#   7. TSan: Debug build + `stress`-labelled tests   (preset: tsan)
#   8. fault-smoke: fault suite re-run under TSan with a fixed
#      EXACLIM_FAULTS spec (env-driven injection path, DESIGN §8)
#   9. chaos-smoke: elastic chaos soak (ring and hybrid) and the
#      collective kill matrix under TSan via EXACLIM_FAULTS
#   10. overlap-smoke (TSan): exchange-thread-vs-backward suites re-run
#      under TSan, incl. the chaos kill on the exchange thread
#      (stages 8-10 fail when their gtest filter selects no test)
#   11. perfbench-selftest: the end-to-end benchmark builds against the
#      library and every workload emits every metric (perfbench/)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc)}
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

run() {
  echo
  echo "==> $*"
  "$@"
}

# Fails unless `filter` selects at least one test of gtest binary `bin`.
# A filter that matches nothing makes gtest exit 0 with zero tests run
# (this gtest has no --gtest_fail_if_no_test_selected), so a renamed
# suite would otherwise turn a stage into a silent no-op.
require_tests() {
  local bin=$1 filter=$2 n
  n=$("$bin" --gtest_filter="$filter" --gtest_list_tests |
        grep -c '^  ' || true)
  echo
  echo "==> $bin --gtest_filter='$filter' selects $n test(s)"
  if [[ "$n" -eq 0 ]]; then
    echo "gtest filter '$filter' selects no test in $bin" >&2
    exit 1
  fi
}

# ---- 1. lint -------------------------------------------------------------
run python3 tools/lint.py
run python3 tools/test_lint.py
if command -v clang-tidy > /dev/null 2>&1; then
  run cmake --preset release
  run cmake --build --preset release --target tidy
elif [[ "${CI:-0}" == 1 ]]; then
  # On a real CI runner a missing clang-tidy means the tidy gate silently
  # never ran — fail loudly there; locally a skip keeps ci.sh usable on
  # machines without the LLVM toolchain.
  echo "CI=1 but clang-tidy is not installed; the tidy gate cannot run" >&2
  exit 1
else
  echo "clang-tidy not installed; skipping the tidy stage"
fi

# ---- 2. tier-1 -----------------------------------------------------------
run cmake --preset release
run cmake --build --preset release -j "$JOBS"
run ctest --preset release -j "$JOBS"

# ---- 3. bench-smoke ------------------------------------------------------
# One representative bench must run, emit its BENCH_<name>.json next to
# the build tree, and pass the exaclim-bench-v1 schema check.
BENCH_DIR=$(mktemp -d)
run env EXACLIM_BENCH_DIR="$BENCH_DIR" ./build/bench/bench_input_pipeline
run python3 tools/check_bench_json.py "$BENCH_DIR"/BENCH_*.json
# Structural: a Piz Daint MakeBatch paints 5 of the 16 channels (its 4
# plus the labeler's T200) and only advances the stream through the
# other 11 (DESIGN §16), so it must cost well under a full GetSample
# (~0.4-0.5 measured; painting all 16 reads about 1.0).
run python3 tools/check_bench_json.py "$BENCH_DIR"/BENCH_input_pipeline.json \
  --assert-le make_batch_ms_per_sample get_sample_ms_per_sample 0.75

# ---- 4. perf-smoke -------------------------------------------------------
# The engine comparison in bench_micro_conv (gbench cases skipped) times
# fwd+bwd in both conv-engine modes. Batch-parallel must be no slower
# than serial; the 1.15x tolerance absorbs timer noise on low-core
# machines where both modes collapse to the same schedule.
run env EXACLIM_BENCH_DIR="$BENCH_DIR" \
  ./build/bench/bench_micro_conv --benchmark_filter='-.*'
run python3 tools/check_bench_json.py "$BENCH_DIR"/BENCH_micro_conv.json \
  --assert-le fwd_bwd_parallel_b4_ms fwd_bwd_serial_b4_ms 1.15 \
  --assert-le fwd_bwd_parallel_b8_ms fwd_bwd_serial_b8_ms 1.15
# Implicit-GEMM packing (DESIGN §15) must hold ≥ 0.95× of the
# materialized im2col lowering on every bench shape, forward and
# backward (time gate: implicit <= im2col × 1/0.95; the im2col rows time
# the relocated oracle, tests/im2col_oracle.*), and the fused
# conv→BN→ReLU epilogue must never regress the unfused
# three-pass chain. Quiet-machine fused speedups are ≥ 1.7×, but CPU
# contention compresses the ratio (both paths time-slice the same
# cores and the eliminated passes are exactly the hideable memory-bound
# work), so the tile gate is no-regression (1.0) and only the pointwise
# shape — whose fold eliminates over half the work even fully loaded —
# carries the sharper 0.9 win gate.
run python3 tools/check_bench_json.py "$BENCH_DIR"/BENCH_micro_conv.json \
  --assert-le conv_implicit_b4_ms conv_im2col_b4_ms 1.0527 \
  --assert-le conv_implicit_atrous_ms conv_im2col_atrous_ms 1.0527 \
  --assert-le conv_implicit_stride2_ms conv_im2col_stride2_ms 1.0527 \
  --assert-le conv_bwd_implicit_b4_ms conv_bwd_im2col_b4_ms 1.0527 \
  --assert-le conv_bwd_implicit_atrous_ms conv_bwd_im2col_atrous_ms 1.0527 \
  --assert-le conv_bwd_implicit_stride2_ms conv_bwd_im2col_stride2_ms 1.0527 \
  --assert-le conv_fused_tile_eval_ms conv_unfused_tile_eval_ms 1.0 \
  --assert-le conv_fused_pointwise_eval_ms conv_unfused_pointwise_eval_ms 0.9
# The pre-activation path of a Tiramisu unit. A branch on an activation's
# sign mispredicts about half the time on random-sign input and never on
# all-positive input of the same shape, so the ratio is ~1.0 for
# branchless ReLU kernels and 2.5-6x for branchy ones on any host. The
# fused BatchNorm2d→ReLU sweep skips a whole read+write pass, so it must
# never lose to the two-layer walk.
run python3 tools/check_bench_json.py "$BENCH_DIR"/BENCH_micro_conv.json \
  --assert-le relu_random_sign_ms relu_all_positive_ms 1.5 \
  --assert-le bn_relu_fused_ms bn_relu_unfused_ms 1.0 \
  --assert-le bn_relu_fp16_fused_ms bn_relu_fp16_unfused_ms 1.0
# The binary16 conversion (DESIGN §17), same form as the ReLU gate: a
# conversion that branches on the magnitude mispredicts on ReLU output
# (about half +0) and never on all-normal input of the same size, so
# the ratio is ~1.0 for the branch-free one and ~3 for a branchy one.
run python3 tools/check_bench_json.py "$BENCH_DIR"/BENCH_micro_conv.json \
  --assert-le half_roundtrip_relu_output_ms half_roundtrip_normal_ms 1.5
# bench_micro_gemm's per-shape GFLOP/s table (the GEMM peak the
# per-layer breakdown is measured against) must produce a valid report.
run env EXACLIM_BENCH_DIR="$BENCH_DIR" \
  ./build/bench/bench_micro_gemm --benchmark_filter='-.*'
run python3 tools/check_bench_json.py "$BENCH_DIR"/BENCH_micro_gemm.json

# ---- 5. alloc-smoke ------------------------------------------------------
# Per-phase allocation census of a warmed-up training step, run in both
# arena configurations and ratcheted against the matching checked-in
# budget. Pooled (the default): every phase budget is 0 — a warmed-up
# step must not touch the heap at all (DESIGN §12). EXACLIM_POOL=off
# (the escape hatch): exact-size heap tensors, ratcheted by
# tools/alloc_budget_pool_off.json so the bisection path stays healthy.
# The census json is overwritten between runs, so check pooled first.
run env EXACLIM_BENCH_DIR="$BENCH_DIR" ./build/bench/bench_alloc_census
run python3 tools/check_bench_json.py "$BENCH_DIR"/BENCH_alloc_census.json
run python3 tools/check_alloc_budget.py "$BENCH_DIR"/BENCH_alloc_census.json
run env EXACLIM_BENCH_DIR="$BENCH_DIR" EXACLIM_POOL=off \
  ./build/bench/bench_alloc_census
run python3 tools/check_alloc_budget.py "$BENCH_DIR"/BENCH_alloc_census.json \
  tools/alloc_budget_pool_off.json

# ---- 5b. overlap-smoke (bench half) --------------------------------------
# The exchange engine (DESIGN §14) fed as backward closes each bucket
# must beat the same engine fed only after backward. bench_overlap times
# both under a deterministic 5 ms per-message wire latency (the
# comm.delay fault site), so the win is structural rather than scheduler
# luck — sleep latency is hideable behind backward on any core count,
# and CPU load only grows the hiding window. The bench itself fails
# unless both modes send the same messages and bytes and end with the
# same parameters. Gates: the overlapped step must be no slower than
# the serialized step (the headline), its exposed WaitAll tail must stay
# well under the whole exchange the serialized step runs after backward
# (the sharp structural gate), the packed FP16 wire
# must actually halve the bytes on the wire, and the exchange path must
# stay within its steady-state allocation ratchet
# (tools/alloc_budget_exchange.json). The TSan half of overlap-smoke is
# stage 10 below.
run env EXACLIM_BENCH_DIR="$BENCH_DIR" ./build/bench/bench_overlap
run python3 tools/check_bench_json.py "$BENCH_DIR"/BENCH_overlap.json \
  --assert-le step_overlap_s step_serialized_s 1.0 \
  --assert-le exchange_exposed_overlap_s exchange_exposed_serialized_s 0.9 \
  --assert-le exchange_bytes_fp16 exchange_bytes_fp32 0.51
run python3 tools/check_alloc_budget.py "$BENCH_DIR"/BENCH_overlap.json \
  tools/alloc_budget_exchange.json
rm -rf "$BENCH_DIR"

if [[ "$FAST" == 1 ]]; then
  echo
  echo "ci.sh --fast: lint + tier-1 + bench-smoke + perf-smoke + alloc-smoke + overlap-smoke(bench) OK"
  exit 0
fi

# ---- 6. ASan + UBSan -----------------------------------------------------
run cmake --preset asan
run cmake --build --preset asan -j "$JOBS"
run env ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ctest --preset asan -j "$JOBS"

# ---- 7. TSan (stress-labelled tests) -------------------------------------
run cmake --preset tsan
run cmake --build --preset tsan -j "$JOBS"
run env TSAN_OPTIONS=halt_on_error=1 ctest --preset tsan -j "$JOBS"

# ---- 8. fault-smoke ------------------------------------------------------
# Exercise the EXACLIM_FAULTS env path end to end under TSan: a rank
# killed at launch (staging degrades around it) plus deterministic
# producer faults (pipeline retries/skips). FaultSmoke asserts correct
# staged bytes and nonzero fault.* counters under exactly this spec.
require_tests ./build-tsan/tests/test_fault 'FaultSmoke.*'
run env TSAN_OPTIONS=halt_on_error=1 \
  EXACLIM_FAULTS="comm.kill.1:1:7,pipeline.produce:1:11:4" \
  ./build-tsan/tests/test_fault --gtest_filter='FaultSmoke.*'

# ---- 9. chaos-smoke ------------------------------------------------------
# Elastic-training chaos soak under TSan through the EXACLIM_FAULTS env
# path (DESIGN §13), once over the ring and once over the hybrid at 2
# ranks per node: rank 4 dies at its step-3 entry, rank 1 dies
# mid-exchange at step 4; the survivors must rebuild to generation 2,
# resync weights, finish all steps with bit-identical replicas (over the
# hybrid on the ragged nodes {0}, {2, 3}, {5}), and the whole recovery
# machinery must be race-free. The collective kill matrix rides along
# (it arms no fault): bounded collectives under rank death, including
# the hybrid over a shrunk view, whose liveness scan covers the view and
# ignores dead ex-members.
require_tests ./build-tsan/tests/test_elastic \
  '*ChaosSmoke.*:CollectiveKillMatrix.*'
run env TSAN_OPTIONS=halt_on_error=1 \
  EXACLIM_FAULTS="elastic.kill.4:1:7:1:0:3,elastic.exchange.kill.1:1:9:1:0:4" \
  ./build-tsan/tests/test_elastic \
  --gtest_filter='*ChaosSmoke.*:CollectiveKillMatrix.*'

# ---- 10. overlap-smoke (TSan half) ---------------------------------------
# The exchange engine runs gradient reduction on a dedicated exchange
# thread while the trainer thread still emits grad-ready notifications
# (DESIGN §14) — exactly the pairing TSan exists for. Re-run the
# streamed-vs-blocking, run-to-run bit-identity and chaos overlap suites
# under TSan, including the chaos schedule where rank 1's kill fires on
# the exchange thread and the RankKilledError must propagate through
# WaitAll to the trainer thread. The bucket-plan suites ride along: a
# step that reuses the plan reduces at once on the exchange thread.
require_tests ./build-tsan/tests/test_overlap \
  'Overlap*:AllTransports/*:BucketTagLayout.*:*ExchangePlan.*'
run env TSAN_OPTIONS=halt_on_error=1 \
  ./build-tsan/tests/test_overlap \
  --gtest_filter='Overlap*:AllTransports/*:BucketTagLayout.*:*ExchangePlan.*'

# ---- 11. perfbench-selftest ----------------------------------------------
# perfbench/ compiles its own Release build of the library and drives the
# public model/trainer API (Layer::SetPrecision, Layer::StateTensors, ...),
# so an API change that breaks it must fail here rather than only when the
# benchmark next runs. The selftest runs every BENCHMARK.json workload on
# a smoke configuration and checks metric coverage, trace bit-identity
# and failure accounting (~1.5 min).
run python3 perfbench/selftest.py

echo
echo "ci.sh: all gates green (lint, tier-1, bench-smoke, perf-smoke, alloc-smoke, overlap-smoke, asan+ubsan, tsan-stress, fault-smoke, chaos-smoke, perfbench-selftest)"
