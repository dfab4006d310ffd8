#!/bin/sh
# Tier-2 verification driver (see ROADMAP.md and docs/verify.md):
#
#   1. configure + build with AddressSanitizer and UBSan;
#   2. run the full test suite under the sanitizers;
#   3. run sns_lint over the bundled example designs and datasets
#      (must be clean) and the corrupted fixtures (must fail);
#   4. quantized tier (docs/quantization.md): re-run the quantized
#      test suites at every SNS_SIMD rung (0 scalar, 1 AVX2, 2 VNNI)
#      under the sanitizers, check an int8 CLI predict is bitwise
#      stable across rungs, lint a freshly calibrated plan_int8.snsp
#      (must be clean) and the corrupted-scales fixture (must fail);
#   5. run tools/run_docs_check.sh (dead markdown links, documented
#      CLI flags missing from --help);
#   6. build with ThreadSanitizer and run the parallel-runtime-heavy
#      suites (test_par, test_perf, test_tensor, test_core, test_obs,
#      test_serve, test_cluster, test_dist — the batching queue, the
#      metrics registry, the router's concurrent handler/health
#      threads, and the training ring's per-rank threads exchanging
#      frames over the duplex allreduce path are the most race-prone
#      code in the repo) under TSan. The cluster suite includes
#      concurrent routed sessions with a mid-traffic DRAIN/RESUME
#      cycle, gating that no admitted request is dropped; the dist
#      suite runs full multi-rank training loops over localRing().
#
# Usage: tools/run_lint.sh [BUILD_DIR]   (default: build-lint;
#        the TSan build lands in BUILD_DIR-tsan)
set -e

REPO="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$REPO/build-lint}"
TSAN_BUILD="$BUILD-tsan"

echo "== sanitizer build ($BUILD) =="
cmake -B "$BUILD" -S "$REPO" -DSNS_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD" -j

echo "== ctest under ASan+UBSan =="
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"

LINT="$BUILD/tools/sns_lint"

echo "== sns_lint: bundled examples must be clean =="
"$LINT" --self-check "$REPO"/examples/designs/*

echo "== sns_lint: corrupted fixtures must fail =="
if "$LINT" "$REPO"/tests/fixtures/*.snl "$REPO"/tests/fixtures/*.paths \
        "$REPO"/tests/fixtures/*.ckpt "$REPO"/tests/fixtures/*.snsp; then
    echo "sns_lint failed to reject the corrupted fixtures" >&2
    exit 1
fi

echo "== execution plan: trace, lint, planned-vs-walk bitwise =="
CLI="$BUILD/tools/sns-cli"
PLAN_WORK="$(mktemp -d)"
trap 'rm -rf "$PLAN_WORK"' EXIT
"$CLI" train --out="$PLAN_WORK/model" --dataset=smoke --fast --seed=7
# A freshly traced + saved plan lints clean and carries the
# zero-allocation proof note.
"$LINT" "$PLAN_WORK/model/plan.snsp"
"$LINT" --notes "$PLAN_WORK/model/plan.snsp" \
    | grep -q "zero per-batch heap allocations"
"$CLI" plan --model="$PLAN_WORK/model" > /dev/null
# The planned hot path and the module walk must agree byte for byte
# under the sanitizers (the kill switch selects the walk).
cat > "$PLAN_WORK/fir.snl" <<'EOF'
design fir2
input  x 16
node   p0 mul 32 x c0
node   p1 mul 32 x c1
reg    c0 16
reg    c1 16
reg    z0 32 p0
node   s1 add 32 p1 z0
reg    z1 32 s1
output y  32 z1
EOF
SNS_PLAN=1 "$CLI" predict --model="$PLAN_WORK/model" "$PLAN_WORK/fir.snl" \
    | grep -v "predicted in" > "$PLAN_WORK/planned.out"
SNS_PLAN=0 "$CLI" predict --model="$PLAN_WORK/model" "$PLAN_WORK/fir.snl" \
    | grep -v "predicted in" > "$PLAN_WORK/walk.out"
diff "$PLAN_WORK/planned.out" "$PLAN_WORK/walk.out"

echo "== quantized tier: SNS_SIMD ladder sweep under ASan+UBSan =="
# The int8 kernels promise identical bits at every dispatch rung
# (docs/quantization.md); run the quantized suites at each rung so the
# promise is sanitizer-checked on the scalar, AVX2, and (when the CPU
# allows) VNNI paths alike. PredictBatch* holds the per-design oracle
# test of predictBatch at fp64 and int8.
for level in 0 1 2; do
    echo "-- SNS_SIMD=$level --"
    SNS_SIMD=$level "$BUILD/tests/test_tensor" \
        --gtest_filter='Qgemm.*' > /dev/null
    SNS_SIMD=$level "$BUILD/tests/test_plan" \
        --gtest_filter='PlanQuantTest.*' > /dev/null
    SNS_SIMD=$level "$BUILD/tests/test_verify" \
        --gtest_filter='*Quant*' > /dev/null
    SNS_SIMD=$level "$BUILD/tests/test_core" \
        --gtest_filter='PredictBatch*' > /dev/null
done

echo "== quantized tier: calibrate, lint, cross-rung bitwise =="
# Calibrate the freshly trained model (writes plan_int8.snsp), which
# must lint clean like any other shipped plan...
"$CLI" quantize --model="$PLAN_WORK/model" "$PLAN_WORK/fir.snl"
"$LINT" "$PLAN_WORK/model/plan_int8.snsp"
# ...and an int8 CLI predict must be bitwise stable across the ladder.
for level in 0 1 2; do
    SNS_SIMD=$level "$CLI" predict --model="$PLAN_WORK/model" \
        --precision=int8 "$PLAN_WORK/fir.snl" \
        | grep -v "predicted in" > "$PLAN_WORK/int8_$level.out"
done
diff "$PLAN_WORK/int8_0.out" "$PLAN_WORK/int8_1.out"
diff "$PLAN_WORK/int8_0.out" "$PLAN_WORK/int8_2.out"
# The int8 tier must genuinely differ from fp64 (it is a second tier,
# not a relabel)...
if diff -q "$PLAN_WORK/int8_0.out" "$PLAN_WORK/planned.out" > /dev/null; then
    echo "int8 predictions are identical to fp64 — tier not active?" >&2
    exit 1
fi
# ...and a corrupted side table must be rejected with exit 1 exactly.
set +e
"$LINT" "$REPO/tests/fixtures/plan_bad_scales.snsp"
BAD_SCALES_EXIT=$?
set -e
if [ "$BAD_SCALES_EXIT" -ne 1 ]; then
    echo "expected exit 1 on plan_bad_scales.snsp, got $BAD_SCALES_EXIT" >&2
    exit 1
fi

echo "== documentation drift check =="
"$REPO/tools/run_docs_check.sh" "$BUILD"

echo "== ThreadSanitizer build ($TSAN_BUILD) =="
cmake -B "$TSAN_BUILD" -S "$REPO" -DSNS_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$TSAN_BUILD" -j --target test_par test_perf test_tensor \
    test_core test_obs test_serve test_session test_plan test_cluster \
    test_dist

echo "== sns::par + serve + cluster suites under TSan (SNS_THREADS=4) =="
# Multi-threaded pool width so TSan actually sees concurrent regions.
for t in test_par test_perf test_tensor test_core test_obs test_serve \
         test_session test_plan test_cluster test_dist; do
    SNS_THREADS=4 "$TSAN_BUILD/tests/$t"
done

echo "run_lint: all checks passed"
