#!/usr/bin/env bash
# Staged verification pipeline for the determinism contract (DESIGN.md §5)
# and the durability contract (DESIGN.md §7).
#
# Usage: tools/check.sh [build-dir]
#
#   stage 1  build + ctest     full suite, warnings as errors (T2VEC_WERROR)
#   stage 2  lint              tools/lint_determinism.py over src/ bench/ tools/
#   stage 3  robustness +      ctest -L 'robustness|concurrency': fault
#            concurrency       injection, corruption matrix, kill-and-resume,
#                              WAL replay, the TCP server's hostile-bytes,
#                              hostile-peer (idle / slowloris / mid-response
#                              RST) and kill-mid-ingestion scenarios, and the
#                              annotated sync-primitive suite; then the chaos
#                              soak re-runs under a fixed fault-seed matrix
#                              (T2VEC_CHAOS_SEED) so every gate exercises
#                              several randomized fault schedules
#   stage 4  SIMD tiers        ctest -L kernel twice, under T2VEC_SIMD=scalar
#                              and T2VEC_SIMD=avx2, so both dispatch tiers
#                              (and the unsupported-ISA clamp) stay green
#   stage 5  clang-tidy        -DT2VEC_CLANG_TIDY=ON build of src/ (skipped
#                              with a notice when clang-tidy is not installed)
#   stage 6  thread safety     -DT2VEC_THREAD_SAFETY=ON clang build of src/:
#                              Clang Thread Safety Analysis over the annotated
#                              primitives in common/sync.h, warnings as errors
#                              (skipped with a notice when clang++ is not
#                              installed; CI always runs it)
#   stage 7  TSan              ctest -L determinism under -fsanitize=thread,
#                              then -L concurrency at T2VEC_THREADS=1 and 8
#                              (thread-pool call sites, serving dispatch,
#                              background compaction, connection fan-out, and
#                              the incremental AnnIndex backends — tests ride
#                              labels, no hand-maintained list)
#   stage 8  ASan              ctest -L 'kernel|determinism|robustness'
#                              under -fsanitize=address: the SIMD kernels
#                              read through raw row pointers plus a scalar
#                              tail, and an over-read there is invisible to
#                              UBSan and TSan (the index scans, golden
#                              digests and tier-identity suites ride the
#                              first two labels); the corruption matrix and
#                              the framing tests feed hostile bytes to the
#                              checksum-trailer parse and every snapshot
#                              loader (robustness label)
#   stage 9  UBSan             full ctest under -fsanitize=undefined with
#                              -fno-sanitize-recover: any UB aborts the test
#
# Each compiler/sanitizer tier builds in its own tree (<build-dir>-tidy,
# -tsa, -tsan, -asan, -ubsan) so instrumented or differently-flagged objects
# never mix with the release ones. Stages run in increasing cost order; the
# first failure stops the pipeline.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
TIDY_DIR="${BUILD_DIR}-tidy"
TSA_DIR="${BUILD_DIR}-tsa"
TSAN_DIR="${BUILD_DIR}-tsan"
ASAN_DIR="${BUILD_DIR}-asan"
UBSAN_DIR="${BUILD_DIR}-ubsan"
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "== stage 1/9: configure/build/ctest (${BUILD_DIR}) =="
cmake -B "${BUILD_DIR}" -S . -DT2VEC_WERROR=ON >/dev/null
cmake --build "${BUILD_DIR}" -j "${JOBS}"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

echo "== stage 2/9: determinism lint (src/ bench/ tools/) =="
python3 tools/lint_determinism.py

echo "== stage 3/9: robustness- and concurrency-labeled tests (${BUILD_DIR}) =="
ctest --test-dir "${BUILD_DIR}" -L 'robustness|concurrency' \
  --output-on-failure -j "${JOBS}"
# Chaos soak seed matrix: the label run above already covered the default
# seed (1); each extra seed arms a different randomized schedule of socket +
# WAL faults around the mid-run server restart.
for seed in 2 3; do
  echo "-- chaos soak, T2VEC_CHAOS_SEED=${seed} --"
  T2VEC_CHAOS_SEED="${seed}" ctest --test-dir "${BUILD_DIR}" -R chaos_test \
    --output-on-failure
done

echo "== stage 4/9: kernel-labeled tests under each SIMD tier (${BUILD_DIR}) =="
# On machines without AVX2 the avx2 run degrades to scalar via the dispatch
# clamp — that fallback (no SIGILL, tier logged) is itself under test.
T2VEC_SIMD=scalar ctest --test-dir "${BUILD_DIR}" -L kernel \
  --output-on-failure -j "${JOBS}"
T2VEC_SIMD=avx2 ctest --test-dir "${BUILD_DIR}" -L kernel \
  --output-on-failure -j "${JOBS}"

echo "== stage 5/9: clang-tidy (src/) =="
if command -v clang-tidy >/dev/null 2>&1; then
  cmake -B "${TIDY_DIR}" -S . -DT2VEC_WERROR=ON -DT2VEC_CLANG_TIDY=ON \
    >/dev/null
  cmake --build "${TIDY_DIR}" -j "${JOBS}" --target t2vec_common t2vec_nn \
    t2vec_geo t2vec_traj t2vec_dist t2vec_core t2vec_eval t2vec_serve
else
  echo "clang-tidy not installed; stage skipped (config: .clang-tidy)"
fi

echo "== stage 6/9: Clang Thread Safety Analysis (src/) =="
# Proves the lock discipline at compile time: every GUARDED_BY member is
# only touched with its mutex held, every acquire is released on all paths
# (common/sync.h, DESIGN.md §5.4). Library targets only — tests deliberately
# misuse locks (TryLock probes) in ways the analysis would reject.
if command -v clang++ >/dev/null 2>&1; then
  cmake -B "${TSA_DIR}" -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DT2VEC_WERROR=ON -DT2VEC_THREAD_SAFETY=ON >/dev/null
  cmake --build "${TSA_DIR}" -j "${JOBS}" --target t2vec_common t2vec_nn \
    t2vec_geo t2vec_traj t2vec_dist t2vec_core t2vec_eval t2vec_serve
else
  echo "clang++ not installed; stage skipped (CI runs it: clang-thread-safety)"
fi

echo "== stage 7/9: TSan on determinism + concurrency tests (${TSAN_DIR}) =="
cmake -B "${TSAN_DIR}" -S . -DT2VEC_WERROR=ON -DT2VEC_SANITIZE=thread \
  >/dev/null
cmake --build "${TSAN_DIR}" -j "${JOBS}"
ctest --test-dir "${TSAN_DIR}" -L determinism --output-on-failure -j "${JOBS}"
# The concurrency label runs twice: single-threaded pools catch lost-wakeup /
# shutdown-ordering bugs that contention masks, wide pools catch races.
T2VEC_THREADS=1 ctest --test-dir "${TSAN_DIR}" -L concurrency \
  --output-on-failure -j "${JOBS}"
T2VEC_THREADS=8 ctest --test-dir "${TSAN_DIR}" -L concurrency \
  --output-on-failure -j "${JOBS}"

echo "== stage 8/9: ASan on kernel + determinism + robustness tests (${ASAN_DIR}) =="
cmake -B "${ASAN_DIR}" -S . -DT2VEC_WERROR=ON -DT2VEC_SANITIZE=address \
  >/dev/null
cmake --build "${ASAN_DIR}" -j "${JOBS}"
ctest --test-dir "${ASAN_DIR}" -L 'kernel|determinism|robustness' \
  --output-on-failure -j "${JOBS}"

echo "== stage 9/9: UBSan (-fno-sanitize-recover) full suite (${UBSAN_DIR}) =="
cmake -B "${UBSAN_DIR}" -S . -DT2VEC_WERROR=ON -DT2VEC_SANITIZE=undefined \
  >/dev/null
cmake --build "${UBSAN_DIR}" -j "${JOBS}"
ctest --test-dir "${UBSAN_DIR}" --output-on-failure -j "${JOBS}"

echo "== all checks passed =="
