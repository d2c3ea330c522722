#!/usr/bin/env bash
# Builds the tree with sanitizers enabled and runs the tier-1 suite.
#
# Usage: scripts/check_sanitize.sh [mode] [build_dir] [extra ctest args...]
#   mode: asan (default) = AddressSanitizer + UBSan
#         tsan           = ThreadSanitizer (for the serve/ concurrency tests)
#         chaos          = the serve+update chaos drill (concurrent serving
#                          + ingestion + faulted refreshes + kill/recover)
#                          under BOTH sanitizer builds, instead of the full
#                          suite
#         shard          = the sharded scatter-gather tier (readers racing
#                          per-shard refreshes/kills across the hedge path)
#                          under a TSan build, instead of the full suite
#   build_dir defaults to build-sanitize-<mode> (kept separate from the
#   normal build so instrumented objects never mix with release ones).
#
# For backward compatibility a first argument that is not a known mode is
# treated as the build directory for asan mode.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

MODE="asan"
case "${1:-}" in
  asan|tsan|chaos|shard)
    MODE="$1"
    shift
    ;;
esac
BUILD_DIR="${1:-"${REPO_ROOT}/build-sanitize-${MODE}"}"
shift || true

if [[ "${MODE}" == "chaos" ]]; then
  # The chaos drill under both sanitizers: ASan+UBSan catches lifetime bugs
  # on the kill/recover path (manager + registry torn down mid-traffic),
  # TSan catches races between serve clients, the ingestion thread, and the
  # faulted refresh. Each sub-build reuses this script's normal modes but
  # runs only the drill gate.
  "${BASH_SOURCE[0]}" asan "${BUILD_DIR}-asan" -R chaos_drill_check "$@"
  "${BASH_SOURCE[0]}" tsan "${BUILD_DIR}-tsan" -R chaos_drill_check "$@"
  echo "sanitizer suite passed (chaos)"
  exit 0
fi

if [[ "${MODE}" == "shard" ]]; then
  # The sharded tier's race surface under TSan: reader threads in the
  # scatter-gather path (per-shard breaker atomics, the latency ring, the
  # hedge race against the sampling fallback) while per-shard swappers
  # publish refreshed clones and kill/republish models. Repeated runs vary
  # the thread interleavings; the sharded chaos drill gate rides along for
  # the full serve+update+shard stack.
  "${BASH_SOURCE[0]}" tsan "${BUILD_DIR}-tsan" -R "ShardStressTest|ShardedServiceTest|ShardHedgeTest" "$@"
  ctest --test-dir "${BUILD_DIR}-tsan" --output-on-failure \
    -R "ShardStressTest.ReadersRaceShardRefreshesAndKills" \
    --repeat until-fail:3
  echo "sanitizer suite passed (shard)"
  exit 0
fi

case "${MODE}" in
  asan)
    SANITIZERS="address;undefined"
    # halt_on_error makes UBSan findings fail the test instead of logging.
    export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
    export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
    ;;
  tsan)
    SANITIZERS="thread"
    export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
    ;;
esac

cmake -S "${REPO_ROOT}" -B "${BUILD_DIR}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  "-DSIMCARD_SANITIZE=${SANITIZERS}"
cmake --build "${BUILD_DIR}" -j "$(nproc)"

ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)" "$@"

if [[ "${MODE}" == "tsan" ]]; then
  # Focused re-runs of the hottest concurrency surfaces beyond their one
  # pass in the full suite above: the micro-batched worker loop (linger
  # wait, shared EstimateSearchBatch, per-request promise fulfillment), the
  # online-update pipeline (delta ingestion + drift refresh + epoch
  # hot-swap racing live readers), and the trace pipeline (per-thread
  # seqlock TraceSink writers racing the tail-sampling collector while
  # models hot-swap).
  ctest --test-dir "${BUILD_DIR}" --output-on-failure \
    -R "ServeStressTest.ReadersRaceModelSwapsMicroBatched" \
    --repeat until-fail:3
  ctest --test-dir "${BUILD_DIR}" --output-on-failure \
    -R "UpdateStressTest.ReadersRaceDeltaIngestionAndRefreshes" \
    --repeat until-fail:3
  ctest --test-dir "${BUILD_DIR}" --output-on-failure \
    -R "TraceStressTest.WritersRaceCollectorDuringModelSwap" \
    --repeat until-fail:3
  # ...and the feedback subsystem (shared-mutex store readers + ReportActual
  # writers racing the publish-listener epoch remap and guard resets).
  ctest --test-dir "${BUILD_DIR}" --output-on-failure \
    -R "FeedbackStressTest.ConcurrentReadersWritersAndEpochRemap" \
    --repeat until-fail:3
  # ...and the parallel set-up: queries labelled across the pool and the GL
  # models fitted as concurrent tasks, on a Hamming dataset (bit-packed scan
  # over a lazily filled cache) and an angular one (float scan), plus the
  # ParallelFor cursor shared by concurrent callers, and the kept profiles
  # that the calling thread allocates and the pool workers fill. Local+ runs
  # the most fits of the shared training loop at once (one per segment).
  SETUP_TESTS="LabelParityTest.BitwiseEqualAcrossPaths/(imagenet_sim|glove_sim)"
  SETUP_TESTS+="|ModelParityTest.PoolAndOneWorkerTrainEqualBytes/(imagenet_sim|glove_sim)_(GL_CNN|LocalP)"
  SETUP_TESTS+="|ParallelForTest"
  SETUP_TESTS+="|ProfileLayoutTest.OneExactBufferPerQuery"
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -R "${SETUP_TESTS}" \
    --repeat until-fail:3
fi

echo "sanitizer suite passed (${MODE})"
