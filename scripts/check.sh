#!/usr/bin/env bash
# Tier-1 verify in Release mode with -Wall -Wextra, failing on any warning
# in the src/api, src/engine, src/frontier and src/store layers
# (EASCHED_WERROR_API promotes them to errors; on Clang that includes
# -Wthread-safety, so a locking-discipline violation fails the check).
#
#   scripts/check.sh [build-dir]
#   scripts/check.sh --sanitize [build-dir]
#   scripts/check.sh --tsan [build-dir]
#
# --sanitize switches to a Debug + ASan/UBSan build of the same test
# suite (halting on the first report), so the concurrent SolveCache and
# the WorkerPool fan-outs are exercised under sanitizer scrutiny on
# every check run.
#
# --tsan switches to a Debug + ThreadSanitizer build (EASCHED_TSAN=ON)
# of the same suite, which includes the engine stress test: many
# submitter threads mixing solve/sweep/resweep/cancel against one Engine
# with an attached store. Any data race is a hard failure.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

mode=release
case "${1:-}" in
  --sanitize) mode=sanitize; shift ;;
  --tsan) mode=tsan; shift ;;
esac

case "$mode" in
  sanitize)
    build_dir="${1:-$repo_root/build-check-sanitize}"
    san_flags="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
    cmake -B "$build_dir" -S "$repo_root" \
      -DCMAKE_BUILD_TYPE=Debug \
      -DEASCHED_WERROR_API=ON \
      -DCMAKE_CXX_FLAGS="-Wall -Wextra $san_flags" \
      -DCMAKE_EXE_LINKER_FLAGS="$san_flags"
    ;;
  tsan)
    build_dir="${1:-$repo_root/build-check-tsan}"
    cmake -B "$build_dir" -S "$repo_root" \
      -DCMAKE_BUILD_TYPE=Debug \
      -DEASCHED_WERROR_API=ON \
      -DEASCHED_TSAN=ON \
      -DCMAKE_CXX_FLAGS="-Wall -Wextra"
    # halt_on_error: the suite must be race-free, not merely mostly so.
    export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}"
    ;;
  release)
    build_dir="${1:-$repo_root/build-check}"
    cmake -B "$build_dir" -S "$repo_root" \
      -DCMAKE_BUILD_TYPE=Release \
      -DEASCHED_WERROR_API=ON \
      -DCMAKE_CXX_FLAGS="-Wall -Wextra"
    ;;
esac

cmake --build "$build_dir" -j "$(nproc)"
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"

echo "check.sh: OK ($mode)"
