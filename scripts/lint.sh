#!/usr/bin/env bash
# Repo lint gate: clang-tidy (when available) plus a grep-lint of
# repo-local rules that no compiler flag covers. The gated layers —
# src/api, src/common, src/engine, src/frontier, src/obs, src/serve,
# src/sim, src/store — must come back clean; scripts/ci.sh runs this as
# its last stage.
#
#   scripts/lint.sh [build-dir]
#
# clang-tidy reads compile_commands.json from the build dir (default
# ./build; any configure emits one — CMAKE_EXPORT_COMPILE_COMMANDS is on
# by default). When clang-tidy is not installed the tidy stage is
# SKIPPED with a notice, not failed: the grep-lint and the Clang
# -Wthread-safety gate in check.sh still stand, and CI images with the
# full LLVM toolchain run the tidy stage for real.
#
# Grep-lint rules (all of src/):
#  * every header is #pragma once;
#  * no unseeded / wall-clock RNG: rand(), srand(), time(nullptr)-style
#    seeding and std::random_device are banned — results must replay
#    from explicit seeds (common/rng.hpp);
#  * no raw printf/puts to stdout from library code — output goes
#    through the table/export/telemetry writers;
#  * float serialization in export/serialize code uses %.17g (the
#    round-trip determinism contract), never a lossy format;
#  * one executor: no thread is started anywhere in src/ except the
#    WorkerPool's workers (common/parallel.cpp), the engine's
#    DeadlineWatch thread and the serve loop thread — fan-outs go through
#    common::WorkerPool.
#  * one speed program: opt::minimize_barrier is called only from
#    bicrit::solve_durations (bicrit/continuous_dag.cpp).

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
cd "$repo_root"

gated_layers=(src/api src/common src/engine src/frontier src/obs src/serve src/sim src/store)
fail=0

# ---- stage 1: clang-tidy over the gated layers --------------------------
if command -v clang-tidy > /dev/null 2>&1; then
  if [[ ! -f "$build_dir/compile_commands.json" ]]; then
    echo "lint.sh: configuring $build_dir for compile_commands.json"
    cmake -B "$build_dir" -S "$repo_root" > /dev/null
  fi
  tidy_sources=()
  for layer in "${gated_layers[@]}"; do
    while IFS= read -r f; do tidy_sources+=("$f"); done \
      < <(find "$layer" -name '*.cpp' | sort)
  done
  echo "lint.sh: clang-tidy over ${#tidy_sources[@]} gated sources"
  if ! clang-tidy -p "$build_dir" --quiet "${tidy_sources[@]}"; then
    echo "lint.sh: clang-tidy FAILED"
    fail=1
  fi
else
  echo "lint.sh: clang-tidy not installed — tidy stage SKIPPED"
fi

# ---- stage 2: grep-lint -------------------------------------------------
violations=0

report() { # rule, matches
  if [[ -n "$2" ]]; then
    echo "lint.sh: RULE VIOLATED: $1"
    echo "$2" | sed 's/^/  /'
    violations=1
  fi
}

# Every src/ header is #pragma once.
missing_pragma=""
while IFS= read -r hpp; do
  head -n1 "$hpp" | grep -q '^#pragma once$' || missing_pragma+="$hpp"$'\n'
done < <(find src -name '*.hpp' | sort)
report "headers must start with #pragma once" "${missing_pragma%$'\n'}"

# No unseeded / wall-clock randomness in library code.
report "no rand()/srand() in src/ (use common/rng.hpp with explicit seeds)" \
  "$(grep -rnE '\b(std::)?s?rand[[:space:]]*\(' src/ || true)"
report "no wall-clock RNG seeding in src/" \
  "$(grep -rnE 'time[[:space:]]*\([[:space:]]*(nullptr|NULL|0)[[:space:]]*\)' src/ || true)"
report "no std::random_device in src/ (non-reproducible entropy)" \
  "$(grep -rn 'random_device' src/ || true)"

# Library code never prints to stdout directly.
report "no raw printf/puts in src/ (snprintf into buffers is fine)" \
  "$(grep -rnE '(^|[^a-z_])(printf|puts)[[:space:]]*\(' src/ --include='*.cpp' --include='*.hpp' \
     | grep -vE 'snprintf|fprintf' || true)"

# Serialized floats are %.17g — the shortest format that round-trips
# IEEE doubles — so stored/exported curves are bit-stable.
report "export/serialize float formats must be %.17g" \
  "$(grep -rnE '%[0-9.]*[efgEFG]' src/frontier/export.cpp src/store/serialize.cpp \
     src/obs/export.cpp \
     | grep -v '%\.17g' || true)"

# One executor. A thread construction names std::thread (or jthread)
# followed by an optional variable name and ( or {; std::async and
# vectors of threads count too. The three owned threads are allowed by
# their exact lines.
report "no std::thread/std::async outside common/parallel.cpp, DeadlineWatch and the serve loop" \
  "$(grep -rnE 'std::j?thread[[:space:]]*([A-Za-z_][A-Za-z_0-9]*[[:space:]]*)?[({]|std::async[[:space:]]*\(|std::vector<std::j?thread>' src/ \
     | grep -vE '^src/common/parallel\.(cpp|hpp):' \
     | grep -vE '^src/engine/engine\.cpp:[0-9]+: +thread_ = std::thread\(\[this\] \{ loop\(\); \}\);$' \
     | grep -vE '^src/serve/server\.cpp:[0-9]+: +impl->thread = std::thread\(\[impl\] \{' \
     || true)"

# One continuous speed program: every barrier solve goes through
# bicrit::solve_durations.
report "no opt::minimize_barrier( in src/ outside src/bicrit/continuous_dag.cpp" \
  "$(grep -rn 'opt::minimize_barrier(' src/ | grep -v '^src/bicrit/continuous_dag\.cpp:' || true)"

if (( violations )); then
  echo "lint.sh: grep-lint FAILED"
  fail=1
else
  echo "lint.sh: grep-lint OK"
fi

if (( fail )); then
  echo "lint.sh: FAILED"
  exit 1
fi
echo "lint.sh: OK"
