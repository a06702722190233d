#!/usr/bin/env bash
# The command-line contract of easched_cli: each bad input below exits 2
# with a one-line message on stderr, never 134 from an uncaught
# exception, and a good solve and a good frontier sweep exit 0.
#
#   tests/cli/cli_test.sh path/to/easched_cli

set -uo pipefail

cli="$1"
tmp_dir="$(mktemp -d)"
trap 'rm -rf "$tmp_dir"' EXIT
failures=0

cat > "$tmp_dir/a.dag" <<'DAG'
dag 3
task 0 2 a
task 1 3 b
task 2 1 c
edge 0 1
edge 1 2
DAG
# The same chain with unnamed tasks: the format makes the name optional.
cat > "$tmp_dir/b.dag" <<'DAG'
dag 3
task 0 2
task 1 3
task 2 1
edge 0 1
edge 1 2
DAG
a="$tmp_dir/a.dag"
b="$tmp_dir/b.dag"

# run ARGS...: runs the CLI, setting rc and the out/err files.
run() {
  rc=0
  "$cli" "$@" > "$tmp_dir/out" 2> "$tmp_dir/err" || rc=$?
}

# rejects ARGS...: exit 2 and exactly one line on stderr.
rejects() {
  run "$@"
  local lines
  lines="$(wc -l < "$tmp_dir/err")"
  if [[ "$rc" -ne 2 || "$lines" -ne 1 ]]; then
    echo "FAIL: easched_cli $* exited $rc with $lines stderr lines:" >&2
    cat "$tmp_dir/err" >&2
    failures=$((failures + 1))
  fi
}

# accepts PATTERN ARGS...: exit 0 and a stdout line matching PATTERN.
accepts() {
  local pattern="$1"
  shift
  run "$@"
  if [[ "$rc" -ne 0 ]] || ! grep -q -- "$pattern" "$tmp_dir/out"; then
    echo "FAIL: easched_cli $* exited $rc without a line matching '$pattern':" >&2
    cat "$tmp_dir/out" "$tmp_dir/err" >&2
    failures=$((failures + 1))
  fi
}

# A reliability threshold below fmin, in every verb that solves locally.
rejects "$a" --deadline 30 --frel 0.1
rejects "$a" "$b" --deadline 30 --frel 0.1
rejects metrics "$a" --deadline 30 --frel 0.1
rejects "$a" --deadline 30 --processors 0

# Values that do not parse, or parse out of range. A thread count that
# parses is never passed: it would start that many threads.
rejects "$a" --deadline abc
rejects "$a" --deadline 30 --levels 0.5,x
rejects simulate --streams x
rejects "$a" --deadline 30 --threads 99999999999

# Flags the verb does not read. Port 1 refuses connections, so exit 2
# shows the remote sweep was rejected before the CLI connected.
rejects frontier "$a" --dmin 8 --dmax 30 --gantt
rejects "$a" --deadline 30 --json
rejects remote 127.0.0.1:1 sweep "$a" --dmin 8 --dmax 30 --csv

accepts '^energy: ' "$a" --deadline 10
accepts '^energy: ' "$b" --deadline 10
accepts '^constraint,energy,makespan,solver,exact$' frontier "$a" --dmin 4 --dmax 12 --csv

if (( failures > 0 )); then
  echo "cli_test: $failures case(s) failed" >&2
  exit 1
fi
echo "cli_test: OK"
