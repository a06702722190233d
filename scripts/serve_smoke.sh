#!/usr/bin/env bash
# Serve-tier smoke gate: boots a real `easched_cli serve` daemon on an
# ephemeral loopback port, drives it with the `remote` subcommand
# (solve, sweep, stat), scrapes the Metrics endpoint twice (exposition
# lines must parse, counters must be monotone between scrapes), asserts a
# clean SIGTERM shutdown, restarts the daemon on the same store and
# requires the first solve's answer byte for byte, read back from the
# store with no solver call, checks a --trace-out run emits Chrome
# trace_event JSON replaying the job lifecycle. A TRI-CRIT solve (--frel)
# and a reliability-axis sweep (--rmin/--rmax) sent through the daemon
# must match the local CLI on the same DAG. scripts/ci.sh runs this as
# its serve stage.
#
#   scripts/serve_smoke.sh [build-dir]
#
# Default build dir ./build-check (shared with check.sh, so a prior
# release stage makes the builds here incremental no-ops).

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-check}"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "$build_dir" -j "$(nproc)" --target easched_cli > /dev/null

tmp_dir="$(mktemp -d)"
daemon_pid=""
cleanup() {
  [[ -n "$daemon_pid" ]] && kill -9 "$daemon_pid" 2>/dev/null
  rm -rf "$tmp_dir"
}
trap cleanup EXIT

cat > "$tmp_dir/smoke.dag" <<'DAG'
dag 4
task 0 2 src
task 1 3 left
task 2 1 right
task 3 2 sink
edge 0 1
edge 0 2
edge 1 3
edge 2 3
DAG

# ---- boot the daemon on an ephemeral port -------------------------------
# start_daemon LOG [serve options...]: boots a daemon, sets daemon_pid
# and port once it reports its listening address.
start_daemon() {
  local log="$1"
  shift
  "$build_dir/easched_cli" serve --listen 127.0.0.1:0 "$@" > "$log" 2>&1 &
  daemon_pid=$!
  port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' \
            "$log" 2>/dev/null | head -n1)"
    [[ -n "$port" ]] && break
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
      echo "serve_smoke: daemon died during startup:" >&2
      cat "$log" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [[ -z "$port" ]]; then
    echo "serve_smoke: daemon never reported its port" >&2
    cat "$log" >&2
    exit 1
  fi
  echo "serve_smoke: daemon up on 127.0.0.1:$port (pid $daemon_pid)"
}

# stop_daemon LOG: SIGTERM, then require exit 0 and the shutdown line.
stop_daemon() {
  kill -TERM "$daemon_pid"
  local daemon_rc=0
  wait "$daemon_pid" || daemon_rc=$?
  daemon_pid=""
  if (( daemon_rc != 0 )); then
    echo "serve_smoke: daemon exited $daemon_rc on SIGTERM" >&2
    cat "$1" >&2
    exit 1
  fi
  grep -q 'daemon stopped:' "$1"
}

start_daemon "$tmp_dir/daemon.log" --tenant-quota 8 --store "$tmp_dir/store.log"

# ---- drive it with the remote subcommand --------------------------------
"$build_dir/easched_cli" remote "127.0.0.1:$port" solve "$tmp_dir/smoke.dag" \
  --deadline 14 | tee "$tmp_dir/solve.out"
grep -q '^energy:' "$tmp_dir/solve.out"

"$build_dir/easched_cli" remote "127.0.0.1:$port" sweep "$tmp_dir/smoke.dag" \
  --dmin 8 --dmax 14 --points 5 --max-points 9 | tee "$tmp_dir/sweep.out"
grep -q '^frontier:' "$tmp_dir/sweep.out"

"$build_dir/easched_cli" remote "127.0.0.1:$port" stat | tee "$tmp_dir/stat.out"
grep -q "tenant 'default': 2 accepted" "$tmp_dir/stat.out"

# ---- scrape the live daemon's metrics twice -----------------------------
# `remote stat --deep` appends the daemon's full text exposition to the
# stat line. Two scrapes: the exposition must parse line-by-line and the
# per-tenant request counter must be strictly monotone (each scrape
# counts itself).
"$build_dir/easched_cli" remote "127.0.0.1:$port" stat --deep \
  > "$tmp_dir/scrape1.out"
"$build_dir/easched_cli" remote "127.0.0.1:$port" stat --deep \
  > "$tmp_dir/scrape2.out"

for scrape in scrape1 scrape2; do
  # Every exposition line is `# TYPE name counter|gauge|summary` or
  # `name{labels} value` / `name value` with a finite numeric value.
  awk '
    /^# TYPE / { in_expo = 1 }
    !in_expo { next }                     # the human stat lines up front
    /^$/ { next }
    /^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|summary)$/ { next }
    /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$/ { next }
    { print FILENAME ":" NR ": unparseable exposition line: " $0; bad = 1 }
    END { exit bad }
  ' "$tmp_dir/$scrape.out"
  grep -q '^# TYPE easched_serve_requests_total counter$' "$tmp_dir/$scrape.out"
  grep -q '^easched_serve_latency_ms_count{tenant="default"} ' "$tmp_dir/$scrape.out"
  grep -q '^easched_jobs_completed_total{kind="solve",outcome="ok"} 1$' \
    "$tmp_dir/$scrape.out"
done

requests() {
  sed -n 's/^easched_serve_requests_total{tenant="default"} \([0-9]*\)$/\1/p' "$1"
}
req1="$(requests "$tmp_dir/scrape1.out")"
req2="$(requests "$tmp_dir/scrape2.out")"
if (( req2 <= req1 )); then
  echo "serve_smoke: request counter not monotone across scrapes ($req1 -> $req2)" >&2
  exit 1
fi
echo "serve_smoke: metrics scrape OK (requests $req1 -> $req2)"

# ---- a repeated solve skips the rebuild and the worker hop --------------
# The daemon memoizes built problems by their exact spec bytes and the
# engine answers a cached solve at submit: repeating the first solve must
# move both counters, and the answer must not change.
"$build_dir/easched_cli" remote "127.0.0.1:$port" solve "$tmp_dir/smoke.dag" \
  --deadline 14 > "$tmp_dir/solve_again.out"
cmp "$tmp_dir/solve.out" "$tmp_dir/solve_again.out"
"$build_dir/easched_cli" remote "127.0.0.1:$port" stat --deep \
  > "$tmp_dir/scrape3.out"
series() {
  sed -n "s/^$2 \([0-9.eE+-]*\)\$/\1/p" "$1"
}
for name in easched_serve_problem_memo_hits_total \
            'easched_jobs_sync_hits_total{kind="solve"}'; do
  before="$(series "$tmp_dir/scrape2.out" "$name")"
  after="$(series "$tmp_dir/scrape3.out" "$name")"
  if [[ -z "$before" || -z "$after" ]] || (( after <= before )); then
    echo "serve_smoke: $name missing or not increasing (${before:-?} -> ${after:-?})" >&2
    exit 1
  fi
done
echo "serve_smoke: repeat solve served from the memo and the cache"

# ---- TRI-CRIT over the wire matches the local CLI -----------------------
# A --frel solve and a reliability-axis sweep take the daemon's TRI-CRIT
# path; each must report what the local CLI computes on the same DAG: the
# solve's solver/energy/makespan lines and the sweep's frontier table.
solve_lines() { grep -E '^(solver|energy|makespan):' "$1"; }
table_lines() { sed '/^$/q' "$1"; }
"$build_dir/easched_cli" remote "127.0.0.1:$port" solve "$tmp_dir/smoke.dag" \
  --deadline 20 --frel 0.8 > "$tmp_dir/tri_remote.out"
"$build_dir/easched_cli" "$tmp_dir/smoke.dag" --deadline 20 --frel 0.8 \
  > "$tmp_dir/tri_local.out"
grep -q '^re-executed tasks:' "$tmp_dir/tri_local.out"
cmp <(solve_lines "$tmp_dir/tri_remote.out") <(solve_lines "$tmp_dir/tri_local.out")

"$build_dir/easched_cli" remote "127.0.0.1:$port" sweep "$tmp_dir/smoke.dag" \
  --deadline 20 --rmin 0.5 --rmax 0.9 --points 5 --max-points 9 \
  > "$tmp_dir/rel_remote.out"
"$build_dir/easched_cli" frontier "$tmp_dir/smoke.dag" \
  --deadline 20 --rmin 0.5 --rmax 0.9 --points 5 --max-points 9 \
  > "$tmp_dir/rel_local.out"
grep -q '^frontier: [1-9][0-9]* points' "$tmp_dir/rel_remote.out"
cmp <(table_lines "$tmp_dir/rel_remote.out") <(table_lines "$tmp_dir/rel_local.out")
echo "serve_smoke: remote TRI-CRIT solve and reliability sweep match the local CLI"

# ---- clean SIGTERM shutdown ---------------------------------------------
stop_daemon "$tmp_dir/daemon.log"
echo "serve_smoke: clean shutdown"

# ---- a restarted daemon answers from its store --------------------------
# Same store, no pre-load (write-through only): the first solve must come
# back byte-identical, found and read back from the log by the store, not
# recomputed.
start_daemon "$tmp_dir/daemon2.log" --store "$tmp_dir/store.log" \
  --store-mode write-through
"$build_dir/easched_cli" remote "127.0.0.1:$port" solve "$tmp_dir/smoke.dag" \
  --deadline 14 > "$tmp_dir/solve_restart.out"
cmp "$tmp_dir/solve.out" "$tmp_dir/solve_restart.out"
"$build_dir/easched_cli" remote "127.0.0.1:$port" stat --deep \
  > "$tmp_dir/scrape4.out"
store_hits="$(series "$tmp_dir/scrape4.out" easched_cache_store_hits)"
misses="$(series "$tmp_dir/scrape4.out" easched_cache_misses)"
corrupt="$(series "$tmp_dir/scrape4.out" easched_store_read_corrupt_total)"
if [[ "$store_hits" != 1 || "$misses" != 0 || "$corrupt" != 0 ]]; then
  echo "serve_smoke: restart solve not served from the store" \
       "(store hits ${store_hits:-?}, misses ${misses:-?}, corrupt ${corrupt:-?})" >&2
  exit 1
fi
stop_daemon "$tmp_dir/daemon2.log"
echo "serve_smoke: restarted daemon served the first solve from its store"

# ---- per-job tracing and metrics-off bit-identity -----------------------
# A --trace-out sweep emits Chrome trace_event JSON whose spans replay
# the job lifecycle (a queued slice and a running slice per job), and
# the frontier CSV is bit-identical with observability off.
"$build_dir/easched_cli" frontier "$tmp_dir/smoke.dag" --dmin 8 --dmax 14 \
  --points 5 --max-points 9 --csv \
  --trace-out "$tmp_dir/trace.json" > "$tmp_dir/sweep_on.csv"
python3 - "$tmp_dir/trace.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert events, "trace has no events"
cats = {e["cat"] for e in events}
assert cats == {"queued", "running"}, cats
assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
PY
"$build_dir/easched_cli" frontier "$tmp_dir/smoke.dag" --dmin 8 --dmax 14 \
  --points 5 --max-points 9 --csv \
  --no-metrics > "$tmp_dir/sweep_off.csv"
cmp "$tmp_dir/sweep_on.csv" "$tmp_dir/sweep_off.csv"
echo "serve_smoke: trace + bit-identity OK"
echo "serve_smoke: OK"
