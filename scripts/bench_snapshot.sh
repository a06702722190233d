#!/usr/bin/env bash
# Perf baseline snapshot: builds the benches in Release mode, runs the
# frontier sweep, store restart, batch throughput and the solver-family
# corpus benches (fork/SP closed forms, VDD LP) several times, and writes
# the per-metric *medians* to BENCH_frontier.json at the repo root —
# cold/warm sweeps, perturbed-instance resweeps, the warm-lookup scaling
# curve, restart-with-store replay, engine batch throughput and its
# metrics-on/off overhead, the solver-family accuracy/speed headlines, and the
# serving tier's warm-daemon throughput and overload-shedding numbers,
# the online-policy competitive ratios vs the offline oracle, and the
# reliability simulator's model-vs-Monte-Carlo headlines.
# Future PRs diff their own snapshot against the committed numbers
# instead of eyeballing one noisy run.
#
#   scripts/bench_snapshot.sh [runs] [build-dir]
#
# Defaults: 3 runs, build dir ./build-bench. The benches' own acceptance
# bars (warm >= 5x, resweep >= 5x + bit-identical, flat warm lookups,
# restart >= 5x + zero solver calls, metrics overhead < 3%, closed-form
# accuracy, VDD sandwich) still gate: a failing run fails the snapshot.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
runs="${1:-3}"
build_dir="${2:-$repo_root/build-bench}"

benches=(bench_frontier_sweep bench_store_restart bench_batch_throughput
         bench_fork_closed_form bench_sp_closed_form bench_vdd_lp
         bench_serve_load bench_sim_policies bench_reliability_sim)

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=Release \
  -DEASCHED_BUILD_TESTS=OFF \
  -DEASCHED_BUILD_EXAMPLES=OFF > /dev/null

# Refuse to snapshot a sanitizer build: ASan/TSan overheads would be
# recorded as the repo's perf baseline and every later diff against it
# would be noise. (Catches a reused build dir from check.sh --sanitize /
# --tsan or a sanitizer flag inherited from the environment.)
if grep -qE '(^CMAKE_(CXX|EXE_LINKER)_FLAGS[^=]*=.*-fsanitize|^EASCHED_TSAN:BOOL=ON)' \
     "$build_dir/CMakeCache.txt" 2>/dev/null; then
  echo "bench_snapshot: REFUSING to record a baseline from a sanitizer build" >&2
  echo "bench_snapshot: ($build_dir has -fsanitize / EASCHED_TSAN=ON in CMakeCache.txt)" >&2
  exit 1
fi
cmake --build "$build_dir" -j "$(nproc)" --target "${benches[@]}" > /dev/null

tmp_dir="$(mktemp -d)"
trap 'rm -rf "$tmp_dir"' EXIT

for bench in "${benches[@]}"; do
  for ((i = 0; i < runs; ++i)); do
    "$build_dir/$bench" --json-out "$tmp_dir/${bench}_$i.json" \
      > "$tmp_dir/${bench}_$i.log"
    echo "bench_snapshot: $bench run $((i + 1))/$runs ok"
  done
done

python3 - "$tmp_dir" "$runs" "$repo_root/BENCH_frontier.json" <<'PY'
import json, statistics, sys

tmp_dir, runs, out_path = sys.argv[1], int(sys.argv[2]), sys.argv[3]

def load(bench):
    return [json.load(open(f"{tmp_dir}/{bench}_{i}.json")) for i in range(runs)]

frontier = load("bench_frontier_sweep")
store = load("bench_store_restart")
batch = load("bench_batch_throughput")
fork_cf = load("bench_fork_closed_form")
sp_cf = load("bench_sp_closed_form")
vdd = load("bench_vdd_lp")
serve = load("bench_serve_load")
sim_pol = load("bench_sim_policies")
rel_sim = load("bench_reliability_sim")

def med(samples, key):
    return statistics.median(s[key] for s in samples)

snapshot = {
    "runs": runs,
    # frontier sweep path (bench_frontier_sweep)
    "cold_ms": med(frontier, "cold_ms"),
    "warm_ms": med(frontier, "warm_ms"),
    "warm_speedup": med(frontier, "warm_speedup"),
    "perturbed_cold_ms": med(frontier, "perturbed_cold_ms"),
    "resweep_ms": med(frontier, "resweep_ms"),
    "resweep_speedup": med(frontier, "resweep_speedup"),
    "resweep_identical": all(s["resweep_identical"] for s in frontier),
    "warm_lookup_us_per_probe": {
        n: statistics.median(s["warm_lookup_us_per_probe"][n] for s in frontier)
        for n in frontier[0]["warm_lookup_us_per_probe"]
    },
    "warm_lookup_flat": all(s["warm_lookup_flat"] for s in frontier),
    # persistent store path (bench_store_restart)
    "store_restart": {
        "cold_ms": med(store, "cold_ms"),
        "populate_ms": med(store, "populate_ms"),
        "restart_ms": med(store, "restart_ms"),
        "restart_speedup": med(store, "restart_speedup"),
        "restart_solver_calls": max(s["restart_solver_calls"] for s in store),
        "restart_identical": all(s["restart_identical"] for s in store),
        "store_bytes": med(store, "store_bytes"),
    },
    # engine batch execution path (bench_batch_throughput)
    "batch_throughput": {
        "jobs": batch[0]["jobs"],
        "serial_ms": med(batch, "serial_ms"),
        "best_ms": med(batch, "best_ms"),
        "best_speedup": med(batch, "best_speedup"),
        "failed": max(s["failed"] for s in batch),
        # observability overhead on pure-warm batches (metrics+tracing on
        # vs off, < 3% gate, bit-identical results)
        "metrics_off_ms": med(batch, "metrics_off_ms"),
        "metrics_on_ms": med(batch, "metrics_on_ms"),
        "metrics_overhead_pct": med(batch, "metrics_overhead_pct"),
        "metrics_ok": all(s["metrics_ok"] for s in batch),
    },
    # solver-family corpus benches (closed forms + VDD LP)
    "solver_families": {
        "fork_closed_form": {
            "max_rel_err": med(fork_cf, "max_rel_err"),
            "closed_speedup": med(fork_cf, "closed_speedup"),
            "pass": all(s["pass"] for s in fork_cf),
        },
        "sp_closed_form": {
            "max_rel_err": med(sp_cf, "max_rel_err"),
            "max_formula_err": med(sp_cf, "max_formula_err"),
            "pass": all(s["pass"] for s in sp_cf),
        },
        "vdd_lp": {
            "max_vdd_over_cont": med(vdd, "max_vdd_over_cont"),
            "max_disc_over_cont": med(vdd, "max_disc_over_cont"),
            "sandwich_ok": all(s["sandwich_ok"] for s in vdd),
        },
    },
    # serving tier (bench_serve_load): warm daemon vs per-process solves,
    # plus admission control under a 2x-overload burst
    "serve_load": {
        "cold_req_per_sec": med(serve, "cold_req_per_sec"),
        "warm_req_per_sec": med(serve, "warm_req_per_sec"),
        "warm_speedup": med(serve, "warm_speedup"),
        "warm_p50_ms": med(serve, "warm_p50_ms"),
        "warm_p99_ms": med(serve, "warm_p99_ms"),
        "overload_requests": serve[0]["overload_requests"],
        "overload_shed": med(serve, "overload_shed"),
        "overload_shed_rate": med(serve, "overload_shed_rate"),
        "overload_accepted_p99_ms": med(serve, "overload_accepted_p99_ms"),
    },
    # online simulator (bench_sim_policies): empirical competitive ratios
    # of the event-driven DVFS policies vs the clairvoyant offline oracle.
    # Fully seeded, so the ratios are exact across runs (median = value).
    "sim_policies": {
        "streams": sim_pol[0]["streams"],
        "jobs": sim_pol[0]["jobs"],
        "ratio_static_edf": med(sim_pol, "ratio_static_edf"),
        "ratio_cc_edf": med(sim_pol, "ratio_cc_edf"),
        "ratio_la_edf": med(sim_pol, "ratio_la_edf"),
        "ratio_sleep_edf": med(sim_pol, "ratio_sleep_edf"),
        "cc_saving_vs_static": med(sim_pol, "cc_saving_vs_static"),
        "pass": all(s["pass"] for s in sim_pol),
    },
    # reliability fault injection (bench_reliability_sim): analytic model
    # vs Monte-Carlo, worst-case vs actually-spent energy
    "reliability_sim": {
        "min_single_reliability": med(rel_sim, "min_single_reliability"),
        "min_reexec_reliability": med(rel_sim, "min_reexec_reliability"),
        "max_actual_over_worst": med(rel_sim, "max_actual_over_worst"),
        "pass": all(s["pass"] for s in rel_sim),
    },
}
with open(out_path, "w") as f:
    json.dump(snapshot, f, indent=2)
    f.write("\n")
print(f"bench_snapshot: wrote {out_path}")
print(json.dumps(snapshot, indent=2))
PY
