#!/usr/bin/env python3
"""The serving benchmark: one workload of easched's daemon, end to end.

    python3 perfbench/run.py --workload serve-warm|serve-cold|sweep \
        --seed N --seconds S --trace 0|1

Run from the repository root. It builds the daemon (easched_cli) and the
load generator from source into $CARGO_TARGET_DIR (default .bench_build),
runs the generator -- which starts a fresh daemon as its child, drives the
workload and checks every answer -- and prints every metric by name with
its unit. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 they are its per_layer metrics (the generator then records spans
and replays a sample of its requests through the library's layer calls).
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve-warm", "serve-cold", "sweep")
# Generator lateness against its open-loop schedule above this p99 means
# the generator could not keep up and the run measured the wrong thing.
LATENESS_P99_CAP_MS = 25.0
# A run measures --seconds plus a few seconds of set-up and checks; this
# caps a hung one (the build before it is not counted).
GENERATOR_TIMEOUT_S = 150.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then builds the two targets (a no-op when fresh)."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    rc = subprocess.call(
        ["cmake", "--build", build_dir, "--target", "easched_cli", "perfbench_loadgen",
         "-j", "4"], stdout=sys.stderr, stderr=sys.stderr)
    return rc == 0


def run_generator(argv, timeout_s):
    """Runs the generator in its own process group and, whatever happens,
    kills and reaps everything left in that group (the daemon included)."""
    proc = subprocess.Popen(argv, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log("generator timed out after %.0f s" % timeout_s)
        return None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


# ---- scrape arithmetic ------------------------------------------------------

def _bucket_index(le):
    # obs::Histogram: 4 buckets per doubling from 1e-3 (bucket i bound
    # 1e-3 * 2^(i/4)).
    return int(round(4.0 * math.log2(le / 1e-3)))


def _bound(i):
    return 1e-3 * 2.0 ** (i / 4.0)


def hist_delta(pairs, name, keep=lambda labels: True):
    """What the series of `name` whose labels pass `keep` gained between
    the two scrapes of each (before, after) pair, summed over the pairs:
    ({bucket index: count}, max, sum)."""
    def collect(scrape):
        counts, top, total = {}, 0.0, 0.0
        for family in scrape["metrics"]["metrics"]:
            if family["name"] != name:
                continue
            for series in family["series"]:
                if not keep(series["labels"]):
                    continue
                top = max(top, series.get("max", 0.0))
                total += series.get("sum", 0.0)
                for b in series.get("buckets", []):
                    i = 10**6 if b["le"] == "+Inf" else _bucket_index(b["le"])
                    counts[i] = counts.get(i, 0) + b["count"]
        return counts, top, total
    gained, top, total = {}, 0.0, 0.0
    for before, after in pairs:
        a, _, sum_a = collect(before)
        b, top_b, sum_b = collect(after)
        for i in b:
            if b[i] - a.get(i, 0) > 0:
                gained[i] = gained.get(i, 0) + b[i] - a.get(i, 0)
        top = max(top, top_b)
        total += sum_b - sum_a
    return gained, top, total


def hist_mean(delta):
    counts, _, total = delta
    n = sum(counts.values())
    return total / n if n else 0.0


def hist_quantile(delta, q):
    counts, top, _ = delta
    total = sum(counts.values())
    if total == 0:
        return 0.0
    rank = q * total
    seen = 0
    for i in sorted(counts):
        c = counts[i]
        if seen + c >= rank:
            if i == 10**6:
                return top
            lo = 0.0 if i == 0 else _bound(i - 1)
            hi = _bound(i)
            return lo + (hi - lo) * (rank - seen) / c
        seen += c
    return top


def gauge(scrape, name):
    for family in scrape["metrics"]["metrics"]:
        if family["name"] == name:
            return family["series"][0]["value"]
    return 0.0


def derive(raw, workload):
    """Every metric the benchmark reports, from the generator's document."""
    n = dict(raw["numbers"])
    s = raw["scrapes"]
    if workload == "sweep":
        phase = closed = [(s["sweep_before"], s["sweep_after"])]
        measured = phase[0]
    else:
        # serve-* alternate an open and a closed slice in each round.
        rounds = range(int(n["rounds"]))
        phase = [(s["open_before.%d" % r], s["open_after.%d" % r]) for r in rounds]
        closed = [(s["closed_before.%d" % r], s["closed_after.%d" % r]) for r in rounds]
        measured = (phase[0][0], closed[-1][1])
    threads = max(1, phase[0][1]["threads"])

    def delta(pairs, key):
        return sum(after[key] - before[key] for before, after in pairs)

    def gauge_delta(pairs, name):
        return sum(gauge(after, name) - gauge(before, name) for before, after in pairs)

    serve_lat = hist_delta(phase, "easched_serve_latency_ms",
                           lambda l: l.get("tenant") == "bench")
    n["serve.daemon_p50_ms"] = hist_quantile(serve_lat, 0.5)
    if workload == "sweep":
        # Cold, warm and resweep times are three clusters whose medians
        # jump between them; the means subtract cleanly.
        n["serve.wire_ms"] = n["sweep.client_mean_ms"] - hist_mean(serve_lat)
    else:
        n["serve.wire_ms"] = n["open.p50_ms"] - n["serve.daemon_p50_ms"]
    wait = hist_delta(phase, "easched_job_queue_wait_ms")
    n["engine.queue_wait_p50_ms"] = hist_quantile(wait, 0.5)
    n["engine.queue_wait_p90_ms"] = hist_quantile(wait, 0.9)
    n["engine.job_p50_ms"] = hist_quantile(
        hist_delta(phase, "easched_job_latency_ms", lambda l: l.get("priority") == "0"), 0.5)
    wall_ms = delta(closed, "at_ms")
    busy_ms = gauge_delta(closed, "easched_pool_busy_ms")
    n["engine.pool_utilization"] = busy_ms / (threads * wall_ms) if wall_ms > 0 else 0.0
    lookups = (delta([measured], "cache_hits") + delta([measured], "cache_misses") +
               delta([measured], "store_hits"))
    n["frontier.hit_ratio"] = (
        (delta([measured], "cache_hits") + delta([measured], "store_hits")) / lookups
        if lookups else 0.0)
    n["store.bytes_per_request"] = (delta([measured], "store_bytes") /
                                    max(1.0, n["measured.requests"]))
    if workload == "sweep":
        n["engine.sweep_parallel_efficiency"] = n.get("sweep.serial_over_wall", 0.0) / threads
        n["frontier.warm_sweep_speedup"] = n["sweep_cold_p50_ms"] / n["sweep_warm_p50_ms"]
        n["frontier.resweep_speedup"] = n["sweep_cold_p50_ms"] / n["resweep_p50_ms"]
    else:
        # Serial solver work the closed loop asked of the pool, over its capacity.
        solver_ms = delta(closed, "cache_misses") * n.get("api.solve_mean_ms", 0.0)
        n["engine.sweep_parallel_efficiency"] = (
            solver_ms / (threads * wall_ms) if wall_ms > 0 else 0.0)
        for name in ("frontier.sweep_probes", "frontier.infeasible_ratio",
                     "frontier.prefetch_useful_ratio", "frontier.warm_sweep_speedup",
                     "frontier.resweep_speedup"):
            n.setdefault(name, 0.0)
    n["error_rate"] = n["failed"] / max(1.0, n["attempted"])
    return n


def validity(n, workload):
    """Reasons this run must not be scored (empty when it is valid)."""
    reasons = []
    if workload == "serve-warm" and n["frontier.hit_ratio"] != 1.0:
        reasons.append("frontier.hit_ratio %.6f != 1 on serve-warm" % n["frontier.hit_ratio"])
    if workload == "serve-cold" and n["frontier.hit_ratio"] != 0.0:
        reasons.append("frontier.hit_ratio %.6f != 0 on serve-cold" % n["frontier.hit_ratio"])
    if workload != "sweep":
        if n["lateness_p99_ms"] > LATENESS_P99_CAP_MS:
            reasons.append("generator lateness p99 %.2f ms > %.0f ms"
                           % (n["lateness_p99_ms"], LATENESS_P99_CAP_MS))
        first, last = n["open.backlog_first_quarter"], n["open.backlog_last_quarter"]
        if last > 2.0 * first + 8.0:
            reasons.append("open-loop backlog grew from %.1f to %.1f" % (first, last))
    return reasons


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        notes = json.load(f)

    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(out_root, "perfbench")
    if not build(build_dir):
        log("build failed")
        return 2
    # perfbench/CMakeLists.txt adds the repository as subdirectory "easched".
    cli = os.path.join(build_dir, "easched", "easched_cli")
    loadgen = os.path.join(build_dir, "perfbench_loadgen")

    workdir = os.path.join(out_root, "run-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    raw_path = os.path.join(workdir, "raw.json")
    trace_path = os.path.join(out_root, "trace-%s-seed%d.json" % (args.workload, args.seed))
    argv = [loadgen, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--cli", cli, "--workdir", workdir, "--out", raw_path]
    if args.trace:
        argv += ["--trace-out", trace_path]
    try:
        rc = run_generator(argv, GENERATOR_TIMEOUT_S)
        if rc is None or rc == 2 or not os.path.exists(raw_path):
            log("generator failed (exit %s)" % rc)
            return 2
        with open(raw_path) as f:
            raw = json.load(f)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = derive(raw, args.workload)
    invalid = validity(n, args.workload)
    failed = int(min(n["failed"], n["attempted"]))
    correct = rc == 0 and failed == 0 and not invalid

    print("workload %s, seed %d, %g s, trace %d" % (args.workload, args.seed, args.seconds,
                                                    args.trace))
    for name, values in sorted(raw["series"].items()):
        print("%s: %s" % (name, ", ".join("%.4g" % v for v in values)))
    if args.workload == "sweep":
        print("sweeps: %d instances (cold, warm, resweep each)" % n["sweeps"])
        for name in ("sweep_cold_p50_ms", "sweep_warm_p50_ms", "resweep_p50_ms"):
            print("  %s: %.4f ms" % (name, n[name]))
    else:
        print("open loop: %d requests offered at %.0f req/s, achieved %.1f req/s; "
              "lateness p99 %.3f ms, max %.3f ms; backlog %.1f -> %.1f (end %d)"
              % (n["open.requests"], n["open.offered_rps"], n["open.achieved_rps"],
                 n["lateness_p99_ms"], n["lateness_max_ms"], n["open.backlog_first_quarter"],
                 n["open.backlog_last_quarter"], n["open.backlog_end"]))
        print("closed loop: window %d, %d completed in %.2f s"
              % (n["closed.window"], n["closed.completed"], n["closed.wall_s"]))
    print("error_rate: %.6f (%d failed of %d attempted)" % (n["error_rate"], failed,
                                                              n["attempted"]))
    print("replayed in process: %d requests, %d answers checked against api::solve"
          % (n["replay.items"], n["replay.checked"]))
    for e in raw.get("error_samples", []):
        print("  error: " + e)
    print("correctness: %s" % ("OK" if failed == 0 and rc == 0 else "MISMATCH"))
    for r in invalid:
        print("INVALID RUN: " + r)

    metrics = {}
    if args.trace:
        chosen = bench["per_layer"]
        moves = notes["per_layer"]
    else:
        chosen = bench["end_to_end"]
        moves = {}
    for m in chosen:
        value = n[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        hint = moves.get(m["name"])
        print("%-36s %14.6f %-6s %s" % (m["name"], value, m["unit"],
                                        ("-> " + hint) if hint else ""))
    if args.trace:
        for name in sorted(k for k in n if k.startswith(("self_us.", "api.solve_ms."))):
            print("%-36s %14.6f" % (name, n[name]))
        print("trace written to " + os.path.relpath(trace_path))

    print(json.dumps({"correct": correct, "attempted": int(n["attempted"]),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
