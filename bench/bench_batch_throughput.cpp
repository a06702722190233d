// E13: batch execution throughput — engine::Engine runs the standard
// corpus as one BatchQuery on its worker pool. Expected shape: identical
// per-family energy aggregates at every thread count (batching never
// changes results), with wall time dropping as threads increase until
// the corpus runs out of parallelism. Each thread count gets a fresh
// Engine, so every timed batch is cold.
//
// Second half: metrics on vs off on warm batches, where every solve is
// a cache hit and instrumentation is the largest share of the per-batch
// cost. Acceptance: metrics-on costs < 3% with bit-identical results
// (compared on submitted batches, with tracing on too).
//
// With --json-out FILE the headline medians are written as JSON so
// scripts/bench_snapshot.sh can track batch throughput next to the
// frontier and store numbers.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "api/batch.hpp"
#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "engine/engine.hpp"

namespace {

using namespace easched;

std::optional<engine::Engine> make_engine(std::size_t threads, bool metrics) {
  engine::EngineConfig config;
  config.threads = threads;
  config.metrics = metrics;
  config.trace_capacity = metrics ? 4096 : 0;
  auto created = engine::Engine::create(std::move(config));
  if (!created.is_ok()) {
    std::cerr << "engine creation failed: " << created.status().to_string() << "\n";
    return std::nullopt;
  }
  return std::move(created).take();
}

api::BatchReport run_batch(engine::Engine& eng, const std::vector<api::BatchJob>& jobs) {
  engine::BatchQuery query;
  query.jobs = jobs;
  return eng.submit(std::move(query)).get();
}

bool same_energies(const api::BatchReport& a, const api::BatchReport& b) {
  if (a.results.size() != b.results.size()) return false;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    if (a.results[i].is_ok() != b.results[i].is_ok() ||
        (a.results[i].is_ok() && a.results[i].value().energy != b.results[i].value().energy)) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("E13 batch throughput",
                "engine batches: corpus sweeps on the worker pool, results unchanged; "
                "metrics cost < 3%",
                "whole-corpus wall time and per-family energy by thread count");

  const auto corpus = bench::seeded_corpus(argc, argv, 13, /*tasks=*/14,
                                           /*processors=*/4,
                                           /*instances_per_family=*/3);
  const auto jobs =
      api::corpus_bicrit_jobs(corpus, model::SpeedModel::continuous(0.1, 1.0), 1.8);

  const std::size_t hw = common::default_thread_count();
  std::vector<std::size_t> counts{1, 2, 4, hw};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());

  double serial_ms = 0.0;
  double best_ms = 0.0;
  std::size_t best_threads = 1;
  bool threads_identical = true;
  api::BatchReport serial;
  api::BatchReport report;  // the hw-thread run, for the aggregates table
  common::Table table({"threads", "jobs", "solved", "failed", "wall_ms", "speedup"});
  for (std::size_t threads : counts) {
    auto eng = make_engine(threads, /*metrics=*/true);
    if (!eng) return 1;
    const api::BatchReport run = run_batch(*eng, jobs);
    if (threads == 1) {
      serial_ms = run.wall_ms;
      serial = run;
    } else if (!same_energies(serial, run)) {
      threads_identical = false;
    }
    if (best_ms <= 0.0 || run.wall_ms < best_ms) {
      best_ms = run.wall_ms;
      best_threads = threads;
    }
    table.add_row({common::format_int(static_cast<long long>(threads)),
                   common::format_int(static_cast<long long>(jobs.size())),
                   common::format_int(static_cast<long long>(run.solved)),
                   common::format_int(static_cast<long long>(run.failed)),
                   common::format_fixed(run.wall_ms, 1),
                   serial_ms > 0.0 ? common::format_ratio(serial_ms / run.wall_ms) : "-"});
    if (threads == hw) report = run;
  }
  table.print(std::cout);
  std::cout << "results identical across thread counts: "
            << (threads_identical ? "yes" : "NO") << "\n";

  std::cout << "\nper-family aggregates (threads=" << hw << "):\n\n";
  common::Table families({"family", "solved", "mean_energy", "sd_energy", "mean_ms"});
  for (const auto& [family, agg] : report.by_family) {
    families.add_row({family, common::format_int(static_cast<long long>(agg.solved)),
                      common::format_g(agg.energy.mean()),
                      common::format_g(agg.energy.stddev()),
                      common::format_fixed(agg.wall_ms.mean(), 2)});
  }
  families.print(std::cout);

  // --- metrics on vs off on warm batches. Every sample builds a fresh
  // one-worker engine per mode (so no one allocation layout decides the
  // result) and fills its cache with an untimed cold pass. The timed
  // batches use the synchronous Engine::solve_batch, which on a
  // one-worker pool runs the whole batch inline on this thread: both
  // modes are timed on the same thread with no hand-off in the
  // measurement. A warm batch takes well under a millisecond, so a sample
  // runs enough batches back to back to last >= 5 ms. The best sample of
  // each mode is compared with no absolute floor, so any per-batch
  // overhead above 3% fails the gate.
  const auto time_batches = [&](engine::Engine& eng, int batches) {
    bench::Stopwatch sw;
    for (int i = 0; i < batches; ++i) (void)eng.solve_batch(jobs);
    return sw.ms() / batches;
  };
  constexpr double kSampleMs = 5.0;
  constexpr int kSamples = 21;
  int batches = 0;
  double metrics_off_best = 0.0;
  double metrics_on_best = 0.0;
  bool metrics_identical = true;
  for (int s = 0; s < kSamples; ++s) {
    auto eng_off = make_engine(1, /*metrics=*/false);
    auto eng_on = make_engine(1, /*metrics=*/true);
    if (!eng_off || !eng_on) return 1;
    (void)run_batch(*eng_off, jobs);  // the untimed cold passes
    (void)run_batch(*eng_on, jobs);
    if (!same_energies(run_batch(*eng_off, jobs), run_batch(*eng_on, jobs))) {
      metrics_identical = false;
    }
    if (batches == 0) {
      const double warm_batch_ms = std::max(time_batches(*eng_off, 20), 1e-3);
      batches = std::max(1, static_cast<int>(std::ceil(kSampleMs / warm_batch_ms)));
    }
    const double off = time_batches(*eng_off, batches);
    const double on = time_batches(*eng_on, batches);
    if (metrics_off_best <= 0.0 || off < metrics_off_best) metrics_off_best = off;
    if (metrics_on_best <= 0.0 || on < metrics_on_best) metrics_on_best = on;
  }
  const double metrics_overhead_pct =
      metrics_off_best > 0.0
          ? (metrics_on_best - metrics_off_best) / metrics_off_best * 100.0
          : 0.0;
  const bool metrics_ok = metrics_on_best <= metrics_off_best * 1.03 && metrics_identical;
  std::cout << "\nwarm batch, metrics on vs off (threads=1, best of "
            << kSamples << " samples of " << batches << " back-to-back batches):\n"
            << "  metrics off: " << common::format_fixed(metrics_off_best, 4)
            << " ms per batch\n"
            << "  metrics on:  " << common::format_fixed(metrics_on_best, 4)
            << " ms per batch  (" << common::format_fixed(metrics_overhead_pct, 1)
            << "% overhead, results " << (metrics_identical ? "identical" : "DIFFER")
            << ")\n"
            << "ACCEPTANCE (metrics-on <= 1.03x off, identical results): "
            << (metrics_ok ? "PASS" : "FAIL") << "\n";

  if (const char* path = bench::json_out_path(argc, argv)) {
    std::ofstream out(path);
    out << "{\n"
        << "  \"jobs\": " << jobs.size() << ",\n"
        << "  \"serial_ms\": " << common::format_g(serial_ms) << ",\n"
        << "  \"best_ms\": " << common::format_g(best_ms) << ",\n"
        << "  \"best_threads\": " << best_threads << ",\n"
        << "  \"best_speedup\": "
        << common::format_g(best_ms > 0.0 ? serial_ms / best_ms : 0.0) << ",\n"
        << "  \"solved\": " << report.solved << ",\n"
        << "  \"failed\": " << report.failed << ",\n"
        << "  \"metrics_off_ms\": " << common::format_g(metrics_off_best) << ",\n"
        << "  \"metrics_on_ms\": " << common::format_g(metrics_on_best) << ",\n"
        << "  \"metrics_overhead_pct\": " << common::format_g(metrics_overhead_pct)
        << ",\n"
        << "  \"metrics_identical\": " << (metrics_identical ? "true" : "false")
        << ",\n"
        << "  \"metrics_ok\": " << (metrics_ok ? "true" : "false") << "\n"
        << "}\n";
  }

  std::cout << "\nShapes: per-family mean energy identical across thread counts; wall\n"
               "time scales down with threads until per-family imbalance dominates;\n"
               "metrics and tracing cost < 3% on warm batches with bit-identical\n"
               "results.\n";
  return threads_identical && metrics_ok ? 0 : 1;
}
