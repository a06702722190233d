// E12 (claim C11): the DVFS/reliability interplay that motivates the
// whole TRI-CRIT problem. (a) analytic R_i(f) vs Monte-Carlo estimates;
// (b) reliability degrades as speed drops — the Zhu et al. effect;
// (c) worst-case energy accounting vs actually-spent energy.
//
// Gates (PASS/FAIL exit code):
//  * every simulated success rate lands inside its analytic value's
//    doubled Wilson 95% interval (doubled: the gate guards against model
//    bugs, not against the ~5% of honest CI misses a tight bound would
//    trip on eventually);
//  * re-executed reliability >= single-execution reliability per speed;
//  * analytic reliability is monotone non-decreasing in speed (the
//    motivation for TRI-CRIT);
//  * mean actual energy never exceeds the worst case the paper's
//    objective charges, and is strictly below it whenever the first
//    execution can succeed (at f = 0.3 the clamped failure probability
//    is 1, so every trial re-executes and actual == worst exactly).
// The headline minima and maximum (min_single_reliability,
// min_reexec_reliability, max_actual_over_worst) range over the rows
// where a first execution can succeed: a certain-failure row reads 0, 0
// and 1 whatever the model does, so it would pin them to constants.
// The trials are seeded through sim::substream, so all of this is
// deterministic — the gates check the model, not the dice.
//
// With --json-out FILE the headline numbers are written as JSON so
// scripts/bench_snapshot.sh can fold them into the committed baseline.

#include <algorithm>
#include <fstream>
#include <iostream>

#include "bench_util.hpp"
#include "graph/generators.hpp"
#include "sim/fault_sim.hpp"

int main(int argc, char** argv) {
  using namespace easched;
  bench::banner("E12 reliability simulation",
                "C11: DVFS lowers reliability; re-execution restores it",
                "Monte-Carlo fault injection vs the analytic model (200k trials/row)");

  const model::ReliabilityModel rel(1e-3, 4.0, 0.2, 1.0, 0.8);
  const double w = 10.0;
  const std::uint64_t seed = bench::corpus_seed(argc, argv, 0x5eedULL);

  bool contained = true;
  bool reexec_ge_single = true;
  bool monotone = true;
  double prev_analytic = 0.0;
  double min_single = 1.0, min_reexec = 1.0;
  {
    common::Table table({"speed", "R_analytic", "R_simulated", "ci95_lo", "ci95_hi",
                         "R_with_reexec"});
    for (double f : {0.3, 0.4, 0.5, 0.6, 0.8, 1.0}) {
      const auto dag = graph::make_independent({w});
      sched::Schedule single(1), redundant(1);
      single.at(0) = sched::TaskDecision::single(f);
      redundant.at(0) = sched::TaskDecision::re_exec(f, f);
      sim::SimOptions opt;
      opt.trials = 200000;
      opt.seed = seed;
      const auto rs = sim::simulate(dag, single, rel, opt);
      const auto rr = sim::simulate(dag, redundant, rel, opt);
      const auto [lo, hi] = rs.per_task[0].success.wilson95();
      const double analytic = rs.per_task[0].analytic_success;
      const double simulated = rs.per_task[0].success.estimate();
      const double reexec = rr.per_task[0].success.estimate();
      const bool certain_failure = rs.per_task[0].first_failed.estimate() >= 1.0;
      // Doubled interval around the point estimate must contain the
      // analytic value (equivalently: |analytic - simulated| <= 2 *
      // the one-sided Wilson width on that side).
      if (analytic < simulated - 2.0 * (simulated - lo) ||
          analytic > simulated + 2.0 * (hi - simulated)) {
        contained = false;
      }
      if (reexec < simulated) reexec_ge_single = false;
      if (analytic < prev_analytic) monotone = false;
      prev_analytic = analytic;
      if (!certain_failure) {
        min_single = std::min(min_single, simulated);
        min_reexec = std::min(min_reexec, reexec);
      }
      table.add_row({common::format_fixed(f, 2), common::format_fixed(analytic, 5),
                     common::format_fixed(simulated, 5),
                     common::format_fixed(lo, 5), common::format_fixed(hi, 5),
                     common::format_fixed(reexec, 5)});
    }
    std::cout << "-- per-speed reliability (w = 10, lambda0 = 1e-3, d = 4) --\n";
    table.print(std::cout);
  }

  bool actual_below_worst = true;
  double max_actual_over_worst = 0.0;
  {
    common::Table table({"speed", "E_worst_case", "E_actual_mean", "actual/worst"});
    for (double f : {0.3, 0.5, 0.8}) {
      const auto dag = graph::make_independent({w, w, w, w});
      sched::Schedule s(4);
      for (int t = 0; t < 4; ++t) s.at(t) = sched::TaskDecision::re_exec(f, f);
      sim::SimOptions opt;
      opt.trials = 100000;
      opt.seed = seed;
      const auto r = sim::simulate(dag, s, rel, opt);
      const double frac = r.actual_energy.mean() / r.worst_case_energy;
      // Strict saving is only possible when a first execution can
      // succeed; with certain failure actual == worst is the truth.
      const bool certain_failure = r.per_task[0].first_failed.estimate() >= 1.0;
      if (frac > 1.0 + 1e-12 || (!certain_failure && frac >= 1.0)) {
        actual_below_worst = false;
      }
      if (!certain_failure) max_actual_over_worst = std::max(max_actual_over_worst, frac);
      table.add_row({common::format_fixed(f, 2), common::format_g(r.worst_case_energy),
                     common::format_g(r.actual_energy.mean()),
                     common::format_pct(frac)});
    }
    std::cout << "\n-- worst-case provisioning vs actual spend (4 re-executed tasks) --\n";
    table.print(std::cout);
  }

  std::cout << "\ngates: ci_contained=" << (contained ? "yes" : "NO")
            << " reexec_ge_single=" << (reexec_ge_single ? "yes" : "NO")
            << " monotone_in_speed=" << (monotone ? "yes" : "NO")
            << " actual_below_worst=" << (actual_below_worst ? "yes" : "NO") << "\n";

  const bool ok = contained && reexec_ge_single && monotone && actual_below_worst;

  if (const char* path = bench::json_out_path(argc, argv)) {
    std::ofstream out(path);
    out << "{\n"
        << "  \"min_single_reliability\": " << common::format_g(min_single) << ",\n"
        << "  \"min_reexec_reliability\": " << common::format_g(min_reexec) << ",\n"
        << "  \"max_actual_over_worst\": " << common::format_g(max_actual_over_worst)
        << ",\n"
        << "  \"ci_contained\": " << (contained ? "true" : "false") << ",\n"
        << "  \"reexec_ge_single\": " << (reexec_ge_single ? "true" : "false") << ",\n"
        << "  \"pass\": " << (ok ? "true" : "false") << "\n"
        << "}\n";
  }

  std::cout << "\nShapes: R decreases as f drops (the motivation for TRI-CRIT);\n"
               "simulated R inside the Wilson interval of analytic R; actual energy\n"
               "well below the worst case the objective charges.\n";
  return ok ? 0 : 1;
}
