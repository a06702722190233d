// Bit pins for the continuous speed program: the energies, durations,
// gap bounds and Newton step counts that solve_continuous (BI-CRIT) and
// continuous_with_modes (the TRI-CRIT polish) return on one small mapped
// DAG. The constants are literal hex floats on purpose: a refactor of the
// program's construction or start point must reproduce them bit for bit,
// and comparing two results computed by the same build cannot show that.
//
// A change that moves the barrier regime on purpose re-pins the cases it
// moves and keeps their old energies: the new energy must lie within the
// old pin's gap bound of the old one. The barrier cases were re-pinned
// once so far, when the program dropped the rows the others imply (it
// used to spell one row per augmented-graph edge and four per task).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bicrit/continuous_dag.hpp"
#include "graph/analysis.hpp"
#include "model/energy.hpp"
#include "sched/list_scheduler.hpp"
#include "tricrit/heuristics.hpp"

namespace easched {
namespace {

using model::SpeedModel;

/// 8 tasks, 4 edges, on 2 processors by critical-path list scheduling.
/// The weights are literal so the instance cannot drift with a generator.
struct Instance {
  graph::Dag dag;
  sched::Mapping mapping;
  double m1;  ///< makespan at unit speed

  Instance()
      : dag(make_dag()),
        mapping(sched::list_schedule(dag, 2, sched::PriorityPolicy::kCriticalPath)) {
    std::vector<double> weights;
    for (graph::TaskId t = 0; t < dag.num_tasks(); ++t) weights.push_back(dag.weight(t));
    m1 = graph::time_analysis(mapping.augmented_graph(dag), weights, 0.0).makespan;
  }

  static graph::Dag make_dag() {
    graph::Dag dag;
    for (double w : {0x1.13aaa2f194a99p+1, 0x1.b44422b49a4c4p+1, 0x1.cc916399e1777p+1,
                     0x1.12511e20de934p+2, 0x1.888eb9e33e31cp+1, 0x1.08d68fcc4867ap+2,
                     0x1.81fdd83514c95p+1, 0x1.0f04724063e78p+2}) {
      dag.add_task(w);
    }
    dag.add_edge(0, 4);
    dag.add_edge(2, 4);
    dag.add_edge(3, 4);
    dag.add_edge(3, 5);
    return dag;
  }
};

const SpeedModel kSpeeds = SpeedModel::continuous(0.2, 1.0);
const model::ReliabilityModel kRel(1e-5, 3.0, 0.2, 1.0, 0.8);

struct BiCritPin {
  double energy;
  double gap_bound;
  int newton_steps;
  std::vector<double> durations;
};

void expect_pinned(const common::Result<bicrit::ContinuousSolution>& r, const BiCritPin& pin) {
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const auto& s = r.value();
  EXPECT_EQ(s.energy, pin.energy);
  EXPECT_EQ(s.gap_bound, pin.gap_bound);
  EXPECT_EQ(s.newton_steps, pin.newton_steps);
  ASSERT_EQ(s.durations.size(), pin.durations.size());
  for (std::size_t t = 0; t < pin.durations.size(); ++t) {
    EXPECT_EQ(s.durations[t], pin.durations[t]) << "task " << t;
  }
}

struct TriCritPin {
  double energy;
  int re_executed;
  std::vector<double> durations;
};

void expect_pinned(const graph::Dag& dag, const common::Result<tricrit::TriCritSolution>& r,
                   const TriCritPin& pin) {
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value().energy, pin.energy);
  EXPECT_EQ(r.value().re_executed, pin.re_executed);
  const auto durations = r.value().schedule.durations(dag);
  ASSERT_EQ(durations.size(), pin.durations.size());
  for (std::size_t t = 0; t < pin.durations.size(); ++t) {
    EXPECT_EQ(durations[t], pin.durations[t]) << "task " << t;
  }
}

/// The old pin of a re-pinned case: its energy and gap bound.
struct OldPin {
  double energy;
  double gap_bound;
};

void expect_within_old_gap(double energy, const OldPin& old) {
  EXPECT_LE(std::abs(energy - old.energy), old.gap_bound);
}

// The spelled program on this instance had 42 rows (10 augmented-graph
// edges, 4 per task) and stopped at t = 20^9 in every barrier case below.
constexpr double kSpelledGapBound = 0x1.68c6fa0b2f9a3p-34;

const BiCritPin kColdInterior{
    0x1.5f0ecca252e4ap+3, 0x1.cfdb417c18a1bp-35, 91,
    {0x1.dcf1614829fe2p+1, 0x1.47331a0772e24p+2, 0x1.8e6caa282d24dp+2, 0x1.9b79ad314c0e5p+2,
     0x1.53972f83aae8cp+2, 0x1.ca354a7133082p+2, 0x1.217e6227ceefdp+2, 0x1.9686ab6094a01p+2}};

TEST(PinnedSolver, BiCritColdInterior) {
  const Instance inst;
  auto r = bicrit::solve_continuous(inst.dag, inst.mapping, 1.5 * inst.m1, kSpeeds);
  expect_pinned(r, kColdInterior);
  expect_within_old_gap(r.value().energy, OldPin{0x1.5f0ecca252e41p+3, kSpelledGapBound});
}

TEST(PinnedSolver, BiCritWarmStartedNeighbour) {
  const Instance inst;
  bicrit::ContinuousOptions options;
  options.start_durations = kColdInterior.durations;
  auto r =
      bicrit::solve_continuous(inst.dag, inst.mapping, 1.5 * inst.m1 * 1.02, kSpeeds, options);
  expect_pinned(r, BiCritPin{0x1.516d01b5e8097p+3, 0x1.cfdb417c18a1bp-35, 89,
                             {0x1.e67b53de1647cp+1, 0x1.4dbe5d1c13dd6p+2, 0x1.966499147fe89p+2,
                              0x1.a3b46e18aeca4p+2, 0x1.5a61e3aa24022p+2, 0x1.d35f510d101b6p+2,
                              0x1.27489751907b5p+2, 0x1.9ea815346e981p+2}});
  expect_within_old_gap(r.value().energy, OldPin{0x1.516d01b5e8095p+3, kSpelledGapBound});
}

TEST(PinnedSolver, BiCritAllFmin) {
  const Instance inst;
  expect_pinned(
      bicrit::solve_continuous(inst.dag, inst.mapping, 2.0 * inst.m1 / 0.2, kSpeeds),
      BiCritPin{0x1.1db6289db7c63p+0, 0x0p+0, 0,
                {0x1.58954badf9d3fp+3, 0x1.10aa95b0e06fap+4, 0x1.1fdade402ceaap+4,
                 0x1.56e565a916381p+4, 0x1.eab2685c0dbe3p+3, 0x1.4b0c33bf5a818p+4,
                 0x1.e27d4e4259fbap+3, 0x1.52c58ed07ce16p+4}});
}

TEST(PinnedSolver, BiCritAllFmax) {
  const Instance inst;
  expect_pinned(bicrit::solve_continuous(inst.dag, inst.mapping, inst.m1, kSpeeds),
                BiCritPin{0x1.be6c9f766f25bp+4, 0x0p+0, 0,
                          {0x1.13aaa2f194a99p+1, 0x1.b44422b49a4c4p+1, 0x1.cc916399e1777p+1,
                           0x1.12511e20de934p+2, 0x1.888eb9e33e31cp+1, 0x1.08d68fcc4867ap+2,
                           0x1.81fdd83514c95p+1, 0x1.0f04724063e78p+2}});
}

// On this instance the longest path over w/fmin is one ulp above m1/fmin,
// so whether a deadline of exactly m1/fmin admits the all-fmin point
// depends on how the fmin makespan is summed. A solver may answer with
// the closed all-fmin point or with a barrier iterate; either way the
// energy is within the reported gap bound of the all-fmin energy.
TEST(PinnedSolver, BiCritDeadlineAtTheFminMakespan) {
  const Instance inst;
  auto r = bicrit::solve_continuous(inst.dag, inst.mapping, inst.m1 / 0.2, kSpeeds);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  double all_fmin = 0.0;
  for (graph::TaskId t = 0; t < inst.dag.num_tasks(); ++t) {
    all_fmin += model::execution_energy(inst.dag.weight(t), 0.2);
  }
  EXPECT_LE(std::abs(r.value().energy - all_fmin), r.value().gap_bound);
}

TEST(PinnedSolver, TriCritAllSingle) {
  const Instance inst;
  auto r = tricrit::continuous_with_modes(inst.dag, inst.mapping, 1.1 * inst.m1, kRel, kSpeeds,
                                          std::vector<bool>(8, false));
  expect_pinned(inst.dag, r,
                TriCritPin{0x1.4a4b36c25c2c4p+4, 0,
                           {0x1.58954badf8c78p+1, 0x1.dfe48c9375e33p+1, 0x1.1fdade402c647p+2,
                            0x1.2dbfa124274dbp+2, 0x1.eab2685c0cb1cp+1, 0x1.4b0c33bf59fb5p+2,
                            0x1.a8973aa0c9997p+1, 0x1.2a1e7dad3a30fp+2}});
  expect_within_old_gap(r.value().energy, OldPin{0x1.4a4b36c25c2c5p+4, kSpelledGapBound});
}

TEST(PinnedSolver, TriCritMixedReexecution) {
  const Instance inst;
  std::vector<bool> modes(8, false);
  modes[1] = modes[4] = true;
  expect_pinned(inst.dag,
                tricrit::continuous_with_modes(inst.dag, inst.mapping, 1.6 * inst.m1, kRel,
                                               kSpeeds, modes),
                TriCritPin{0x1.2f59028032bc6p+4, 2,
                           {0x1.58954badf8588p+1, 0x1.2fb6d6dde9019p+3, 0x1.1fdade402c2cep+2,
                            0x1.56e565a914528p+2, 0x1.7192c8c0027b3p+3, 0x1.4b0c33bf59c3cp+2,
                            0x1.e27d4e4256307p+1, 0x1.52c58ed07afbdp+2}});
}

TEST(PinnedSolver, TriCritAllUpper) {
  const Instance inst;
  expect_pinned(inst.dag,
                tricrit::continuous_with_modes(inst.dag, inst.mapping, 10.0 * inst.m1, kRel,
                                               kSpeeds, std::vector<bool>(8, false)),
                TriCritPin{0x1.1db6289db7c63p+4, 0,
                           {0x1.58954badf9d3fp+1, 0x1.10aa95b0e06fap+2, 0x1.1fdade402ceaap+2,
                            0x1.56e565a916381p+2, 0x1.eab2685c0dbe3p+1, 0x1.4b0c33bf5a818p+2,
                            0x1.e27d4e4259fbap+1, 0x1.52c58ed07ce16p+2}});
}

TEST(PinnedSolver, TriCritInfeasibleModeSet) {
  const Instance inst;
  auto r = tricrit::continuous_with_modes(inst.dag, inst.mapping, 1.5 * inst.m1, kRel, kSpeeds,
                                          std::vector<bool>(8, true));
  EXPECT_EQ(r.status().code(), common::StatusCode::kInfeasible);
}

}  // namespace
}  // namespace easched
