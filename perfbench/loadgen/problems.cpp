#include <utility>

#include "common/rng.hpp"
#include "core/corpus.hpp"
#include "graph/io.hpp"
#include "loadgen.hpp"
#include "sched/list_scheduler.hpp"

namespace perfbench {

using namespace easched;

namespace {

/// Fills the wire fields of a generated DAG the way the daemon will see
/// it: critical-path list-scheduled on kProcessors, deadline 3x the
/// all-fmax makespan of that mapping.
Problem wire_problem(std::string family, graph::Dag dag, bool tricrit) {
  auto mapping = sched::list_schedule(dag, kProcessors, sched::PriorityPolicy::kCriticalPath);
  Problem p;
  p.family = std::move(family);
  p.dag_text = graph::to_text(dag);
  p.makespan_fmax = core::deadline_with_slack(
      core::Instance{p.family, std::move(dag), std::move(mapping), kProcessors}, kFmax, 1.0);
  p.deadline = 3.0 * p.makespan_fmax;
  p.tricrit = tricrit;
  return p;
}

}  // namespace

std::vector<Problem> make_problems(std::uint64_t seed, int tasks, std::size_t count,
                                   double tricrit_share) {
  common::Rng rng(seed);
  common::Rng kind_rng = rng.split(1);
  core::CorpusOptions options;
  options.tasks = tasks;
  options.processors = kProcessors;
  options.instances_per_family = 1;
  std::vector<Problem> out;
  out.reserve(count);
  while (out.size() < count) {
    for (auto& inst : core::standard_corpus(rng, options)) {
      if (out.size() == count) break;
      out.push_back(wire_problem(inst.name, std::move(inst.dag),
                                 kind_rng.bernoulli(tricrit_share)));
    }
  }
  return out;
}

Problem scale_task0(const Problem& problem, double factor) {
  auto dag = graph::from_text(problem.dag_text);
  graph::Dag changed = std::move(dag).take();
  changed.set_weight(0, changed.weight(0) * factor);
  return wire_problem(problem.family, std::move(changed), problem.tricrit);
}

serve::ProblemSpec spec_of(const Problem& problem) {
  serve::ProblemSpec spec;
  spec.dag_text = problem.dag_text;
  spec.processors = kProcessors;
  spec.fmin = kFmin;
  spec.fmax = kFmax;
  spec.deadline = problem.deadline;
  spec.tricrit = problem.tricrit;
  if (problem.tricrit) spec.frel = kFrel;
  return spec;
}

}  // namespace perfbench
