#include "api/batch.hpp"

#include <utility>

namespace easched::api {

BatchReport aggregate_batch(const std::vector<BatchJob>& jobs,
                            std::vector<common::Result<SolveReport>> results) {
  BatchReport report;
  report.results = std::move(results);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    FamilyAggregate& agg = report.by_family[jobs[i].family];
    const auto& result = report.results[i];
    if (!result.is_ok()) {
      ++agg.failed;
      ++report.failed;
      continue;
    }
    agg.energy.add(result.value().energy);
    agg.wall_ms.add(result.value().wall_ms);
    agg.makespan.add(result.value().makespan);
    ++agg.solved;
    ++report.solved;
  }
  return report;
}

std::vector<BatchJob> corpus_bicrit_jobs(const std::vector<core::Instance>& corpus,
                                         const model::SpeedModel& speeds,
                                         double slack_factor) {
  std::vector<BatchJob> jobs;
  jobs.reserve(corpus.size());
  for (const auto& inst : corpus) {
    const double deadline = core::deadline_with_slack(inst, speeds.fmax(), slack_factor);
    BatchJob job;
    job.family = inst.name;
    job.bicrit = std::make_shared<const core::BiCritProblem>(inst.dag, inst.mapping,
                                                             speeds, deadline);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<BatchJob> corpus_tricrit_jobs(const std::vector<core::Instance>& corpus,
                                          const model::SpeedModel& speeds,
                                          const model::ReliabilityModel& reliability,
                                          double slack_factor) {
  std::vector<BatchJob> jobs;
  jobs.reserve(corpus.size());
  for (const auto& inst : corpus) {
    const double deadline =
        core::deadline_with_slack(inst, speeds.fmax(), slack_factor) / reliability.frel();
    BatchJob job;
    job.family = inst.name;
    job.tricrit = std::make_shared<const core::TriCritProblem>(
        inst.dag, inst.mapping, speeds, reliability, deadline);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace easched::api
