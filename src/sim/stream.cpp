#include "sim/stream.hpp"

#include <algorithm>
#include <tuple>

#include "common/status.hpp"

namespace easched::sim {
namespace {

/// Substream index stride between streams of one corpus: class indices
/// live below it, stream indices above. 2^16 classes is far beyond any
/// realistic class vector.
constexpr std::uint64_t kStreamStride = 1ULL << 16;

}  // namespace

common::Rng substream(std::uint64_t seed, StreamPurpose purpose, std::uint64_t index) {
  // One master per seed; the purpose tag occupies the top byte of the
  // split index so (purpose, index) pairs map to distinct child streams.
  const common::Rng master(seed);
  return master.split((static_cast<std::uint64_t>(purpose) << 56) ^ index);
}

std::vector<TaskClass> default_task_classes(bool periodic) {
  // A serving tier's SLA spacing (mean gaps 2 / 5 / 11): tight frequent
  // SLA0 work, medium SLA1, sparse loose SLA2. Relative deadlines stay
  // at or below the gap (constrained deadlines — the regime the
  // cycle-conserving density argument is proved in) and the total
  // density 0.5/2 + 1/4 + 1.2/8 = 0.65 is comfortably feasible at
  // fmax 1.0 while high enough that the policies' speed choices
  // separate.
  std::vector<TaskClass> classes(3);
  classes[0] = {"sla0", 2.0, periodic, 0.5, 2.0, 0, 0.5};
  classes[1] = {"sla1", 5.0, periodic, 1.0, 4.0, 1, 0.5};
  classes[2] = {"sla2", 11.0, periodic, 1.2, 8.0, 2, 0.5};
  return classes;
}

ArrivalTrace make_trace(const std::vector<TaskClass>& classes, double horizon,
                        std::uint64_t seed, std::uint64_t stream_index) {
  EASCHED_CHECK(!classes.empty());
  EASCHED_CHECK(horizon > 0.0);

  ArrivalTrace trace;
  trace.horizon = horizon;
  // (release, class, per-class sequence) sort keys: the per-class
  // sequence is implicit in generation order, so keep it alongside.
  std::vector<std::tuple<double, int, int>> order;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const TaskClass& cls = classes[c];
    EASCHED_CHECK_MSG(cls.mean_gap > 0.0, "task class needs a positive gap/period");
    EASCHED_CHECK_MSG(cls.wcet > 0.0, "task class needs positive WCET");
    EASCHED_CHECK_MSG(cls.relative_deadline > 0.0, "task class needs a positive deadline");
    EASCHED_CHECK_MSG(cls.bcet_fraction > 0.0 && cls.bcet_fraction <= 1.0,
                      "bcet_fraction must be in (0, 1]");
    const std::uint64_t key = stream_index * kStreamStride + c;
    common::Rng arrival_rng = substream(seed, StreamPurpose::kArrival, key);
    common::Rng work_rng = substream(seed, StreamPurpose::kWork, key);
    double t = cls.periodic ? 0.0 : arrival_rng.exponential(1.0 / cls.mean_gap);
    int seq = 0;
    while (t < horizon) {
      SimJob job;
      job.release = t;
      job.wcet = cls.wcet;
      job.work = cls.wcet * work_rng.uniform(cls.bcet_fraction, 1.0);
      job.deadline = t + cls.relative_deadline;
      job.task_class = static_cast<int>(c);
      job.sla = cls.sla;
      order.emplace_back(job.release, static_cast<int>(c), seq++);
      trace.jobs.push_back(job);
      t += cls.periodic ? cls.mean_gap : arrival_rng.exponential(1.0 / cls.mean_gap);
    }
  }

  // Total order on (release, class, seq): ties at equal release resolve
  // the same way on every run and platform.
  std::vector<std::size_t> idx(trace.jobs.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return order[a] < order[b]; });
  std::vector<SimJob> sorted;
  sorted.reserve(trace.jobs.size());
  for (std::size_t i : idx) sorted.push_back(trace.jobs[i]);
  trace.jobs = std::move(sorted);
  return trace;
}

}  // namespace easched::sim
