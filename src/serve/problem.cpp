#include "serve/problem.hpp"

#include <exception>
#include <utility>

#include "graph/io.hpp"
#include "model/reliability.hpp"
#include "model/speed_model.hpp"
#include "sched/list_scheduler.hpp"

namespace easched::serve {
namespace {

/// Per-allocation bookkeeping of the allocator (a glibc chunk header plus
/// alignment slack), charged to every heap block.
constexpr std::size_t kMallocOverhead = 16;

std::size_t heap_block(std::size_t bytes) {
  return bytes == 0 ? 0 : bytes + kMallocOverhead;
}

template <typename T>
std::size_t vector_heap(const std::vector<T>& v) {
  return heap_block(v.capacity() * sizeof(T));
}

std::size_t dag_heap(const graph::Dag& dag) {
  const auto n = static_cast<std::size_t>(dag.num_tasks());
  const std::size_t sso_capacity = std::string().capacity();
  // weights_, names_, succ_ and pred_ arrays (their capacities are not
  // exposed; the parser sizes them exactly).
  std::size_t bytes = heap_block(n * sizeof(double)) + heap_block(n * sizeof(std::string)) +
                      2 * heap_block(n * sizeof(std::vector<graph::TaskId>));
  for (graph::TaskId t = 0; t < dag.num_tasks(); ++t) {
    const std::string& name = dag.name(t);
    if (name.capacity() > sso_capacity) bytes += heap_block(name.capacity() + 1);
    bytes += vector_heap(dag.successors(t)) + vector_heap(dag.predecessors(t));
  }
  return bytes;
}

std::size_t mapping_heap(const sched::Mapping& mapping) {
  const auto p = static_cast<std::size_t>(mapping.num_processors());
  std::size_t bytes = heap_block(p * sizeof(std::vector<graph::TaskId>)) +
                      heap_block(static_cast<std::size_t>(mapping.num_tasks()) * sizeof(int));
  for (int q = 0; q < mapping.num_processors(); ++q) bytes += vector_heap(mapping.order_on(q));
  return bytes;
}

}  // namespace

common::Result<BuiltProblem> build_problem(const ProblemSpec& spec, double deadline) {
  if (spec.processors < 1 || spec.processors > kMaxProcessors) {
    return common::Status::invalid("ProblemSpec: processors must be in [1, " +
                                   std::to_string(kMaxProcessors) + "]");
  }
  if (!(deadline > 0.0)) {
    return common::Status::invalid("ProblemSpec: deadline must be > 0");
  }
  auto dag = graph::from_text(spec.dag_text);
  if (!dag.is_ok()) return dag.status();
  try {
    model::SpeedModel speeds = [&] {
      switch (spec.speed_kind) {
        case model::SpeedModelKind::kDiscrete:
          return model::SpeedModel::discrete(spec.levels);
        case model::SpeedModelKind::kVddHopping:
          return model::SpeedModel::vdd_hopping(spec.levels);
        case model::SpeedModelKind::kIncremental:
          return model::SpeedModel::incremental(spec.fmin, spec.fmax, spec.delta);
        case model::SpeedModelKind::kContinuous:
        default:
          return model::SpeedModel::continuous(spec.fmin, spec.fmax);
      }
    }();
    const auto mapping = sched::list_schedule(dag.value(), spec.processors,
                                              sched::PriorityPolicy::kCriticalPath);
    std::optional<model::ReliabilityModel> rel;
    if (spec.tricrit) {
      rel.emplace(spec.lambda0, spec.dexp, speeds.fmin(), speeds.fmax(), spec.frel);
    }
    return BuiltProblem(std::make_shared<const core::Problem>(
        std::move(dag).take(), mapping, speeds, std::move(rel), deadline));
  } catch (const std::exception& e) {
    return common::Status::invalid(std::string("ProblemSpec rejected: ") + e.what());
  }
}

std::size_t footprint_bytes(const BuiltProblem& built) {
  // make_shared puts the object and its control block in one allocation.
  constexpr std::size_t kControlBlock = 2 * sizeof(void*);
  return heap_block(sizeof(core::Problem) + kControlBlock) + dag_heap(built->dag) +
         mapping_heap(built->mapping) + vector_heap(built->speeds.levels());
}

ProblemMemo::ProblemMemo(obs::Registry* metrics) {
  if (metrics == nullptr) return;
  m_hits_ = metrics->counter("easched_serve_problem_memo_hits_total");
  m_misses_ = metrics->counter("easched_serve_problem_memo_misses_total");
  m_evictions_ = metrics->counter("easched_serve_problem_memo_evictions_total");
  m_bytes_ = metrics->gauge("easched_serve_problem_memo_bytes");
}

common::Result<BuiltProblem> ProblemMemo::get(const ProblemSpec& spec) {
  std::string key;
  spec.encode(key);
  if (auto it = index_.find(key); it != index_.end()) {
    if (m_hits_ != nullptr) m_hits_->inc();
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->built;
  }
  if (m_misses_ != nullptr) m_misses_->inc();
  auto built = build_problem(spec, spec.deadline);
  if (!built.is_ok()) return built;

  // The entry's charge: the key's heap block, the list node and the index
  // node besides the problem itself.
  constexpr std::size_t kIndexNode =
      sizeof(std::pair<const std::string_view, std::list<Entry>::iterator>) +
      2 * sizeof(void*);
  const std::size_t bytes = heap_block(key.capacity() + 1) +
                            heap_block(sizeof(Entry) + 2 * sizeof(void*)) +
                            heap_block(kIndexNode) + footprint_bytes(built.value());
  if (bytes > kBudgetBytes) return built;
  while (bytes_ + bytes > kBudgetBytes) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    if (m_evictions_ != nullptr) m_evictions_->inc();
  }
  lru_.push_front(Entry{std::move(key), built.value(), bytes});
  index_.emplace(lru_.front().key, lru_.begin());
  bytes_ += bytes;
  if (m_bytes_ != nullptr) m_bytes_->set(static_cast<double>(bytes_));
  return built;
}

}  // namespace easched::serve
