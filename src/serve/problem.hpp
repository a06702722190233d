#pragma once
// serve::build_problem and serve::ProblemMemo — turning wire ProblemSpecs
// into the problems the engine solves.
//
// A ProblemSpec carries its DAG as text; rebuilding the problem parses
// that text, recomputes the mapping with the critical-path list
// scheduler and constructs the model. On repeat traffic that rebuild is
// most of what a cached answer costs the daemon, so SolveRequests go
// through ProblemMemo: an LRU from the exact encoded spec bytes to the
// built (immutable, shared) problem, under a fixed byte budget. A repeat
// request then costs one decode, one memo lookup and the engine's cache
// probe. Built problems hold no tenant state — the tenant's cache
// namespace is applied when the engine query is made — so one memo
// serves every tenant.

#include <cstddef>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/status.hpp"
#include "core/problem.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"

namespace easched::serve {

/// A request's problem, rebuilt server-side.
using BuiltProblem = std::shared_ptr<const core::Problem>;

/// Rebuilds the problem a ProblemSpec describes, with the mapping
/// recomputed by the same critical-path list scheduler the CLI uses.
/// `deadline` overrides the spec's (deadline sweeps anchor the problem at
/// the axis maximum, mirroring the CLI). Scalar checks, including the
/// kMaxProcessors bound, run before anything is allocated. Model
/// constructors treat bad parameters as precondition violations
/// (logic_error); at this trust boundary the peer's bytes are data, not
/// preconditions, so those throws degrade into kInvalidArgument.
common::Result<BuiltProblem> build_problem(const ProblemSpec& spec, double deadline);

/// Resident bytes of a built problem: the heap blocks of its DAG,
/// mapping and speed model (each charged a malloc header), the problem
/// object and its shared_ptr control block.
std::size_t footprint_bytes(const BuiltProblem& built);

/// Byte-budgeted LRU of built problems keyed by exact encoded spec bytes.
/// Not thread-safe: the daemon's poll loop is its only user.
class ProblemMemo {
 public:
  /// Fixed budget. A 32-task problem is charged ~9 KB (spec bytes
  /// included), so the memo holds about a hundred hot instances.
  static constexpr std::size_t kBudgetBytes = std::size_t{1} << 20;

  /// `metrics`, when set, receives easched_serve_problem_memo_hits_total,
  /// _misses_total, _evictions_total and the resident _bytes gauge.
  explicit ProblemMemo(obs::Registry* metrics = nullptr);

  ProblemMemo(const ProblemMemo&) = delete;
  ProblemMemo& operator=(const ProblemMemo&) = delete;

  /// build_problem(spec, spec.deadline), memoized. Failed builds are
  /// returned and never memoized; a problem whose charge (key bytes plus
  /// footprint_bytes plus the memo's own nodes) exceeds the whole budget
  /// is returned without being memoized.
  common::Result<BuiltProblem> get(const ProblemSpec& spec);

  std::size_t bytes() const noexcept { return bytes_; }  ///< resident charge

 private:
  struct Entry {
    std::string key;
    BuiltProblem built;
    std::size_t bytes = 0;
  };

  std::size_t bytes_ = 0;
  /// Front = most recently used. Index keys view the entries' own key
  /// strings (list nodes never move).
  std::list<Entry> lru_;
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index_;
  obs::Counter* m_hits_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
  obs::Gauge* m_bytes_ = nullptr;
};

}  // namespace easched::serve
