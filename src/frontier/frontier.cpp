#include "frontier/frontier.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <map>

#include "api/registry.hpp"
#include "common/parallel.hpp"
#include "frontier/analytics.hpp"

namespace easched::frontier {
namespace {

/// Evaluates one constraint point; fills *cache_hit when served warm.
/// Results come back shared so a warm probe never copies the stored
/// schedule — the lookup stays O(1) in the instance size.
using EvalResult = SolveCache::CachedResult;
using EvalFn = std::function<EvalResult(double, bool*)>;

EvalResult wrap_uncached(common::Result<api::SolveReport> result) {
  return std::make_shared<const common::Result<api::SolveReport>>(std::move(result));
}

/// The one deadline-axis eval used by sweeps and resweeps alike: with a
/// cache it interns the instance once (here, not per probe) and issues
/// O(1) POD-keyed lookups; without one it solves directly. Sharing the
/// builder guarantees a resweep's prefetch writes exactly the keys its
/// replay reads.
EvalFn make_deadline_eval(SolveCache* cache, const core::Problem& problem,
                          const FrontierOptions& options) {
  if (cache == nullptr) {
    return [&problem, &options](double deadline, bool*) {
      api::SolveOptions solve_options = options.solve;
      // The slack policy retargets the fixed problem to the swept
      // deadline without rebuilding the instance.
      solve_options.deadline_slack = deadline / problem.deadline;
      return wrap_uncached(
          api::solve(api::SolveRequest(problem, options.solver, solve_options)));
    };
  }
  api::SolveRequest anchor(problem, options.solver, options.solve);
  const SolveCache::InstanceContext context = cache->context_for(anchor);
  return [cache, &problem, &options, context](double deadline, bool* cache_hit) {
    api::SolveOptions solve_options = options.solve;
    solve_options.deadline_slack = deadline / problem.deadline;
    api::SolveRequest request(problem, options.solver, solve_options);
    return cache->solve_shared(request, SolveCache::key_for(context, request),
                               cache_hit);
  };
}

/// Reliability-axis counterpart: frel lives in the per-point key suffix,
/// so one interned context serves every threshold of the sweep.
EvalFn make_reliability_eval(SolveCache* cache, const core::Problem& problem,
                             const FrontierOptions& options) {
  const model::ReliabilityModel& base = *problem.reliability;
  auto swept_request = [&problem, &base, &options](double frel) {
    model::ReliabilityModel rel(base.lambda0(), base.sensitivity(), base.fmin(),
                                base.fmax(), frel);
    return core::Problem(problem.dag, problem.mapping, problem.speeds, rel,
                         problem.deadline);
  };
  if (cache == nullptr) {
    return [&options, swept_request](double frel, bool*) {
      const core::Problem swept = swept_request(frel);
      return wrap_uncached(
          api::solve(api::SolveRequest(swept, options.solver, options.solve)));
    };
  }
  api::SolveRequest anchor(problem, options.solver, options.solve);
  const SolveCache::InstanceContext context = cache->context_for(anchor);
  return [cache, &problem, &options, swept_request, context](double frel,
                                                             bool* cache_hit) {
    // Key first, from the point scalars alone: materialising the swept
    // problem copies the whole DAG and mapping, which a warm probe must
    // not pay — that copy happens only on the miss path below.
    const CacheKey key = SolveCache::key_for(
        context, api::ProblemKind::kTriCrit,
        problem.deadline * options.solve.deadline_slack, frel, options.solve);
    if (EvalResult found = cache->try_get(key, cache_hit)) return found;
    const core::Problem swept = swept_request(frel);
    api::SolveRequest request(swept, options.solver, options.solve);
    return cache->solve_shared(request, key, cache_hit);
  };
}

struct Eval {
  bool feasible = false;
  bool cache_hit = false;
  FrontierPoint point;  ///< valid when feasible
  common::Status status = common::Status::ok();
};

/// Statuses that legitimately vary per constraint point. Anything else
/// (unknown solver, invalid options, internal errors) would fail the
/// same way at every point and must abort the sweep instead.
bool point_level_failure(const common::Status& status) {
  switch (status.code()) {
    case common::StatusCode::kInfeasible:
    case common::StatusCode::kUnsupported:
    case common::StatusCode::kNotConverged:
      return true;
    default:
      return false;
  }
}

/// The uniform starting grid of a sweep over [lo, hi]. Factored out so
/// resweep's prefetch reproduces the replay's grid doubles bit-exactly.
std::vector<double> initial_grid(double lo, double hi, int initial) {
  std::vector<double> grid;
  const double span = hi - lo;
  if (span == 0.0 || initial == 1) {
    grid.push_back(lo);
    return grid;
  }
  for (int i = 0; i < initial; ++i) {
    // Pin the last point to `hi` exactly: lo + span * 1.0 can land one
    // ulp outside the range and fail the callers' bound checks.
    grid.push_back(i == initial - 1 ? hi
                                    : lo + span * static_cast<double>(i) / (initial - 1));
  }
  return grid;
}

/// Shared sweep driver: uniform grid, then bisection rounds. All decisions
/// (which intervals to split, in which order) derive from the solved
/// energies and the total order on constraints, never from timing or
/// thread interleaving — so the evaluated set is deterministic.
FrontierResult run_sweep(common::WorkerPool& pool, ConstraintAxis axis, double lo,
                         double hi, const FrontierOptions& options, const EvalFn& eval_at) {
  const auto start = std::chrono::steady_clock::now();
  EASCHED_CHECK_MSG(lo > 0.0 && lo <= hi, "frontier sweep needs 0 < lo <= hi");

  FrontierResult result;
  result.axis = axis;

  const int initial = std::max(1, options.initial_points);
  const int max_points = std::max(initial, options.max_points);
  const double span = hi - lo;
  const double min_gap = span * std::max(options.min_rel_spacing, 0.0);

  std::map<double, Eval> evaluated;  // keyed by constraint, ascending
  std::atomic<std::size_t> cache_hits{0};

  const auto cancelled = [&options] {
    return options.cancel != nullptr &&
           options.cancel->load(std::memory_order_relaxed);
  };

  auto evaluate_batch = [&](const std::vector<double>& constraints) {
    std::vector<Eval> evals(constraints.size());
    const auto eval_one = [&](std::size_t i) {
      Eval e;
      const EvalResult r = eval_at(constraints[i], &e.cache_hit);
      if (r->is_ok()) {
        e.feasible = true;
        e.point.constraint = constraints[i];
        e.point.energy = r->value().energy;
        e.point.makespan = r->value().makespan;
        e.point.solver = r->value().solver;
        e.point.exact = r->value().exact;
      } else {
        e.status = r->status();
      }
      if (e.cache_hit) cache_hits.fetch_add(1, std::memory_order_relaxed);
      evals[i] = std::move(e);
    };
    pool.parallel(constraints.size(), eval_one);
    // Stream before the map absorbs the evals: batch order (grid order,
    // then candidate-score order) is deterministic, so observers replaying
    // the stream see the same sequence on every run and thread count.
    if (options.on_point) {
      for (const Eval& e : evals) {
        if (e.feasible) options.on_point(e.point);
      }
    }
    for (std::size_t i = 0; i < constraints.size(); ++i) {
      evaluated.emplace(constraints[i], std::move(evals[i]));
    }
  };

  if (cancelled()) {
    result.error = common::Status::cancelled("frontier sweep cancelled");
    result.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return result;
  }
  evaluate_batch(initial_grid(lo, hi, initial));

  // Deterministic: the scan runs in constraint order, not solve order.
  auto request_level_error = [&]() -> common::Status {
    for (const auto& [c, e] : evaluated) {
      if (!e.feasible && !e.status.is_ok() && !point_level_failure(e.status)) {
        return e.status;
      }
    }
    return common::Status::ok();
  };

  result.error = request_level_error();
  for (int round = 0; result.error.is_ok() && round < options.max_refine_rounds;
       ++round) {
    if (cancelled()) {
      // Cooperative stop between rounds: every in-flight solve of the
      // previous round has completed and is cached/persisted, so the
      // partial curve below is consistent — just shallower than a full
      // sweep would be.
      result.error = common::Status::cancelled("frontier sweep cancelled");
      break;
    }
    const int budget = max_points - static_cast<int>(evaluated.size());
    if (budget <= 0) break;

    std::vector<std::pair<double, const Eval*>> all(evaluated.size());
    std::size_t idx = 0;
    for (const auto& [c, e] : evaluated) all[idx++] = {c, &e};

    // Candidate midpoints, scored by how much the curve bends there; the
    // feasibility boundary always refines first (the knee lives there).
    std::vector<std::pair<double, double>> candidates;  // (score, midpoint)
    auto propose = [&](double a, double b, double score) {
      if (b - a <= 2.0 * min_gap) return;
      const double mid = 0.5 * (a + b);
      if (evaluated.count(mid) != 0) return;
      candidates.emplace_back(score, mid);
    };
    for (std::size_t i = 0; i + 1 < all.size(); ++i) {
      if (all[i].second->feasible != all[i + 1].second->feasible) {
        propose(all[i].first, all[i + 1].first,
                std::numeric_limits<double>::infinity());
      }
    }
    std::vector<const Eval*> feasible;
    double e_min = std::numeric_limits<double>::infinity();
    double e_max = -std::numeric_limits<double>::infinity();
    for (const auto& [c, e] : all) {
      if (!e->feasible) continue;
      feasible.push_back(e);
      e_min = std::min(e_min, e->point.energy);
      e_max = std::max(e_max, e->point.energy);
    }
    const double e_range = e_max - e_min;
    if (e_range > 0.0) {
      for (std::size_t i = 1; i + 1 < feasible.size(); ++i) {
        const FrontierPoint& a = feasible[i - 1]->point;
        const FrontierPoint& b = feasible[i]->point;
        const FrontierPoint& c = feasible[i + 1]->point;
        const double t = (b.constraint - a.constraint) / (c.constraint - a.constraint);
        const double chord = a.energy + t * (c.energy - a.energy);
        const double deviation = std::abs(b.energy - chord) / e_range;
        if (deviation > options.bend_tolerance) {
          propose(a.constraint, b.constraint, deviation);
          propose(b.constraint, c.constraint, deviation);
        }
      }
    }
    if (candidates.empty()) break;

    std::sort(candidates.begin(), candidates.end(),
              [](const std::pair<double, double>& x, const std::pair<double, double>& y) {
                if (x.first != y.first) return x.first > y.first;
                return x.second < y.second;
              });
    std::vector<double> batch;
    for (const auto& [score, mid] : candidates) {
      if (static_cast<int>(batch.size()) >= budget) break;
      if (std::find(batch.begin(), batch.end(), mid) == batch.end()) {
        batch.push_back(mid);
      }
    }
    if (batch.empty()) break;
    evaluate_batch(batch);
    result.error = request_level_error();
  }

  std::vector<FrontierPoint> feasible_points;
  result.probes.reserve(evaluated.size());
  for (auto& [c, e] : evaluated) {
    result.probes.push_back(c);
    if (e.feasible) {
      feasible_points.push_back(std::move(e.point));
    } else if (point_level_failure(e.status)) {
      ++result.infeasible;
    }
  }
  result.evaluated = evaluated.size();
  result.cache_hits = cache_hits.load(std::memory_order_relaxed);
  result.points = pareto_filter(std::move(feasible_points), axis, &result.dominated);
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return result;
}

/// Prefetch phase of resweep: solve prev's probe positions (clipped to
/// the new range, deduplicated against the replay's grid which is solved
/// either way) in one parallel batch through `eval_at`, so the replay
/// finds them cached. Returns how many probes were prefetched.
std::size_t prefetch_probes(common::WorkerPool& pool, const FrontierResult& prev,
                            double lo, double hi, const FrontierOptions& options,
                            const EvalFn& eval_at) {
  const int initial = std::max(1, options.initial_points);
  std::vector<double> batch = initial_grid(lo, hi, initial);
  for (double c : prev.probes) {
    if (c >= lo && c <= hi) batch.push_back(c);
  }
  // Seeds from results that predate the probe trace: curve + dominated.
  if (prev.probes.empty()) {
    for (const auto& p : prev.points) {
      if (p.constraint >= lo && p.constraint <= hi) batch.push_back(p.constraint);
    }
    for (const auto& p : prev.dominated) {
      if (p.constraint >= lo && p.constraint <= hi) batch.push_back(p.constraint);
    }
  }
  std::sort(batch.begin(), batch.end());
  batch.erase(std::unique(batch.begin(), batch.end()), batch.end());
  const auto prefetch_one = [&](std::size_t i) {
    // The prefetch is pure speculation, so a pending cancellation just
    // skips the remaining probes — the replay handles the cancel status.
    if (options.cancel != nullptr && options.cancel->load(std::memory_order_relaxed)) {
      return;
    }
    bool hit = false;
    (void)eval_at(batch[i], &hit);
  };
  pool.parallel(batch.size(), prefetch_one);
  return batch.size();
}

/// Shared resweep scaffold: speculative prefetch (when the engine has a
/// cache), then the exact replay `sweep`, with the full prefetch+replay
/// span as wall_ms. `eval` may be null (no cache: nothing to prefetch).
FrontierResult resweep_run(common::WorkerPool& pool, const FrontierResult& prev,
                           double lo, double hi, const FrontierOptions& options,
                           const EvalFn* eval,
                           const std::function<FrontierResult()>& sweep) {
  const auto start = std::chrono::steady_clock::now();
  const std::size_t prefetched =
      eval != nullptr ? prefetch_probes(pool, prev, lo, hi, options, *eval) : 0;
  FrontierResult result = sweep();
  result.prefetched = prefetched;
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return result;
}

}  // namespace

FrontierResult FrontierEngine::deadline_sweep(const core::Problem& problem, double dmin,
                                              double dmax,
                                              const FrontierOptions& options) const {
  EASCHED_CHECK_MSG(problem.deadline > 0.0,
                    "deadline_sweep needs a positive anchor deadline");
  return run_sweep(*pool_, ConstraintAxis::kDeadline, dmin, dmax, options,
                   make_deadline_eval(cache_, problem, options));
}

FrontierResult FrontierEngine::reliability_sweep(const core::Problem& problem,
                                                 double rmin, double rmax,
                                                 const FrontierOptions& options) const {
  EASCHED_CHECK_MSG(problem.reliability.has_value(),
                    "reliability sweeps need a TRI-CRIT problem");
  const model::ReliabilityModel& base = *problem.reliability;
  EASCHED_CHECK_MSG(rmin >= base.fmin() && rmax <= base.fmax(),
                    "reliability sweep range must lie within [fmin, fmax]");
  return run_sweep(*pool_, ConstraintAxis::kReliability, rmin, rmax, options,
                   make_reliability_eval(cache_, problem, options));
}

FrontierResult FrontierEngine::resweep(const FrontierResult& prev,
                                       const core::Problem& problem, double dmin,
                                       double dmax, const FrontierOptions& options) const {
  EASCHED_CHECK_MSG(prev.axis == ConstraintAxis::kDeadline,
                    "resweep needs a deadline-axis previous curve");
  EASCHED_CHECK_MSG(problem.deadline > 0.0,
                    "resweep needs a positive anchor deadline");
  const EvalFn eval = make_deadline_eval(cache_, problem, options);
  return resweep_run(*pool_, prev, dmin, dmax, options,
                     cache_ != nullptr ? &eval : nullptr,
                     [&] {
                       return run_sweep(*pool_, ConstraintAxis::kDeadline, dmin, dmax,
                                        options, eval);
                     });
}

FrontierResult FrontierEngine::resweep_reliability(const FrontierResult& prev,
                                                   const core::Problem& problem,
                                                   double rmin, double rmax,
                                                   const FrontierOptions& options) const {
  EASCHED_CHECK_MSG(prev.axis == ConstraintAxis::kReliability,
                    "resweep_reliability needs a reliability-axis previous curve");
  EASCHED_CHECK_MSG(problem.reliability.has_value(),
                    "reliability sweeps need a TRI-CRIT problem");
  const model::ReliabilityModel& base = *problem.reliability;
  EASCHED_CHECK_MSG(rmin >= base.fmin() && rmax <= base.fmax(),
                    "reliability sweep range must lie within [fmin, fmax]");
  const EvalFn eval = make_reliability_eval(cache_, problem, options);
  return resweep_run(*pool_, prev, rmin, rmax, options,
                     cache_ != nullptr ? &eval : nullptr,
                     [&] {
                       return run_sweep(*pool_, ConstraintAxis::kReliability, rmin,
                                        rmax, options, eval);
                     });
}

}  // namespace easched::frontier
