#include <cstdio>
#include <memory>
#include <optional>
#include <utility>

#include "api/digest.hpp"
#include "api/registry.hpp"
#include "core/problem.hpp"
#include "frontier/cache.hpp"
#include "graph/io.hpp"
#include "loadgen.hpp"
#include "model/reliability.hpp"
#include "model/speed_model.hpp"
#include "sched/list_scheduler.hpp"
#include "store/store.hpp"

namespace perfbench {

using namespace easched;

namespace {

/// The field-for-field store identity of a cache key (what the cache
/// itself files write-through entries under).
store::PointKey point_of(const frontier::CacheKey& key, api::ProblemKind kind) {
  store::PointKey point;
  point.kind = static_cast<std::uint8_t>(kind);
  point.deadline_bits = key.deadline_bits;
  point.frel_bits = key.frel_bits;
  point.approx_K = key.approx_K;
  point.gap_tolerance_bits = key.gap_tolerance_bits;
  point.max_nodes = key.max_nodes;
  point.dp_buckets = key.dp_buckets;
  point.fork_grid = key.fork_grid;
  point.polish = key.polish;
  return point;
}

/// A rebuilt problem and one solve request per point, kept alive for the
/// lookup pass (SolveRequest does not own its problem).
struct Rebuilt {
  std::uint64_t request = 0;
  std::unique_ptr<core::BiCritProblem> bicrit;
  std::unique_ptr<core::TriCritProblem> tricrit;
  std::vector<api::SolveRequest> requests;
};

class Timer {
 public:
  Timer(ReplayResult& out, SpanLog& spans) : out_(out), spans_(spans) {}

  /// Runs `fn` as one call into `layer`; the sample lands under
  /// "<layer>_us" (or "_ms" when `ms`).
  template <typename Fn>
  void call(std::uint64_t request, const std::string& layer, bool ms, Fn&& fn) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    const double elapsed_ms = ms_between(t0, t1);
    out_.samples[layer + (ms ? "_ms" : "_us")].push_back(ms ? elapsed_ms
                                                             : 1000.0 * elapsed_ms);
    spans_.add(Span{request, layer, "replay", t0, t1});
  }

 private:
  ReplayResult& out_;
  SpanLog& spans_;
};

std::string describe(const Problem& p) {
  return p.family + (p.tricrit ? " TRI-CRIT" : " BI-CRIT");
}

}  // namespace

ReplayResult replay(const std::vector<ReplayItem>& items, bool sweep,
                    const std::string& scratch_dir, SpanLog& spans) {
  ReplayResult out;
  Timer timer(out, spans);
  store::StoreOptions store_options;
  store_options.path = scratch_dir + "/replay.log";
  std::remove(store_options.path.c_str());
  auto opened = store::SolveStore::open(store_options);
  if (!opened.is_ok()) {
    out.mismatches.push_back("replay store: " + opened.status().to_string());
    return out;
  }
  store::SolveStore& log = opened.value();
  frontier::SolveCache keyer;  // interns only: derives the store's point keys
  std::vector<Rebuilt> kept;
  kept.reserve(items.size());

  for (const ReplayItem& item : items) {
    const std::uint64_t id = item.request;
    const auto root_start = Clock::now();

    // What the daemon's poll loop does with the request's bytes.
    std::string frame;
    if (sweep) {
      serve::SweepRequest req;
      req.request_id = id;
      req.problem = spec_of(item.problem);
      req.lo = item.lo;
      req.hi = item.hi;
      frame = serve::encode_frame(serve::MsgType::kSweepRequest, req.encode());
    } else {
      serve::SolveRequest req;
      req.request_id = id;
      req.problem = spec_of(item.problem);
      frame = serve::encode_frame(serve::MsgType::kSolveRequest, req.encode());
    }
    serve::ProblemSpec spec;
    bool decoded = false;
    timer.call(id, "serve.decode", false, [&] {
      serve::FrameDecoder decoder;
      decoder.feed(frame.data(), frame.size());
      serve::Frame f;
      if (decoder.next(f) != serve::FrameDecoder::Result::kFrame) return;
      if (sweep) {
        auto req = serve::SweepRequest::decode(f.payload);
        if (req.is_ok()) spec = std::move(req.value().problem);
        decoded = req.is_ok();
      } else {
        auto req = serve::SolveRequest::decode(f.payload);
        if (req.is_ok()) spec = std::move(req.value().problem);
        decoded = req.is_ok();
      }
    });
    common::Result<graph::Dag> dag = common::Status::internal("not parsed");
    if (decoded) {
      timer.call(id, "graph.parse", false, [&] { dag = graph::from_text(spec.dag_text); });
    }
    if (!decoded || !dag.is_ok()) {
      out.mismatches.push_back("replay could not decode request " + std::to_string(id));
      continue;
    }
    std::optional<sched::Mapping> mapping;
    timer.call(id, "sched.map", false, [&] {
      mapping = sched::list_schedule(dag.value(), spec.processors,
                                     sched::PriorityPolicy::kCriticalPath);
    });

    // The daemon anchors a deadline sweep at the axis maximum.
    const double anchor = sweep ? item.hi : spec.deadline;
    const auto speeds = model::SpeedModel::continuous(spec.fmin, spec.fmax);
    Rebuilt rebuilt;
    rebuilt.request = id;
    if (spec.tricrit) {
      model::ReliabilityModel rel(spec.lambda0, spec.dexp, spec.fmin, spec.fmax, spec.frel);
      rebuilt.tricrit = std::make_unique<core::TriCritProblem>(std::move(dag).take(), *mapping,
                                                               speeds, rel, anchor);
    } else {
      rebuilt.bicrit = std::make_unique<core::BiCritProblem>(std::move(dag).take(), *mapping,
                                                             speeds, anchor);
    }
    api::SolveOptions options;
    options.cache_namespace = kTenant;
    const auto make_request = [&](double deadline) {
      api::SolveOptions o = options;
      o.deadline_slack = deadline / anchor;
      return rebuilt.bicrit ? api::SolveRequest(*rebuilt.bicrit, "", o)
                            : api::SolveRequest(*rebuilt.tricrit, "", o);
    };
    const api::SolveRequest base = make_request(anchor);

    std::string bytes;
    api::InstanceDigest digest;
    timer.call(id, "api.digest", false, [&] {
      bytes = api::instance_bytes(base);
      digest = api::digest_bytes(bytes);
    });
    const frontier::SolveCache::InstanceContext context = keyer.context_for(base);

    const std::vector<double> points = sweep ? item.probes : std::vector<double>{anchor};
    double serial_ms = 0.0;
    std::vector<serve::WirePoint> curve;
    for (const double d : points) {
      api::SolveRequest request = make_request(d);
      common::Result<api::SolveReport> report = common::Status::internal("not solved");
      const auto t0 = Clock::now();
      timer.call(id, "api.solve", true, [&] { report = api::solve(request); });
      const double solve_ms = ms_between(t0, Clock::now());
      serial_ms += solve_ms;
      const std::string solver = report.is_ok() ? report.value().solver : "infeasible";
      out.solve_ms[solver].push_back(solve_ms);
      if (report.is_ok() && solver == "continuous-ipm") {
        out.newton_steps.push_back(report.value().iterations);
      }
      if (!sweep) {
        ++out.checked;
        if (!report.is_ok() || report.value().energy != item.energy ||
            report.value().makespan != item.makespan) {
          out.mismatches.push_back(
              "request " + std::to_string(id) + " (" + describe(item.problem) +
              "): daemon energy " + json_number(item.energy) + " makespan " +
              json_number(item.makespan) + ", in-process " +
              (report.is_ok() ? json_number(report.value().energy) + " / " +
                                    json_number(report.value().makespan)
                              : report.status().to_string()));
        }
      }
      const store::PointKey point =
          point_of(frontier::SolveCache::key_for(context, request), request.kind());
      const auto stored =
          std::make_shared<const common::Result<api::SolveReport>>(std::move(report));
      timer.call(id, "store.append", false, [&] {
        const common::Status st = log.put(digest, bytes, "", point, stored);
        if (!st.is_ok()) out.mismatches.push_back("store append: " + st.to_string());
      });
      if (sweep) {
        if (stored->is_ok()) {
          const api::SolveReport& r = stored->value();
          curve.push_back(serve::WirePoint{d, r.energy, r.makespan, r.solver, r.exact});
        }
      } else {
        timer.call(id, "serve.encode_response", false, [&] {
          serve::SolveResponse resp;
          resp.request_id = id;
          if (stored->is_ok()) {
            resp.energy = stored->value().energy;
            resp.makespan = stored->value().makespan;
            resp.solver = stored->value().solver;
            resp.iterations = stored->value().iterations;
          } else {
            resp.status = stored->status();
          }
          frame = serve::encode_frame(serve::MsgType::kSolveResponse, resp.encode());
        });
      }
      rebuilt.requests.push_back(std::move(request));
    }
    if (sweep) {
      timer.call(id, "serve.encode_response", false, [&] {
        serve::SweepResponse resp;
        resp.request_id = id;
        resp.points = curve;
        resp.probes = points;
        frame = serve::encode_frame(serve::MsgType::kSweepResponse, resp.encode());
      });
      if (item.sweep_wall_ms > 0.0) {
        out.sweep_serial_over_wall.push_back(serial_ms / item.sweep_wall_ms);
      }
    }
    spans.add(Span{id, "replay", "", root_start, Clock::now()});
    kept.push_back(std::move(rebuilt));
  }

  // Warm lookups: a fresh cache pre-loaded from the replay's store answers
  // every replayed point from memory.
  frontier::SolveCache cache;
  if (const common::Status st = cache.attach_store(&log); !st.is_ok()) {
    out.mismatches.push_back("attach replay store: " + st.to_string());
    return out;
  }
  for (const Rebuilt& r : kept) {
    const std::uint64_t id = r.request;
    for (const api::SolveRequest& request : r.requests) {
      frontier::SolveCache::CachedResult hit;
      timer.call(id, "frontier.lookup", false, [&] {
        const auto context = cache.context_for(request);
        hit = cache.try_get(frontier::SolveCache::key_for(context, request));
      });
      if (!hit) out.mismatches.push_back("replay lookup missed for request " + std::to_string(id));
    }
  }
  (void)cache.attach_store(nullptr);
  return out;
}

double store_open_ms(const std::string& path, int repeats) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    store::StoreOptions options;
    options.path = path;
    options.read_only = true;
    const auto t0 = Clock::now();
    auto opened = store::SolveStore::open(options);
    times.push_back(ms_between(t0, Clock::now()));
    if (!opened.is_ok()) return -1.0;
  }
  return median(std::move(times));
}

}  // namespace perfbench
