#include "frontier/export.hpp"

#include <ostream>
#include <sstream>

#include "common/table.hpp"
#include "obs/export.hpp"

namespace easched::frontier {
namespace {

void write_point_json(const FrontierPoint& p, std::ostream& os) {
  os << "{\"constraint\": " << obs::format_double(p.constraint)
     << ", \"energy\": " << obs::format_double(p.energy)
     << ", \"makespan\": " << obs::format_double(p.makespan) << ", \"solver\": \""
     << obs::json_escape(p.solver) << "\", \"exact\": " << (p.exact ? "true" : "false")
     << "}";
}

void write_points_json(const std::vector<FrontierPoint>& points, std::ostream& os) {
  os << "[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i != 0) os << ", ";
    write_point_json(points[i], os);
  }
  os << "]";
}

void write_frontier_json_value(const FrontierResult& result, std::ostream& os) {
  os << "{\"axis\": \"" << to_string(result.axis) << "\""
     << ", \"evaluated\": " << result.evaluated
     << ", \"infeasible\": " << result.infeasible
     << ", \"cache_hits\": " << result.cache_hits
     << ", \"wall_ms\": " << obs::format_double(result.wall_ms);
  if (!result.error.is_ok()) {
    os << ", \"error\": \"" << obs::json_escape(result.error.to_string()) << "\"";
  }
  os << ", \"points\": ";
  write_points_json(result.points, os);
  os << ", \"dominated\": ";
  write_points_json(result.dominated, os);
  os << "}";
}

}  // namespace

void write_frontier_csv(const FrontierResult& result, std::ostream& os) {
  common::Table table({"constraint", "energy", "makespan", "solver", "exact"});
  for (const auto& p : result.points) {
    table.add_row({obs::format_double(p.constraint), obs::format_double(p.energy),
                   obs::format_double(p.makespan), p.solver, p.exact ? "1" : "0"});
  }
  table.write_csv(os);
}

void write_frontier_json(const FrontierResult& result, std::ostream& os) {
  write_frontier_json_value(result, os);
  os << "\n";
}

void write_comparison_csv(const FrontierComparison& comparison, std::ostream& os) {
  common::Table table({"solver", "constraint", "energy", "makespan", "exact"});
  for (const auto& sf : comparison.solvers) {
    for (const auto& p : sf.result.points) {
      table.add_row({sf.solver, obs::format_double(p.constraint), obs::format_double(p.energy),
                     obs::format_double(p.makespan), p.exact ? "1" : "0"});
    }
  }
  table.write_csv(os);
}

void write_comparison_json(const FrontierComparison& comparison, std::ostream& os) {
  os << "{\"axis\": \"" << to_string(comparison.axis) << "\", \"solvers\": [";
  for (std::size_t i = 0; i < comparison.solvers.size(); ++i) {
    if (i != 0) os << ", ";
    os << "{\"solver\": \"" << obs::json_escape(comparison.solvers[i].solver)
       << "\", \"frontier\": ";
    write_frontier_json_value(comparison.solvers[i].result, os);
    os << "}";
  }
  os << "], \"segments\": [";
  for (std::size_t i = 0; i < comparison.segments.size(); ++i) {
    if (i != 0) os << ", ";
    const auto& seg = comparison.segments[i];
    os << "{\"lo\": " << obs::format_double(seg.lo)
       << ", \"hi\": " << obs::format_double(seg.hi) << ", \"solver\": \""
       << obs::json_escape(seg.solver) << "\"}";
  }
  os << "]}\n";
}

std::string frontier_to_csv(const FrontierResult& result) {
  std::ostringstream os;
  write_frontier_csv(result, os);
  return os.str();
}

std::string frontier_to_json(const FrontierResult& result) {
  std::ostringstream os;
  write_frontier_json(result, os);
  return os.str();
}

}  // namespace easched::frontier
