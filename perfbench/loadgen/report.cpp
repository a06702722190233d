#include <algorithm>
#include <cstdio>
#include <sstream>
#include <unordered_map>

#include "common/stats.hpp"
#include "loadgen.hpp"

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  return easched::common::percentile(std::move(samples), q);
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Report::scrape(const std::string& name, const std::string& metrics_json,
                    const easched::serve::StatResponse& stat, double at_ms) {
  std::ostringstream os;
  os << "{\"at_ms\": " << json_number(at_ms) << ", \"threads\": " << stat.threads
     << ", \"cache_hits\": " << stat.cache_hits << ", \"cache_misses\": " << stat.cache_misses
     << ", \"store_hits\": " << stat.store_hits << ", \"store_bytes\": " << stat.store_bytes
     << ", \"store_entries\": " << stat.store_entries
     << ", \"tenant_accepted\": " << stat.tenant_accepted
     << ", \"tenant_completed\": " << stat.tenant_completed
     << ", \"tenant_shed\": " << stat.tenant_shed << ", \"metrics\": "
     << (metrics_json.empty() ? std::string("null") : metrics_json) << "}";
  scrapes_[name] = os.str();
}

void Report::error(std::string message) {
  ++error_count_;
  if (error_samples_.size() < 20) error_samples_.push_back(std::move(message));
}

void Report::write(std::ostream& os) const {
  os << "{\n\"numbers\": {";
  const char* sep = "";
  for (const auto& [name, v] : numbers_) {
    os << sep << "\n  " << json_string(name) << ": " << json_number(v);
    sep = ",";
  }
  os << "},\n\"series\": {";
  sep = "";
  for (const auto& [name, values] : series_) {
    os << sep << "\n  " << json_string(name) << ": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      os << (i == 0 ? "" : ", ") << json_number(values[i]);
    }
    os << "]";
    sep = ",";
  }
  os << "},\n\"errors\": " << error_count_ << ",\n\"error_samples\": [";
  sep = "";
  for (const auto& e : error_samples_) {
    os << sep << "\n  " << json_string(e);
    sep = ",";
  }
  os << "],\n\"scrapes\": {";
  sep = "";
  for (const auto& [name, body] : scrapes_) {
    os << sep << "\n" << json_string(name) << ": " << body;
    sep = ",";
  }
  os << "}\n}\n";
}

// ---- spans ----------------------------------------------------------------

std::map<std::string, double> SpanLog::self_time_p50_us() const {
  // Children of a span: same request, parent == its name, inside it.
  std::unordered_map<std::uint64_t, std::vector<const Span*>> by_request;
  for (const Span& s : spans_) by_request[s.request].push_back(&s);
  std::map<std::string, std::vector<double>> self;
  for (const Span& s : spans_) {
    double covered_us = 0.0;
    for (const Span* cp : by_request[s.request]) {
      const Span& c = *cp;
      if (c.parent != s.name) continue;
      const auto lo = std::max(c.start, s.start);
      const auto hi = std::min(c.end, s.end);
      if (hi > lo) covered_us += 1000.0 * ms_between(lo, hi);
    }
    self[s.name].push_back(1000.0 * ms_between(s.start, s.end) - covered_us);
  }
  std::map<std::string, double> out;
  for (auto& [name, values] : self) out[name] = median(std::move(values));
  return out;
}

void SpanLog::write_chrome_json(std::ostream& os) const {
  os << "{\"traceEvents\": [";
  const char* sep = "";
  for (const Span& s : spans_) {
    os << sep << "\n{\"name\": " << json_string(s.name)
       << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.request
       << ", \"ts\": " << json_number(1000.0 * ms_between(epoch_, s.start))
       << ", \"dur\": " << json_number(1000.0 * ms_between(s.start, s.end))
       << ", \"args\": {\"request\": " << s.request << ", \"parent\": " << json_string(s.parent)
       << "}}";
    sep = ",";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
