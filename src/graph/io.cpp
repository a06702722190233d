#include "graph/io.hpp"

#include <iterator>
#include <ostream>
#include <sstream>

namespace easched::graph {

void write_dot(const Dag& dag, std::ostream& os) {
  os << "digraph tasks {\n  rankdir=LR;\n";
  for (TaskId t = 0; t < dag.num_tasks(); ++t) {
    os << "  n" << t << " [label=\"" << dag.name(t) << "\\nw=" << dag.weight(t) << "\"];\n";
  }
  for (TaskId u = 0; u < dag.num_tasks(); ++u) {
    for (TaskId v : dag.successors(u)) os << "  n" << u << " -> n" << v << ";\n";
  }
  os << "}\n";
}

void write_text(const Dag& dag, std::ostream& os) {
  os << "dag " << dag.num_tasks() << "\n";
  os.precision(17);
  for (TaskId t = 0; t < dag.num_tasks(); ++t) {
    os << "task " << t << " " << dag.weight(t) << " " << dag.name(t) << "\n";
  }
  for (TaskId u = 0; u < dag.num_tasks(); ++u) {
    for (TaskId v : dag.successors(u)) os << "edge " << u << " " << v << "\n";
  }
}

common::Result<Dag> from_text(const std::string& text) {
  // The shortest task line, "task 0 0", is 8 bytes. Bounding the declared
  // count by the text's length keeps a short header from allocating tasks
  // the input cannot hold.
  constexpr std::size_t kMinTaskLineBytes = 8;
  std::istringstream is(text);
  std::string keyword;
  int n = -1;
  if (!(is >> keyword >> n) || keyword != "dag" || n < 0) {
    return common::Status::invalid("expected header 'dag <n>'");
  }
  if (static_cast<std::size_t>(n) > text.size() / kMinTaskLineBytes) {
    return common::Status::invalid("header declares " + std::to_string(n) +
                                   " tasks, more than the text's task lines can hold");
  }
  Dag dag;
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (int i = 0; i < n; ++i) dag.add_task(0.0);
  while (is >> keyword) {
    if (keyword == "task") {
      int id = -1;
      double w = -1.0;
      std::string name;
      if (!(is >> id >> w)) return common::Status::invalid("bad task line");
      if (id < 0 || id >= n) return common::Status::invalid("task id out of range");
      if (w < 0.0) return common::Status::invalid("negative weight");
      // The name is optional: read one only if it starts on this line.
      std::streambuf& buf = *is.rdbuf();
      int c = buf.sgetc();
      while (c == ' ' || c == '\t') c = buf.snextc();
      if (c != '\n' && c != '\r' && c != std::char_traits<char>::eof()) is >> name;
      dag.set_weight(id, w);
      if (!name.empty()) dag.set_name(id, std::move(name));
      seen[static_cast<std::size_t>(id)] = true;
    } else if (keyword == "edge") {
      int u = -1, v = -1;
      if (!(is >> u >> v)) return common::Status::invalid("bad edge line");
      if (u < 0 || u >= n || v < 0 || v >= n || u == v) {
        return common::Status::invalid("edge endpoint out of range");
      }
      dag.add_edge(u, v);
    } else {
      return common::Status::invalid("unknown keyword '" + keyword + "'");
    }
  }
  for (int i = 0; i < n; ++i) {
    if (!seen[static_cast<std::size_t>(i)]) {
      return common::Status::invalid("missing task line for id " + std::to_string(i));
    }
  }
  if (auto st = dag.validate(); !st.is_ok()) return st;
  return dag;
}

std::string to_text(const Dag& dag) {
  std::ostringstream os;
  write_text(dag, os);
  return os.str();
}

common::Result<Dag> read_text(std::istream& is) {
  return from_text(std::string(std::istreambuf_iterator<char>(is), {}));
}

}  // namespace easched::graph
