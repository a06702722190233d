#pragma once
// DAG serialisation: Graphviz DOT export (for inspection) and a minimal
// line-based text format (for corpus files and round-trip tests).
//
// Text format:
//   dag <num_tasks>
//   task <id> <weight> [name]
//   edge <from> <to>

#include <iosfwd>
#include <string>

#include "common/status.hpp"
#include "graph/dag.hpp"

namespace easched::graph {

/// Writes a Graphviz DOT representation (task name and weight per node).
void write_dot(const Dag& dag, std::ostream& os);

/// Writes the text format described above.
void write_text(const Dag& dag, std::ostream& os);

/// Parses the text format; validates ids and acyclicity, and rejects a
/// declared task count the text is too short to hold before allocating.
common::Result<Dag> read_text(std::istream& is);

/// Round-trip helpers on strings.
std::string to_text(const Dag& dag);
common::Result<Dag> from_text(const std::string& text);

}  // namespace easched::graph
