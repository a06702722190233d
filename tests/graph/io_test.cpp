#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"
#include "graph/generators.hpp"

namespace easched::graph {
namespace {

TEST(GraphIo, DotContainsNodesAndEdges) {
  const Dag d = make_fork({1.0, 2.0, 3.0});
  std::ostringstream os;
  write_dot(d, os);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n2"), std::string::npos);
  EXPECT_NE(dot.find("w=2"), std::string::npos);
}

TEST(GraphIo, TextRoundTripPreservesStructure) {
  common::Rng rng(1);
  const Dag d = make_random_dag(12, 0.3, {1.0, 9.0}, rng);
  auto parsed = from_text(to_text(d));
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const Dag& p = parsed.value();
  ASSERT_EQ(p.num_tasks(), d.num_tasks());
  ASSERT_EQ(p.num_edges(), d.num_edges());
  for (TaskId t = 0; t < d.num_tasks(); ++t) {
    EXPECT_DOUBLE_EQ(p.weight(t), d.weight(t));
    EXPECT_EQ(p.name(t), d.name(t));
  }
  for (TaskId u = 0; u < d.num_tasks(); ++u) {
    for (TaskId v : d.successors(u)) EXPECT_TRUE(p.has_edge(u, v));
  }
}

TEST(GraphIo, WeightsSurviveWithFullPrecision) {
  Dag d;
  d.add_task(1.0 / 3.0);
  auto parsed = from_text(to_text(d));
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_DOUBLE_EQ(parsed.value().weight(0), 1.0 / 3.0);
}

TEST(GraphIo, CustomNamesSurviveRoundTrip) {
  Dag d;
  d.add_task(1.0, "stage_in");
  d.add_task(2.0, "reduce");
  d.add_edge(0, 1);
  auto parsed = from_text(to_text(d));
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().name(0), "stage_in");
  EXPECT_EQ(parsed.value().name(1), "reduce");
}

TEST(GraphIo, RejectsBadHeader) {
  EXPECT_FALSE(from_text("graph 3\n").is_ok());
  EXPECT_FALSE(from_text("dag -1\n").is_ok());
  EXPECT_FALSE(from_text("").is_ok());
}

TEST(GraphIo, TaskNameIsOptional) {
  auto parsed = from_text("dag 2\ntask 0 2\ntask 1 3 \r\nedge 0 1\n");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().name(0), "T0");
  EXPECT_EQ(parsed.value().name(1), "T1");
  EXPECT_DOUBLE_EQ(parsed.value().weight(1), 3.0);
  EXPECT_TRUE(parsed.value().has_edge(0, 1));
}

TEST(GraphIo, RejectsTaskCountTheTextCannotHold) {
  // Rejected from the header alone: nothing is allocated for the tasks.
  const auto huge = from_text("dag 2000000000");
  ASSERT_FALSE(huge.is_ok());
  EXPECT_EQ(huge.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_FALSE(from_text("dag 3\ntask 0 1\ntask 1 1\n").is_ok());
  // Shortest task lines: exactly what "task i w" per task can hold.
  EXPECT_TRUE(from_text("dag 2\ntask 0 1\ntask 1 1").is_ok());
}

TEST(GraphIo, RejectsOutOfRangeIds) {
  EXPECT_FALSE(from_text("dag 1\ntask 0 1.0 a\nedge 0 5\n").is_ok());
  EXPECT_FALSE(from_text("dag 1\ntask 3 1.0 a\n").is_ok());
}

TEST(GraphIo, RejectsMissingTask) {
  EXPECT_FALSE(from_text("dag 2\ntask 0 1.0 a\n").is_ok());
}

TEST(GraphIo, RejectsNegativeWeight) {
  EXPECT_FALSE(from_text("dag 1\ntask 0 -2.0 a\n").is_ok());
}

TEST(GraphIo, RejectsCycle) {
  const std::string text =
      "dag 2\ntask 0 1.0 a\ntask 1 1.0 b\nedge 0 1\nedge 1 0\n";
  EXPECT_FALSE(from_text(text).is_ok());
}

TEST(GraphIo, RejectsUnknownKeyword) {
  EXPECT_FALSE(from_text("dag 1\ntask 0 1.0 a\nfrobnicate\n").is_ok());
}

}  // namespace
}  // namespace easched::graph
