// Engine observability: metrics and trace spans are strictly
// observational. The properties gated here:
//   * submitted/completed counters and latency histograms track async
//     jobs and sync conveniences by kind;
//   * sweep results are bit-identical with metrics+tracing on vs off;
//   * the trace ring replays the job lifecycle with ordered timestamps
//     and exports valid Chrome trace_event JSON;
//   * a metrics-off engine exports empty documents and records nothing.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "frontier/frontier.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "sched/list_scheduler.hpp"

namespace easched::engine {
namespace {

core::Problem random_bicrit(std::uint64_t seed, int tasks, double slack) {
  common::Rng rng(seed);
  auto dag = graph::make_random_dag(tasks, 0.2, {1.0, 4.0}, rng);
  auto mapping = sched::list_schedule(dag, 3, sched::PriorityPolicy::kCriticalPath);
  std::vector<double> d(static_cast<std::size_t>(dag.num_tasks()));
  for (graph::TaskId t = 0; t < dag.num_tasks(); ++t) {
    d[static_cast<std::size_t>(t)] = dag.weight(t);
  }
  const double deadline =
      graph::time_analysis(mapping.augmented_graph(dag), d, 0.0).makespan * slack;
  return core::Problem(std::move(dag), std::move(mapping),
                       model::SpeedModel::continuous(0.1, 1.0), deadline);
}

bool same_curve(const std::vector<frontier::FrontierPoint>& a,
                const std::vector<frontier::FrontierPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].constraint != b[i].constraint || a[i].energy != b[i].energy ||
        a[i].makespan != b[i].makespan || a[i].solver != b[i].solver ||
        a[i].exact != b[i].exact) {
      return false;
    }
  }
  return true;
}

FrontierQuery sweep_query(const std::shared_ptr<const core::Problem>& problem) {
  frontier::FrontierOptions fopt;
  fopt.initial_points = 5;
  fopt.max_points = 9;
  return FrontierQuery::deadline(problem, problem->deadline * 0.6,
                                 problem->deadline, fopt);
}

TEST(EngineObs, AsyncJobsLandInCountersAndHistograms) {
  auto engine = Engine::create();
  ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
  Engine& eng = engine.value();
  ASSERT_NE(eng.metrics(), nullptr);

  const auto problem =
      std::make_shared<const core::Problem>(random_bicrit(11, 10, 1.4));
  auto handle = eng.submit(SolveQuery(problem));
  ASSERT_TRUE(handle.get().is_ok());
  auto sweep = eng.submit(sweep_query(problem));
  ASSERT_TRUE(sweep.get().error.is_ok());

  std::ostringstream os;
  eng.write_metrics_text(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("easched_jobs_submitted_total{kind=\"solve\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("easched_jobs_submitted_total{kind=\"frontier\"} 1"),
            std::string::npos);
  EXPECT_NE(
      text.find("easched_jobs_completed_total{kind=\"solve\",outcome=\"ok\"} 1"),
      std::string::npos);
  EXPECT_NE(text.find("easched_job_queue_wait_ms"), std::string::npos);
  EXPECT_NE(text.find(
                "easched_job_latency_ms_count{kind=\"solve\",priority=\"0\"} 1"),
            std::string::npos);
  // Gauges sampled at export: queue drained, pool visible.
  EXPECT_NE(text.find("easched_queue_depth 0"), std::string::npos);
  EXPECT_NE(text.find("easched_pool_threads"), std::string::npos);
  EXPECT_NE(text.find("easched_cache_entries"), std::string::npos);
}

TEST(EngineObs, SyncConveniencesRecordUnderSyncPriority) {
  auto engine = Engine::create();
  ASSERT_TRUE(engine.is_ok());
  Engine& eng = engine.value();
  const auto problem = random_bicrit(12, 8, 1.4);
  ASSERT_TRUE(eng.solve(problem).is_ok());
  std::ostringstream os;
  eng.write_metrics_text(os);
  const std::string text = os.str();
  EXPECT_NE(text.find(
                "easched_job_latency_ms_count{kind=\"solve\",priority=\"sync\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("easched_jobs_completed_total{kind=\"solve\",outcome=\"ok\"} 1"),
      std::string::npos);
}

TEST(EngineObs, ExpiredDeadlineCountsAsDeadlineExceeded) {
  EngineConfig config;
  config.threads = 1;
  auto engine = Engine::create(config);
  ASSERT_TRUE(engine.is_ok());
  Engine& eng = engine.value();
  const auto problem =
      std::make_shared<const core::Problem>(random_bicrit(13, 8, 1.4));
  // An effectively already-expired deadline: the job is picked up after
  // the deadline passed and completes without running the solver.
  SubmitOptions opts;
  opts.deadline_ms = 1e-6;
  auto handle = eng.submit(SolveQuery(problem), opts);
  const auto result = handle.get();
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kDeadlineExceeded);
  std::ostringstream os;
  eng.write_metrics_text(os);
  EXPECT_NE(os.str().find("easched_jobs_completed_total{kind=\"solve\","
                          "outcome=\"deadline_exceeded\"} 1"),
            std::string::npos)
      << os.str();
}

TEST(EngineObs, SweepBitIdenticalWithMetricsOnAndOff) {
  const auto problem =
      std::make_shared<const core::Problem>(random_bicrit(14, 12, 1.5));

  EngineConfig on_config;
  on_config.metrics = true;
  on_config.trace_capacity = 64;
  auto on_engine = Engine::create(on_config);
  ASSERT_TRUE(on_engine.is_ok());

  EngineConfig off_config;
  off_config.metrics = false;
  off_config.trace_capacity = 0;
  auto off_engine = Engine::create(off_config);
  ASSERT_TRUE(off_engine.is_ok());
  EXPECT_EQ(off_engine.value().metrics(), nullptr);
  EXPECT_EQ(off_engine.value().trace(), nullptr);

  const auto on_result = on_engine.value().submit(sweep_query(problem)).get();
  const auto off_result = off_engine.value().submit(sweep_query(problem)).get();
  ASSERT_TRUE(on_result.error.is_ok());
  ASSERT_TRUE(off_result.error.is_ok());
  EXPECT_TRUE(same_curve(on_result.points, off_result.points));
  EXPECT_EQ(on_result.evaluated, off_result.evaluated);

  // The off engine exports empty documents rather than erroring.
  std::ostringstream text;
  off_engine.value().write_metrics_text(text);
  EXPECT_TRUE(text.str().empty());
  std::ostringstream json;
  off_engine.value().write_metrics_json(json);
  EXPECT_EQ(json.str(), "{\"metrics\": []}\n");
  std::ostringstream trace;
  EXPECT_FALSE(off_engine.value().write_trace_json(trace));
}

TEST(EngineObs, TraceSpansReplayTheJobLifecycle) {
  EngineConfig config;
  config.trace_capacity = 16;
  auto engine = Engine::create(config);
  ASSERT_TRUE(engine.is_ok());
  Engine& eng = engine.value();
  ASSERT_NE(eng.trace(), nullptr);

  const auto problem =
      std::make_shared<const core::Problem>(random_bicrit(15, 10, 1.4));
  ASSERT_TRUE(eng.submit(SolveQuery(problem)).get().is_ok());
  ASSERT_TRUE(eng.submit(sweep_query(problem)).get().error.is_ok());

  const auto spans = eng.trace()->snapshot();
  ASSERT_EQ(spans.size(), 2u);
  for (const auto& span : spans) {
    EXPECT_STREQ(span.outcome, "ok");
    EXPECT_LE(span.submit_us, span.start_us);
    EXPECT_LE(span.start_us, span.end_us);
  }
  EXPECT_STREQ(spans[0].kind, "solve");
  EXPECT_STREQ(spans[1].kind, "frontier");
  EXPECT_LT(spans[0].job, spans[1].job);

  std::ostringstream os;
  EXPECT_TRUE(eng.write_trace_json(os));
  const std::string json = os.str();
  EXPECT_NE(json.find("\"cat\": \"queued\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"running\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"frontier\""), std::string::npos);
}

TEST(EngineObs, JsonExportMirrorsTextState) {
  auto engine = Engine::create();
  ASSERT_TRUE(engine.is_ok());
  Engine& eng = engine.value();
  const auto problem = random_bicrit(16, 8, 1.4);
  ASSERT_TRUE(eng.solve(problem).is_ok());
  std::ostringstream os;
  eng.write_metrics_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.rfind("{\"metrics\": [", 0), 0u);
  EXPECT_NE(json.find("\"name\": \"easched_jobs_completed_total\""),
            std::string::npos);
  EXPECT_NE(json.find("\"labels\": {\"kind\": \"solve\", \"outcome\": \"ok\"}"),
            std::string::npos);
}

}  // namespace
}  // namespace easched::engine
