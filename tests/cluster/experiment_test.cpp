#include "cluster/experiment.hpp"

#include <gtest/gtest.h>

#include "common/scenario_builders.hpp"
#include "workload/burst_table.hpp"

namespace ll::cluster {
namespace {

using namespace ll::test_support;

TEST(WorkloadSpecs, MatchPaper) {
  EXPECT_EQ(workload_1().jobs, 128u);
  EXPECT_DOUBLE_EQ(workload_1().demand, 600.0);
  EXPECT_EQ(workload_2().jobs, 16u);
  EXPECT_DOUBLE_EQ(workload_2().demand, 1800.0);
}

TEST(OpenExperiment, CompletesAllJobs) {
  const auto pool = idle_pool();
  const auto report = run_open(small_experiment(core::PolicyKind::LingerLonger),
                               pool, workload::default_burst_table());
  EXPECT_EQ(report.completed, 8u);
  // 8 jobs x 20 s on 4 idle nodes: two waves, avg completion ~30 s.
  EXPECT_GT(report.avg_completion, 20.0);
  EXPECT_LT(report.avg_completion, 45.0);
  EXPECT_NEAR(report.family_time, 40.0, 5.0);
  EXPECT_DOUBLE_EQ(report.avg_paused, 0.0);
  EXPECT_DOUBLE_EQ(report.avg_migrating, 0.0);
  EXPECT_GT(report.wall_time, 0.0);
}

TEST(OpenExperiment, PercentilesAreOrdered) {
  const auto pool = idle_pool();
  const auto report = run_open(small_experiment(core::PolicyKind::LingerLonger),
                               pool, workload::default_burst_table());
  EXPECT_GT(report.p50_completion, 0.0);
  EXPECT_LE(report.p50_completion, report.p90_completion);
  EXPECT_LE(report.p90_completion, report.family_time + 1e-9);
}

TEST(JobLog, ExportsEveryTransition) {
  const auto pool = idle_pool();
  rng::Stream master(3);
  ClusterConfig cfg;
  cfg.node_count = 2;
  cfg.recruitment = kInstantRule;
  ClusterSim sim(cfg, pool, workload::default_burst_table(),
                 master.fork("cluster"));
  sim.submit(20.0);
  sim.submit(20.0);
  sim.submit(20.0);  // third job must queue
  sim.run_until_all_complete();

  std::ostringstream out;
  write_job_log(sim.jobs(), out);
  const std::string log = out.str();
  EXPECT_NE(log.find("job,time,state"), std::string::npos);
  EXPECT_NE(log.find("0,0,queued"), std::string::npos);
  EXPECT_NE(log.find(",running"), std::string::npos);
  EXPECT_NE(log.find(",done"), std::string::npos);
  // One line per transition plus one submit line per job plus the header.
  std::size_t lines = 0;
  for (char c : log) {
    if (c == '\n') ++lines;
  }
  std::size_t expected = 1 + sim.jobs().size();
  for (const auto& job : sim.jobs()) expected += job.history.size();
  EXPECT_EQ(lines, expected);
}

TEST(OpenExperiment, StateBreakdownSumsToAvgCompletion) {
  const auto pool = idle_pool();
  const auto report = run_open(small_experiment(core::PolicyKind::PauseAndMigrate),
                               pool, workload::default_burst_table());
  const double sum = report.avg_queued + report.avg_running +
                     report.avg_lingering + report.avg_paused +
                     report.avg_migrating;
  EXPECT_NEAR(sum, report.avg_completion, 1e-6);
}

TEST(OpenExperiment, DeterministicInSeed) {
  const auto pool = idle_pool();
  const auto cfg = small_experiment(core::PolicyKind::LingerLonger);
  const auto a = run_open(cfg, pool, workload::default_burst_table());
  const auto b = run_open(cfg, pool, workload::default_burst_table());
  EXPECT_DOUBLE_EQ(a.avg_completion, b.avg_completion);
  EXPECT_DOUBLE_EQ(a.family_time, b.family_time);
}

TEST(ClosedExperiment, ThroughputOnIdleClusterNearNodeCount) {
  const auto pool = idle_pool();
  auto cfg = small_experiment(core::PolicyKind::LingerLonger);
  cfg.workload = WorkloadSpec{8, 50.0};
  const auto report =
      run_closed(cfg, pool, workload::default_burst_table(), 600.0);
  // 4 idle nodes permanently busy with foreign work: ~4 CPU-s per second.
  EXPECT_NEAR(report.throughput, 4.0, 0.3);
  EXPECT_GT(report.completed, 10u);
}

TEST(ClosedExperiment, RejectsBadDuration) {
  const auto pool = idle_pool();
  EXPECT_THROW(
      (void)run_closed(small_experiment(core::PolicyKind::LingerLonger), pool,
                       workload::default_burst_table(), 0.0),
      std::invalid_argument);
}

TEST(EndToEndPolicies, LingerBeatsEvictionOnBusyCluster) {
  // A cluster whose nodes alternate moderate busy episodes: lingering
  // policies should deliver clearly more throughput than eviction ones.
  rng::Stream master(5);
  trace::CoarseGenConfig gen;
  gen.duration = 4 * 3600.0;
  gen.start_hour = 9.0;  // working hours: nodes actually get recruited
  const trace::TracePool pool(trace::generate_machine_pool(gen, 4, master));

  auto run_policy = [&](core::PolicyKind policy) {
    ExperimentConfig cfg;
    cfg.cluster.node_count = 8;
    cfg.cluster.policy = policy;
    cfg.workload = WorkloadSpec{16, 300.0};
    cfg.seed = 11;
    return run_closed(cfg, pool, workload::default_burst_table(), 1800.0);
  };

  const auto ll = run_policy(core::PolicyKind::LingerLonger);
  const auto ie = run_policy(core::PolicyKind::ImmediateEviction);
  EXPECT_GT(ll.throughput, ie.throughput * 1.1);
  // Foreground delay stays within the paper's bound.
  EXPECT_LT(ll.foreground_delay, 0.01);
}

}  // namespace
}  // namespace ll::cluster
