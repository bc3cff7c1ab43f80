/// Edge-path coverage for the cluster simulator: repeated horizons,
/// occupancy corner cases, and configuration combinations the mainline
/// tests do not reach.

#include <gtest/gtest.h>

#include <string>

#include "cluster/cluster_sim.hpp"
#include "common/scenario_builders.hpp"
#include "verify/invariants.hpp"
#include "workload/burst_table.hpp"

namespace ll::cluster {
namespace {

using namespace ll::test_support;

TEST(ClusterEdge, RepeatedRunForSegmentsAccumulate) {
  const trace::TracePool pool({pattern_trace(std::string(400, '.'))});
  auto cfg = base_config(core::PolicyKind::LingerLonger, 1);
  ClusterSim sim(cfg, pool, table(), rng::Stream(2));
  sim.set_completion_callback(
      [&sim](const JobRecord&) { sim.submit(10.0); });
  sim.submit(10.0);
  sim.run_for(50.0);
  const double first = sim.delivered_cpu();
  sim.run_for(50.0);
  EXPECT_NEAR(sim.delivered_cpu(), 2.0 * first, first * 0.1);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(ClusterEdge, SubmitAfterRunForContinues) {
  const trace::TracePool pool({pattern_trace(std::string(400, '.'))});
  auto cfg = base_config(core::PolicyKind::LingerLonger, 1);
  ClusterSim sim(cfg, pool, table(), rng::Stream(3));
  sim.run_for(100.0);
  EXPECT_DOUBLE_EQ(sim.delivered_cpu(), 0.0);
  sim.submit(20.0);
  sim.run_until_all_complete();
  EXPECT_NEAR(sim.delivered_cpu(), 20.0, 1e-6);
  EXPECT_GT(*sim.jobs().front().completion, 100.0);
}

TEST(ClusterEdge, MoreNodesThanTracesWrapsPool) {
  const trace::TracePool pool({pattern_trace(std::string(200, '.')),
                               pattern_trace(std::string(200, 'B'))});
  auto cfg = base_config(core::PolicyKind::LingerForever, 5);
  ClusterSim sim(cfg, pool, table(), rng::Stream(4));
  // Nodes 0,2,4 replay the idle trace; 1,3 the busy one.
  for (int i = 0; i < 5; ++i) sim.submit(30.0);
  sim.run_until_all_complete();
  // Three jobs finish at ~30 s (idle nodes), two late (lingering at 50%).
  std::size_t fast = 0;
  for (const JobRecord& job : sim.jobs()) {
    if (*job.completion < 40.0) ++fast;
  }
  EXPECT_EQ(fast, 3u);
}

TEST(ClusterEdge, OracleWithMultiOccupancy) {
  // The oracle and processor sharing compose without violating conservation.
  const trace::TracePool pool({
      pattern_trace(".." + std::string(200, 'B') + std::string(200, '.'))});
  auto cfg = base_config(core::PolicyKind::OracleLinger, 2);
  cfg.max_foreign_per_node = 2;
  ClusterSim sim(cfg, pool, table(), rng::Stream(5));
  for (int i = 0; i < 4; ++i) sim.submit(60.0);
  sim.run_until_all_complete(1e6);
  double demand = 0.0;
  for (const JobRecord& job : sim.jobs()) demand += job.cpu_demand;
  EXPECT_NEAR(sim.delivered_cpu(), demand, 1e-6);
}

TEST(ClusterEdge, TinyJobsCompleteWithinFirstWindow) {
  const trace::TracePool pool({pattern_trace(std::string(100, '.'))});
  auto cfg = base_config(core::PolicyKind::LingerLonger, 1);
  ClusterSim sim(cfg, pool, table(), rng::Stream(6));
  sim.submit(0.5);
  sim.run_until_all_complete();
  EXPECT_NEAR(*sim.jobs().front().completion, 0.5, 0.1);
}

TEST(ClusterEdge, ManyTinyJobsPipelineCleanly) {
  const trace::TracePool pool({pattern_trace(std::string(400, '.'))});
  auto cfg = base_config(core::PolicyKind::LingerLonger, 2);
  ClusterSim sim(cfg, pool, table(), rng::Stream(7));
  for (int i = 0; i < 40; ++i) sim.submit(1.0);
  sim.run_until_all_complete();
  // 40 cpu-seconds over 2 nodes ~ 20 s of wall time.
  EXPECT_NEAR(sim.now(), 20.0, 2.5);
  EXPECT_NEAR(sim.delivered_cpu(), 40.0, 1e-6);
}

TEST(ClusterEdge, ZeroRestorePenaltyByDefault) {
  ClusterConfig cfg;
  EXPECT_DOUBLE_EQ(cfg.owner_restore_penalty, 0.0);
  EXPECT_EQ(cfg.max_foreign_per_node, 1u);
}

TEST(ClusterEdge, ConstructorRejectsNonsensicalConfigs) {
  const trace::TracePool pool({pattern_trace(std::string(10, '.'))});
  const auto build = [&](const ClusterConfig& cfg) {
    ClusterSim sim(cfg, pool, table(), rng::Stream(1));
  };

  auto negative_pause = base_config(core::PolicyKind::PauseAndMigrate, 1);
  negative_pause.policy_params.pause_time = -1.0;
  EXPECT_THROW(build(negative_pause), std::invalid_argument);

  auto negative_linger = base_config(core::PolicyKind::LingerLonger, 1);
  negative_linger.policy_params.linger_scale = -0.5;
  EXPECT_THROW(build(negative_linger), std::invalid_argument);

  auto zero_bandwidth = base_config(core::PolicyKind::LingerLonger, 1);
  zero_bandwidth.migration.bandwidth_bps = 0.0;
  EXPECT_THROW(build(zero_bandwidth), std::invalid_argument);

  auto negative_switch = base_config(core::PolicyKind::LingerLonger, 1);
  negative_switch.context_switch = -1e-6;
  EXPECT_THROW(build(negative_switch), std::invalid_argument);

  auto bad_faults = base_config(core::PolicyKind::LingerLonger, 1);
  bad_faults.faults.link.drop_probability = 1.5;
  EXPECT_THROW(build(bad_faults), std::invalid_argument);

  auto bad_checkpoint = base_config(core::PolicyKind::LingerLonger, 1);
  bad_checkpoint.checkpoint.interval = -10.0;
  EXPECT_THROW(build(bad_checkpoint), std::invalid_argument);

  EXPECT_NO_THROW(build(base_config(core::PolicyKind::LingerLonger, 1)));
}

TEST(ClusterEdge, AbortedMigrationReleasesReservedSlot) {
  // The destination crashes mid-transfer: the in-flight migration must
  // abort, release its reserved slot, and re-queue the job — leaving the
  // reservation ledger balanced (reserved slots == in-flight migrations).
  const trace::TracePool pool({
      pattern_trace(".." + std::string(400, 'B')),
      pattern_trace("BB" + std::string(400, '.'))});
  auto cfg = base_config(core::PolicyKind::ImmediateEviction, 2);
  // Owner returns at t=4 -> migration starts; destination dies at t=5,
  // mid-way through the ~3.4 s transfer, and recovers 20 s later.
  cfg.faults.crash.arrivals = fault::ArrivalProcess::fixed({5.0});
  cfg.faults.crash.exponential_downtime = false;
  cfg.faults.crash.mean_downtime = 20.0;

  ClusterSim sim(cfg, pool, table(), rng::Stream(2));
  sim.submit(30.0);
  sim.run_until_all_complete();

  EXPECT_EQ(sim.migration_aborts(), 1u);
  EXPECT_EQ(sim.inflight_migrations(), 0u);
  for (const auto& node : sim.node_snapshots()) {
    EXPECT_EQ(node.reserved, 0u);
  }
  EXPECT_EQ(sim.jobs().front().state, JobState::Done);
  EXPECT_GE(sim.jobs().front().restarts, 1u);

  verify::InvariantRegistry registry(verify::Mode::kAssert);
  verify::check_cluster_occupancy(sim, registry);
  for (const auto& job : sim.jobs()) verify::check_job_record(job, registry);
  EXPECT_EQ(registry.violations(), 0u);
}

}  // namespace
}  // namespace ll::cluster
