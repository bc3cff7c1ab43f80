/// Cross-module property tests: physical invariants that must hold for
/// every policy on every (randomized) configuration. The capacity-bound
/// property caught a real modeling bug during development — these run the
/// whole policy matrix through randomized trace pools.

#include <gtest/gtest.h>

#include "cluster/experiment.hpp"
#include "core/linger.hpp"
#include "parallel/parallel_cluster.hpp"

namespace ll {
namespace {

constexpr core::PolicyKind kAllPolicies[] = {
    core::PolicyKind::LingerLonger, core::PolicyKind::LingerForever,
    core::PolicyKind::ImmediateEviction, core::PolicyKind::PauseAndMigrate,
    core::PolicyKind::OracleLinger};

/// Upper bound on foreign CPU the pool can physically deliver in [0, T]:
/// every node contributes at most (1 - u) per second.
double leftover_capacity(std::span<const trace::CoarseTrace> pool,
                         const std::vector<std::size_t>& assignment,
                         double horizon) {
  double total = 0.0;
  for (std::size_t pick : assignment) {
    const auto& t = pool[pick];
    for (double w = 0.0; w < horizon; w += t.period()) {
      total += (1.0 - t.sample_at(w).cpu) * std::min(t.period(), horizon - w);
    }
  }
  return total;
}

class PolicyMatrix : public ::testing::TestWithParam<core::PolicyKind> {
 protected:
  static void SetUpTestSuite() {
    trace::CoarseGenConfig gen;
    gen.duration = 6 * 3600.0;
    gen.start_hour = 9.0;
    pool_ = new trace::TracePool(
        trace::generate_machine_pool(gen, 8, rng::Stream(314)));
  }
  static void TearDownTestSuite() {
    delete pool_;
    pool_ = nullptr;
  }
  static trace::TracePool* pool_;
};

trace::TracePool* PolicyMatrix::pool_ = nullptr;

TEST_P(PolicyMatrix, AllJobsCompleteAndAccountingIsConsistent) {
  cluster::ClusterConfig cfg;
  cfg.node_count = 8;
  cfg.policy = GetParam();
  cfg.randomize_placement = false;  // node i -> pool[i], capacity computable
  cluster::ClusterSim sim(cfg, *pool_, workload::default_burst_table(),
                          rng::Stream(7));
  for (int i = 0; i < 12; ++i) sim.submit(200.0);
  sim.run_until_all_complete(2e5);

  double demand = 0.0;
  for (const cluster::JobRecord& job : sim.jobs()) {
    EXPECT_EQ(job.state, cluster::JobState::Done);
    EXPECT_NEAR(job.remaining, 0.0, 1e-6);
    demand += job.cpu_demand;
    // State stopwatches cover the whole lifetime exactly.
    double total = 0.0;
    for (std::size_t s = 0; s < cluster::kJobStateCount; ++s) {
      total += job.state_time[s];
    }
    EXPECT_NEAR(total, job.turnaround(), 1e-6);
    // Causality.
    ASSERT_TRUE(job.first_start && job.completion);
    EXPECT_GE(*job.first_start, job.submit_time);
    EXPECT_GE(*job.completion, *job.first_start);
  }
  EXPECT_NEAR(sim.delivered_cpu(), demand, 1e-6);
}

TEST_P(PolicyMatrix, DeliveredWorkNeverExceedsLeftoverCapacity) {
  // Swept over occupancy limits: processor sharing must never manufacture
  // capacity (the multi-occupancy path once hid a lifetime bug — keep this
  // exercising it).
  for (std::size_t slots : {1u, 2u, 3u}) {
    cluster::ClusterConfig cfg;
    cfg.node_count = 8;
    cfg.policy = GetParam();
    cfg.randomize_placement = false;
    cfg.max_foreign_per_node = slots;
    cluster::ClusterSim sim(cfg, *pool_, workload::default_burst_table(),
                            rng::Stream(8));
    sim.set_completion_callback(
        [&sim](const cluster::JobRecord&) { sim.submit(100.0); });
    for (int i = 0; i < 16; ++i) sim.submit(100.0);
    const double horizon = 3600.0;
    sim.run_for(horizon);

    std::vector<std::size_t> assignment;
    for (std::size_t i = 0; i < cfg.node_count; ++i) {
      assignment.push_back(i % pool_->size());
    }
    EXPECT_LE(sim.delivered_cpu(),
              leftover_capacity(pool_->traces(), assignment, horizon) + 1e-6)
        << "slots=" << slots;
  }
}

TEST_P(PolicyMatrix, MultiOccupancyCompletesAndConserves) {
  cluster::ClusterConfig cfg;
  cfg.node_count = 4;
  cfg.policy = GetParam();
  cfg.max_foreign_per_node = 3;
  cluster::ClusterSim sim(cfg, *pool_, workload::default_burst_table(),
                          rng::Stream(12));
  for (int i = 0; i < 10; ++i) sim.submit(150.0);
  sim.run_until_all_complete(5e5);
  double demand = 0.0;
  for (const cluster::JobRecord& job : sim.jobs()) {
    EXPECT_EQ(job.state, cluster::JobState::Done);
    demand += job.cpu_demand;
  }
  EXPECT_NEAR(sim.delivered_cpu(), demand, 1e-6);
}

TEST_P(PolicyMatrix, NonLingerPoliciesNeverLinger) {
  cluster::ClusterConfig cfg;
  cfg.node_count = 8;
  cfg.policy = GetParam();
  cluster::ClusterSim sim(cfg, *pool_, workload::default_burst_table(),
                          rng::Stream(9));
  for (int i = 0; i < 12; ++i) sim.submit(150.0);
  sim.run_until_all_complete(2e5);

  const bool lingers =
      core::make_policy(GetParam())->allows_lingering();
  for (const cluster::JobRecord& job : sim.jobs()) {
    if (!lingers) {
      EXPECT_DOUBLE_EQ(job.time_in(cluster::JobState::Lingering), 0.0);
    }
  }
}

TEST_P(PolicyMatrix, ForegroundDelayBounded) {
  cluster::ClusterConfig cfg;
  cfg.node_count = 8;
  cfg.policy = GetParam();
  cluster::ClusterSim sim(cfg, *pool_, workload::default_burst_table(),
                          rng::Stream(10));
  for (int i = 0; i < 16; ++i) sim.submit(150.0);
  sim.run_until_all_complete(2e5);
  // Paper bound with a healthy margin: the calibrated LDR never exceeds ~1%.
  EXPECT_LT(sim.foreground_delay_ratio(), 0.015);
  EXPECT_GE(sim.foreground_delay_ratio(), 0.0);
}

TEST_P(PolicyMatrix, DeterministicAcrossRuns) {
  auto run = [&] {
    cluster::ClusterConfig cfg;
    cfg.node_count = 8;
    cfg.policy = GetParam();
    cluster::ClusterSim sim(cfg, *pool_, workload::default_burst_table(),
                            rng::Stream(11));
    for (int i = 0; i < 8; ++i) sim.submit(120.0);
    sim.run_until_all_complete(2e5);
    double last = 0.0;
    for (const auto& job : sim.jobs()) last = std::max(last, *job.completion);
    return last;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyMatrix, ::testing::ValuesIn(kAllPolicies),
    [](const ::testing::TestParamInfo<core::PolicyKind>& info) {
      std::string name(core::to_string(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---- parallel cluster invariants ----------------------------------------

class WidthPolicyMatrix
    : public ::testing::TestWithParam<parallel::WidthPolicy> {};

TEST_P(WidthPolicyMatrix, JobsCompleteAndWorkIsConserved) {
  trace::CoarseGenConfig gen;
  gen.duration = 4 * 3600.0;
  gen.start_hour = 9.0;
  const trace::TracePool pool(
      trace::generate_machine_pool(gen, 8, rng::Stream(21)));

  parallel::ParallelClusterConfig cfg;
  cfg.node_count = 8;
  cfg.policy = GetParam();
  cfg.fixed_width = 8;
  parallel::ParallelClusterSim sim(cfg, pool,
                                   workload::default_burst_table(),
                                   rng::Stream(22));
  parallel::ParallelJobSpec spec;
  spec.total_work = 60.0;
  spec.bsp.granularity = 0.25;
  spec.max_width = 8;
  for (int i = 0; i < 6; ++i) sim.submit(spec);
  sim.run_until_all_complete(2e5);

  EXPECT_NEAR(sim.delivered_work(), 6 * 60.0, 1e-6);
  for (const auto& job : sim.jobs()) {
    ASSERT_TRUE(job.completion);
    EXPECT_GE(job.width, 1u);
    EXPECT_LE(job.width, 8u);
    EXPECT_LE(job.idle_at_dispatch, job.width);
    EXPECT_GE(job.queue_wait(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidthPolicies, WidthPolicyMatrix,
                         ::testing::Values(parallel::WidthPolicy::Reconfigure,
                                           parallel::WidthPolicy::FixedLinger,
                                           parallel::WidthPolicy::Hybrid),
                         [](const auto& info) {
                           std::string name(parallel::to_string(info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace ll
