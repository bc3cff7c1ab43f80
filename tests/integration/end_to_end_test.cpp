/// End-to-end integration tests: the full paper pipeline, from synthetic
/// trace generation through fitting, cluster scheduling, and the parallel
/// co-simulation, checked against the paper's headline claims (as shapes,
/// not absolute numbers).

#include <gtest/gtest.h>

#include <cmath>

#include "core/linger.hpp"
#include "stats/cdf.hpp"
#include "stats/confidence.hpp"
#include "stats/summary.hpp"
#include "cluster/experiment.hpp"
#include "parallel/reconfig.hpp"
#include "workload/fine_generator.hpp"
#include "workload/fit.hpp"

namespace ll {
namespace {

// Shared fixture: one realistic trace pool for the whole suite (generation
// is the expensive part).
class EndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace::CoarseGenConfig gen;
    gen.duration = 8 * 3600.0;  // 8 working hours per machine
    gen.start_hour = 9.0;
    pool_ = new trace::TracePool(
        trace::generate_machine_pool(gen, 16, rng::Stream(2024)));
  }
  static void TearDownTestSuite() {
    delete pool_;
    pool_ = nullptr;
  }

  static cluster::ClusterReport closed_run(core::PolicyKind policy,
                                           std::size_t jobs, double demand,
                                           double duration) {
    cluster::ExperimentConfig cfg;
    cfg.cluster.node_count = 16;
    cfg.cluster.policy = policy;
    cfg.workload = cluster::WorkloadSpec{jobs, demand};
    cfg.seed = 7;
    return cluster::run_closed(cfg, *pool_, workload::default_burst_table(),
                               duration);
  }

  static trace::TracePool* pool_;
};

trace::TracePool* EndToEnd::pool_ = nullptr;

TEST_F(EndToEnd, Figure2Pipeline_FittedH2MatchesEmpiricalBursts) {
  // Generate a dispatch trace at fixed utilization, bucket and re-fit it,
  // and verify the fitted H2 CDF tracks the empirical CDF (the paper's
  // "curves almost exactly match").
  const auto& truth = workload::default_burst_table();
  for (double u : {0.1, 0.5}) {
    const auto fine =
        workload::generate_fine_trace(truth, u, 20000.0, rng::Stream(31));
    const auto analysis = workload::analyze_fine_trace(fine);
    // Pool the samples near the target level, as the paper's histograms do.
    std::vector<double> run_samples;
    for (std::size_t lvl = 0; lvl < workload::kUtilizationLevels; ++lvl) {
      const double lu = workload::BurstTable::level_utilization(lvl);
      if (std::abs(lu - u) <= 0.05 + 1e-9) {
        run_samples.insert(run_samples.end(), analysis.levels[lvl].run.begin(),
                           analysis.levels[lvl].run.end());
      }
    }
    ASSERT_GT(run_samples.size(), 1000u) << "u=" << u;
    stats::Summary m;
    for (double x : run_samples) m.add(x);
    const rng::HyperExp2 fitted = rng::fit_hyperexp2(
        m.mean(), std::max(m.variance(), m.mean() * m.mean() * 1.0001));
    const stats::EmpiricalCdf ecdf(run_samples);
    const double ks =
        ecdf.ks_distance([&fitted](double x) { return fitted.cdf(x); });
    EXPECT_LT(ks, 0.08) << "u=" << u;
  }
}

TEST_F(EndToEnd, Section42_LingerThroughputAdvantage) {
  // Paper Figure 7, workload-1 regime (demand exceeds idle capacity): the
  // lingering policies deliver substantially more throughput than the
  // eviction policies — the paper reports ~50-60%.
  const auto ll = closed_run(core::PolicyKind::LingerLonger, 32, 600.0, 1800.0);
  const auto lf = closed_run(core::PolicyKind::LingerForever, 32, 600.0, 1800.0);
  const auto ie = closed_run(core::PolicyKind::ImmediateEviction, 32, 600.0, 1800.0);
  const auto pm = closed_run(core::PolicyKind::PauseAndMigrate, 32, 600.0, 1800.0);

  EXPECT_GT(ll.throughput, ie.throughput * 1.25);
  EXPECT_GT(lf.throughput, pm.throughput * 1.25);
  // IE and PM are nearly interchangeable in the paper.
  EXPECT_NEAR(ie.throughput, pm.throughput, ie.throughput * 0.25);
}

TEST_F(EndToEnd, Section42_LightLoadEqualizesPolicies) {
  // Workload-2 regime: plenty of idle capacity, all policies similar.
  const auto ll = closed_run(core::PolicyKind::LingerLonger, 4, 1800.0, 1800.0);
  const auto ie = closed_run(core::PolicyKind::ImmediateEviction, 4, 1800.0, 1800.0);
  EXPECT_NEAR(ll.throughput, ie.throughput, ll.throughput * 0.15);
}

TEST_F(EndToEnd, Section42_ForegroundDelayUnderHalfPercent) {
  const auto ll = closed_run(core::PolicyKind::LingerLonger, 32, 600.0, 1800.0);
  EXPECT_LT(ll.foreground_delay, 0.005);
  const auto lf = closed_run(core::PolicyKind::LingerForever, 32, 600.0, 1800.0);
  EXPECT_LT(lf.foreground_delay, 0.005);
}

TEST_F(EndToEnd, OpenFamilyRun_LingerImprovesFamilyTime) {
  cluster::ExperimentConfig cfg;
  cfg.cluster.node_count = 16;
  cfg.workload = cluster::WorkloadSpec{32, 300.0};
  cfg.seed = 13;

  cfg.cluster.policy = core::PolicyKind::LingerLonger;
  const auto ll = cluster::run_open(cfg, *pool_, workload::default_burst_table());
  cfg.cluster.policy = core::PolicyKind::ImmediateEviction;
  const auto ie = cluster::run_open(cfg, *pool_, workload::default_burst_table());

  EXPECT_EQ(ll.completed, 32u);
  EXPECT_EQ(ie.completed, 32u);
  EXPECT_LT(ll.family_time, ie.family_time);
  EXPECT_LT(ll.avg_completion, ie.avg_completion);
  // Eviction-based jobs never linger; linger jobs rarely pause.
  EXPECT_DOUBLE_EQ(ie.avg_lingering, 0.0);
  EXPECT_GT(ll.avg_lingering, 0.0);
}

TEST_F(EndToEnd, Section5_LingerBeatsReconfigurationAtLightLoad) {
  // Paper conclusion: LL outperforms reconfiguration when local utilization
  // is <= 20%; reconfiguration wins at high utilization.
  parallel::ReconfigScenario s;
  s.cluster_nodes = 16;
  s.total_work = 19.2;
  s.bsp.granularity = 0.5;

  s.nonidle_util = 0.2;
  const double ll_light =
      parallel::ll_completion(s, 16, 12, workload::default_burst_table(),
                              rng::Stream(21));
  const double rec_light = parallel::reconfig_completion(
      s, 12, workload::default_burst_table(), rng::Stream(21));
  EXPECT_LT(ll_light, rec_light);

  s.nonidle_util = 0.8;
  const double ll_heavy =
      parallel::ll_completion(s, 16, 12, workload::default_burst_table(),
                              rng::Stream(22));
  const double rec_heavy = parallel::reconfig_completion(
      s, 12, workload::default_burst_table(), rng::Stream(22));
  EXPECT_GT(ll_heavy, rec_heavy);
}

TEST_F(EndToEnd, ReplicatedClusterComparisonIsStable) {
  // The LL > IE ordering must hold across independent replications, not
  // just one lucky seed.
  const auto throughput_ci = [&](core::PolicyKind policy) {
    const rng::Stream master(100);
    std::vector<double> throughputs;
    for (std::uint64_t i = 0; i < 4; ++i) {
      cluster::ExperimentConfig cfg;
      cfg.cluster.node_count = 16;
      cfg.cluster.policy = policy;
      cfg.workload = cluster::WorkloadSpec{32, 300.0};
      cfg.seed = master.fork("replication", i).seed();
      throughputs.push_back(
          cluster::run_closed(cfg, *pool_, workload::default_burst_table(),
                              900.0)
              .throughput);
    }
    return stats::mean_confidence_95(throughputs);
  };
  EXPECT_GT(throughput_ci(core::PolicyKind::LingerLonger).lo(),
            throughput_ci(core::PolicyKind::ImmediateEviction).hi());
}

}  // namespace
}  // namespace ll
