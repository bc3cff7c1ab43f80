#include "parallel/parallel_cluster.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/scenario_builders.hpp"
#include "parallel/reconfig.hpp"

namespace ll::parallel {
namespace {

const trace::RecruitmentRule kInstantRule{0.1, 2.0};

const workload::BurstTable& table() { return workload::default_burst_table(); }

trace::CoarseTrace constant_trace(double cpu, std::size_t windows = 4000) {
  trace::CoarseTrace t(2.0);
  for (std::size_t i = 0; i < windows; ++i) t.push({cpu, 65536, false});
  return t;
}

ParallelClusterConfig base_config(WidthPolicy policy, std::size_t nodes) {
  ParallelClusterConfig cfg;
  cfg.node_count = nodes;
  cfg.policy = policy;
  cfg.recruitment = kInstantRule;
  cfg.randomize_placement = false;
  return cfg;
}

ParallelJobSpec small_job(double work = 6.4, double granularity = 0.1) {
  ParallelJobSpec spec;
  spec.total_work = work;
  spec.bsp.granularity = granularity;
  spec.max_width = 32;
  return spec;
}

TEST(WidthPolicyNames, Stable) {
  EXPECT_EQ(to_string(WidthPolicy::Reconfigure), "reconfigure");
  EXPECT_EQ(to_string(WidthPolicy::FixedLinger), "fixed-linger");
  EXPECT_EQ(to_string(WidthPolicy::Hybrid), "hybrid");
}

TEST(ParallelCluster, RejectsBadConstruction) {
  const trace::TracePool empty_pool({});
  EXPECT_THROW((void)(ParallelClusterSim(base_config(WidthPolicy::Hybrid, 4),
                                  empty_pool, table(), rng::Stream(1))),
               std::invalid_argument);

  const trace::TracePool pool({constant_trace(0.0)});
  auto zero_nodes = base_config(WidthPolicy::Hybrid, 0);
  EXPECT_THROW((void)(
      ParallelClusterSim(zero_nodes, pool, table(), rng::Stream(1))),
      std::invalid_argument);

  auto bad_width = base_config(WidthPolicy::FixedLinger, 4);
  bad_width.fixed_width = 8;
  EXPECT_THROW((void)(
      ParallelClusterSim(bad_width, pool, table(), rng::Stream(1))),
      std::invalid_argument);
}

TEST(ParallelCluster, RejectsBadJobSpecs) {
  const trace::TracePool pool({constant_trace(0.0)});
  ParallelClusterSim sim(base_config(WidthPolicy::Hybrid, 4), pool, table(),
                         rng::Stream(1));
  ParallelJobSpec zero_work = small_job(0.0);
  EXPECT_THROW((void)(sim.submit(zero_work)), std::invalid_argument);
  ParallelJobSpec zero_width = small_job();
  zero_width.max_width = 0;
  EXPECT_THROW((void)(sim.submit(zero_width)), std::invalid_argument);
}

TEST(ParallelCluster, ReconfigureUsesAllIdleNodesPowerOfTwo) {
  const trace::TracePool pool({constant_trace(0.0)});
  ParallelClusterSim sim(base_config(WidthPolicy::Reconfigure, 12), pool,
                         table(), rng::Stream(2));
  sim.submit(small_job(9.6));
  sim.run_until_all_complete();
  const auto& job = sim.jobs().front();
  EXPECT_EQ(job.width, 8u);  // floor_pow2(12)
  EXPECT_EQ(job.idle_at_dispatch, 8u);
  // 9.6 proc-s on 8 idle procs = 1.2 s of compute plus comm.
  EXPECT_GT(*job.completion, 1.2);
  EXPECT_LT(*job.completion, 2.0);
  EXPECT_NEAR(sim.delivered_work(), 9.6, 1e-9);
}

TEST(ParallelCluster, FixedLingerTakesBusyNodes) {
  // All nodes busy at 30%: reconfigure would wait forever, fixed-linger runs.
  const trace::TracePool pool({constant_trace(0.3)});
  auto cfg = base_config(WidthPolicy::FixedLinger, 8);
  cfg.fixed_width = 8;
  ParallelClusterSim sim(cfg, pool, table(), rng::Stream(3));
  sim.submit(small_job(6.4));
  sim.run_until_all_complete();
  const auto& job = sim.jobs().front();
  EXPECT_EQ(job.width, 8u);
  EXPECT_EQ(job.idle_at_dispatch, 0u);
  // Stretched by the 30% owner load: clearly slower than the idle-node time.
  EXPECT_GT(*job.completion, 6.4 / 8.0 * 1.2);
}

TEST(ParallelCluster, ReconfigureWaitsForIdleNodes) {
  // Busy for the first 10 windows (20 s), idle afterwards.
  trace::CoarseTrace t(2.0);
  for (int i = 0; i < 10; ++i) t.push({0.5, 65536, false});
  for (int i = 0; i < 2000; ++i) t.push({0.0, 65536, false});
  const trace::TracePool pool({t});
  ParallelClusterSim sim(base_config(WidthPolicy::Reconfigure, 4), pool,
                         table(), rng::Stream(4));
  sim.submit(small_job(3.2));
  sim.run_until_all_complete();
  const auto& job = sim.jobs().front();
  EXPECT_GE(job.queue_wait(), 20.0 - 2.1);
  EXPECT_EQ(job.idle_at_dispatch, job.width);
}

TEST(ParallelCluster, FifoQueueing) {
  const trace::TracePool pool({constant_trace(0.0)});
  auto cfg = base_config(WidthPolicy::FixedLinger, 4);
  cfg.fixed_width = 4;
  ParallelClusterSim sim(cfg, pool, table(), rng::Stream(5));
  sim.submit(small_job(8.0));
  sim.submit(small_job(8.0));
  sim.run_until_all_complete();
  const auto& jobs = sim.jobs();
  // Second job starts only after the first released its nodes.
  EXPECT_NEAR(*jobs[1].start_time, *jobs[0].completion, 1e-9);
  EXPECT_NEAR(sim.delivered_work(), 16.0, 1e-9);
}

TEST(ParallelCluster, HybridGoesWideOnIdleCluster) {
  const trace::TracePool pool({constant_trace(0.0)});
  ParallelClusterSim sim(base_config(WidthPolicy::Hybrid, 16), pool, table(),
                         rng::Stream(6));
  sim.submit(small_job(12.8));
  sim.run_until_all_complete();
  EXPECT_EQ(sim.jobs().front().width, 16u);
}

TEST(ParallelCluster, HybridShrinksWhenBusyNodesWouldDominate) {
  // 2 idle nodes, 14 at 90% owner load: lingering wide would crawl at the
  // barrier; the predictor should choose a narrow, mostly-idle width.
  const trace::TracePool pool({constant_trace(0.0), constant_trace(0.9)});
  auto cfg = base_config(WidthPolicy::Hybrid, 16);
  // node i -> pool[i % 2]: even nodes idle, odd nodes busy... use 2 idle:
  // instead make pool of 16 traces: 2 idle + 14 busy.
  std::vector<trace::CoarseTrace> traces;
  for (int i = 0; i < 2; ++i) traces.push_back(constant_trace(0.0));
  for (int i = 0; i < 14; ++i) traces.push_back(constant_trace(0.9));
  const trace::TracePool big_pool(std::move(traces));
  ParallelClusterSim sim(cfg, big_pool, table(), rng::Stream(7));
  sim.submit(small_job(6.4));
  sim.run_until_all_complete();
  const auto& job = sim.jobs().front();
  EXPECT_LE(job.width, 4u);
  EXPECT_GE(job.idle_at_dispatch, std::min<std::size_t>(job.width, 2));
}

TEST(ParallelCluster, Deterministic) {
  const trace::TracePool pool({constant_trace(0.2)});
  auto run = [&] {
    auto cfg = base_config(WidthPolicy::FixedLinger, 8);
    cfg.fixed_width = 8;
    ParallelClusterSim sim(cfg, pool, table(), rng::Stream(8));
    sim.submit(small_job(6.4));
    sim.run_until_all_complete();
    return *sim.jobs().front().completion;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(ParallelCluster, ClosedModeSustainsThroughput) {
  const trace::TracePool pool({constant_trace(0.0)});
  auto cfg = base_config(WidthPolicy::Hybrid, 8);
  ParallelClusterSim sim(cfg, pool, table(), rng::Stream(9));
  sim.set_completion_callback(
      [&sim](const ParallelJobRecord&) { sim.submit(small_job(8.0)); });
  sim.submit(small_job(8.0));
  sim.run_for(300.0);
  // 8 idle nodes, comm overhead small: most of the 300 s turns into work.
  EXPECT_GT(sim.delivered_work(), 300.0 * 8.0 * 0.5);
  EXPECT_GT(sim.jobs().size(), 20u);
}

TEST(ParallelCluster, RunForRejectsNegative) {
  const trace::TracePool pool({constant_trace(0.0)});
  ParallelClusterSim sim(base_config(WidthPolicy::Hybrid, 2), pool, table(),
                         rng::Stream(10));
  EXPECT_THROW((void)(sim.run_for(-1.0)), std::invalid_argument);
}

TEST(ParallelCluster, ThroughputOrderingOnMixedCluster) {
  // Half the nodes carry 20% owner load. Lingering policies outrun
  // reconfiguration, which can only ever use the idle half.
  std::vector<trace::CoarseTrace> traces;
  for (int i = 0; i < 8; ++i) {
    traces.push_back(constant_trace(i % 2 == 0 ? 0.0 : 0.2));
  }
  const trace::TracePool pool(std::move(traces));
  auto run_policy = [&](WidthPolicy policy) {
    auto cfg = base_config(policy, 8);
    cfg.fixed_width = 8;
    ParallelClusterSim sim(cfg, pool, table(), rng::Stream(11));
    sim.set_completion_callback(
        [&sim](const ParallelJobRecord&) { sim.submit(small_job(16.0, 0.2)); });
    for (int i = 0; i < 2; ++i) sim.submit(small_job(16.0, 0.2));
    sim.run_for(600.0);
    return sim.delivered_work();
  };
  const double rec = run_policy(WidthPolicy::Reconfigure);
  const double fixed = run_policy(WidthPolicy::FixedLinger);
  const double hybrid = run_policy(WidthPolicy::Hybrid);
  EXPECT_GT(fixed, rec);
  EXPECT_GT(hybrid, rec);
}

TEST(ParallelCluster, NonPowerOfTwoWidthsWhenUnconstrained) {
  // 12 free nodes, power-of-two disabled: hybrid may take all 12.
  const trace::TracePool pool({constant_trace(0.0)});
  auto cfg = base_config(WidthPolicy::Hybrid, 12);
  cfg.power_of_two = false;
  ParallelClusterSim sim(cfg, pool, table(), rng::Stream(31));
  sim.submit(small_job(24.0));
  sim.run_until_all_complete();
  EXPECT_EQ(sim.jobs().front().width, 12u);
}

TEST(ParallelCluster, ReconfigurePowerOfTwoOffUsesAllIdle) {
  const trace::TracePool pool({constant_trace(0.0)});
  auto cfg = base_config(WidthPolicy::Reconfigure, 6);
  cfg.power_of_two = false;
  ParallelClusterSim sim(cfg, pool, table(), rng::Stream(32));
  sim.submit(small_job(12.0));
  sim.run_until_all_complete();
  EXPECT_EQ(sim.jobs().front().width, 6u);
}

TEST(ParallelCluster, MaxWidthCapsBelowClusterSize) {
  const trace::TracePool pool({constant_trace(0.0)});
  ParallelClusterSim sim(base_config(WidthPolicy::Hybrid, 16), pool, table(),
                         rng::Stream(33));
  ParallelJobSpec spec = small_job(12.8);
  spec.max_width = 4;
  sim.submit(spec);
  sim.run_until_all_complete();
  EXPECT_LE(sim.jobs().front().width, 4u);
}

TEST(ParallelCluster, WidthCappedJobsRunConcurrently) {
  // Two jobs capped at width 8 on 16 idle nodes start together.
  const trace::TracePool pool({constant_trace(0.0)});
  ParallelClusterSim sim(base_config(WidthPolicy::Hybrid, 16), pool, table(),
                         rng::Stream(34));
  ParallelJobSpec spec = small_job(16.0);
  spec.max_width = 8;
  sim.submit(spec);
  sim.submit(spec);
  sim.run_until_all_complete();
  const auto& jobs = sim.jobs();
  EXPECT_DOUBLE_EQ(*jobs[0].start_time, 0.0);
  EXPECT_DOUBLE_EQ(*jobs[1].start_time, 0.0);
  EXPECT_EQ(jobs[0].width, 8u);
  EXPECT_EQ(jobs[1].width, 8u);
}

// ---- hybrid single-job strategy (reconfig.hpp) ---------------------------

TEST(HybridWidth, WideOnIdleCluster) {
  ReconfigScenario s;
  s.cluster_nodes = 32;
  s.nonidle_util = 0.2;
  s.total_work = 38.4;
  s.bsp.granularity = 0.5;
  EXPECT_EQ(choose_hybrid_width(s, 32, table()), 32u);
}

TEST(HybridWidth, ShrinksUnderHeavyOwnerLoad) {
  ReconfigScenario s;
  s.cluster_nodes = 32;
  s.nonidle_util = 0.85;  // lingering nodes crawl
  s.total_work = 38.4;
  s.bsp.granularity = 0.5;
  // With 8 idle nodes and heavy owners elsewhere, hybrid should not linger.
  EXPECT_LE(choose_hybrid_width(s, 8, table()), 8u);
}

TEST(HybridWidth, RejectsBadIdleCount) {
  ReconfigScenario s;
  EXPECT_THROW((void)(choose_hybrid_width(s, s.cluster_nodes + 1, table())),
               std::invalid_argument);
}

TEST(HybridCompletion, NeverMuchWorseThanEitherPure) {
  ReconfigScenario s;
  s.cluster_nodes = 16;
  s.nonidle_util = 0.2;
  s.total_work = 19.2;
  s.bsp.granularity = 0.5;
  for (std::size_t idle : {16u, 12u, 8u, 4u, 0u}) {
    const double hybrid =
        hybrid_completion(s, idle, table(), rng::Stream(12));
    const double rec =
        reconfig_completion(s, idle, table(), rng::Stream(12));
    const double ll16 = ll_completion(s, 16, idle, table(), rng::Stream(12));
    EXPECT_LE(hybrid, std::min(rec, ll16) * 1.35) << "idle=" << idle;
  }
}

TEST(ParallelCluster, ObservabilityAttachmentDoesNotChangeResults) {
  const trace::TracePool pool({constant_trace(0.2)});
  auto run = [&](obs::MetricRegistry* reg) {
    auto cfg = base_config(WidthPolicy::Hybrid, 8);
    ParallelClusterSim sim(cfg, pool, table(), rng::Stream(11));
    sim.set_metrics(reg);
    sim.submit(small_job(6.4));
    sim.submit(small_job(3.2));
    sim.run_until_all_complete();
    std::vector<double> completions;
    for (const auto& j : sim.jobs()) completions.push_back(*j.completion);
    return completions;
  };
  const auto plain = run(nullptr);
  obs::MetricRegistry reg;
  const auto instrumented = run(&reg);
  EXPECT_EQ(plain, instrumented);

  // Metrics agree with the run: 2 submitted, 2 completed, phases fired.
  // (Snapshot past the run's end: the time-weighted integrals close at the
  // snapshot instant, which must not precede their last update.)
  const auto samples = reg.snapshot(1e9);
  ASSERT_GE(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "parallel.jobs_submitted");
  EXPECT_DOUBLE_EQ(samples[0].value, 2.0);
  EXPECT_DOUBLE_EQ(samples[1].value, 2.0);  // jobs_completed
  EXPECT_GT(samples[2].value, 0.0);         // phases_completed
}

TEST(ParallelCluster, EngineAccessorExposesConservedCounters) {
  const trace::TracePool pool({constant_trace(0.0)});
  ParallelClusterSim sim(base_config(WidthPolicy::Hybrid, 4), pool, table(),
                         rng::Stream(12));
  sim.submit(small_job(3.2));
  sim.run_until_all_complete();
  const des::Simulation& engine = sim.engine();
  EXPECT_GT(engine.events_fired(), 0u);
  EXPECT_EQ(engine.events_scheduled(),
            engine.events_fired() + engine.events_cancelled() +
                engine.pending_count());
}

}  // namespace
}  // namespace ll::parallel
