/// trace::TracePool: the per-rule derivation memo every cluster engine
/// reads, and the one-pass derivation behind it, checked against the
/// two-pass reference it replaced: the recruitment flags of every trace
/// first, then the idle samples' CPU summed in pool and sample order.

#include "trace/trace_pool.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "cluster/experiment.hpp"
#include "parallel/parallel_cluster.hpp"
#include "rng/rng.hpp"
#include "shard/experiment.hpp"
#include "trace/coarse_generator.hpp"
#include "trace/recruitment.hpp"
#include "workload/burst_table.hpp"

namespace ll::trace {
namespace {

PoolDerived two_pass_reference(const std::vector<CoarseTrace>& pool,
                               const RecruitmentRule& rule) {
  PoolDerived out;
  out.period = pool.front().period();
  for (const auto& t : pool) {
    out.idle_flags.push_back(idle_flags(t, rule));
  }
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t p = 0; p < pool.size(); ++p) {
    for (std::size_t i = 0; i < pool[p].size(); ++i) {
      if (out.idle_flags[p][i]) {
        sum += pool[p].samples()[i].cpu;
        ++count;
      }
    }
  }
  if (count > 0) {
    out.idle_utilization = sum / static_cast<double>(count);
  }
  return out;
}

void expect_same(const PoolDerived& got, const PoolDerived& want) {
  EXPECT_EQ(got.period, want.period);
  EXPECT_EQ(got.idle_flags, want.idle_flags);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.idle_utilization),
            std::bit_cast<std::uint64_t>(want.idle_utilization))
      << got.idle_utilization << " vs " << want.idle_utilization;
}

CoarseTrace constant_trace(std::size_t samples, double cpu, bool keyboard,
                           double period = 2.0) {
  CoarseTrace t(period);
  for (std::size_t i = 0; i < samples; ++i) t.push({cpu, 30000, keyboard});
  return t;
}

/// Eight working-hours machines: a mix of idle and busy samples.
std::vector<CoarseTrace> generated(std::size_t machines = 8) {
  CoarseGenConfig gen;
  gen.duration = 6.0 * 3600.0;
  gen.start_hour = 9.0;
  return generate_machine_pool(gen, machines, rng::Stream(1998));
}

TEST(DerivePool, EqualsTheTwoPassReferenceBitForBit) {
  auto traces = generated();
  traces.push_back(constant_trace(10, 0.01, false));   // under the window
  traces.push_back(constant_trace(500, 0.07, false));  // quiet throughout
  const RecruitmentRule rule;
  const PoolDerived want = two_pass_reference(traces, rule);
  const TracePool pool(std::move(traces));
  expect_same(*pool.derived(rule), want);
}

TEST(DerivePool, FallsBackWhenNoSampleIsIdle) {
  std::vector<CoarseTrace> traces{
      constant_trace(10, 0.01, false),   // quiet, but under the window
      constant_trace(100, 0.5, false),   // busy
      constant_trace(100, 0.01, true)};  // typing
  const RecruitmentRule rule;
  const PoolDerived want = two_pass_reference(traces, rule);
  const TracePool pool(std::move(traces));
  const auto got = pool.derived(rule);
  expect_same(*got, want);
  EXPECT_EQ(got->idle_utilization, 0.05);
}

TEST(TracePool, RepeatedCallsShareOneDerivation) {
  const TracePool pool(generated(4));
  const RecruitmentRule rule;
  const auto first = pool.derived(rule);
  const auto second = pool.derived(rule);
  const auto third = pool.derived(RecruitmentRule{0.10, 60.0});  // equal rule
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(first.get(), third.get());
  EXPECT_EQ(pool.derivations(), 1u);
}

TEST(TracePool, ConcurrentCallsShareOneDerivation) {
  const TracePool pool(generated());
  const RecruitmentRule rule;
  std::vector<std::shared_ptr<const PoolDerived>> got(8);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back(
        [&pool, &got, &rule, t] { got[t] = pool.derived(rule); });
  }
  for (auto& th : threads) th.join();
  ASSERT_NE(got[0], nullptr);
  for (const auto& p : got) EXPECT_EQ(p.get(), got[0].get());
  EXPECT_EQ(pool.derivations(), 1u);
}

TEST(TracePool, DistinctRulesGetDistinctDerivations) {
  auto traces = generated(4);
  const RecruitmentRule paper;
  const RecruitmentRule instant{0.10, 2.0};
  const PoolDerived want_paper = two_pass_reference(traces, paper);
  const PoolDerived want_instant = two_pass_reference(traces, instant);
  const TracePool pool(std::move(traces));
  const auto a = pool.derived(paper);
  const auto b = pool.derived(instant);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(pool.derivations(), 2u);
  expect_same(*a, want_paper);
  expect_same(*b, want_instant);
  // The one-sample window recruits sooner, so it flags more samples.
  EXPECT_NE(a->idle_flags, b->idle_flags);
  // One rule is kept: going back to the first rebuilds it, while the runs
  // holding the replaced derivations keep theirs.
  const auto again = pool.derived(paper);
  EXPECT_EQ(pool.derivations(), 3u);
  expect_same(*again, want_paper);
  expect_same(*a, want_paper);
  expect_same(*b, want_instant);
  EXPECT_EQ(pool.derived(paper).get(), again.get());
  EXPECT_EQ(pool.derivations(), 3u);
}

TEST(TracePool, NonFiniteRuleThrowsAndLeavesTheCachedRuleAlone) {
  const TracePool pool(generated(4));
  const RecruitmentRule rule;
  const auto cached = pool.derived(rule);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // A NaN key would compare equal to the cached key and return its flags.
  EXPECT_THROW((void)pool.derived(RecruitmentRule{nan, 60.0}),
               std::invalid_argument);
  EXPECT_THROW((void)pool.derived(RecruitmentRule{0.10, nan}),
               std::invalid_argument);
  EXPECT_EQ(pool.derivations(), 1u);
  EXPECT_EQ(pool.derived(rule).get(), cached.get());
}

/// Every engine refuses `pool` from its constructor.
void expect_engines_refuse(const TracePool& pool) {
  const auto& table = workload::default_burst_table();
  cluster::ClusterConfig cfg;
  cfg.node_count = 2;
  EXPECT_THROW(cluster::ClusterSim(cfg, pool, table, rng::Stream(1)),
               std::invalid_argument);
  EXPECT_THROW(shard::ShardedClusterSim(cfg, 2, pool, table, rng::Stream(1)),
               std::invalid_argument);
  parallel::ParallelClusterConfig pcfg;
  pcfg.node_count = 2;
  EXPECT_THROW(
      parallel::ParallelClusterSim(pcfg, pool, table, rng::Stream(1)),
      std::invalid_argument);
}

TEST(TracePool, EmptyPoolThrowsOnEveryCall) {
  const TracePool pool({});
  EXPECT_THROW((void)pool.derived({}), std::invalid_argument);
  EXPECT_THROW((void)pool.derived({}), std::invalid_argument);
  EXPECT_EQ(pool.derivations(), 2u);  // a failure is not cached
  expect_engines_refuse(pool);
}

TEST(TracePool, MixedPeriodsThrowOnEveryCall) {
  std::vector<CoarseTrace> traces{constant_trace(100, 0.01, false, 2.0),
                                  constant_trace(100, 0.01, false, 1.0)};
  const TracePool pool(std::move(traces));
  EXPECT_THROW((void)pool.derived({}), std::invalid_argument);
  EXPECT_THROW((void)pool.derived({}), std::invalid_argument);
  EXPECT_EQ(pool.derivations(), 2u);
  expect_engines_refuse(pool);
}

TEST(TracePool, RunsOverOnePoolShareItsDerivation) {
  const TracePool pool(generated(4));
  cluster::ExperimentConfig cfg;
  cfg.cluster.node_count = 8;
  cfg.workload = cluster::WorkloadSpec{8, 60.0};
  const auto& table = workload::default_burst_table();
  const auto open = cluster::run_open(cfg, pool, table);
  const auto closed = cluster::run_closed(cfg, pool, table, 600.0);
  const auto sharded = shard::run_closed(cfg, 2, pool, table, 600.0);
  EXPECT_EQ(open.completed, 8u);
  EXPECT_GT(closed.completed, 0u);
  EXPECT_GT(sharded.completed, 0u);
  EXPECT_EQ(pool.derivations(), 1u);
}

}  // namespace
}  // namespace ll::trace
