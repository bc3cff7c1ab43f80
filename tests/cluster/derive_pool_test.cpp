/// cluster::derive_pool, the pass both cluster engines make over a trace
/// pool before placing nodes, against the two-pass reference it replaced:
/// the recruitment flags of every trace first, then the idle samples' CPU
/// summed in pool and sample order.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "rng/rng.hpp"
#include "trace/coarse_generator.hpp"
#include "trace/recruitment.hpp"

namespace ll::cluster {
namespace {

PoolDerived two_pass_reference(const std::vector<trace::CoarseTrace>& pool,
                               const trace::RecruitmentRule& rule) {
  PoolDerived out;
  out.period = pool.front().period();
  for (const auto& t : pool) {
    out.idle_flags.push_back(trace::idle_flags(t, rule));
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

trace::CoarseTrace constant_trace(std::size_t samples, double cpu,
                                  bool keyboard) {
  trace::CoarseTrace t(2.0);
  for (std::size_t i = 0; i < samples; ++i) t.push({cpu, 30000, keyboard});
  return t;
}

TEST(DerivePool, EqualsTheTwoPassReferenceBitForBit) {
  trace::CoarseGenConfig gen;
  gen.duration = 6.0 * 3600.0;
  gen.start_hour = 9.0;
  auto pool = trace::generate_machine_pool(gen, 8, rng::Stream(1998));
  pool.push_back(constant_trace(10, 0.01, false));  // 20 s: under the window
  pool.push_back(constant_trace(500, 0.07, false));  // quiet throughout
  const trace::RecruitmentRule rule;
  expect_same(derive_pool(pool, rule), two_pass_reference(pool, rule));
}

TEST(DerivePool, FallsBackWhenNoSampleIsIdle) {
  const std::vector<trace::CoarseTrace> pool{
      constant_trace(10, 0.01, false),  // quiet, but under the window
      constant_trace(100, 0.5, false),  // busy
      constant_trace(100, 0.01, true)};  // typing
  const trace::RecruitmentRule rule;
  const PoolDerived got = derive_pool(pool, rule);
  expect_same(got, two_pass_reference(pool, rule));
  EXPECT_EQ(got.idle_utilization, 0.05);
}

}  // namespace
}  // namespace ll::cluster
