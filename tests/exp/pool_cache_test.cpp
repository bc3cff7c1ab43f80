#include "exp/pool_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "trace/coarse_generator.hpp"

namespace ll::exp {
namespace {

TEST(TracePoolCache, SameKeyReturnsSamePoolBuiltOnce) {
  TracePoolCache cache;
  const auto a = cache.standard(4, 8.0, 7);
  const auto b = cache.standard(4, 8.0, 7);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(a->size(), 4u);
}

TEST(TracePoolCache, DistinctKeysBuildDistinctPools) {
  TracePoolCache cache;
  const auto a = cache.standard(4, 8.0, 7);
  const auto b = cache.standard(4, 8.0, 8);   // seed differs
  const auto c = cache.standard(4, 24.0, 7);  // hours differ
  const auto d = cache.standard(5, 8.0, 7);   // machines differ
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_NE(a.get(), d.get());
  EXPECT_EQ(cache.builds(), 4u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(TracePoolCache, StandardPoolMatchesDirectGeneration) {
  // The cache must reproduce the historical bench/CLI convention exactly:
  // hours * 3600 duration, 09:00 start for sub-day pools.
  TracePoolCache cache;
  const auto cached = cache.standard(3, 8.0, 11);
  trace::CoarseGenConfig gen;
  gen.duration = 8.0 * 3600.0;
  gen.start_hour = 9.0;
  const auto direct =
      trace::generate_machine_pool(gen, 3, rng::Stream(11));
  ASSERT_EQ(cached->size(), direct.size());
  for (std::size_t m = 0; m < direct.size(); ++m) {
    ASSERT_EQ((*cached)[m].size(), direct[m].size()) << "machine " << m;
    for (std::size_t i = 0; i < direct[m].size(); ++i) {
      EXPECT_EQ((*cached)[m].samples()[i].cpu, direct[m].samples()[i].cpu);
    }
  }
}

TEST(TracePoolCache, ConcurrentGetsBuildExactlyOnce) {
  TracePoolCache cache;
  std::vector<std::thread> threads;
  std::vector<TracePoolCache::PoolPtr> got(8);
  for (std::size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back(
        [&cache, &got, t] { got[t] = cache.standard(4, 8.0, 3); });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(cache.builds(), 1u);
  for (const auto& p : got) EXPECT_EQ(p.get(), got[0].get());
}

TEST(TracePoolCache, ConcurrentSlowBuildsRunExactlyOnce) {
  // The serving race: callers miss on a key whose pool is still being
  // generated. They must wait on the builder's future, not build again.
  // A day of 8 machines takes milliseconds to generate; the waiters start
  // once the builder has claimed the key, microseconds later.
  TracePoolCache cache;
  TracePoolCache::PoolPtr built;
  std::thread builder([&] { built = cache.standard(8, 24.0, 5); });
  while (cache.builds() < 1) std::this_thread::yield();
  std::vector<std::thread> threads;
  std::vector<TracePoolCache::PoolPtr> got(3);
  for (std::size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back(
        [&cache, &got, t] { got[t] = cache.standard(8, 24.0, 5); });
  }
  builder.join();
  for (auto& th : threads) th.join();
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.hits(), 3u);
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(built->size(), 8u);
  for (const auto& p : got) EXPECT_EQ(p.get(), built.get());
}

TEST(TracePoolCache, FailedBuildPropagatesAndRetries) {
  // The generator refuses a negative duration. Its exception reaches the
  // caller, and the failure is not cached: asking again builds again.
  TracePoolCache cache;
  EXPECT_THROW((void)cache.standard(2, -1.0, 3), std::invalid_argument);
  EXPECT_THROW((void)cache.standard(2, -1.0, 3), std::invalid_argument);
  EXPECT_EQ(cache.builds(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
  // A valid request for the same machines and seed is unaffected.
  EXPECT_EQ(cache.standard(2, 8.0, 3)->size(), 2u);
}

TEST(TracePoolCache, EvictsLeastRecentlyUsedBeyondCapacity) {
  // The cache keeps 64 pools; building a 65th evicts the least recently
  // used one.
  constexpr std::uint64_t kKept = 64;
  TracePoolCache cache;
  for (std::uint64_t seed = 0; seed < kKept; ++seed) {
    (void)cache.standard(1, 0.5, seed);
  }
  (void)cache.standard(1, 0.5, 0);      // touch seed 0 -> seed 1 is LRU
  (void)cache.standard(1, 0.5, kKept);  // evicts seed 1
  EXPECT_EQ(cache.builds(), kKept + 1);
  (void)cache.standard(1, 0.5, 0);  // still resident
  EXPECT_EQ(cache.builds(), kKept + 1);
  (void)cache.standard(1, 0.5, 1);  // evicted -> rebuilt
  EXPECT_EQ(cache.builds(), kKept + 2);
}

TEST(TracePoolCache, ClearDropsEntries) {
  TracePoolCache cache;
  (void)cache.standard(2, 8.0, 1);
  cache.clear();
  (void)cache.standard(2, 8.0, 1);
  EXPECT_EQ(cache.builds(), 2u);
}

TEST(TracePoolCache, SharedIsAProcessSingleton) {
  EXPECT_EQ(&TracePoolCache::shared(), &TracePoolCache::shared());
}

}  // namespace
}  // namespace ll::exp
