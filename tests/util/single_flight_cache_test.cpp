#include "util/single_flight_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace ll::util {
namespace {

using Cache = SingleFlightCache<std::pair<std::uint64_t, std::uint64_t>,
                                std::string>;

/// Spins until `cache` has counted `n` hits: every waiter has found the
/// in-flight entry and blocks on its future.
void await_hits(const Cache& cache, std::size_t n) {
  while (cache.hits() < n) std::this_thread::yield();
}

TEST(SingleFlightCache, SameKeyBuildsOnceAndSharesTheValue) {
  Cache cache(4);
  int builds = 0;
  const auto build = [&builds] {
    ++builds;
    return std::string("payload");
  };
  const auto a = cache.get_or_build({1, 2}, build);
  const auto b = cache.get_or_build({1, 2}, build);
  EXPECT_FALSE(a.hit);
  EXPECT_TRUE(b.hit);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(a.value.get(), b.value.get());  // literally the same bytes
  EXPECT_EQ(*b.value, "payload");
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(SingleFlightCache, EveryKeyFieldKeysTheCache) {
  Cache cache(4);
  const auto build = [] { return std::string("x"); };
  (void)cache.get_or_build({1, 1}, build);
  EXPECT_FALSE(cache.get_or_build({2, 1}, build).hit);
  EXPECT_FALSE(cache.get_or_build({1, 2}, build).hit);
  EXPECT_EQ(cache.builds(), 3u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(SingleFlightCache, ConcurrentSlowBuildRunsOnce) {
  // Callers that miss on one key while its build is slow must wait on the
  // builder's future, not build again.
  Cache cache(4);
  std::atomic<int> builds{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> threads;
  std::vector<Cache::Outcome> got(4);
  for (std::size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      got[t] = cache.get_or_build({7, 7}, [&] {
        ++builds;
        while (!release.load()) std::this_thread::yield();
        return std::string("slow");
      });
    });
  }
  await_hits(cache, got.size() - 1);
  release = true;
  for (auto& th : threads) th.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(cache.builds(), 1u);
  int hits = 0;
  for (const auto& o : got) {
    EXPECT_EQ(o.value.get(), got[0].value.get());
    hits += o.hit ? 1 : 0;
  }
  EXPECT_EQ(hits, 3);  // exactly one caller ran the build
}

TEST(SingleFlightCache, ConcurrentDistinctKeysBuildInParallel) {
  // Two different keys must not serialize: key A's build blocks until key
  // B's build has started, which deadlocks if the cache holds its lock
  // across builds.
  Cache cache(4);
  std::atomic<bool> b_started{false};
  std::thread a([&] {
    (void)cache.get_or_build({1, 1}, [&] {
      while (!b_started.load()) std::this_thread::yield();
      return std::string("a");
    });
  });
  std::thread b([&] {
    (void)cache.get_or_build({1, 2}, [&] {
      b_started = true;
      return std::string("b");
    });
  });
  a.join();
  b.join();
  EXPECT_EQ(cache.builds(), 2u);
}

TEST(SingleFlightCache, FailedBuildPropagatesAndIsNotCached) {
  Cache cache(4);
  EXPECT_THROW((void)cache.get_or_build(
                   {3, 3},
                   []() -> std::string { throw std::runtime_error("boom"); }),
               std::runtime_error);
  // The failure is not cached: the next call builds again and succeeds.
  const auto ok = cache.get_or_build({3, 3}, [] { return std::string("ok"); });
  EXPECT_FALSE(ok.hit);
  EXPECT_EQ(*ok.value, "ok");
  EXPECT_EQ(cache.builds(), 2u);
}

TEST(SingleFlightCache, FailedBuildReachesEveryWaiter) {
  // Callers blocked on a build that throws get its exception too, not only
  // the builder; the key then builds again.
  Cache cache(4);
  std::atomic<bool> release{false};
  std::atomic<int> failed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      try {
        (void)cache.get_or_build({5, 5}, [&]() -> std::string {
          while (!release.load()) std::this_thread::yield();
          throw std::runtime_error("boom");
        });
      } catch (const std::runtime_error&) {
        ++failed;
      }
    });
  }
  await_hits(cache, 3);
  release = true;
  for (auto& th : threads) th.join();
  EXPECT_EQ(failed.load(), 4);
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.size(), 0u);
  const auto retry =
      cache.get_or_build({5, 5}, [] { return std::string("ok"); });
  EXPECT_FALSE(retry.hit);
  EXPECT_EQ(*retry.value, "ok");
  EXPECT_EQ(cache.builds(), 2u);
}

TEST(SingleFlightCache, EvictsLeastRecentlyUsed) {
  Cache cache(2);
  const auto build = [] { return std::string("v"); };
  (void)cache.get_or_build({1, 0}, build);
  (void)cache.get_or_build({2, 0}, build);
  (void)cache.get_or_build({1, 0}, build);  // touch 1 -> 2 is LRU
  (void)cache.get_or_build({3, 0}, build);  // evicts 2
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.get_or_build({1, 0}, build).hit);
  EXPECT_FALSE(cache.get_or_build({2, 0}, build).hit);  // was evicted
}

TEST(SingleFlightCache, MissDoesNotEvictAnInFlightBuild) {
  // At capacity 1, a miss on another key while key 1 builds keeps key 1
  // (the cache holds two entries while key 1 builds), and the caller
  // waiting on key 1 still gets its value.
  Cache cache(1);
  std::atomic<bool> release{false};
  Cache::Outcome builder;
  Cache::Outcome waiter;
  const auto slow = [&] {
    while (!release.load()) std::this_thread::yield();
    return std::string("one");
  };
  std::thread a([&] { builder = cache.get_or_build({1, 0}, slow); });
  while (cache.builds() < 1) std::this_thread::yield();
  std::thread w([&] { waiter = cache.get_or_build({1, 0}, slow); });
  await_hits(cache, 1);
  const auto two = cache.get_or_build({2, 0}, [] { return std::string("2"); });
  EXPECT_FALSE(two.hit);
  EXPECT_EQ(cache.size(), 2u);
  release = true;
  a.join();
  w.join();
  EXPECT_FALSE(builder.hit);
  EXPECT_TRUE(waiter.hit);
  EXPECT_EQ(*waiter.value, "one");
  EXPECT_EQ(waiter.value.get(), builder.value.get());
  // Key 1 stayed resident (finishing, it evicted key 2); key 3 evicts it.
  EXPECT_TRUE(cache.get_or_build({1, 0}, slow).hit);
  (void)cache.get_or_build({3, 0}, [] { return std::string("3"); });
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.builds(), 3u);
}

TEST(SingleFlightCache, EvictedValueLivesOnWhileHeld) {
  // At budget 1, building key 2 evicts key 1. The caller holding key 1's
  // value keeps it; asking for key 1 again builds it anew.
  Cache cache(1);
  const auto one = cache.get_or_build({1, 0},
                                      [] { return std::string("one"); });
  (void)cache.get_or_build({2, 0}, [] { return std::string("two"); });
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*one.value, "one");
  const auto again = cache.get_or_build({1, 0},
                                        [] { return std::string("one"); });
  EXPECT_FALSE(again.hit);
  EXPECT_NE(again.value.get(), one.value.get());
  EXPECT_EQ(cache.builds(), 3u);
}

TEST(SingleFlightCache, ReleasedValueBeyondTheBudgetIsFreedAndRebuilt) {
  Cache cache(1);
  const auto build = [] { return std::string("v"); };
  const std::weak_ptr<const std::string> one =
      cache.get_or_build({1, 0}, build).value;
  EXPECT_FALSE(one.expired());  // the cache keeps it
  (void)cache.get_or_build({2, 0}, build);
  EXPECT_TRUE(one.expired());  // evicted for key 2, and nobody held it
  EXPECT_FALSE(cache.get_or_build({1, 0}, build).hit);
  EXPECT_EQ(cache.builds(), 3u);
}

/// Weighs a string by its length.
struct Length {
  std::size_t operator()(const std::string& s) const { return s.size(); }
};
using Weighted = SingleFlightCache<int, std::string, Length>;

TEST(SingleFlightCache, FinishedBuildEvictsLeastRecentlyUsedUntilItFits) {
  Weighted cache(10);
  const auto of = [](std::size_t n, char c) {
    return [n, c] { return std::string(n, c); };
  };
  (void)cache.get_or_build(1, of(3, 'a'));
  (void)cache.get_or_build(2, of(4, 'b'));
  (void)cache.get_or_build(3, of(2, 'c'));  // kept weight 9
  (void)cache.get_or_build(1, of(3, 'a'));  // touch 1 -> 2, then 3, are LRU
  (void)cache.get_or_build(4, of(6, 'd'));  // 15: evicts 2 (11), then 3 (9)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.get_or_build(1, of(3, 'a')).hit);
  EXPECT_TRUE(cache.get_or_build(4, of(6, 'd')).hit);
  EXPECT_EQ(cache.builds(), 4u);
  EXPECT_FALSE(cache.get_or_build(3, of(2, 'c')).hit);  // 11: evicts 1
  EXPECT_FALSE(cache.get_or_build(1, of(3, 'a')).hit);
}

TEST(SingleFlightCache, HeavierThanTheBudgetIsNeverKeptAndEvictsNothing) {
  Weighted cache(4);
  const std::weak_ptr<const std::string> light =
      cache.get_or_build(2, [] { return std::string("ab"); }).value;
  const auto build = [] { return std::string("heavy!"); };  // weight 6
  const auto first = cache.get_or_build(1, build);
  EXPECT_FALSE(first.hit);
  EXPECT_EQ(cache.size(), 1u);    // the light value only
  EXPECT_FALSE(light.expired());  // the heavy value evicted nothing
  const auto second = cache.get_or_build(1, build);
  EXPECT_FALSE(second.hit);
  EXPECT_EQ(*first.value, "heavy!");  // still held by its caller
  EXPECT_EQ(cache.builds(), 3u);
}

TEST(SingleFlightCache, KeptWeightNeverExceedsTheBudget) {
  // Nothing is held here, so the values still alive are the ones the cache
  // keeps: after every call their weight fits the budget, and the value
  // just asked for (lighter than the budget) is among them.
  constexpr std::size_t kBudget = 10;
  Weighted cache(kBudget);
  std::map<int, std::weak_ptr<const std::string>> seen;
  std::uint64_t lcg = 12345;
  for (int call = 0; call < 400; ++call) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const int key = static_cast<int>((lcg >> 33) % 16);
    const std::size_t length = 1 + static_cast<std::size_t>(key) % 7;
    seen[key] =
        cache.get_or_build(key, [&] { return std::string(length, 'x'); })
            .value;
    std::size_t alive = 0;
    for (const auto& [k, weak] : seen) {
      if (const auto value = weak.lock()) alive += value->size();
    }
    ASSERT_LE(alive, kBudget) << "call " << call;
    ASSERT_FALSE(seen[key].expired()) << "call " << call;
  }
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.builds(), 16u);  // some keys were evicted and rebuilt
}

TEST(SingleFlightCache, ClearKeepsAnInFlightBuild) {
  // clear() drops finished entries only: the build in flight finishes into
  // its own entry, and the budget counts it alone.
  Cache cache(1);
  (void)cache.get_or_build({1, 0}, [] { return std::string("1"); });
  std::atomic<bool> release{false};
  Cache::Outcome builder;
  std::thread a([&] {
    builder = cache.get_or_build({2, 0}, [&] {
      while (!release.load()) std::this_thread::yield();
      return std::string("2");
    });
  });
  while (cache.builds() < 2) std::this_thread::yield();
  cache.clear();
  EXPECT_EQ(cache.size(), 1u);  // key 2, in flight
  release = true;
  a.join();
  EXPECT_FALSE(builder.hit);
  EXPECT_TRUE(cache.get_or_build({2, 0}, [] { return std::string("x"); }).hit);
  EXPECT_FALSE(cache.get_or_build({1, 0}, [] { return std::string("1"); }).hit);
  EXPECT_EQ(cache.size(), 1u);  // key 1 evicted key 2
  EXPECT_EQ(cache.builds(), 3u);
}

}  // namespace
}  // namespace ll::util
