#include "util/single_flight_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
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
  // (the cache holds two entries until the next miss), and the caller
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
  // Key 1 stayed resident; the next miss brings the cache back to 1.
  EXPECT_TRUE(cache.get_or_build({1, 0}, slow).hit);
  (void)cache.get_or_build({3, 0}, [] { return std::string("3"); });
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.builds(), 3u);
}

}  // namespace
}  // namespace ll::util
