#pragma once

/// \file pool_cache.hpp
/// Shared trace-pool cache.
///
/// Every cluster/parallel experiment replays a pool of coarse machine
/// traces, and before the engine existed each bench binary — and each cell
/// inside it — regenerated that pool from scratch. Pools are pure functions
/// of (machines, hours, seed), so a sweep needs to build each distinct pool
/// exactly once; this cache enforces that, process-wide and thread-safe.
/// Cells hold the pool by shared_ptr-to-const: immutable, so sharing across
/// runner threads is race-free.
///
/// Single-flight: each key maps to a shared_future that is inserted before
/// the build starts, so two threads missing on the same key concurrently
/// never both generate the pool — the second waits on the first's future.
/// Builds for *different* keys run in parallel (the cache-wide mutex covers
/// only map bookkeeping, never a generation), which is what a long-running
/// server needs: one slow pool must not serialize unrelated requests.
///
/// The cache is bounded: at most `capacity()` pools are retained, evicting
/// the least-recently-used completed entry first, so a long-lived process
/// cannot grow it without limit. Evicted pools stay alive for as long as
/// any cell still holds the shared_ptr.

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"
#include "trace/coarse_generator.hpp"

namespace ll::exp {

class TracePoolCache {
 public:
  using Pool = std::vector<trace::CoarseTrace>;
  using PoolPtr = std::shared_ptr<const Pool>;

  /// The standard synthetic pool, defined only here (the CLI, the
  /// registered benches and the standalone bench/ binaries all use it):
  /// `hours` per machine; pools shorter than a day start at 09:00 so they
  /// cover working hours, full days at midnight.
  PoolPtr standard(std::size_t machines, double hours, std::uint64_t seed);

  /// Returns the cached pool for the key, building it via `build` exactly
  /// once per key (subsequent calls, from any thread, hit the cache or wait
  /// on the in-flight build). A throwing build propagates to every waiter
  /// and leaves the key absent, so a later call retries.
  PoolPtr get_or_build(std::size_t machines, double hours, std::uint64_t seed,
                       const std::function<Pool()>& build);

  [[nodiscard]] std::size_t builds() const;
  [[nodiscard]] std::size_t hits() const;
  [[nodiscard]] std::size_t size() const;

  /// Bounds the number of retained pools (min 1; default kDefaultCapacity),
  /// evicting least-recently-used completed entries immediately if needed.
  /// In-flight builds are never evicted, so the cache may transiently hold
  /// more than `capacity` entries while builds overlap.
  void set_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t capacity() const;

  static constexpr std::size_t kDefaultCapacity = 64;

  /// Drops every cached pool (tests; long-lived processes changing scale).
  void clear();

  /// Publishes exp.pool_cache.{builds,hits} counters into `registry`
  /// (absolute values at call time — call once, after the sweeps ran).
  void export_metrics(obs::MetricRegistry& registry) const;

  /// Process-wide instance shared by the engine, the CLI, and the benches.
  static TracePoolCache& shared();

 private:
  struct Key {
    std::size_t machines;
    double hours;
    std::uint64_t seed;
    bool operator<(const Key& o) const {
      if (machines != o.machines) return machines < o.machines;
      if (hours != o.hours) return hours < o.hours;
      return seed < o.seed;
    }
  };

  struct Entry {
    std::shared_future<PoolPtr> future;
    std::uint64_t last_use = 0;  ///< LRU clock tick of the last lookup
    bool ready = false;          ///< build finished (evictable)
  };

  /// Evicts ready entries, oldest last_use first, until at most
  /// `limit` entries remain (in-flight builds are skipped). Lock held.
  void evict_down_to_locked(std::size_t limit);

  mutable std::mutex mu_;
  std::map<Key, Entry> cache_;
  std::uint64_t tick_ = 0;
  std::size_t capacity_ = kDefaultCapacity;
  std::size_t builds_ = 0;
  std::size_t hits_ = 0;
};

}  // namespace ll::exp
