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
/// runner threads is race-free, and each pool carries its own derivations
/// (TracePool::derived), so every cell replaying a cached pool shares them
/// and an evicted pool frees them with its traces.
///
/// It is a util::SingleFlightCache: concurrent misses on one key build the
/// pool once, builds for different keys run in parallel, and at most
/// kCapacity finished pools are kept, least recently used evicted first,
/// so a long-lived process cannot grow it without limit.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <tuple>

#include "obs/metrics.hpp"
#include "trace/coarse_generator.hpp"
#include "trace/trace_pool.hpp"
#include "util/single_flight_cache.hpp"

namespace ll::exp {

class TracePoolCache {
 public:
  using Pool = trace::TracePool;
  using PoolPtr = std::shared_ptr<const Pool>;

  /// The standard synthetic pool, defined only here (the CLI, the
  /// registered benches and the standalone bench/ binaries all use it):
  /// `hours` per machine; pools shorter than a day start at 09:00 so they
  /// cover working hours, full days at midnight.
  PoolPtr standard(std::size_t machines, double hours, std::uint64_t seed);

  [[nodiscard]] std::size_t builds() const { return cache_.builds(); }
  [[nodiscard]] std::size_t hits() const { return cache_.hits(); }

  /// Drops every cached pool (tests; long-lived processes changing scale).
  void clear() { cache_.clear(); }

  /// Publishes exp.pool_cache.{builds,hits} counters into `registry`
  /// (absolute values at call time — call once, after the sweeps ran).
  void export_metrics(obs::MetricRegistry& registry) const;

  /// Process-wide instance shared by the engine, the CLI, and the benches.
  static TracePoolCache& shared();

 private:
  static constexpr std::size_t kCapacity = 64;

  /// Keyed by (machines, hours, seed).
  util::SingleFlightCache<std::tuple<std::size_t, double, std::uint64_t>,
                          Pool>
      cache_{kCapacity};
};

}  // namespace ll::exp
