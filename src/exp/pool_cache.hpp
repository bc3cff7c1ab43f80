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
/// (TracePool::derived), so every cell replaying a pool shares them and a
/// pool frees them with its traces.
///
/// It is a util::SingleFlightCache: concurrent misses on one key build the
/// pool once, and builds for different keys run in parallel. It keeps the
/// most recently used finished pools up to kKeptBytes of samples: the last
/// small pool a served request built, but never a bench-sized pool, which
/// lives only while its sweep holds the PoolPtr (every bench and CLI
/// caller asks for its pool once and holds it for the whole sweep).

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

  /// Sample bytes of finished pools the cache keeps (TracePool::sample_bytes;
  /// a machine-day is 0.66 MiB). One MiB keeps one small served pool, such
  /// as perfbench serve_mix's 4 machines x 6 h (0.66 MiB), so a run that
  /// asks for the pool just built and released finds it. No caller reads
  /// an older released pool: a repeat served request is answered from the
  /// result cache.
  static constexpr std::size_t kKeptBytes = std::size_t{1} << 20;

  /// The standard synthetic pool, defined only here (the CLI, the
  /// registered benches and the served scenarios all use it):
  /// `hours` per machine; pools shorter than a day start at 09:00 so they
  /// cover working hours, full days at midnight. Throws
  /// std::invalid_argument for a non-finite or negative `hours`.
  PoolPtr standard(std::size_t machines, double hours, std::uint64_t seed);

  [[nodiscard]] std::size_t builds() const { return cache_.builds(); }
  [[nodiscard]] std::size_t hits() const { return cache_.hits(); }

  /// Drops every finished pool, so each key builds again (perfbench's setup;
  /// tests). Runs keep the pools they hold.
  void clear() { cache_.clear(); }

  /// Publishes exp.pool_cache.{builds,hits} counters into `registry`
  /// (absolute values at call time — call once, after the sweeps ran).
  void export_metrics(obs::MetricRegistry& registry) const;

  /// Process-wide instance shared by the engine, the CLI, and the benches.
  static TracePoolCache& shared();

 private:
  struct SampleBytes {
    std::size_t operator()(const Pool& pool) const {
      return pool.sample_bytes();
    }
  };

  /// Keyed by (machines, hours, seed), weighed in sample bytes.
  util::SingleFlightCache<std::tuple<std::size_t, double, std::uint64_t>,
                          Pool, SampleBytes>
      cache_{kKeptBytes};
};

}  // namespace ll::exp
