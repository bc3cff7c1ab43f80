#pragma once

/// \file workloads.hpp
/// The benchmark's four workloads. Each runs one pass (see harness.hpp)
/// through the simulator's public entry points only:
///  * paper_sweep   — exp::run_sweep over exp::cluster_cell (fig07 cells);
///  * cluster_scale — cluster::run_closed, 2000 nodes, heap queue;
///  * sharded_scale — shard::run_closed, same scenario, 4 shards, calendar;
///  * serve_mix     — `run` requests to an in-process serve::Server over
///                    loopback TCP, from one closed-loop client thread.
/// With a tracer (non-null `tracer`) a pass also attaches the existing
/// observers and fills Pass::layers.

#include <cstddef>
#include <cstdint>

#include "harness.hpp"

namespace llbench {

struct Workload {
  const char* name;
  Pass (*run)(const Options& options, std::size_t setup_reps,
              obs::Tracer* tracer);
  /// Digest of the first pinned ops' outputs at kDefaultSeed.
  std::uint64_t pinned;
};

Pass run_paper_sweep(const Options& options, std::size_t setup_reps,
                     obs::Tracer* tracer);
Pass run_cluster_scale(const Options& options, std::size_t setup_reps,
                       obs::Tracer* tracer);
Pass run_sharded_scale(const Options& options, std::size_t setup_reps,
                       obs::Tracer* tracer);
Pass run_serve_mix(const Options& options, std::size_t setup_reps,
                   obs::Tracer* tracer);

/// Worker count for runners the benchmark owns: the host's thread count.
[[nodiscard]] std::size_t nproc();

}  // namespace llbench
