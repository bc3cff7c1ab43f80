#pragma once

/// \file common.hpp
/// Shared helpers for the bench binaries. Each bench reproduces one table or
/// figure of the paper; trace pools come from exp::TracePoolCache::standard,
/// so figures built on the same pool dimensions are comparable.

#include <array>
#include <cstdint>
#include <cstdio>

#include "workload/burst_table.hpp"

namespace ll::benchx {

/// Burst table with the same means as the default but exponential (cv^2=1)
/// burst durations — the abl_burst_model ablation of design decision #3.
inline workload::BurstTable exponential_burst_table() {
  std::array<workload::BurstMoments, workload::kUtilizationLevels> levels{};
  const workload::BurstTable& h2 = workload::default_burst_table();
  for (std::size_t i = 0; i < workload::kUtilizationLevels; ++i) {
    const workload::BurstMoments& m = h2.level(i);
    levels[i] = workload::BurstMoments{m.run_mean, m.run_mean * m.run_mean,
                                       m.idle_mean, m.idle_mean * m.idle_mean};
  }
  return workload::BurstTable(levels);
}

/// Prints the standard bench banner (figure id, seed, reminder that shapes —
/// not absolute values — are the comparison target).
inline void banner(const char* figure, const char* claim, std::uint64_t seed) {
  std::printf("=== %s ===\n%s\nseed=%llu (shapes, not absolute values, are "
              "the comparison target)\n\n",
              figure, claim, static_cast<unsigned long long>(seed));
}

}  // namespace ll::benchx
