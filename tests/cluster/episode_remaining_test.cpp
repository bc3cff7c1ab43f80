/// cluster::episode_remaining, the OracleLinger baseline's look-ahead,
/// against a reference that computes the same values for every sample at
/// once: the two-pass table builder it replaced in ClusterSim.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "rng/rng.hpp"

namespace ll::cluster {
namespace {

/// Seconds of consecutive non-idle samples from each sample on, by two
/// reverse passes over the circular buffer (the first seeds the runs
/// across the wrap point, the second records them).
std::vector<double> reference_table(const std::vector<bool>& flags,
                                    double period) {
  const std::size_t n = flags.size();
  std::vector<double> out(n, 0.0);
  bool any_idle = false;
  for (bool f : flags) any_idle |= f;
  if (!any_idle) {
    std::fill(out.begin(), out.end(), std::numeric_limits<double>::infinity());
    return out;
  }
  double run = 0.0;
  for (std::size_t pass = 0; pass < 2; ++pass) {
    for (std::size_t k = n; k-- > 0;) {
      if (flags[k]) {
        run = 0.0;
      } else {
        run += period;
      }
      if (pass == 1) out[k] = run;
    }
  }
  return out;
}

TEST(EpisodeRemaining, CountsNonIdleSamplesAcrossTheWrapPoint) {
  // true = idle. Sample 2's episode runs through samples 3 and 0.
  const std::vector<bool> flags = {false, true, false, false};
  EXPECT_EQ(episode_remaining(flags, 0, 2.0), 2.0);
  EXPECT_EQ(episode_remaining(flags, 1, 2.0), 0.0);
  EXPECT_EQ(episode_remaining(flags, 2, 2.0), 6.0);
  EXPECT_EQ(episode_remaining(flags, 3, 2.0), 4.0);
  EXPECT_EQ(episode_remaining({false, false}, 1, 2.0),
            std::numeric_limits<double>::infinity());
}

TEST(EpisodeRemaining, EqualsTheTwoPassTableBitForBit) {
  // 0.1 is not a sum of powers of two, so a sum taken in another order
  // (or as count * period) would differ in the last bits.
  rng::Stream stream(1998);
  for (const double period : {2.0, 0.1}) {
    for (const double idle_share : {0.0, 0.05, 0.5, 1.0}) {
      for (std::size_t len = 1; len <= 300; ++len) {
        std::vector<bool> flags(len);
        for (std::size_t k = 0; k < len; ++k) {
          flags[k] = stream.uniform01() < idle_share;
        }
        const std::vector<double> table = reference_table(flags, period);
        for (std::size_t w = 0; w < len; ++w) {
          const double got = episode_remaining(flags, w, period);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                    std::bit_cast<std::uint64_t>(table[w]))
              << "period " << period << ", idle share " << idle_share
              << ", length " << len << ", window " << w << ": " << got
              << " vs " << table[w];
        }
      }
    }
  }
}

}  // namespace
}  // namespace ll::cluster
