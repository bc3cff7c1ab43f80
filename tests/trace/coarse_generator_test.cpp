#include "trace/coarse_generator.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "trace/coarse_analysis.hpp"
#include "trace/recruitment.hpp"

namespace ll::trace {
namespace {

CoarseGenConfig day_config() {
  CoarseGenConfig cfg;
  cfg.duration = 86400.0;
  return cfg;
}

TEST(CoarseGenerator, ProducesRequestedLength) {
  CoarseGenConfig cfg;
  cfg.duration = 3600.0;
  const CoarseTrace t = generate_coarse_trace(cfg, rng::Stream(1));
  EXPECT_EQ(t.size(), 1800u);
  EXPECT_DOUBLE_EQ(t.period(), 2.0);
}

TEST(CoarseGenerator, RejectsNegativeOrNonFiniteDuration) {
  CoarseGenConfig cfg;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {-1.0, -86400.0, -kInf, kInf,
                           std::numeric_limits<double>::quiet_NaN()}) {
    cfg.duration = bad;
    EXPECT_THROW((void)generate_coarse_trace(cfg, rng::Stream(1)),
                 std::invalid_argument)
        << bad;
  }
  cfg.duration = 0.0;  // an empty trace is still a valid request
  EXPECT_EQ(generate_coarse_trace(cfg, rng::Stream(1)).size(), 0u);
}

TEST(CoarseGenerator, DeterministicInSeed) {
  CoarseGenConfig cfg;
  cfg.duration = 7200.0;
  const CoarseTrace a = generate_coarse_trace(cfg, rng::Stream(7));
  const CoarseTrace b = generate_coarse_trace(cfg, rng::Stream(7));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.samples()[i].cpu, b.samples()[i].cpu);
    EXPECT_EQ(a.samples()[i].mem_free_kb, b.samples()[i].mem_free_kb);
    EXPECT_EQ(a.samples()[i].keyboard, b.samples()[i].keyboard);
  }
}

TEST(CoarseGenerator, DifferentSeedsDiffer) {
  CoarseGenConfig cfg;
  cfg.duration = 7200.0;
  const CoarseTrace a = generate_coarse_trace(cfg, rng::Stream(1));
  const CoarseTrace b = generate_coarse_trace(cfg, rng::Stream(2));
  std::size_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.samples()[i].cpu != b.samples()[i].cpu) ++diff;
  }
  EXPECT_GT(diff, a.size() / 2);
}

TEST(CoarseGenerator, SamplesWithinPhysicalBounds) {
  const CoarseTrace t = generate_coarse_trace(day_config(), rng::Stream(3));
  for (const CoarseSample& s : t.samples()) {
    EXPECT_GE(s.cpu, 0.0);
    EXPECT_LE(s.cpu, 1.0);
    EXPECT_GE(s.mem_free_kb, 0);
    EXPECT_LE(s.mem_free_kb, 65536);
  }
}

TEST(CoarseGenerator, MachinePoolIsPerMachineIndependent) {
  const auto pool = generate_machine_pool(day_config(), 3, rng::Stream(11));
  ASSERT_EQ(pool.size(), 3u);
  EXPECT_NE(pool[0].samples()[100].cpu, pool[1].samples()[100].cpu);
  // Regenerating yields identical traces (pure function of master seed).
  const auto pool2 = generate_machine_pool(day_config(), 3, rng::Stream(11));
  EXPECT_DOUBLE_EQ(pool[2].samples()[500].cpu, pool2[2].samples()[500].cpu);
}

// ---- calibration against the paper's §3.2 aggregate statistics ----------
//
// These are the numbers the cluster results actually depend on; the
// generator must land near them (tolerances are deliberately loose — the
// paper's own traces vary by site and day).

class CoarseCalibration : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pool_ = new std::vector<CoarseTrace>(
        generate_machine_pool(day_config(), 8, rng::Stream(42)));
    stats_ = new CoarseStats(analyze_coarse(*pool_));
  }
  static void TearDownTestSuite() {
    delete pool_;
    delete stats_;
    pool_ = nullptr;
    stats_ = nullptr;
  }
  static std::vector<CoarseTrace>* pool_;
  static CoarseStats* stats_;
};

std::vector<CoarseTrace>* CoarseCalibration::pool_ = nullptr;
CoarseStats* CoarseCalibration::stats_ = nullptr;

TEST_F(CoarseCalibration, NonIdleFractionNearPaper) {
  // Paper: machines are non-idle ~46% of the time.
  EXPECT_GT(stats_->nonidle_fraction, 0.36);
  EXPECT_LT(stats_->nonidle_fraction, 0.56);
}

TEST_F(CoarseCalibration, NonIdleTimeIsMostlyLowUtilization) {
  // Paper: 76% of non-idle time has CPU below 10%.
  EXPECT_GT(stats_->nonidle_below_10pct, 0.65);
  EXPECT_LT(stats_->nonidle_below_10pct, 0.87);
}

TEST_F(CoarseCalibration, IdleWindowsAreQuiet) {
  EXPECT_LT(stats_->mean_cpu_idle, 0.05);
}

TEST_F(CoarseCalibration, NonIdleUtilizationModerate) {
  // "h" must clearly exceed "l" but stay well below saturation.
  EXPECT_GT(stats_->mean_cpu_nonidle, 0.10);
  EXPECT_LT(stats_->mean_cpu_nonidle, 0.40);
}

TEST_F(CoarseCalibration, MemoryAvailabilityMatchesFigure4) {
  const MemoryAvailability mem = memory_availability(*pool_);
  // Paper: >= 14 MB free 90% of the time; >= 10 MB free 95% of the time.
  EXPECT_GT(fraction_with_at_least(mem.all_kb, 14.0 * 1024), 0.82);
  EXPECT_GT(fraction_with_at_least(mem.all_kb, 10.0 * 1024), 0.90);
  // And no dramatic idle/non-idle difference.
  const double idle14 = fraction_with_at_least(mem.idle_kb, 14.0 * 1024);
  const double nonidle14 = fraction_with_at_least(mem.nonidle_kb, 14.0 * 1024);
  EXPECT_NEAR(idle14, nonidle14, 0.25);
}

TEST_F(CoarseCalibration, ShortNonIdleEpisodesExist) {
  // The fine-grain opportunity: plenty of non-idle episodes shorter than a
  // typical migration cost (~23 s) plus linger duration.
  std::size_t short_episodes = 0;
  std::size_t total = 0;
  for (const CoarseTrace& t : *pool_) {
    for (double len : nonidle_episode_lengths(t)) {
      ++total;
      if (len <= 120.0) ++short_episodes;
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(short_episodes) / static_cast<double>(total),
            0.2);
}

}  // namespace
}  // namespace ll::trace
