#include "trace/recruitment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <limits>
#include <stdexcept>

namespace ll::trace {
namespace {

CoarseTrace trace_of(std::initializer_list<CoarseSample> samples,
                     double period = 2.0) {
  CoarseTrace t(period);
  for (const auto& s : samples) t.push(s);
  return t;
}

CoarseSample quiet() { return {0.02, 32768, false}; }
CoarseSample busy_cpu() { return {0.5, 32768, false}; }
CoarseSample typing() { return {0.02, 32768, true}; }

TEST(Recruitment, AllQuietBecomesIdleAfterThreshold) {
  // quiet_seconds=60, period=2 => 30 samples needed.
  CoarseTrace t(2.0);
  for (int i = 0; i < 40; ++i) t.push(quiet());
  const auto flags = idle_flags(t);
  for (int i = 0; i < 29; ++i) EXPECT_FALSE(flags[i]) << i;
  for (int i = 29; i < 40; ++i) EXPECT_TRUE(flags[i]) << i;
}

TEST(Recruitment, KeyboardResetsQuietRun) {
  CoarseTrace t(2.0);
  for (int i = 0; i < 35; ++i) t.push(quiet());
  t.push(typing());
  for (int i = 0; i < 35; ++i) t.push(quiet());
  const auto flags = idle_flags(t);
  EXPECT_TRUE(flags[34]);
  EXPECT_FALSE(flags[35]);  // keyboard
  for (int i = 36; i < 36 + 29; ++i) EXPECT_FALSE(flags[i]) << i;
  EXPECT_TRUE(flags[65]);
}

TEST(Recruitment, CpuSpikeResetsQuietRun) {
  CoarseTrace t(2.0);
  for (int i = 0; i < 31; ++i) t.push(quiet());
  t.push(busy_cpu());
  t.push(quiet());
  const auto flags = idle_flags(t);
  EXPECT_TRUE(flags[30]);
  EXPECT_FALSE(flags[31]);
  EXPECT_FALSE(flags[32]);
}

TEST(Recruitment, ThresholdIsStrict) {
  RecruitmentRule rule;
  CoarseTrace t(2.0);
  // Exactly 10% CPU is NOT below the threshold.
  for (int i = 0; i < 40; ++i) t.push({0.10, 0, false});
  EXPECT_DOUBLE_EQ(idle_fraction(t, rule), 0.0);
  CoarseTrace t2(2.0);
  for (int i = 0; i < 40; ++i) t2.push({0.099, 0, false});
  EXPECT_GT(idle_fraction(t2, rule), 0.0);
}

TEST(Recruitment, CustomRule) {
  RecruitmentRule rule{0.5, 4.0};  // 2 samples at period 2
  auto t = trace_of({quiet(), quiet(), quiet()});
  const auto flags = idle_flags(t, rule);
  EXPECT_FALSE(flags[0]);
  EXPECT_TRUE(flags[1]);
  EXPECT_TRUE(flags[2]);
}

TEST(Recruitment, EmptyTrace) {
  CoarseTrace t(2.0);
  EXPECT_TRUE(idle_flags(t).empty());
  EXPECT_DOUBLE_EQ(idle_fraction(t), 0.0);
}

TEST(Recruitment, IdleFractionCounts) {
  RecruitmentRule rule{0.1, 2.0};  // 1 sample suffices
  auto t = trace_of({quiet(), busy_cpu(), quiet(), typing()});
  EXPECT_DOUBLE_EQ(idle_fraction(t, rule), 0.5);
}

TEST(Recruitment, EpisodeLengths) {
  RecruitmentRule rule{0.1, 2.0};
  auto t = trace_of({busy_cpu(), busy_cpu(), quiet(), busy_cpu(), quiet(), quiet()});
  const auto nonidle = nonidle_episode_lengths(t, rule);
  ASSERT_EQ(nonidle.size(), 2u);
  EXPECT_DOUBLE_EQ(nonidle[0], 4.0);
  EXPECT_DOUBLE_EQ(nonidle[1], 2.0);
  const auto idle = idle_episode_lengths(t, rule);
  ASSERT_EQ(idle.size(), 2u);
  EXPECT_DOUBLE_EQ(idle[0], 2.0);
  EXPECT_DOUBLE_EQ(idle[1], 4.0);
}

TEST(Recruitment, TrailingEpisodeIncluded) {
  RecruitmentRule rule{0.1, 2.0};
  auto t = trace_of({quiet(), busy_cpu(), busy_cpu()});
  const auto nonidle = nonidle_episode_lengths(t, rule);
  ASSERT_EQ(nonidle.size(), 1u);
  EXPECT_DOUBLE_EQ(nonidle[0], 4.0);
}

TEST(Recruitment, RecruitmentDelayExtendsNonIdleEpisodes) {
  // A 60s quiet threshold means the first minute after a busy spell still
  // counts as non-idle — the "recruitment tail" the paper exploits.
  CoarseTrace t(2.0);
  for (int i = 0; i < 40; ++i) t.push(quiet());  // becomes idle at i=29
  t.push(busy_cpu());                             // one busy window
  for (int i = 0; i < 40; ++i) t.push(quiet());
  const auto nonidle = nonidle_episode_lengths(t, {});
  // Episode: busy window + 29 quiet windows of recruitment delay.
  ASSERT_GE(nonidle.size(), 1u);
  EXPECT_DOUBLE_EQ(nonidle.back(), 2.0 * 30.0);
}

TEST(Recruitment, RejectsNonFiniteRule) {
  // A non-finite threshold or quiet period has no meaning as a rule: a NaN
  // threshold used to flag nothing, a NaN quiet period acted as one quiet
  // sample, and an infinite one was cast out of size_t's range.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  CoarseTrace t(2.0);
  for (int i = 0; i < 40; ++i) t.push(quiet());
  for (const RecruitmentRule rule :
       {RecruitmentRule{nan, 60.0}, RecruitmentRule{inf, 60.0},
        RecruitmentRule{-inf, 60.0}, RecruitmentRule{0.1, nan},
        RecruitmentRule{0.1, inf}, RecruitmentRule{0.1, -inf},
        RecruitmentRule{0.1, -1.0}}) {
    EXPECT_THROW(rule.validate(), std::invalid_argument)
        << rule.cpu_threshold << ", " << rule.quiet_seconds;
    EXPECT_THROW((void)idle_flags(t, rule), std::invalid_argument)
        << rule.cpu_threshold << ", " << rule.quiet_seconds;
  }
  // The empty trace has no sample to flag, but the rule is still checked.
  EXPECT_THROW((void)idle_flags(CoarseTrace(2.0), RecruitmentRule{0.1, nan}),
               std::invalid_argument);
  // Any finite threshold and finite, non-negative quiet period is a rule.
  EXPECT_NO_THROW((RecruitmentRule{-0.5, 0.0}.validate()));
  EXPECT_NO_THROW((RecruitmentRule{2.0, DBL_MAX}.validate()));
}

TEST(Recruitment, QuietPeriodLongerThanTraceFlagsNothing) {
  // 100 samples (200 s) mixing quiet, busy and typing samples.
  CoarseTrace t(2.0);
  for (int i = 0; i < 100; ++i) {
    t.push(i % 10 == 3 ? busy_cpu() : i % 10 == 7 ? typing() : quiet());
  }
  CoarseTrace all_quiet(2.0);
  for (int i = 0; i < 100; ++i) all_quiet.push(quiet());
  for (const double quiet_seconds : {200.5, 1e6, 1e300, DBL_MAX}) {
    const RecruitmentRule rule{0.1, quiet_seconds};
    for (const CoarseTrace* trace : {&t, &all_quiet}) {
      IdleCpu idle_cpu{1.5, 3};
      const std::vector<bool> flags = idle_flags(*trace, rule, idle_cpu);
      ASSERT_EQ(flags.size(), 100u);
      EXPECT_EQ(std::count(flags.begin(), flags.end(), true), 0)
          << "quiet_seconds " << quiet_seconds;
      EXPECT_EQ(idle_cpu.sum, 1.5);  // nothing idle was added
      EXPECT_EQ(idle_cpu.count, 3u);
    }
  }
  // A window of exactly the whole trace flags its last sample only.
  const auto last = idle_flags(all_quiet, RecruitmentRule{0.1, 200.0});
  EXPECT_EQ(std::count(last.begin(), last.end(), true), 1);
  EXPECT_TRUE(last.back());
}

}  // namespace
}  // namespace ll::trace
