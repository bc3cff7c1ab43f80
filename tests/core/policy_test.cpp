#include "core/policy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace ll::core {
namespace {

PolicyContext ctx_of(double age, double h = 0.3, double l = 0.05,
                     double migr = 23.0) {
  PolicyContext c;
  c.episode_age = age;
  c.node_utilization = h;
  c.idle_utilization = l;
  c.migration_cost = migr;
  return c;
}

TEST(PolicyNames, RoundTrip) {
  EXPECT_EQ(to_string(PolicyKind::LingerLonger), "LL");
  EXPECT_EQ(to_string(PolicyKind::LingerForever), "LF");
  EXPECT_EQ(to_string(PolicyKind::ImmediateEviction), "IE");
  EXPECT_EQ(to_string(PolicyKind::PauseAndMigrate), "PM");
}

TEST(PolicyNames, ParseInvertsToString) {
  EXPECT_EQ(parse_policy_name("LL"), PolicyKind::LingerLonger);
  EXPECT_EQ(parse_policy_name("LF"), PolicyKind::LingerForever);
  EXPECT_EQ(parse_policy_name("IE"), PolicyKind::ImmediateEviction);
  EXPECT_EQ(parse_policy_name("PM"), PolicyKind::PauseAndMigrate);
  EXPECT_EQ(parse_policy_name("LL-oracle"), PolicyKind::OracleLinger);
  try {
    (void)parse_policy_name("condor");
    FAIL() << "an unknown name parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "unknown policy 'condor' (LL, LF, IE, PM, LL-oracle)");
  }
}

TEST(PolicyFactory, CreatesEachKindWithMatchingName) {
  for (PolicyKind kind :
       {PolicyKind::LingerLonger, PolicyKind::LingerForever,
        PolicyKind::ImmediateEviction, PolicyKind::PauseAndMigrate}) {
    const auto policy = make_policy(kind);
    EXPECT_EQ(policy->kind(), kind);
    EXPECT_EQ(policy->name(), to_string(kind));
  }
}

TEST(PolicyFactory, LingeringPermissions) {
  EXPECT_TRUE(make_policy(PolicyKind::LingerLonger)->allows_lingering());
  EXPECT_TRUE(make_policy(PolicyKind::LingerForever)->allows_lingering());
  EXPECT_FALSE(make_policy(PolicyKind::ImmediateEviction)->allows_lingering());
  EXPECT_FALSE(make_policy(PolicyKind::PauseAndMigrate)->allows_lingering());
}

TEST(ImmediateEviction, AlwaysMigrates) {
  const auto policy = make_policy(PolicyKind::ImmediateEviction);
  for (double age : {0.0, 1.0, 100.0}) {
    EXPECT_EQ(policy->on_nonidle(ctx_of(age)).action,
              Decision::Action::Migrate);
  }
}

TEST(LingerForever, AlwaysContinues) {
  const auto policy = make_policy(PolicyKind::LingerForever);
  for (double age : {0.0, 1e6}) {
    EXPECT_EQ(policy->on_nonidle(ctx_of(age)).action,
              Decision::Action::Continue);
  }
}

TEST(PauseAndMigrate, PausesThenMigrates) {
  PolicyParams params;
  params.pause_time = 60.0;
  const auto policy = make_policy(PolicyKind::PauseAndMigrate, params);

  const Decision early = policy->on_nonidle(ctx_of(10.0));
  EXPECT_EQ(early.action, Decision::Action::Pause);
  EXPECT_NEAR(early.recheck_in, 50.0, 1e-9);

  const Decision late = policy->on_nonidle(ctx_of(60.0));
  EXPECT_EQ(late.action, Decision::Action::Migrate);
  EXPECT_EQ(policy->on_nonidle(ctx_of(120.0)).action,
            Decision::Action::Migrate);
}

TEST(PauseAndMigrate, RejectsNonPositivePause) {
  PolicyParams params;
  params.pause_time = 0.0;
  EXPECT_THROW(make_policy(PolicyKind::PauseAndMigrate, params),
               std::invalid_argument);
}

TEST(LingerLonger, LingersUntilCostModelDeadline) {
  const auto policy = make_policy(PolicyKind::LingerLonger);
  const double t_lingr = linger_duration(0.3, 0.05, 23.0);

  const Decision early = policy->on_nonidle(ctx_of(0.0));
  EXPECT_EQ(early.action, Decision::Action::Linger);
  EXPECT_NEAR(early.recheck_in, t_lingr, 1e-9);

  const Decision mid = policy->on_nonidle(ctx_of(t_lingr / 2));
  EXPECT_EQ(mid.action, Decision::Action::Linger);
  EXPECT_NEAR(mid.recheck_in, t_lingr / 2, 1e-9);

  EXPECT_EQ(policy->on_nonidle(ctx_of(t_lingr)).action,
            Decision::Action::Migrate);
  EXPECT_EQ(policy->on_nonidle(ctx_of(t_lingr * 3)).action,
            Decision::Action::Migrate);
}

TEST(LingerLonger, NeverMigratesTowardEqualOrBusierNodes) {
  const auto policy = make_policy(PolicyKind::LingerLonger);
  // h <= l: migration can't pay off; policy lingers and asks to re-check.
  const Decision d = policy->on_nonidle(ctx_of(1000.0, 0.05, 0.10));
  EXPECT_EQ(d.action, Decision::Action::Linger);
  EXPECT_GT(d.recheck_in, 0.0);
}

TEST(LingerLonger, BusierNodesMigrateSooner) {
  const auto policy = make_policy(PolicyKind::LingerLonger);
  // At age 60s with migration cost 23s: a 90%-utilized node has
  // T_lingr = (0.95/0.85)*23 ~ 25.7s < 60 -> migrate; a 15%-utilized node has
  // T_lingr = (0.95/0.10)*23 ~ 218s -> keep lingering.
  EXPECT_EQ(policy->on_nonidle(ctx_of(60.0, 0.9)).action,
            Decision::Action::Migrate);
  EXPECT_EQ(policy->on_nonidle(ctx_of(60.0, 0.15)).action,
            Decision::Action::Linger);
}

TEST(LingerLonger, ZeroMigrationCostMigratesImmediately) {
  const auto policy = make_policy(PolicyKind::LingerLonger);
  EXPECT_EQ(policy->on_nonidle(ctx_of(0.0, 0.3, 0.05, 0.0)).action,
            Decision::Action::Migrate);
}

TEST(LingerLonger, LingerScaleStretchesDeadline) {
  PolicyParams eager;
  eager.linger_scale = 0.0;
  const auto now = make_policy(PolicyKind::LingerLonger, eager);
  EXPECT_EQ(now->on_nonidle(ctx_of(0.0)).action, Decision::Action::Migrate);

  PolicyParams patient;
  patient.linger_scale = 2.0;
  const auto later = make_policy(PolicyKind::LingerLonger, patient);
  const double t_lingr = linger_duration(0.3, 0.05, 23.0);
  EXPECT_EQ(later->on_nonidle(ctx_of(1.5 * t_lingr)).action,
            Decision::Action::Linger);
  EXPECT_EQ(later->on_nonidle(ctx_of(2.0 * t_lingr)).action,
            Decision::Action::Migrate);
}

TEST(LingerLonger, ScaleZeroWithHopelessDestinationStillLingers) {
  PolicyParams eager;
  eager.linger_scale = 0.0;
  const auto policy = make_policy(PolicyKind::LingerLonger, eager);
  // h <= l: no destination is better, regardless of eagerness.
  EXPECT_EQ(policy->on_nonidle(ctx_of(100.0, 0.05, 0.1)).action,
            Decision::Action::Linger);
}

TEST(LingerLonger, NegativeScaleThrows) {
  PolicyParams bad;
  bad.linger_scale = -1.0;
  EXPECT_THROW(make_policy(PolicyKind::LingerLonger, bad),
               std::invalid_argument);
}

TEST(OracleLinger, MigratesExactlyWhenRemainingExceedsTail) {
  const auto policy = make_policy(PolicyKind::OracleLinger);
  const double tail = linger_duration(0.3, 0.05, 23.0);

  PolicyContext long_episode = ctx_of(5.0);
  long_episode.episode_remaining = tail * 2.0;
  EXPECT_EQ(policy->on_nonidle(long_episode).action,
            Decision::Action::Migrate);

  PolicyContext short_episode = ctx_of(5.0);
  short_episode.episode_remaining = tail * 0.5;
  EXPECT_EQ(policy->on_nonidle(short_episode).action,
            Decision::Action::Continue);
}

TEST(OracleLinger, UnknownRemainingNeverMigrates) {
  const auto policy = make_policy(PolicyKind::OracleLinger);
  // Default context: episode_remaining is infinity = unknown.
  EXPECT_EQ(policy->on_nonidle(ctx_of(1e6)).action,
            Decision::Action::Continue);
}

TEST(OracleLinger, HopelessDestinationContinues) {
  const auto policy = make_policy(PolicyKind::OracleLinger);
  PolicyContext ctx = ctx_of(5.0, /*h=*/0.05, /*l=*/0.10);
  ctx.episode_remaining = 1e9;
  EXPECT_EQ(policy->on_nonidle(ctx).action, Decision::Action::Continue);
}

TEST(OracleLinger, FactoryAndTraits) {
  const auto policy = make_policy(PolicyKind::OracleLinger);
  EXPECT_EQ(policy->kind(), PolicyKind::OracleLinger);
  EXPECT_EQ(policy->name(), "LL-oracle");
  EXPECT_TRUE(policy->allows_lingering());
}

TEST(Policies, DecisionsAreStateless) {
  // Same context twice gives the same decision (policies hold no job state).
  const auto policy = make_policy(PolicyKind::LingerLonger);
  const Decision a = policy->on_nonidle(ctx_of(12.0));
  const Decision b = policy->on_nonidle(ctx_of(12.0));
  EXPECT_EQ(a.action, b.action);
  EXPECT_DOUBLE_EQ(a.recheck_in, b.recheck_in);
}

}  // namespace
}  // namespace ll::core
