#include "verify/invariants.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/scenario_builders.hpp"
#include "parallel/bsp.hpp"
#include "verify/digest.hpp"
#include "workload/burst_table.hpp"

namespace ll::verify {
namespace {

using namespace ll::test_support;

TEST(InvariantRegistry, AssertModeThrowsOnFirstViolation) {
  InvariantRegistry reg(Mode::kAssert);
  reg.check(true, "fine", "never shown");
  EXPECT_THROW(reg.check(false, "broken", "detail"), InvariantViolation);
  EXPECT_EQ(reg.checks(), 2u);
  EXPECT_EQ(reg.violations(), 1u);
}

TEST(InvariantRegistry, AssertMessageNamesTheInvariant) {
  InvariantRegistry reg(Mode::kAssert);
  try {
    reg.check(false, "sim.clock-monotonicity", "went backwards");
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sim.clock-monotonicity"), std::string::npos);
    EXPECT_NE(what.find("went backwards"), std::string::npos);
  }
}

TEST(InvariantRegistry, CountModeTalliesAndRetains) {
  InvariantRegistry reg(Mode::kCount);
  for (int i = 0; i < 40; ++i) {
    reg.check(false, "always-bad", "violation " + std::to_string(i));
  }
  reg.check(true, "fine", "");
  EXPECT_EQ(reg.checks(), 41u);
  EXPECT_EQ(reg.violations(), 40u);
  // Only the first kMaxRetained details are kept; counting never throws.
  ASSERT_EQ(reg.retained().size(), InvariantRegistry::kMaxRetained);
  EXPECT_EQ(reg.retained().front().invariant, "always-bad");
  EXPECT_EQ(reg.retained().front().detail, "violation 0");
  EXPECT_EQ(reg.summary(), "41 checks, 40 violations");
}

TEST(InvariantRegistry, LazyDetailOnlyMaterializedOnFailure) {
  InvariantRegistry reg(Mode::kCount);
  int calls = 0;
  reg.check_lazy(true, "ok", [&] {
    ++calls;
    return std::string("expensive");
  });
  EXPECT_EQ(calls, 0);
  reg.check_lazy(false, "bad", [&] {
    ++calls;
    return std::string("expensive");
  });
  EXPECT_EQ(calls, 1);
  ASSERT_EQ(reg.retained().size(), 1u);
  EXPECT_EQ(reg.retained()[0].detail, "expensive");
}

TEST(SimInvariants, CleanRunPassesAndConserves) {
  des::Simulation sim;
  InvariantRegistry reg(Mode::kAssert);
  SimInvariantObserver obs(sim, reg);
  sim.set_observer(&obs);
  const des::EventId doomed = sim.schedule_at(3.0, [] {}, 1);
  sim.schedule_at(1.0, [&] { sim.schedule_in(0.5, [] {}, 2); }, 1);
  sim.schedule_at(2.0, [] {}, 2);
  sim.cancel(doomed);
  sim.run();
  obs.finalize();
  EXPECT_EQ(reg.violations(), 0u);
  EXPECT_GT(reg.checks(), 0u);
  EXPECT_EQ(obs.observed_scheduled(), 4u);
  EXPECT_EQ(obs.observed_fired(), 3u);
  EXPECT_EQ(obs.observed_cancelled(), 1u);
}

TEST(SimInvariants, ChainsToNextObserver) {
  des::Simulation sim;
  InvariantRegistry reg(Mode::kAssert);
  DigestObserver digest;
  SimInvariantObserver obs(sim, reg, &digest);
  sim.set_observer(&obs);
  sim.schedule_at(1.0, [] {}, 42);
  sim.run();
  obs.finalize();
  EXPECT_EQ(reg.violations(), 0u);
  EXPECT_EQ(digest.events(), 1u);  // the chained digest saw the fire
}

TEST(SimInvariants, DetectsClockRegression) {
  // Drive the observer directly, as a broken engine would.
  des::Simulation sim;
  InvariantRegistry reg(Mode::kCount);
  SimInvariantObserver obs(sim, reg);
  obs.on_fire(5.0, 1, 0);
  obs.on_fire(3.0, 2, 0);  // clock went backwards
  EXPECT_GT(reg.violations(), 0u);
  bool saw_monotonicity = false;
  for (const auto& v : reg.retained()) {
    if (v.invariant == "sim.clock-monotonicity") saw_monotonicity = true;
  }
  EXPECT_TRUE(saw_monotonicity);
}

TEST(SimInvariants, DetectsConservationBreak) {
  des::Simulation sim;
  sim.schedule_at(1.0, [] {});
  InvariantRegistry reg(Mode::kCount);
  SimInvariantObserver obs(sim, reg);
  // Pretend the pending event vanished: fired+cancelled+pending stays
  // consistent here, so finalize passes...
  obs.finalize();
  EXPECT_EQ(reg.violations(), 0u);
  // ...and the arithmetic is really checked: the engine's own counters are
  // the source of truth, not the observer's view.
  EXPECT_EQ(sim.events_scheduled(),
            sim.events_fired() + sim.events_cancelled() + sim.pending_count());
}

TEST(JobStateMachine, TransitionTableMatchesLifecycle) {
  using S = cluster::JobState;
  EXPECT_TRUE(legal_job_transition(S::Queued, S::Running));
  EXPECT_TRUE(legal_job_transition(S::Queued, S::Lingering));
  EXPECT_TRUE(legal_job_transition(S::Running, S::Done));
  EXPECT_TRUE(legal_job_transition(S::Running, S::Paused));
  EXPECT_TRUE(legal_job_transition(S::Lingering, S::Migrating));
  EXPECT_TRUE(legal_job_transition(S::Paused, S::Migrating));
  EXPECT_TRUE(legal_job_transition(S::Migrating, S::Running));
  EXPECT_TRUE(legal_job_transition(S::Migrating, S::Lingering));
  // Crash edges: a node failure re-queues whatever was resident.
  EXPECT_TRUE(legal_job_transition(S::Running, S::Queued));
  EXPECT_TRUE(legal_job_transition(S::Migrating, S::Queued));
  EXPECT_TRUE(legal_job_transition(S::Checkpointing, S::Queued));
  // Checkpoint writes interleave with normal execution.
  EXPECT_TRUE(legal_job_transition(S::Running, S::Checkpointing));
  EXPECT_TRUE(legal_job_transition(S::Checkpointing, S::Running));

  EXPECT_FALSE(legal_job_transition(S::Queued, S::Paused));
  EXPECT_FALSE(legal_job_transition(S::Queued, S::Done));
  EXPECT_FALSE(legal_job_transition(S::Migrating, S::Done));
  EXPECT_FALSE(legal_job_transition(S::Migrating, S::Paused));
  // Integration happens before the write starts, so a checkpoint never
  // completes the job directly.
  EXPECT_FALSE(legal_job_transition(S::Checkpointing, S::Done));
  // Done is terminal.
  EXPECT_FALSE(legal_job_transition(S::Done, S::Running));
  EXPECT_FALSE(legal_job_transition(S::Done, S::Queued));
  EXPECT_FALSE(legal_job_transition(S::Done, S::Done));
}

TEST(JobRecordCheck, AcceptsCleanLifecycle) {
  cluster::JobRecord job;
  job.id = 3;
  job.cpu_demand = 4.0;
  job.remaining = 0.0;
  job.submit_time = 0.0;
  job.set_state(cluster::JobState::Running, 1.0);
  job.first_start = 1.0;
  job.set_state(cluster::JobState::Done, 5.0);
  job.completion = 5.0;

  InvariantRegistry reg(Mode::kAssert);
  check_job_record(job, reg);
  EXPECT_EQ(reg.violations(), 0u);
  EXPECT_GT(reg.checks(), 0u);
}

TEST(JobRecordCheck, FlagsIllegalTransition) {
  cluster::JobRecord job;
  job.id = 1;
  job.history.push_back({1.0, cluster::JobState::Paused});  // Queued -> Paused
  job.state = cluster::JobState::Paused;

  InvariantRegistry reg(Mode::kCount);
  check_job_record(job, reg);
  EXPECT_GT(reg.violations(), 0u);
  EXPECT_EQ(reg.retained().front().invariant, "job.legal-transition");

  InvariantRegistry strict(Mode::kAssert);
  EXPECT_THROW(check_job_record(job, strict), InvariantViolation);
}

TEST(JobRecordCheck, FlagsDoneWithoutCompletion) {
  cluster::JobRecord job;
  job.set_state(cluster::JobState::Running, 1.0);
  job.set_state(cluster::JobState::Done, 2.0);
  job.completion.reset();  // corrupt the record: Done must imply completion
  InvariantRegistry reg(Mode::kCount);
  check_job_record(job, reg);
  EXPECT_GT(reg.violations(), 0u);
}

TEST(JobRecordCheck, FlagsStopwatchLifetimeMismatch) {
  cluster::JobRecord job;
  job.set_state(cluster::JobState::Running, 1.0);
  job.set_state(cluster::JobState::Done, 5.0);
  job.completion = 5.0;
  job.state_time[static_cast<std::size_t>(cluster::JobState::Running)] += 2.0;
  InvariantRegistry reg(Mode::kCount);
  check_job_record(job, reg);
  EXPECT_GT(reg.violations(), 0u);
}

TEST(JobRecordCheck, FlagsCompletionWhileRunning) {
  cluster::JobRecord job;
  job.set_state(cluster::JobState::Running, 1.0);
  job.completion = 2.0;  // still Running
  InvariantRegistry reg(Mode::kCount);
  check_job_record(job, reg);
  EXPECT_GT(reg.violations(), 0u);
}

TEST(ClusterOccupancy, CleanOnLiveSimulation) {
  auto cfg = base_config(core::PolicyKind::LingerLonger, 3);
  const auto pool = uniform_pool(std::string(400, '.'));
  cluster::ClusterSim sim(cfg, pool, table(), rng::Stream(17));
  for (int i = 0; i < 5; ++i) sim.submit(30.0);

  InvariantRegistry reg(Mode::kAssert);
  // Mid-run (some Running, some Queued) and at quiescence.
  sim.run_for(10.0);
  check_cluster_occupancy(sim, reg);
  sim.run_until_all_complete();
  check_cluster_occupancy(sim, reg);
  for (const auto& job : sim.jobs()) check_job_record(job, reg);
  EXPECT_EQ(reg.violations(), 0u);
  EXPECT_GT(reg.checks(), 0u);
}

TEST(ClusterOccupancy, CleanUnderEvictionAndMultiSlot) {
  auto cfg = base_config(core::PolicyKind::ImmediateEviction, 4);
  cfg.max_foreign_per_node = 2;
  const trace::TracePool pool({
      pattern_trace("...." + std::string(60, 'B') + std::string(400, '.')),
      pattern_trace(std::string(500, '.'))});
  cluster::ClusterSim sim(cfg, pool, table(), rng::Stream(23));
  for (int i = 0; i < 6; ++i) sim.submit(40.0);

  InvariantRegistry reg(Mode::kAssert);
  for (int step = 0; step < 8; ++step) {
    sim.run_for(15.0);
    check_cluster_occupancy(sim, reg);
  }
  sim.run_until_all_complete(1e6);
  check_cluster_occupancy(sim, reg);
  for (const auto& job : sim.jobs()) check_job_record(job, reg);
  EXPECT_EQ(reg.violations(), 0u);
}

TEST(BspCheck, PassesOnRealSimulation) {
  parallel::BspConfig cfg;
  cfg.processes = 4;
  cfg.phases = 20;
  std::vector<double> utils{0.0, 0.3, 0.5, 0.0};
  const auto result =
      parallel::simulate_bsp(cfg, utils, table(), rng::Stream(7));
  InvariantRegistry reg(Mode::kAssert);
  check_bsp_result(cfg, result, reg);
  EXPECT_EQ(reg.violations(), 0u);
  EXPECT_GT(reg.checks(), 0u);
}

TEST(BspCheck, FlagsContendedRunBeatingIdeal) {
  parallel::BspConfig cfg;
  parallel::BspResult result;
  result.time = 1.0;
  result.ideal = 2.0;  // impossible: contention can only slow a run down
  result.phases = cfg.phases;
  InvariantRegistry reg(Mode::kCount);
  check_bsp_result(cfg, result, reg);
  EXPECT_GT(reg.violations(), 0u);
}

TEST(BspCheck, FlagsNonFiniteAndZeroPhaseResults) {
  parallel::BspConfig cfg;
  parallel::BspResult result;
  result.time = std::numeric_limits<double>::infinity();
  result.ideal = 1.0;
  result.phases = 0;
  InvariantRegistry reg(Mode::kCount);
  check_bsp_result(cfg, result, reg);
  EXPECT_GE(reg.violations(), 2u);
}

}  // namespace
}  // namespace ll::verify
