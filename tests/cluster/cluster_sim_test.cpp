#include "cluster/cluster_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/scenario_builders.hpp"
#include "workload/burst_table.hpp"

namespace ll::cluster {
namespace {

using namespace ll::test_support;

TEST(ClusterSim, RejectsBadConstruction) {
  auto cfg = base_config(core::PolicyKind::LingerLonger, 2);
  const trace::TracePool empty_pool({});
  EXPECT_THROW(ClusterSim(cfg, empty_pool, table(), rng::Stream(1)),
               std::invalid_argument);

  const trace::TracePool pool({pattern_trace("...")});
  cfg.node_count = 0;
  EXPECT_THROW(ClusterSim(cfg, pool, table(), rng::Stream(1)),
               std::invalid_argument);

  cfg.node_count = 2;
  trace::CoarseTrace short_period(1.0);
  short_period.push({0.0, 0, false});
  const trace::TracePool mixed({pattern_trace("..."), short_period});
  EXPECT_THROW(ClusterSim(cfg, mixed, table(), rng::Stream(1)),
               std::invalid_argument);
}

TEST(ClusterSim, RejectsBadDemand) {
  auto pool = uniform_pool("....");
  ClusterSim sim(base_config(core::PolicyKind::LingerLonger, 1), pool, table(),
                 rng::Stream(1));
  EXPECT_THROW((void)(sim.submit(0.0)), std::invalid_argument);
  EXPECT_THROW((void)(sim.submit(-5.0)), std::invalid_argument);
}

TEST(ClusterSim, SingleJobOnIdleClusterCompletesNearDemand) {
  auto pool = uniform_pool(std::string(400, '.'));
  ClusterSim sim(base_config(core::PolicyKind::LingerLonger, 1), pool, table(),
                 rng::Stream(2));
  sim.submit(100.0);
  sim.run_until_all_complete();
  const JobRecord& job = sim.jobs().front();
  ASSERT_TRUE(job.completion.has_value());
  // Fully idle node: effective rate ~ fcsr(~0) ~ 1.
  EXPECT_NEAR(*job.completion, 100.0, 2.0);
  EXPECT_EQ(job.state, JobState::Done);
  EXPECT_NEAR(sim.delivered_cpu(), 100.0, 1e-6);
  EXPECT_EQ(sim.migrations_started(), 0u);
}

TEST(ClusterSim, QueueingWhenJobsExceedNodes) {
  auto pool = uniform_pool(std::string(400, '.'));
  ClusterSim sim(base_config(core::PolicyKind::ImmediateEviction, 1), pool,
                 table(), rng::Stream(3));
  sim.submit(50.0);
  sim.submit(50.0);
  sim.run_until_all_complete();
  const auto& jobs = sim.jobs();
  // Second job waits for the first.
  EXPECT_NEAR(jobs[1].time_in(JobState::Queued), *jobs[0].completion, 3.0);
  EXPECT_GT(*jobs[1].completion, *jobs[0].completion + 45.0);
}

TEST(ClusterSim, ObservedIdleFractionOnIdlePool) {
  auto pool = uniform_pool(std::string(100, '.'));
  ClusterSim sim(base_config(core::PolicyKind::LingerLonger, 4), pool, table(),
                 rng::Stream(4));
  sim.submit(30.0);
  sim.run_until_all_complete();
  EXPECT_DOUBLE_EQ(sim.observed_idle_fraction(), 1.0);
}

TEST(ClusterSim, ImmediateEvictionMigratesOnOwnerReturn) {
  // Node 0: idle 4 windows, then busy for the rest. Node 1: always idle.
  // Deterministic placement puts the job on node 0; IE must migrate it the
  // moment the owner returns.
  const trace::TracePool pool({
      pattern_trace("...." + std::string(200, 'B')),
      pattern_trace(std::string(204, '.'))});
  auto cfg = base_config(core::PolicyKind::ImmediateEviction, 2);
  ClusterSim sim(cfg, pool, table(), rng::Stream(1));
  sim.submit(200.0);
  sim.run_until_all_complete();
  const JobRecord& job = sim.jobs().front();
  EXPECT_EQ(sim.migrations_started(), 1u);
  EXPECT_NEAR(job.time_in(JobState::Migrating), migration_cost(cfg), 1e-6);
  EXPECT_DOUBLE_EQ(job.time_in(JobState::Lingering), 0.0);
  EXPECT_EQ(job.state, JobState::Done);
}

TEST(ClusterSim, ImmediateEvictionSuspendsWithoutTargetAndResumes) {
  // One node: idle 2 windows, busy 5 windows, idle again. No target exists,
  // so IE suspends in place and resumes when the owner leaves.
  auto pool = uniform_pool("..BBBBB" + std::string(200, '.'));
  auto cfg = base_config(core::PolicyKind::ImmediateEviction, 1);
  ClusterSim sim(cfg, pool, table(), rng::Stream(5));
  sim.submit(60.0);
  sim.run_until_all_complete();
  const JobRecord& job = sim.jobs().front();
  EXPECT_EQ(sim.migrations_started(), 0u);
  // Paused through the busy episode (10 s), modulo tick alignment.
  EXPECT_NEAR(job.time_in(JobState::Paused), 10.0, 2.1);
  EXPECT_DOUBLE_EQ(job.time_in(JobState::Lingering), 0.0);
  EXPECT_EQ(job.state, JobState::Done);
}

TEST(ClusterSim, PauseAndMigrateWaitsGracePeriod) {
  // Busy episode longer than pause_time: job pauses 8 s then migrates.
  const trace::TracePool pool({
      pattern_trace(".." + std::string(300, 'B')),
      pattern_trace(std::string(302, '.'))});
  auto cfg = base_config(core::PolicyKind::PauseAndMigrate, 2);
  cfg.policy_params.pause_time = 8.0;
  ClusterSim sim(cfg, pool, table(), rng::Stream(1));
  sim.submit(100.0);
  sim.run_until_all_complete();
  const JobRecord& job = sim.jobs().front();
  EXPECT_EQ(sim.migrations_started(), 1u);
  EXPECT_NEAR(job.time_in(JobState::Paused), 8.0, 1e-6);
  EXPECT_NEAR(job.time_in(JobState::Migrating), migration_cost(cfg), 1e-6);
  EXPECT_EQ(job.state, JobState::Done);
}

TEST(ClusterSim, PauseAndMigrateResumesOnShortEpisode) {
  // Busy episode (4 s) shorter than pause_time (20 s): no migration.
  auto pool = uniform_pool("..BB" + std::string(200, '.'));
  auto cfg = base_config(core::PolicyKind::PauseAndMigrate, 1);
  cfg.policy_params.pause_time = 20.0;
  ClusterSim sim(cfg, pool, table(), rng::Stream(6));
  sim.submit(60.0);
  sim.run_until_all_complete();
  EXPECT_EQ(sim.migrations_started(), 0u);
  const JobRecord& job = sim.jobs().front();
  EXPECT_NEAR(job.time_in(JobState::Paused), 4.0, 2.1);
}

TEST(ClusterSim, LingerLongerRunsThroughShortEpisodes) {
  // Busy 2 windows (4 s) at 50%: T_lingr = (1-0)/(0.5-0) * 3.4 ~ 6.8 s > 4 s,
  // so the job lingers through the episode and never migrates.
  auto pool = uniform_pool("..BB" + std::string(200, '.'));
  auto cfg = base_config(core::PolicyKind::LingerLonger, 1);
  ClusterSim sim(cfg, pool, table(), rng::Stream(7));
  sim.submit(60.0);
  sim.run_until_all_complete();
  EXPECT_EQ(sim.migrations_started(), 0u);
  const JobRecord& job = sim.jobs().front();
  EXPECT_NEAR(job.time_in(JobState::Lingering), 4.0, 2.1);
  EXPECT_DOUBLE_EQ(job.time_in(JobState::Paused), 0.0);
}

TEST(ClusterSim, LingerLongerMigratesAfterLingerDuration) {
  const trace::TracePool pool({
      pattern_trace(".." + std::string(400, 'B')),
      pattern_trace(std::string(402, '.'))});
  auto cfg = base_config(core::PolicyKind::LingerLonger, 2);
  ClusterSim sim(cfg, pool, table(), rng::Stream(1));
  sim.submit(150.0);
  sim.run_until_all_complete();
  const JobRecord& job = sim.jobs().front();
  EXPECT_EQ(sim.migrations_started(), 1u);
  // h = 0.5, l = 0 (idle windows have zero cpu in this pool).
  const double t_lingr = core::linger_duration(0.5, 0.0, migration_cost(cfg));
  EXPECT_NEAR(job.time_in(JobState::Lingering), t_lingr, 2.5);
  EXPECT_NEAR(job.time_in(JobState::Migrating), migration_cost(cfg), 1e-6);
  EXPECT_EQ(job.state, JobState::Done);
}

TEST(ClusterSim, OracleMigratesImmediatelyOnLongEpisode) {
  // Episode lasts ~800 s, far beyond the cost-model tail (~6.8 s): the
  // oracle migrates at the first tick of the episode with no linger wait.
  const trace::TracePool pool({
      pattern_trace(".." + std::string(400, 'B')),
      pattern_trace(std::string(402, '.'))});
  auto cfg = base_config(core::PolicyKind::OracleLinger, 2);
  ClusterSim sim(cfg, pool, table(), rng::Stream(1));
  sim.submit(150.0);
  sim.run_until_all_complete();
  const JobRecord& job = sim.jobs().front();
  EXPECT_EQ(sim.migrations_started(), 1u);
  // No lingering before migrating (the 2T rule would have waited ~6.8 s).
  EXPECT_LT(job.time_in(JobState::Lingering), 0.5);
  EXPECT_EQ(job.state, JobState::Done);
}

TEST(ClusterSim, OracleRidesOutShortEpisode) {
  // Episode of 4 s < tail (~6.8 s): the oracle knows migration cannot pay
  // and stays put, unlike an eager policy.
  auto pool = uniform_pool("..BB" + std::string(200, '.'));
  auto cfg = base_config(core::PolicyKind::OracleLinger, 1);
  ClusterSim sim(cfg, pool, table(), rng::Stream(2));
  sim.submit(60.0);
  sim.run_until_all_complete();
  EXPECT_EQ(sim.migrations_started(), 0u);
  EXPECT_NEAR(sim.jobs().front().time_in(JobState::Lingering), 4.0, 2.1);
}

TEST(ClusterSim, LingerForeverNeverMigrates) {
  const trace::TracePool pool({
      pattern_trace(".." + std::string(400, 'B')),
      pattern_trace(std::string(402, '.'))});
  auto cfg = base_config(core::PolicyKind::LingerForever, 2);
  ClusterSim sim(cfg, pool, table(), rng::Stream(1));
  sim.submit(150.0);
  sim.run_until_all_complete();
  EXPECT_EQ(sim.migrations_started(), 0u);
  EXPECT_EQ(sim.jobs().front().state, JobState::Done);
}

TEST(ClusterSim, LingeringJobProgressesAtLeftoverRate) {
  // Node busy at 50% forever; LF job of 30 CPU-seconds takes ~ 30 / rate(0.5).
  auto pool = uniform_pool(std::string(400, 'B'), 0.5);
  auto cfg = base_config(core::PolicyKind::LingerForever, 1);
  ClusterSim sim(cfg, pool, table(), rng::Stream(8));
  sim.submit(30.0);
  sim.run_until_all_complete();
  const JobRecord& job = sim.jobs().front();
  const auto rates =
      node::EffectiveRateTable::analytic(table(), cfg.context_switch);
  const double expected = 30.0 / rates.foreign_rate(0.5);
  EXPECT_NEAR(*job.completion, expected, expected * 0.05);
}

TEST(ClusterSim, ForegroundDelayTrackedOnlyWhileSharing) {
  auto pool = uniform_pool(std::string(200, 'B'), 0.5);
  auto cfg = base_config(core::PolicyKind::LingerForever, 1);
  ClusterSim sim(cfg, pool, table(), rng::Stream(9));
  sim.submit(20.0);
  sim.run_until_all_complete();
  const double delay = sim.foreground_delay_ratio();
  EXPECT_GT(delay, 0.0);
  EXPECT_LT(delay, 0.02);  // paper: ~1% on a shared node
}

TEST(ClusterSim, MultiOccupancyRejectsZero) {
  auto pool = uniform_pool("....");
  auto cfg = base_config(core::PolicyKind::LingerLonger, 1);
  cfg.max_foreign_per_node = 0;
  EXPECT_THROW(ClusterSim(cfg, pool, table(), rng::Stream(1)),
               std::invalid_argument);
}

TEST(ClusterSim, CoResidentJobsProcessorShare) {
  // Two equal jobs sharing one idle node each get half the rate: both finish
  // together at ~2x the solo time.
  auto pool = uniform_pool(std::string(400, '.'));
  auto cfg = base_config(core::PolicyKind::LingerLonger, 1);
  cfg.max_foreign_per_node = 2;
  ClusterSim sim(cfg, pool, table(), rng::Stream(2));
  sim.submit(50.0);
  sim.submit(50.0);
  sim.run_until_all_complete();
  EXPECT_NEAR(*sim.jobs()[0].completion, 100.0, 3.0);
  EXPECT_NEAR(*sim.jobs()[1].completion, 100.0, 3.0);
  // No queueing happened: both were resident from the start.
  EXPECT_DOUBLE_EQ(sim.jobs()[1].time_in(JobState::Queued), 0.0);
}

TEST(ClusterSim, SurvivorInheritsFreedShare) {
  // Jobs of 30 and 90 cpu-s share a node. Phase 1: both at rate 1/2 until
  // the small one finishes at t=60. Phase 2: the big one runs alone at rate
  // 1 for its remaining 60 => completes ~120.
  auto pool = uniform_pool(std::string(400, '.'));
  auto cfg = base_config(core::PolicyKind::LingerLonger, 1);
  cfg.max_foreign_per_node = 2;
  ClusterSim sim(cfg, pool, table(), rng::Stream(3));
  sim.submit(30.0);
  sim.submit(90.0);
  sim.run_until_all_complete();
  EXPECT_NEAR(*sim.jobs()[0].completion, 60.0, 3.0);
  EXPECT_NEAR(*sim.jobs()[1].completion, 120.0, 4.0);
}

TEST(ClusterSim, PlacementSpreadsBeforeSharing) {
  // Two nodes with two slots each; two jobs must land on distinct nodes.
  auto pool = uniform_pool(std::string(400, '.'));
  auto cfg = base_config(core::PolicyKind::LingerLonger, 2);
  cfg.max_foreign_per_node = 2;
  ClusterSim sim(cfg, pool, table(), rng::Stream(4));
  sim.submit(50.0);
  sim.submit(50.0);
  sim.run_until_all_complete();
  // Spread across nodes => full rate each, ~50 s completions.
  EXPECT_NEAR(*sim.jobs()[0].completion, 50.0, 2.0);
  EXPECT_NEAR(*sim.jobs()[1].completion, 50.0, 2.0);
}

TEST(ClusterSim, CoResidentJobsSplitDonatedMemory) {
  // ~12 MB free: one 8 MB guest fits, two do not — the pair runs slower
  // than pure processor sharing would predict.
  trace::CoarseTrace t(2.0);
  for (int i = 0; i < 4000; ++i) t.push({0.0, 12288, false});
  const trace::TracePool pool({t});
  auto cfg = base_config(core::PolicyKind::LingerLonger, 1);
  cfg.max_foreign_per_node = 2;
  ClusterSim sim(cfg, pool, table(), rng::Stream(5));
  sim.submit(50.0);
  sim.submit(50.0);
  sim.run_until_all_complete(1e6);
  // Pure PS would finish at ~100 s; memory pressure must push beyond that.
  EXPECT_GT(*sim.jobs()[1].completion, 110.0);
}

TEST(ClusterSim, OwnerRestorePenaltyChargedOnEviction) {
  // IE evicts from node 0 when its owner returns; with a restore penalty the
  // owner's accounted delay must grow by exactly penalty / foreground work.
  const trace::TracePool pool({
      pattern_trace("...." + std::string(200, 'B')),
      pattern_trace(std::string(204, '.'))});
  auto run_with = [&](double penalty) {
    auto cfg = base_config(core::PolicyKind::ImmediateEviction, 2);
    cfg.owner_restore_penalty = penalty;
    ClusterSim sim(cfg, pool, table(), rng::Stream(1));
    sim.submit(100.0);
    sim.run_until_all_complete();
    EXPECT_EQ(sim.migrations_started(), 1u);
    return sim.foreground_delay_ratio();
  };
  const double without = run_with(0.0);
  const double with = run_with(5.0);
  EXPECT_GT(with, without + 1e-6);
}

TEST(ClusterSim, NoRestorePenaltyWhenLeavingIdleNode) {
  // A job completing on an idle node (owner absent, trickle CPU below the
  // recruitment threshold) displaces nothing the owner needs right now: the
  // delay ratio must be identical with and without the penalty.
  trace::CoarseTrace t(2.0);
  for (int i = 0; i < 200; ++i) t.push({0.05, 65536, false});
  const trace::TracePool pool({t});
  auto run_with = [&](double penalty) {
    auto cfg = base_config(core::PolicyKind::ImmediateEviction, 1);
    cfg.owner_restore_penalty = penalty;
    ClusterSim sim(cfg, pool, table(), rng::Stream(2));
    sim.submit(50.0);
    sim.run_until_all_complete();
    return sim.foreground_delay_ratio();
  };
  EXPECT_DOUBLE_EQ(run_with(0.0), run_with(10.0));
}

TEST(ClusterSim, DeterministicAcrossRuns) {
  auto pool = uniform_pool("..BBBB......BB" + std::string(100, '.'), 0.4);
  auto cfg = base_config(core::PolicyKind::LingerLonger, 3);
  double completions[2];
  for (int run = 0; run < 2; ++run) {
    ClusterSim sim(cfg, pool, table(), rng::Stream(11));
    sim.submit(40.0);
    sim.submit(40.0);
    sim.run_until_all_complete();
    completions[run] = *sim.jobs()[1].completion;
  }
  EXPECT_DOUBLE_EQ(completions[0], completions[1]);
}

TEST(ClusterSim, ClosedModeHoldsPopulation) {
  auto pool = uniform_pool(std::string(100, '.'));
  auto cfg = base_config(core::PolicyKind::LingerLonger, 2);
  ClusterSim sim(cfg, pool, table(), rng::Stream(12));
  sim.set_completion_callback([&sim](const JobRecord&) { sim.submit(10.0); });
  sim.submit(10.0);
  sim.submit(10.0);
  sim.run_for(200.0);
  // ~2 nodes fully busy for 200 s at rate ~1.
  EXPECT_NEAR(sim.delivered_cpu(), 400.0, 20.0);
  EXPECT_EQ(sim.incomplete_jobs(), 2u);
  EXPECT_GT(sim.jobs().size(), 30u);
}

TEST(ClusterSim, RunForZeroIsNoOp) {
  auto pool = uniform_pool("....");
  ClusterSim sim(base_config(core::PolicyKind::LingerLonger, 1), pool, table(),
                 rng::Stream(13));
  sim.run_for(0.0);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_THROW((void)(sim.run_for(-1.0)), std::invalid_argument);
}

TEST(ClusterSim, HorizonGuardThrows) {
  // A job that can never finish: node busy at 100%... use 0.99 so the rate
  // is ~0 but placement still works; horizon must trip.
  auto pool = uniform_pool(std::string(50, 'B'), 0.99);
  auto cfg = base_config(core::PolicyKind::LingerForever, 1);
  ClusterSim sim(cfg, pool, table(), rng::Stream(14));
  sim.submit(1e5);
  EXPECT_THROW(sim.run_until_all_complete(/*max_horizon=*/2000.0),
               std::runtime_error);
}

TEST(ClusterSim, MemoryPressureSlowsForeignJob) {
  // Local jobs hog memory: only ~2 MB free, so the 8 MB foreign working set
  // is mostly non-resident and progress crawls.
  const trace::TracePool starved_pool({
      pattern_trace(std::string(4000, '.'), 0.5, /*mem_free=*/2048)});
  const trace::TracePool roomy_pool({
      pattern_trace(std::string(4000, '.'), 0.5, /*mem_free=*/65536)});
  auto cfg = base_config(core::PolicyKind::LingerForever, 1);

  ClusterSim starved(cfg, starved_pool, table(), rng::Stream(15));
  starved.submit(50.0);
  starved.run_until_all_complete(1e6);

  ClusterSim roomy(cfg, roomy_pool, table(), rng::Stream(15));
  roomy.submit(50.0);
  roomy.run_until_all_complete();

  EXPECT_GT(*starved.jobs().front().completion,
            3.0 * *roomy.jobs().front().completion);

  // With the memory model off, pressure is invisible.
  cfg.model_memory = false;
  ClusterSim ignored(cfg, starved_pool, table(), rng::Stream(15));
  ignored.submit(50.0);
  ignored.run_until_all_complete();
  EXPECT_NEAR(*ignored.jobs().front().completion,
              *roomy.jobs().front().completion, 2.0);
}

TEST(ClusterSim, FirstGuestSeesTheWindowsOwnerPages) {
  // Roomy for 10 windows, then starved (2 MB free). The node hosts nobody
  // until t = 30 s, so its page pool skips the windows in between; the
  // first guest must still find the starved pool, run at the memory floor
  // (5%) from its first second, and need 20 / 0.05 = 400 s.
  trace::CoarseTrace t(2.0);
  for (int i = 0; i < 4000; ++i) t.push({0.0, i < 10 ? 65536 : 2048, false});
  const trace::TracePool pool({t});
  ClusterSim sim(base_config(core::PolicyKind::LingerForever, 1), pool,
                 table(), rng::Stream(15));
  sim.run_for(30.0);
  sim.submit(20.0);
  sim.run_until_all_complete(1e6);
  const JobRecord& job = sim.jobs().front();
  EXPECT_NEAR(*job.completion - job.submit_time, 400.0, 1.0);
}

TEST(ClusterSim, ArmsOnlyCompletionsThatCanFire) {
  // Every tick re-rates every executing guest, so a completion is armed
  // only when it lands by the next tick. Arming one at every re-rate, as
  // this engine once did, cancelled ~20x what it fired on Figure 7's cell.
  const auto pool = synthetic_pool(8, 7);
  ExperimentConfig cfg;
  cfg.cluster.node_count = 64;
  cfg.workload = workload_1();
  cfg.seed = 42;
  RunHooks hooks;
  hooks.on_finish = [](ClusterSim& sim) {
    const des::Simulation& e = sim.engine();
    EXPECT_EQ(e.events_scheduled(),
              e.events_fired() + e.events_cancelled() + e.pending_count());
    EXPECT_LE(e.events_cancelled(), e.events_fired());
  };
  EXPECT_EQ(run_open(cfg, pool, table(), nullptr, &hooks).completed, 128u);
  EXPECT_GT(run_closed(cfg, pool, table(), 3600.0, &hooks).completed, 0u);
}

TEST(ClusterSim, IdleUtilizationMeasuredFromPool) {
  // Idle windows at 5% cpu (below the 10% threshold).
  trace::CoarseTrace t(2.0);
  for (int i = 0; i < 100; ++i) t.push({0.05, 65536, false});
  const trace::TracePool pool({t});
  auto cfg = base_config(core::PolicyKind::LingerLonger, 1);
  ClusterSim sim(cfg, pool, table(), rng::Stream(16));
  EXPECT_NEAR(sim.idle_utilization(), 0.05, 1e-9);
}

TEST(ClusterSim, StateTimesSumToTurnaround) {
  const trace::TracePool pool({
      pattern_trace("..BBBBBBBB" + std::string(300, '.')),
      pattern_trace(std::string(310, 'B'), 0.3)});
  auto cfg = base_config(core::PolicyKind::LingerLonger, 2);
  ClusterSim sim(cfg, pool, table(), rng::Stream(17));
  for (int i = 0; i < 4; ++i) sim.submit(50.0);
  sim.run_until_all_complete();
  for (const JobRecord& job : sim.jobs()) {
    double total = 0.0;
    for (std::size_t s = 0; s < kJobStateCount; ++s) {
      total += job.state_time[s];
    }
    EXPECT_NEAR(total, job.turnaround(), 1e-6) << "job " << job.id;
  }
}

}  // namespace
}  // namespace ll::cluster
