#include <gtest/gtest.h>

#include <string>

#include "cluster/cluster_sim.hpp"
#include "common/scenario_builders.hpp"
#include "parallel/parallel_cluster.hpp"
#include "verify/digest.hpp"
#include "verify/invariants.hpp"

namespace ll {
namespace {

using test_support::base_config;
using test_support::idle_pool;
using test_support::pattern_trace;
using test_support::table;

// A node crash re-queues the resident job and rolls its progress back to the
// last checkpoint (here: none, so to zero). One idle node, demand 100, a
// fixed crash at t=50 with a fixed 30 s downtime: the job loses the first
// 50 s of work and finishes the full demand after the node recovers at t=80.
TEST(FaultCluster, CrashRequeuesAndRollsBack) {
  auto pool = idle_pool();
  auto cfg = base_config(core::PolicyKind::LingerLonger, 1);
  cfg.faults.crash.arrivals = fault::ArrivalProcess::fixed({50.0});
  cfg.faults.crash.exponential_downtime = false;
  cfg.faults.crash.mean_downtime = 30.0;

  cluster::ClusterSim sim(cfg, pool, table(), rng::Stream(21));
  sim.submit(100.0);
  sim.run_until_all_complete();

  EXPECT_EQ(sim.crashes(), 1u);
  EXPECT_EQ(sim.restarts(), 1u);
  // The calibrated idle effective rate is ~0.99995, not exactly 1.
  EXPECT_NEAR(sim.work_lost(), 50.0, 0.1);
  EXPECT_NEAR(sim.delivered_cpu(), 100.0, 1e-6);

  const auto& job = sim.jobs().front();
  EXPECT_EQ(job.state, cluster::JobState::Done);
  ASSERT_TRUE(job.completion.has_value());
  EXPECT_NEAR(*job.completion, 180.0, 2.1);
  EXPECT_EQ(job.restarts, 1u);

  // The crash edge (Running -> Queued) must be legal per the verifier.
  verify::InvariantRegistry registry(verify::Mode::kAssert);
  verify::check_job_record(job, registry);
  EXPECT_EQ(registry.violations(), 0u);
}

// Periodic checkpointing bounds the crash loss to at most one interval of
// work plus the progress since the last completed write.
TEST(FaultCluster, CheckpointBoundsWorkLoss) {
  auto pool = idle_pool();
  auto cfg = base_config(core::PolicyKind::LingerLonger, 1);
  cfg.faults.crash.arrivals = fault::ArrivalProcess::fixed({50.0});
  cfg.faults.crash.exponential_downtime = false;
  cfg.faults.crash.mean_downtime = 30.0;
  cfg.checkpoint.interval = 20.0;

  cluster::ClusterSim sim(cfg, pool, table(), rng::Stream(22));
  sim.submit(100.0);
  sim.run_until_all_complete();

  EXPECT_EQ(sim.crashes(), 1u);
  EXPECT_GE(sim.checkpoints_taken(), 2u);
  EXPECT_GT(sim.work_lost(), 0.0);
  EXPECT_LT(sim.work_lost(), 20.0);
  EXPECT_NEAR(sim.delivered_cpu(), 100.0, 1e-6);
  const auto& job = sim.jobs().front();
  EXPECT_EQ(job.state, cluster::JobState::Done);
  EXPECT_GE(job.checkpoints, 2u);
  EXPECT_GT(job.time_in(cluster::JobState::Checkpointing), 0.0);
}

// A migration whose transfers keep dropping exhausts its retries, releases
// the reserved destination slot and re-queues the job (which then completes
// via a fresh placement). Reservation accounting must balance afterwards.
TEST(FaultCluster, LinkDropExhaustsRetriesAndReleasesReservation) {
  // Node 0: idle 4 s, then the owner returns for good -> IE evicts.
  // Node 1: busy 4 s, then idle for good -> the only migration target.
  const trace::TracePool pool({
      pattern_trace(".." + std::string(400, 'B')),
      pattern_trace("BB" + std::string(400, '.'))});
  auto cfg = base_config(core::PolicyKind::ImmediateEviction, 2);
  cfg.faults.link.drop_probability = 0.999;
  cfg.faults.link.max_retries = 2;
  cfg.faults.link.retry_backoff = 1.0;

  cluster::ClusterSim sim(cfg, pool, table(), rng::Stream(23));
  sim.submit(30.0);
  sim.run_until_all_complete();

  EXPECT_EQ(sim.migration_retries(), 2u);
  EXPECT_EQ(sim.migration_aborts(), 1u);
  EXPECT_GT(sim.work_lost(), 0.0);  // progress rolled back on the abort
  EXPECT_EQ(sim.inflight_migrations(), 0u);
  for (const auto& node : sim.node_snapshots()) {
    EXPECT_EQ(node.reserved, 0u);
  }
  EXPECT_EQ(sim.jobs().front().state, cluster::JobState::Done);

  verify::InvariantRegistry registry(verify::Mode::kAssert);
  verify::check_cluster_occupancy(sim, registry);
  for (const auto& job : sim.jobs()) verify::check_job_record(job, registry);
  EXPECT_EQ(registry.violations(), 0u);
}

// A reclamation storm forces the node non-idle: a lingering job crawls at
// the storm utilization instead of running free, so completion is delayed —
// but no work is ever lost (storms reclaim cycles, not state).
TEST(FaultCluster, StormDelaysCompletionWithoutLosingWork) {
  auto pool = idle_pool();
  auto run = [&](bool with_storm) {
    auto cfg = base_config(core::PolicyKind::LingerLonger, 1);
    if (with_storm) {
      cfg.faults.storm.arrivals = fault::ArrivalProcess::fixed({10.0});
      cfg.faults.storm.node_fraction = 1.0;
      cfg.faults.storm.duration = 50.0;
      cfg.faults.storm.utilization = 0.95;
    }
    cluster::ClusterSim sim(cfg, pool, table(), rng::Stream(24));
    sim.submit(40.0);
    sim.run_until_all_complete();
    EXPECT_EQ(sim.crashes(), 0u);
    EXPECT_DOUBLE_EQ(sim.work_lost(), 0.0);
    return *sim.jobs().front().completion;
  };
  const double clean = run(false);
  const double stormy = run(true);
  EXPECT_NEAR(clean, 40.0, 0.1);
  EXPECT_GT(stormy, clean + 5.0);
}

// A memory-pressure spike shrinks the donated page pool; the foreign job's
// resident set drops below its working set and progress degrades via the
// memory model until the spike decays.
TEST(FaultCluster, PressureSpikeSlowsForeignProgress) {
  auto pool = idle_pool();
  auto run = [&](bool with_pressure) {
    auto cfg = base_config(core::PolicyKind::LingerLonger, 1);
    if (with_pressure) {
      cfg.faults.pressure.arrivals = fault::ArrivalProcess::fixed({10.0});
      cfg.faults.pressure.node_fraction = 1.0;
      cfg.faults.pressure.duration = 100.0;
      cfg.faults.pressure.extra_kb = 61440;  // squeeze the 64 MiB node
    }
    cluster::ClusterSim sim(cfg, pool, table(), rng::Stream(25));
    sim.submit(40.0);
    sim.run_until_all_complete();
    EXPECT_DOUBLE_EQ(sim.work_lost(), 0.0);
    return *sim.jobs().front().completion;
  };
  const double clean = run(false);
  const double squeezed = run(true);
  EXPECT_GT(squeezed, clean + 0.5);
}

// The whole fault stack — crashes, storms, pressure, link drops and
// checkpointing at once — replays bit-for-bit under one seed.
TEST(FaultCluster, FullFaultPlanIsDeterministic) {
  const trace::TracePool pool({
      pattern_trace(".." + std::string(400, 'B'), 0.6),
      pattern_trace(std::string(400, '.'))});
  auto run = [&](verify::DigestObserver& digest) {
    auto cfg = base_config(core::PolicyKind::LingerLonger, 4);
    cfg.faults.crash.arrivals = fault::ArrivalProcess::exponential(1.0 / 150.0);
    cfg.faults.crash.mean_downtime = 40.0;
    cfg.faults.storm.arrivals = fault::ArrivalProcess::fixed({30.0});
    cfg.faults.storm.duration = 60.0;
    cfg.faults.pressure.arrivals = fault::ArrivalProcess::fixed({60.0});
    cfg.faults.pressure.duration = 80.0;
    cfg.faults.link.drop_probability = 0.3;
    cfg.checkpoint.interval = 25.0;
    cluster::ClusterSim sim(cfg, pool, table(), rng::Stream(26));
    sim.set_sim_observer(&digest);
    for (int i = 0; i < 6; ++i) sim.submit(50.0);
    sim.run_until_all_complete();
    sim.set_sim_observer(nullptr);

    verify::InvariantRegistry registry(verify::Mode::kAssert);
    verify::check_cluster_occupancy(sim, registry);
    for (const auto& job : sim.jobs()) verify::check_job_record(job, registry);

    struct Totals {
      double work_lost, delivered;
      std::size_t crashes, restarts, checkpoints, aborts;
    };
    return Totals{sim.work_lost(),     sim.delivered_cpu(), sim.crashes(),
                  sim.restarts(),      sim.checkpoints_taken(),
                  sim.migration_aborts()};
  };
  verify::DigestObserver a;
  verify::DigestObserver b;
  const auto ta = run(a);
  const auto tb = run(b);
  EXPECT_EQ(a.digest().value(), b.digest().value());
  EXPECT_EQ(a.events(), b.events());
  EXPECT_GT(a.events(), 0u);
  EXPECT_DOUBLE_EQ(ta.work_lost, tb.work_lost);
  EXPECT_DOUBLE_EQ(ta.delivered, tb.delivered);
  EXPECT_EQ(ta.crashes, tb.crashes);
  EXPECT_EQ(ta.restarts, tb.restarts);
  EXPECT_EQ(ta.checkpoints, tb.checkpoints);
  EXPECT_EQ(ta.aborts, tb.aborts);
}

// BSP runs checkpoint at barrier granularity: a member-node crash aborts the
// running phase, the job stalls until the node recovers (plus the restart
// delay), and only the aborted phase re-runs.
TEST(FaultParallel, CrashStallsPhaseUntilRecovery) {
  const auto pool = idle_pool();
  auto run = [&](bool with_crash) {
    parallel::ParallelClusterConfig cfg;
    cfg.node_count = 2;
    cfg.policy = parallel::WidthPolicy::FixedLinger;
    cfg.fixed_width = 2;
    cfg.recruitment = test_support::kInstantRule;
    cfg.randomize_placement = false;
    if (with_crash) {
      cfg.faults.crash.arrivals = fault::ArrivalProcess::fixed({3.0});
      cfg.faults.crash.exponential_downtime = false;
      cfg.faults.crash.mean_downtime = 10.0;
    }
    parallel::ParallelClusterSim sim(cfg, pool, table(), rng::Stream(27));
    parallel::ParallelJobSpec spec;
    spec.total_work = 16.0;
    spec.bsp.granularity = 0.5;
    spec.max_width = 2;
    sim.submit(spec);
    sim.run_until_all_complete();
    if (with_crash) {
      EXPECT_EQ(sim.crashes(), 1u);
      EXPECT_GE(sim.restarts(), 1u);
      EXPECT_GE(sim.jobs().front().restarts, 1u);
    } else {
      EXPECT_EQ(sim.crashes(), 0u);
      EXPECT_EQ(sim.restarts(), 0u);
    }
    return *sim.jobs().front().completion;
  };
  const double clean = run(false);
  const double crashed = run(true);
  // Downtime (10 s) + restart delay dominate the re-run phase cost.
  EXPECT_GT(crashed, clean + 9.0);
  EXPECT_NEAR(run(true), crashed, 0.0);  // deterministic
}

}  // namespace
}  // namespace ll
