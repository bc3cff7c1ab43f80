/// Unit suite for the conservative time-windowed sharded engine
/// (src/shard/). The load-bearing property is the determinism contract:
/// simulated results are bit-identical for every shard count, every queue
/// backend, and serial vs work-stealing execution. The mailbox edge cases
/// (window-boundary arrivals, migrations racing node crashes, empty shard
/// slices) and the per-entity RNG regression checks ride alongside.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/scenario_builders.hpp"
#include "des/event_queue.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "rng/rng.hpp"
#include "shard/experiment.hpp"
#include "shard/sharded_sim.hpp"
#include "util/runner.hpp"

namespace ll::shard {
namespace {

using test_support::base_config;
using test_support::migration_cost;
using test_support::table;

/// Everything the shard-count invariance contract pins, reduced in
/// canonical (node-index / job-id) order by the engine itself. Exact
/// floating-point equality is intentional: the contract is bit-identity,
/// not tolerance.
struct Fingerprint {
  double now = 0.0;
  double delivered = 0.0;
  double lost = 0.0;
  double fg_delay = 0.0;
  std::size_t migrations = 0;
  std::size_t completions = 0;
  std::size_t restarts = 0;
  std::size_t crashes = 0;
  std::size_t aborts = 0;
  std::size_t retries = 0;
  std::size_t checkpoints = 0;
  std::uint64_t logical = 0;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const ShardedClusterSim& sim) {
  Fingerprint f;
  f.now = sim.now();
  f.delivered = sim.delivered_cpu();
  f.lost = sim.work_lost();
  f.fg_delay = sim.foreground_delay_ratio();
  f.migrations = sim.migrations_started();
  f.completions = sim.completions();
  f.restarts = sim.restarts();
  f.crashes = sim.crashes();
  f.aborts = sim.migration_aborts();
  f.retries = sim.migration_retries();
  f.checkpoints = sim.checkpoints_taken();
  f.logical = sim.logical_events();
  return f;
}

/// Pattern pool that keeps owners cycling between idle and busy so foreign
/// jobs are recruited, evicted and re-placed — the cross-shard traffic the
/// mailbox tests need. Two distinct phases stop the nodes from moving in
/// lockstep (node i replays pool[i % 2]).
trace::TracePool churn_pool(std::size_t windows = 600) {
  std::string a;
  std::string b;
  for (std::size_t i = 0; i < windows; ++i) {
    a += (i % 8 < 5) ? '.' : 'B';
    b += (i % 6 < 3) ? 'B' : '.';
  }
  return trace::TracePool({test_support::pattern_trace(a, 0.8),
                           test_support::pattern_trace(b, 0.8)});
}

cluster::ClusterConfig churn_config(std::size_t nodes,
                                    core::PolicyKind policy =
                                        core::PolicyKind::ImmediateEviction) {
  cluster::ClusterConfig cfg = base_config(policy, nodes);
  return cfg;
}

Fingerprint run_open(const cluster::ClusterConfig& cfg, std::size_t shards,
                     const trace::TracePool& pool,
                     std::size_t jobs, double demand,
                     std::uint64_t seed = 1998,
                     util::TaskRunner* runner = nullptr,
                     ShardStats* stats_out = nullptr) {
  ShardedClusterSim sim(cfg, shards, pool, table(),
                        rng::Stream(seed).fork("sim"), runner);
  for (std::size_t j = 0; j < jobs; ++j) sim.submit(demand);
  sim.run_until_all_complete(1e6);
  if (stats_out != nullptr) *stats_out = sim.stats();
  return fingerprint(sim);
}

Fingerprint run_closed(const cluster::ClusterConfig& cfg, std::size_t shards,
                       const trace::TracePool& pool,
                       std::size_t jobs, double demand, double duration,
                       std::uint64_t seed = 1998,
                       util::TaskRunner* runner = nullptr) {
  ShardedClusterSim sim(cfg, shards, pool, table(),
                        rng::Stream(seed).fork("sim"), runner);
  sim.set_completion_callback(
      [&sim, demand](const cluster::JobRecord&) { sim.submit(demand); });
  for (std::size_t j = 0; j < jobs; ++j) sim.submit(demand);
  sim.run_for(duration);
  return fingerprint(sim);
}

TEST(ShardedSim, ConstructorRejectsInvalidConfig) {
  const auto pool = test_support::idle_pool(64);
  const cluster::ClusterConfig cfg = base_config(core::PolicyKind::LingerLonger, 4);

  EXPECT_THROW(ShardedClusterSim(cfg, 2, trace::TracePool({}), table(),
                                 rng::Stream(1).fork("sim")),
               std::invalid_argument);
  EXPECT_THROW(ShardedClusterSim(cfg, 0, pool, table(),
                                 rng::Stream(1).fork("sim")),
               std::invalid_argument);

  cluster::ClusterConfig zero = cfg;
  zero.node_count = 0;
  EXPECT_THROW(
      ShardedClusterSim(zero, 1, pool, table(), rng::Stream(1).fork("sim")),
      std::invalid_argument);

  cluster::ClusterConfig multi = cfg;
  multi.max_foreign_per_node = 2;
  EXPECT_THROW(
      ShardedClusterSim(multi, 1, pool, table(), rng::Stream(1).fork("sim")),
      std::invalid_argument);
}

TEST(ShardedSim, WindowIsTheConservativeLookahead) {
  const auto pool = test_support::idle_pool(64);
  const cluster::ClusterConfig cfg = base_config(core::PolicyKind::LingerLonger, 4);
  ShardedClusterSim sim(cfg, 2, pool, table(), rng::Stream(1).fork("sim"));
  // W = max(migration cost, trace period): no cross-shard interaction can
  // land earlier than one transfer latency or one trace window.
  EXPECT_GE(sim.window_length(), migration_cost(cfg));
  EXPECT_GE(sim.window_length(), 2.0);
  EXPECT_EQ(sim.shard_count(), 2u);
}

TEST(ShardedSim, OpenRunIsShardCountAndBackendInvariant) {
  const auto pool = churn_pool();
  cluster::ClusterConfig cfg = churn_config(12);
  Fingerprint base;
  bool have_base = false;
  for (const auto backend :
       {des::QueueBackend::kHeap, des::QueueBackend::kCalendar}) {
    cfg.queue = backend;
    for (const std::size_t k : {1u, 2u, 3u, 4u}) {
      SCOPED_TRACE("backend=" + std::to_string(static_cast<int>(backend)) +
                   " shards=" + std::to_string(k));
      const Fingerprint f = run_open(cfg, k, pool, 8, 40.0);
      if (!have_base) {
        base = f;
        have_base = true;
      }
      EXPECT_TRUE(f == base) << "sharded results diverge";
    }
  }
  // The scenario must actually exercise cross-shard coupling, or the
  // invariance above is vacuous.
  EXPECT_GT(base.migrations, 0u);
  EXPECT_EQ(base.completions, 8u);
}

TEST(ShardedSim, ClosedRunIsShardCountInvariant) {
  const auto pool = churn_pool();
  const cluster::ClusterConfig cfg = churn_config(8);
  const Fingerprint one = run_closed(cfg, 1, pool, 6, 25.0, 900.0);
  const Fingerprint four = run_closed(cfg, 4, pool, 6, 25.0, 900.0);
  EXPECT_TRUE(one == four);
  EXPECT_GT(one.completions, 0u);
  EXPECT_DOUBLE_EQ(one.now, 900.0);
}

TEST(ShardedSim, ArmsOnlyCompletionsThatCanFire) {
  // Each shard's tick re-arms every node of the shard, so a completion is
  // armed only when it lands by that shard's next tick. Three shards split
  // the 64 nodes unevenly (22, 22 and 20).
  const auto pool = test_support::synthetic_pool(8, 7);
  cluster::ExperimentConfig cfg;
  cfg.cluster.node_count = 64;
  cfg.workload = cluster::workload_1();
  cfg.seed = 42;
  RunHooks hooks;
  hooks.on_finish = [](ShardedClusterSim& sim) {
    std::uint64_t fired = 0;
    std::uint64_t cancelled = 0;
    for (std::size_t k = 0; k < sim.shard_count(); ++k) {
      const des::Simulation& e = sim.engine(k);
      EXPECT_EQ(e.events_scheduled(),
                e.events_fired() + e.events_cancelled() + e.pending_count());
      fired += e.events_fired();
      cancelled += e.events_cancelled();
    }
    EXPECT_LE(cancelled, fired);
  };
  EXPECT_EQ(shard::run_open(cfg, 3, pool, table(), nullptr, &hooks)
                .completed,
            128u);
  EXPECT_GT(
      shard::run_closed(cfg, 3, pool, table(), 3600.0, nullptr, &hooks)
          .completed,
      0u);
}

TEST(ShardedSim, WorkStealingRunnerMatchesSerialExecution) {
  const auto pool = churn_pool();
  const cluster::ClusterConfig cfg = churn_config(16);
  util::TaskRunner runner(3);
  const Fingerprint serial = run_open(cfg, 4, pool, 10, 30.0);
  const Fingerprint parallel = run_open(cfg, 4, pool, 10, 30.0, 1998, &runner);
  EXPECT_TRUE(serial == parallel);
  EXPECT_GT(serial.migrations, 0u);
}

TEST(ShardedSim, RerunsAreByteIdenticalAndSeedSensitive) {
  // randomize_placement makes node setup consume per-node RNG draws (a
  // pattern pool with pinned placement consumes none, so a perturbed seed
  // would legitimately change nothing).
  const auto pool = churn_pool();
  cluster::ClusterConfig cfg = churn_config(10);
  cfg.randomize_placement = true;
  const Fingerprint a = run_open(cfg, 2, pool, 8, 35.0, 4242);
  const Fingerprint b = run_open(cfg, 2, pool, 8, 35.0, 4242);
  EXPECT_TRUE(a == b);
  // Negative control: the engine must not be blind to its seed (mirrors the
  // llverify SEED-INSENSITIVE check).
  const Fingerprint c = run_open(cfg, 2, pool, 8, 35.0, 4243);
  EXPECT_FALSE(a == c) << "sharded run ignores its RNG seed";
}

TEST(ShardedSim, StreamForkOrderDoesNotChangeResults) {
  // fork(label, index) is a pure function of the parent stream, so deriving
  // the sim stream through interleaved decoy forks must not perturb a
  // single draw — the per-entity RNG rule the sharded determinism argument
  // rests on (mirrors llverify's STREAM-DEPENDENT check).
  const auto pool = churn_pool();
  const cluster::ClusterConfig cfg = churn_config(10);
  const rng::Stream master(1998);
  const rng::Stream plain = master.fork("sim");
  (void)master.fork("decoy-a");
  (void)master.fork("decoy-b", 7);
  const rng::Stream reordered = master.fork("sim");

  auto run_with = [&](const rng::Stream& stream) {
    ShardedClusterSim sim(cfg, 3, pool, table(), stream);
    for (std::size_t j = 0; j < 8; ++j) sim.submit(35.0);
    sim.run_until_all_complete(1e6);
    return fingerprint(sim);
  };
  EXPECT_TRUE(run_with(plain) == run_with(reordered));
}

TEST(ShardedSim, WindowBoundaryArrivalsDrainAtTheBarrier) {
  // Cross-shard transfers launch at a window edge and take exactly W (the
  // window length), so every arrival lands precisely ON the next barrier —
  // the canonical boundary case. All mailbox traffic must be delivered by
  // the time the run quiesces, none dropped or left queued.
  const auto pool = churn_pool();
  const cluster::ClusterConfig cfg = churn_config(12);
  ShardStats stats;
  const Fingerprint f =
      run_open(cfg, 2, pool, 8, 40.0, 1998, nullptr, &stats);
  EXPECT_GT(f.migrations, 0u);
  EXPECT_GT(stats.windows, 0u);
  EXPECT_GT(stats.mailbox_sent, 0u);
  EXPECT_EQ(stats.mailbox_delivered, stats.mailbox_sent)
      << "mailbox messages lost across window barriers";
}

TEST(ShardedSim, MigrationIntoCrashedNodeIsRequeuedInvariantly) {
  // Node crashes land mid-window while migrations are in flight toward the
  // victims; the coordinator must roll the transfer back into the queue at
  // the barrier. The outcome (restarts, lost work, goodput) has to be
  // bit-identical no matter how the crash site and the migration source are
  // sharded.
  const auto pool = churn_pool();
  cluster::ClusterConfig cfg = churn_config(10);
  cfg.faults.crash.arrivals = fault::ArrivalProcess::exponential(1.0 / 40.0);
  cfg.faults.crash.mean_downtime = 60.0;
  cfg.faults.horizon = 4000.0;

  const Fingerprint one = run_open(cfg, 1, pool, 8, 40.0);
  const Fingerprint three = run_open(cfg, 3, pool, 8, 40.0);
  EXPECT_TRUE(one == three);
  EXPECT_GT(one.crashes, 0u) << "fault plan injected no crashes";
  EXPECT_GT(one.restarts + one.aborts, 0u)
      << "no migration/occupant ever collided with a down node";
  EXPECT_EQ(one.completions, 8u) << "requeued jobs must still finish";
}

TEST(ShardedSim, EmptyShardWindowsAreSkipped) {
  // More shards than nodes: the excess shards own empty slices. Their
  // windows are skipped (counted in stats), and the results still match a
  // single-shard run exactly.
  const auto pool = churn_pool();
  const cluster::ClusterConfig cfg = churn_config(3);
  ShardStats stats;
  const Fingerprint eight =
      run_open(cfg, 8, pool, 4, 30.0, 1998, nullptr, &stats);
  const Fingerprint one = run_open(cfg, 1, pool, 4, 30.0);
  EXPECT_TRUE(eight == one);
  EXPECT_GT(stats.empty_windows, 0u);
  EXPECT_EQ(eight.completions, 4u);
}

TEST(ShardedSim, MetricsAndTracerAreObservational) {
  const auto pool = churn_pool();
  const cluster::ClusterConfig cfg = churn_config(8);
  const Fingerprint bare = run_open(cfg, 2, pool, 6, 30.0);

  obs::MetricRegistry registry;
  obs::Tracer tracer;
  ShardedClusterSim sim(cfg, 2, pool, table(), rng::Stream(1998).fork("sim"));
  sim.set_metrics(&registry);
  sim.set_tracer(&tracer);
  for (std::size_t j = 0; j < 6; ++j) sim.submit(30.0);
  sim.run_until_all_complete(1e6);
  EXPECT_TRUE(fingerprint(sim) == bare)
      << "attaching metrics/tracer changed simulated results";

  // The published counters must agree with the engine's own accounting.
  double windows = -1.0;
  double sent = -1.0;
  double delivered = -1.0;
  for (const obs::MetricSample& s : registry.snapshot(sim.now())) {
    if (s.name == "shard.windows") windows = s.value;
    if (s.name == "shard.mailbox.sent") sent = s.value;
    if (s.name == "shard.mailbox.delivered") delivered = s.value;
  }
  const ShardStats& stats = sim.stats();
  EXPECT_EQ(windows, static_cast<double>(stats.windows));
  EXPECT_EQ(sent, static_cast<double>(stats.mailbox_sent));
  EXPECT_EQ(delivered, static_cast<double>(stats.mailbox_delivered));
}

TEST(ShardedSim, NodeViewExposesQuiescentOccupancy) {
  const auto pool = test_support::idle_pool(256);
  const cluster::ClusterConfig cfg = base_config(core::PolicyKind::LingerLonger, 4);
  ShardedClusterSim sim(cfg, 2, pool, table(), rng::Stream(7).fork("sim"));
  const cluster::JobId id = sim.submit(5.0);
  // Placement is immediate between runs, as in the monolithic engine.
  const auto nodes = sim.node_snapshots();
  ASSERT_EQ(nodes.size(), cfg.node_count);
  std::size_t occupied = 0;
  for (const auto& node : nodes) {
    if (!node.occupants.empty()) {
      ++occupied;
      EXPECT_EQ(node.occupants, std::vector<cluster::JobId>{id});
    }
    EXPECT_FALSE(node.down);
  }
  EXPECT_EQ(occupied, 1u);
  sim.run_until_all_complete(1e6);
  for (const auto& node : sim.node_snapshots()) {
    EXPECT_TRUE(node.occupants.empty());
  }
  EXPECT_EQ(sim.incomplete_jobs(), 0u);
}

}  // namespace
}  // namespace ll::shard
