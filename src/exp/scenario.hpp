#pragma once

/// \file scenario.hpp
/// One cluster scenario: the single definition behind `llsim cluster`,
/// `llsim trace`'s sweep mode and `llsim serve`. The fields say what is
/// simulated, and their initializers are the defaults every front end
/// starts from. from_json parses serve's request params (with its size
/// caps), config_digest keys serve's result cache, and spec() builds the
/// one-cell sweep all three front ends run. `llsim cluster --json` and a
/// served result are therefore the same bytes by construction
/// (tests/cli and tests/serve pin both).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "cluster/experiment.hpp"
#include "core/policy.hpp"
#include "exp/pool_cache.hpp"
#include "exp/spec.hpp"
#include "shard/experiment.hpp"
#include "util/runner.hpp"

namespace ll::util::json {
class Value;
}

namespace ll::exp {

/// The cluster engine a scenario runs on: what llsim's --shards and
/// --queue choose. It is not part of the scenario, so serve (which always
/// runs the default) keys its cache on the scenario alone.
struct ClusterEngine {
  /// 0 runs the event-granular ClusterSim. K >= 1 runs the window-granular
  /// ShardedClusterSim on K shards, a separate model whose results are
  /// identical for every K.
  std::size_t shards = 0;
  /// Event-queue backend; results are identical for both.
  des::QueueBackend queue = des::QueueBackend::kHeap;
  /// Runs the sharded engine's per-window shard tasks; nullptr runs them
  /// serially on the calling thread. Results are the same either way.
  util::TaskRunner* runner = nullptr;
};

/// Observation hooks for one run on either engine; the run uses the member
/// that matches its engine.
struct ClusterHooks {
  cluster::RunHooks monolithic;
  shard::RunHooks sharded;
};

/// Per-replication hooks: called with each replication's seed on the
/// thread that runs it (replications may run concurrently); the hooks it
/// returns observe that run only.
using HookFactory = std::function<ClusterHooks(std::uint64_t seed)>;

struct ClusterScenario {
  core::PolicyKind policy = core::PolicyKind::LingerLonger;
  std::size_t nodes = 64;     ///< cluster size
  std::size_t jobs = 128;     ///< foreign jobs (held in the system if closed)
  double demand = 600.0;      ///< CPU-seconds per job
  std::size_t machines = 32;  ///< synthetic trace pool size
  double days = 1.0;          ///< synthetic trace length
  double closed = 0.0;        ///< > 0: closed-system run of this many s
  double pause = 60.0;        ///< PM grace period
  std::size_t reps = 1;       ///< replications
  std::uint64_t seed = 42;

  /// Parses the "params" object of a serve run request. Unknown keys are
  /// rejected (a typo silently serving the default would look like a cache
  /// bug), sizes are capped (the parser is serve's admission control for
  /// work size), and missing keys keep their defaults. Throws
  /// std::invalid_argument.
  [[nodiscard]] static ClusterScenario from_json(const util::json::Value& v);

  /// Canonical FNV-1a digest over every field *except* the seed — the
  /// "config" half of serve's cache key. Two scenarios with equal digests
  /// run identical simulations per seed.
  [[nodiscard]] std::uint64_t config_digest() const;

  /// The standard synthetic trace pool for `machines` × `days`, keyed by
  /// seed + 1, from the process-wide cache.
  [[nodiscard]] TracePoolCache::PoolPtr pool() const;

  /// One run at `run_seed` on `engine`: the open report, or the closed one
  /// when `closed` > 0. `jobs_out` receives an open run's job records.
  [[nodiscard]] cluster::ClusterReport run_one(
      std::uint64_t run_seed, const ClusterEngine& engine,
      const trace::TracePool& pool, const workload::BurstTable& table,
      const ClusterHooks* hooks = nullptr,
      cluster::JobStore* jobs_out = nullptr) const;

  /// The one-cell sweep "cluster" over axis "policy": `reps` replications
  /// seeded from `seed`, each a run_one reduced to open_metrics or
  /// closed_metrics. `table` must outlive the sweep.
  [[nodiscard]] ExperimentSpec spec(const ClusterEngine& engine,
                                    TracePoolCache::PoolPtr pool,
                                    const workload::BurstTable& table,
                                    HookFactory hooks = {}) const;

  /// The bytes serve returns: exp::to_json of spec() on the standard pool,
  /// the built-in burst table and the default engine. `runner == nullptr`
  /// lets the sweep build a runner of its own; the server passes
  /// util::TaskRunner::shared().
  [[nodiscard]] std::string run(util::TaskRunner* runner) const;
};

}  // namespace ll::exp
