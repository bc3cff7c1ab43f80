#pragma once

/// \file scenario.hpp
/// One cluster scenario: the single definition behind every cluster front
/// end (`llsim cluster`, `profile`, `trace`, `faults`, `llsim serve`,
/// `tools/llload`). The initializers are the defaults. One field table
/// (scenario.cpp) names, bounds and documents each field once, and drives
/// the flags, the wire form, the validity check and serve's cache key.
/// spec() builds the sweep every front end runs, so `llsim cluster --json`
/// and a served result are the same bytes by construction.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/experiment.hpp"
#include "core/policy.hpp"
#include "exp/pool_cache.hpp"
#include "exp/spec.hpp"
#include "fault/fault_spec.hpp"
#include "shard/experiment.hpp"
#include "util/runner.hpp"

namespace ll::util {
class Flags;
}
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

/// How validate() names a field: as its flag ("--pause-time") or as its
/// request key ("params.pause").
enum class FieldNames { kFlags, kParams };

/// A cluster scenario. Each field's wire key, flag, help, bound and served
/// range are its row of the field table. The last six fields are the fault
/// plan (DESIGN.md §9), each off at its default.
struct ClusterScenario {
  core::PolicyKind policy = core::PolicyKind::LingerLonger;
  std::size_t nodes = 64;
  std::size_t jobs = 128;
  double demand = 600.0;
  std::size_t machines = 32;
  double days = 1.0;
  double closed = 0.0;
  double pause = 60.0;
  std::size_t reps = 1;
  std::uint64_t seed = 42;
  double mtbf = 0.0;
  double downtime = 120.0;
  double drop = 0.0;
  double checkpoint = 0.0;
  double storm_every = 0.0;
  double pressure_every = 0.0;

  bool operator==(const ClusterScenario&) const = default;

  /// Parses the "params" object of a serve run request: unknown keys are
  /// refused, missing keys keep their defaults, and the result passes
  /// validate() and serve's admission control for work size (each field's
  /// served range, at most 256 machine-days of pool, at most 1e4 expected
  /// fault arrivals per category, checkpoints at least 1 s apart). Throws
  /// std::invalid_argument.
  [[nodiscard]] static ClusterScenario from_json(const util::json::Value& v);

  /// The params object from_json reads back to this scenario, bit for bit.
  [[nodiscard]] std::string to_json() const;

  /// Registers one flag per field, with its default and help. The returned
  /// function, called after `flags.parse` while `flags` lives, yields the
  /// parsed scenario, validated.
  [[nodiscard]] static std::function<ClusterScenario()> add_flags(
      util::Flags& flags);

  /// Throws std::invalid_argument naming the first field that is not
  /// finite or is out of its bound, or when the compiled plan or the
  /// checkpoint interval fails its own validate().
  void validate(FieldNames names = FieldNames::kFlags) const;

  /// (wire key, value) for every field, for a run manifest's "config".
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> config()
      const;

  /// Canonical FNV-1a digest over every field but the seed: the "config"
  /// half of serve's cache key. A fault field folds its key and value only
  /// off its default, so fault-free digests are the ten-field ones.
  [[nodiscard]] std::uint64_t config_digest() const;

  /// The compiled fault plan: a crash rate of nodes / mtbf, and arrivals
  /// drawn over max(1 day, closed), so an open run keeps a one-day horizon.
  [[nodiscard]] fault::FaultSpec fault_plan() const;

  /// True when the plan can inject something or checkpointing is on; the
  /// run then reports goodput, work_lost, restarts, crashes, checkpoints.
  [[nodiscard]] bool faulty() const;

  /// The standard synthetic trace pool for `machines` × `days`, keyed by
  /// seed + 1, from the process-wide cache.
  [[nodiscard]] TracePoolCache::PoolPtr pool() const;

  /// The one-cell sweep "cluster" over axis "policy": `reps` replications
  /// seeded from `seed`, each one run on `engine` — the open run, or the
  /// closed one when `closed` > 0 — reduced to open_metrics or
  /// closed_metrics, plus the fault metrics when faulty(). `table` must
  /// outlive the sweep.
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
