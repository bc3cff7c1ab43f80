#pragma once

/// \file invariants.hpp
/// Machine-checked invariants for the simulation engine and its models.
///
/// The paper's evaluation assumes the simulator conserves work, never runs
/// the clock backwards, and moves jobs only along the legal state machine.
/// This registry makes those assumptions executable: checkers report into an
/// InvariantRegistry which either throws on first violation (kAssert mode,
/// for tests) or counts violations cheaply (kCount mode, for benchmarks and
/// the llverify harness, where a single bad run should be summarized, not
/// aborted).
///
/// Built-in checkers:
///  * SimInvariantObserver — clock monotonicity and event-count conservation
///    (scheduled == fired + cancelled + pending) via the engine's observer
///    hooks;
///  * legal_job_transition / check_job_record — the JobState machine of
///    cluster/job.hpp, plus stopwatch/lifetime accounting;
///  * check_cluster_occupancy — node occupancy legality on either cluster
///    engine (slot caps, guest states consistent with the owner's idle flag,
///    no job on two nodes, reservations matching migrations);
///  * check_bsp_result — barrier consistency of a BSP run (a barrier phase
///    can never beat its all-idle ideal).

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "cluster/job.hpp"
#include "des/simulation.hpp"
#include "parallel/bsp.hpp"

namespace ll::verify {

enum class Mode {
  kAssert,  ///< throw InvariantViolation on the first failed check
  kCount,   ///< count failures, retain the first few details
};

/// Thrown by kAssert-mode registries.
class InvariantViolation : public std::logic_error {
 public:
  explicit InvariantViolation(const std::string& what)
      : std::logic_error(what) {}
};

struct Violation {
  std::string invariant;
  std::string detail;
};

class InvariantRegistry {
 public:
  explicit InvariantRegistry(Mode mode = Mode::kCount) : mode_(mode) {}

  /// Records one executed check; reports a violation when `ok` is false.
  /// `detail` is only materialized on failure (pass a callable for expensive
  /// messages via the overload below).
  void check(bool ok, std::string_view invariant, std::string_view detail);

  /// Lazy-detail variant: `detail_fn()` runs only on failure.
  template <typename DetailFn>
  void check_lazy(bool ok, std::string_view invariant, DetailFn&& detail_fn) {
    ++checks_;
    if (ok) return;
    fail(invariant, detail_fn());
  }

  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] std::uint64_t checks() const { return checks_; }
  [[nodiscard]] std::uint64_t violations() const { return violations_; }

  /// First kMaxRetained violations, for reporting in kCount mode.
  [[nodiscard]] const std::vector<Violation>& retained() const {
    return retained_;
  }

  /// One-line human summary ("412 checks, 0 violations").
  [[nodiscard]] std::string summary() const;

  static constexpr std::size_t kMaxRetained = 16;

 private:
  void fail(std::string_view invariant, std::string detail);

  Mode mode_;
  std::uint64_t checks_ = 0;
  std::uint64_t violations_ = 0;
  std::vector<Violation> retained_;
};

/// Engine-level invariants streamed through the observer hooks:
///  * fire times are non-decreasing and never precede the schedule time;
///  * every fired/cancelled id was actually scheduled;
///  * on finalize(), scheduled == fired + cancelled + pending (conservation).
///
/// Attach with sim.set_observer(&checker) (or ClusterSim::set_sim_observer)
/// and call finalize() once the run is over. Chains to a `next` observer so
/// it can stack with a DigestObserver on the same engine.
class SimInvariantObserver final : public des::SimObserver {
 public:
  explicit SimInvariantObserver(const des::Simulation& sim,
                                InvariantRegistry& registry,
                                des::SimObserver* next = nullptr)
      : sim_(&sim), registry_(&registry), next_(next) {}

  void on_schedule(double when, des::EventId id, std::uint64_t tag) override;
  void on_fire(double time, des::EventId id, std::uint64_t tag) override;
  void on_fire_done(double time, des::EventId id, std::uint64_t tag) override;
  void on_cancel(des::EventId id, std::uint64_t tag) override;

  /// Conservation check over the whole run; call after the last run_*().
  void finalize();

  [[nodiscard]] std::uint64_t observed_scheduled() const { return scheduled_; }
  [[nodiscard]] std::uint64_t observed_fired() const { return fired_; }
  [[nodiscard]] std::uint64_t observed_cancelled() const { return cancelled_; }

 private:
  const des::Simulation* sim_;
  InvariantRegistry* registry_;
  des::SimObserver* next_;
  double last_fire_time_ = -std::numeric_limits<double>::infinity();
  std::uint64_t scheduled_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;
};

/// Legality of one JobState transition, per the lifecycle the cluster
/// simulator implements (see cluster/cluster_sim.cpp):
///   Queued        -> Running | Lingering
///   Running       -> Lingering | Paused | Done | Checkpointing | Queued
///   Lingering     -> Running | Paused | Migrating | Done | Checkpointing
///                    | Queued
///   Paused        -> Running | Lingering | Migrating | Done | Queued
///   Migrating     -> Running | Lingering | Queued
///   Checkpointing -> Running | Lingering | Paused | Queued
///   Done          -> (terminal)
/// The -> Queued edges are crash re-queues (fault injection); a checkpoint
/// write never completes the job (integration happens before the write
/// starts), so Checkpointing -> Done is illegal.
[[nodiscard]] bool legal_job_transition(cluster::JobState from,
                                        cluster::JobState to);

/// Checks one job record end to end: every logged transition is legal,
/// transition times are non-decreasing and start at/after submission,
/// first_start/completion are consistent with the history, and — for Done
/// jobs — the per-state stopwatches partition the whole lifetime.
void check_job_record(const cluster::JobRecord& job,
                      InvariantRegistry& registry);

/// Occupancy legality across a cluster at a quiescent point, read from the
/// engine's node_snapshots(); `Sim` is cluster::ClusterSim or
/// shard::ShardedClusterSim (both instantiated in invariants.cpp):
///  * occupants + reserved slots never exceed max_foreign_per_node;
///  * every occupant is Running, Lingering, Paused, or Checkpointing;
///  * Running guests only on idle (owner-away) nodes, Lingering/Paused
///    guests only on non-idle nodes (Checkpointing writes proceed under
///    either owner state);
///  * down (crashed) nodes host no occupants;
///  * every Running/Lingering/Paused/Checkpointing job occupies exactly one
///    node; Queued/Migrating/Done jobs occupy none;
///  * the reserved slots across all nodes sum to the jobs in Migrating, and
///    on ClusterSim also to its in-flight migration count.
template <class Sim>
void check_cluster_occupancy(const Sim& sim, InvariantRegistry& registry);

/// Barrier consistency of a BSP result: times are finite and positive, the
/// phase count is consistent with the configuration, and the contended run
/// is never faster than its all-idle ideal (each phase's stretched compute
/// dominates the granularity and each handler delay dominates the idle
/// handler cost, so the inequality holds pointwise, not just in mean).
void check_bsp_result(const parallel::BspConfig& config,
                      const parallel::BspResult& result,
                      InvariantRegistry& registry);

}  // namespace ll::verify
