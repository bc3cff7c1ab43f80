#include "verify/invariants.hpp"

#include <cmath>
#include <sstream>
#include <type_traits>
#include <unordered_map>

#include "shard/sharded_sim.hpp"

namespace ll::verify {

void InvariantRegistry::check(bool ok, std::string_view invariant,
                              std::string_view detail) {
  ++checks_;
  if (ok) return;
  fail(invariant, std::string(detail));
}

void InvariantRegistry::fail(std::string_view invariant, std::string detail) {
  ++violations_;
  if (mode_ == Mode::kAssert) {
    throw InvariantViolation("invariant '" + std::string(invariant) +
                             "' violated: " + detail);
  }
  if (retained_.size() < kMaxRetained) {
    retained_.push_back(Violation{std::string(invariant), std::move(detail)});
  }
}

std::string InvariantRegistry::summary() const {
  std::ostringstream os;
  os << checks_ << " checks, " << violations_ << " violations";
  return os.str();
}

// ---- engine invariants ----------------------------------------------------

void SimInvariantObserver::on_schedule(double when, des::EventId id,
                                       std::uint64_t tag) {
  ++scheduled_;
  registry_->check_lazy(std::isfinite(when), "sim.finite-schedule-time", [&] {
    return "scheduled event " + std::to_string(id) + " at non-finite time";
  });
  registry_->check_lazy(when >= sim_->now(), "sim.no-past-scheduling", [&] {
    return "event " + std::to_string(id) + " scheduled at " +
           std::to_string(when) + " before now " + std::to_string(sim_->now());
  });
  registry_->check_lazy(id != des::kNoEvent, "sim.nonzero-event-id",
                        [&] { return "issued reserved id 0"; });
  if (next_) next_->on_schedule(when, id, tag);
}

void SimInvariantObserver::on_fire(double time, des::EventId id,
                                   std::uint64_t tag) {
  ++fired_;
  registry_->check_lazy(
      time >= last_fire_time_, "sim.clock-monotonicity", [&] {
        return "event " + std::to_string(id) + " fired at " +
               std::to_string(time) + " after the clock reached " +
               std::to_string(last_fire_time_);
      });
  registry_->check_lazy(time == sim_->now(), "sim.fire-at-now", [&] {
    return "event " + std::to_string(id) + " reported at " +
           std::to_string(time) + " but clock reads " +
           std::to_string(sim_->now());
  });
  last_fire_time_ = std::max(last_fire_time_, time);
  if (next_) next_->on_fire(time, id, tag);
}

void SimInvariantObserver::on_fire_done(double time, des::EventId id,
                                        std::uint64_t tag) {
  if (next_) next_->on_fire_done(time, id, tag);
}

void SimInvariantObserver::on_cancel(des::EventId id, std::uint64_t tag) {
  ++cancelled_;
  if (next_) next_->on_cancel(id, tag);
}

void SimInvariantObserver::finalize() {
  // Conservation over the whole engine lifetime: every id ever issued is in
  // exactly one of {fired, cancelled, pending}. The engine's own counters
  // cover events scheduled before this observer attached.
  const std::uint64_t scheduled = sim_->events_scheduled();
  const std::uint64_t fired = sim_->events_fired();
  const std::uint64_t cancelled = sim_->events_cancelled();
  const std::uint64_t pending = sim_->pending_count();
  registry_->check_lazy(
      scheduled == fired + cancelled + pending, "sim.event-conservation", [&] {
        std::ostringstream os;
        os << "scheduled " << scheduled << " != fired " << fired
           << " + cancelled " << cancelled << " + pending " << pending;
        return os.str();
      });
}

// ---- job state machine ----------------------------------------------------

bool legal_job_transition(cluster::JobState from, cluster::JobState to) {
  using S = cluster::JobState;
  switch (from) {
    case S::Queued:
      return to == S::Running || to == S::Lingering;
    case S::Running:
      return to == S::Lingering || to == S::Paused || to == S::Done ||
             to == S::Checkpointing || to == S::Queued;
    case S::Lingering:
      return to == S::Running || to == S::Paused || to == S::Migrating ||
             to == S::Done || to == S::Checkpointing || to == S::Queued;
    case S::Paused:
      return to == S::Running || to == S::Lingering || to == S::Migrating ||
             to == S::Done || to == S::Queued;
    case S::Migrating:
      return to == S::Running || to == S::Lingering || to == S::Queued;
    case S::Checkpointing:
      // Integration happens before the write starts, so a checkpoint never
      // completes the job; a crash mid-write re-queues it.
      return to == S::Running || to == S::Lingering || to == S::Paused ||
             to == S::Queued;
    case S::Done:
      return false;
  }
  return false;
}

namespace {

std::string job_tag(const cluster::JobRecord& job) {
  return "job " + std::to_string(job.id);
}

}  // namespace

void check_job_record(const cluster::JobRecord& job,
                      InvariantRegistry& registry) {
  using S = cluster::JobState;
  S prev = S::Queued;
  double prev_time = job.submit_time;
  for (const auto& tr : job.history) {
    registry.check_lazy(
        legal_job_transition(prev, tr.to), "job.legal-transition", [&] {
          return job_tag(job) + ": " + std::string(to_string(prev)) + " -> " +
                 std::string(to_string(tr.to)) + " at t=" +
                 std::to_string(tr.time);
        });
    registry.check_lazy(tr.time >= prev_time, "job.transition-times-monotone",
                        [&] {
                          return job_tag(job) + ": transition at " +
                                 std::to_string(tr.time) + " precedes " +
                                 std::to_string(prev_time);
                        });
    prev = tr.to;
    prev_time = std::max(prev_time, tr.time);
  }
  registry.check_lazy(job.state == prev, "job.state-matches-history", [&] {
    return job_tag(job) + ": record state " +
           std::string(to_string(job.state)) + " but history ends in " +
           std::string(to_string(prev));
  });

  for (std::size_t s = 0; s < cluster::kJobStateCount; ++s) {
    registry.check_lazy(job.state_time[s] >= 0.0, "job.stopwatch-nonnegative",
                        [&] {
                          return job_tag(job) + ": state_time[" +
                                 std::to_string(s) + "] negative";
                        });
  }

  if (job.first_start) {
    registry.check_lazy(*job.first_start >= job.submit_time,
                        "job.first-start-after-submit", [&] {
                          return job_tag(job) + ": first_start precedes submit";
                        });
  }
  if (job.state == S::Done) {
    registry.check_lazy(job.completion.has_value(), "job.done-has-completion",
                        [&] { return job_tag(job) + ": Done w/o completion"; });
    registry.check_lazy(job.remaining <= 1e-6, "job.done-work-exhausted", [&] {
      return job_tag(job) + ": Done with remaining " +
             std::to_string(job.remaining);
    });
    if (job.completion) {
      // The per-state stopwatches partition [submit, completion] exactly.
      double total = 0.0;
      for (double t : job.state_time) total += t;
      const double lifetime = *job.completion - job.submit_time;
      registry.check_lazy(std::abs(total - lifetime) <=
                              1e-6 * std::max(1.0, lifetime),
                          "job.stopwatches-partition-lifetime", [&] {
                            return job_tag(job) + ": state times sum to " +
                                   std::to_string(total) + ", lifetime is " +
                                   std::to_string(lifetime);
                          });
    }
  } else {
    registry.check_lazy(!job.completion.has_value(),
                        "job.completion-implies-done", [&] {
                          return job_tag(job) + ": completion set while " +
                                 std::string(to_string(job.state));
                        });
  }
}

// ---- cluster occupancy ----------------------------------------------------

template <class Sim>
void check_cluster_occupancy(const Sim& sim, InvariantRegistry& registry) {
  using S = cluster::JobState;
  const auto snapshots = sim.node_snapshots();
  const auto& jobs = sim.jobs();
  const std::size_t max_slots = sim.config().max_foreign_per_node;

  std::unordered_map<cluster::JobId, std::size_t> residence;
  std::size_t reserved_total = 0;
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    const auto& node = snapshots[i];
    reserved_total += node.reserved;
    registry.check_lazy(!node.down || node.occupants.empty(),
                        "cluster.down-node-empty", [&] {
                          return "down node " + std::to_string(i) + " hosts " +
                                 std::to_string(node.occupants.size()) +
                                 " occupants";
                        });
    registry.check_lazy(node.occupants.size() + node.reserved <= max_slots,
                        "cluster.slot-cap", [&] {
                          return "node " + std::to_string(i) + " holds " +
                                 std::to_string(node.occupants.size()) +
                                 " occupants + " +
                                 std::to_string(node.reserved) +
                                 " reservations, cap " +
                                 std::to_string(max_slots);
                        });
    for (cluster::JobId id : node.occupants) {
      ++residence[id];
      registry.check_lazy(id < jobs.size(), "cluster.occupant-exists", [&] {
        return "node " + std::to_string(i) + " hosts unknown job " +
               std::to_string(id);
      });
      if (id >= jobs.size()) continue;
      const S s = jobs[id].state;
      registry.check_lazy(
          s == S::Running || s == S::Lingering || s == S::Paused ||
              s == S::Checkpointing,
          "cluster.occupant-state", [&] {
            return "node " + std::to_string(i) + " hosts job " +
                   std::to_string(id) + " in state " +
                   std::string(to_string(s));
          });
      // Occupancy legality against the owner: a guest Running at full rate
      // only when the owner is away; Lingering/Paused only when present.
      // Checkpointing writes proceed under either owner state.
      if (s == S::Running) {
        registry.check_lazy(node.idle, "cluster.running-implies-owner-away",
                            [&] {
                              return "job " + std::to_string(id) +
                                     " Running on non-idle node " +
                                     std::to_string(i);
                            });
      } else if (s == S::Lingering || s == S::Paused) {
        registry.check_lazy(!node.idle,
                            "cluster.lingering-implies-owner-present", [&] {
                              return "job " + std::to_string(id) + " " +
                                     std::string(to_string(s)) +
                                     " on idle node " + std::to_string(i);
                            });
      }
    }
  }

  if constexpr (std::is_same_v<Sim, cluster::ClusterSim>) {
    registry.check_lazy(reserved_total == sim.inflight_migrations(),
                        "cluster.reservations-match-inflight", [&] {
                          return "reserved slots sum to " +
                                 std::to_string(reserved_total) + " but " +
                                 std::to_string(sim.inflight_migrations()) +
                                 " migrations are in flight";
                        });
  }

  std::size_t migrating = 0;
  for (const auto& job : jobs) {
    const auto it = residence.find(job.id);
    const std::size_t count = it == residence.end() ? 0 : it->second;
    const S s = job.state;
    if (s == S::Migrating) ++migrating;
    const bool resident = s == S::Running || s == S::Lingering ||
                          s == S::Paused || s == S::Checkpointing;
    registry.check_lazy(count == (resident ? 1u : 0u),
                        "cluster.one-node-per-job", [&] {
                          return "job " + std::to_string(job.id) + " (" +
                                 std::string(to_string(s)) + ") resident on " +
                                 std::to_string(count) + " nodes";
                        });
  }
  registry.check_lazy(reserved_total == migrating,
                      "cluster.reservations-match-migrating", [&] {
                        return "reserved slots sum to " +
                               std::to_string(reserved_total) + " but " +
                               std::to_string(migrating) +
                               " jobs are Migrating";
                      });
}

template void check_cluster_occupancy(const cluster::ClusterSim&,
                                      InvariantRegistry&);
template void check_cluster_occupancy(const shard::ShardedClusterSim&,
                                      InvariantRegistry&);

// ---- BSP barrier consistency ----------------------------------------------

void check_bsp_result(const parallel::BspConfig& config,
                      const parallel::BspResult& result,
                      InvariantRegistry& registry) {
  registry.check(std::isfinite(result.time) && std::isfinite(result.ideal),
                 "bsp.finite-times", "non-finite completion time");
  registry.check(result.phases > 0, "bsp.ran-phases", "zero phases recorded");
  if (config.granularity > 0.0 && result.phases > 0) {
    registry.check_lazy(result.time > 0.0 && result.ideal > 0.0,
                        "bsp.positive-times", [&] {
                          return "time " + std::to_string(result.time) +
                                 ", ideal " + std::to_string(result.ideal);
                        });
    // Each phase's stretched compute dominates the granularity and every
    // handler delay dominates the idle handler cost, so the contended run
    // can never beat the all-idle ideal — pointwise, hence in total.
    registry.check_lazy(result.time >= result.ideal * (1.0 - 1e-9),
                        "bsp.barrier-consistency", [&] {
                          return "contended time " +
                                 std::to_string(result.time) +
                                 " beats ideal " +
                                 std::to_string(result.ideal);
                        });
  }
}

}  // namespace ll::verify
