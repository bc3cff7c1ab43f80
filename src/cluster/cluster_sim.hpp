#pragma once

/// \file cluster_sim.hpp
/// The cluster-level discrete-event simulator (paper §4.2).
///
/// N workstation nodes each replay a coarse utilization/memory/keyboard
/// trace (random trace, random window-aligned offset, as in the paper).
/// Foreign batch jobs are submitted to a central FIFO queue and placed onto
/// nodes according to one of the four policies. Within a 2-second coarse
/// window a node's owner utilization u is constant, so a foreign job's
/// progress integrates analytically at the calibrated effective rate
/// (1-u)·fcsr(u) — the fine-grain contention physics enters through the
/// EffectiveRateTable calibrated from the burst model, keeping 64-node,
/// multi-hour, multi-policy sweeps essentially instant without giving up the
/// fine-grain behaviour the policy exploits.
///
/// Eviction/migration mechanics:
///  * A migration suspends the job for the full migration latency
///    (endpoint processing + image transfer at the effective bandwidth).
///  * Policies that forbid lingering leave their job suspended in place when
///    no idle target exists; it resumes if the owner departs first (as
///    Condor does), otherwise it migrates as soon as a target frees up.
///  * Linger-Longer jobs keep executing while awaiting a target.
///
/// Foreground impact: every window a foreign job shares a node with owner
/// activity, the owner's work is charged the calibrated delay ratio ldr(u)
/// — aggregated into foreground_delay_ratio(), the paper's "< 0.5%" number.

#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "core/policy.hpp"
#include "cluster/job.hpp"
#include "des/simulation.hpp"
#include "fault/checkpoint.hpp"
#include "fault/fault_spec.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "node/effective_rate.hpp"
#include "node/memory_model.hpp"
#include "rng/rng.hpp"
#include "trace/recruitment.hpp"
#include "trace/trace_pool.hpp"
#include "workload/burst_table.hpp"

namespace ll::cluster {

struct ClusterConfig {
  std::size_t node_count = 64;
  /// Event-queue backend for the internal engine. Both backends fire the
  /// exact same event sequence (the golden digests are backend-invariant);
  /// calendar is the right choice for very large node counts, where the
  /// pending-event population reaches the hundreds of thousands.
  des::QueueBackend queue = des::QueueBackend::kHeap;
  core::PolicyKind policy = core::PolicyKind::LingerLonger;
  core::PolicyParams policy_params;
  core::MigrationCostModel migration;
  trace::RecruitmentRule recruitment;
  /// Effective context-switch cost feeding the fcsr/ldr calibration.
  double context_switch = 100e-6;
  /// Foreign job process image (migration payload). Paper: 8 MB.
  std::uint64_t job_bytes = 8ull << 20;
  /// Foreign job resident working set, for the page-priority model.
  std::uint32_t job_mem_kb = 8192;
  /// Foreign jobs allowed to share one node. The paper fixes this at 1 (the
  /// free-memory headroom fits "one compute-bound foreign job of moderate
  /// size"); co-resident jobs processor-share the leftover rate and compete
  /// for the donated page pool (abl_multi_occupancy).
  std::size_t max_foreign_per_node = 1;
  /// One-time owner-side cost (seconds of owner work) charged whenever a
  /// foreign job departs a node whose owner is active: the time to re-load
  /// the virtual-memory pages and caches the guest displaced. The paper's
  /// §1 argues eviction-based systems impose exactly this hidden cost; it
  /// accrues into foreground_delay_ratio(). 0 disables it.
  double owner_restore_penalty = 0.0;
  /// Model the priority page pools (memory pressure can slow foreign jobs).
  bool model_memory = true;
  std::uint32_t mem_total_kb = 65536;
  /// Assign each node a random trace and random window-aligned offset (the
  /// paper's methodology). Tests disable this to pin node i to pool[i % n]
  /// at offset 0 for exact, pattern-driven scenarios.
  bool randomize_placement = true;
  /// Fault-injection plan (node crashes, migration-link drops, reclamation
  /// storms, memory-pressure spikes). The default (empty) spec compiles no
  /// schedule, forks no rng streams and schedules no events, so fault-free
  /// runs are bit-for-bit identical to builds without the fault layer —
  /// pinned by the golden-digest suite.
  fault::FaultSpec faults;
  /// Checkpoint/restart model for foreign jobs; interval 0 disables it
  /// (crashes then lose a job's full progress).
  fault::CheckpointConfig checkpoint;
};

/// The OracleLinger baseline's PolicyContext::episode_remaining: seconds of
/// consecutive non-idle samples from sample `window` on (0 when it is idle),
/// replaying `flags` with wrap-around at `period` seconds per sample; +inf
/// when no sample is idle. Sums `period` once per sample, so the value does
/// not depend on the direction of the scan. Requires window < flags.size().
[[nodiscard]] double episode_remaining(const std::vector<bool>& flags,
                                       std::size_t window, double period);

class ClusterSim {
 public:
  /// The trace pool must be non-empty and share one sample period; nodes
  /// draw (trace, offset) pairs from `stream`. The simulator borrows the
  /// pool's traces (the pool must outlive it) and shares its derivation
  /// under config.recruitment (TracePool::derived).
  ClusterSim(ClusterConfig config, const trace::TracePool& pool,
             const workload::BurstTable& burst_table, rng::Stream stream);

  ~ClusterSim();
  ClusterSim(const ClusterSim&) = delete;
  ClusterSim& operator=(const ClusterSim&) = delete;

  /// Submits a job with the given CPU demand at the current simulation time.
  JobId submit(double cpu_demand_seconds);

  /// Invoked the moment a job completes (closed-system experiments resubmit
  /// replacements from here).
  void set_completion_callback(std::function<void(const JobRecord&)> cb);

  /// Runs until every submitted job has completed (or `max_horizon` virtual
  /// seconds elapse, which throws — a guard against misconfigured runs).
  void run_until_all_complete(double max_horizon = 1e7);

  /// Runs exactly `duration` further virtual seconds (closed-system mode).
  void run_for(double duration);

  [[nodiscard]] double now() const;
  /// A chunked pool on purpose: closed-system callbacks submit new jobs
  /// while earlier records are still referenced inside the engine, and
  /// JobStore growth never invalidates references to existing elements.
  [[nodiscard]] const JobStore& jobs() const { return jobs_; }
  [[nodiscard]] std::size_t incomplete_jobs() const { return active_jobs_; }

  /// Total foreign CPU-seconds delivered so far.
  [[nodiscard]] double delivered_cpu() const { return delivered_cpu_; }

  /// Aggregate owner-work delay ratio across the whole cluster and run.
  [[nodiscard]] double foreground_delay_ratio() const;

  [[nodiscard]] std::size_t migrations_started() const { return migrations_; }

  /// CPU-seconds computed and then lost to crashes / failed migrations
  /// (progress past the victim's last checkpoint). delivered_cpu() never
  /// includes lost work, so goodput = delivered / (delivered + lost).
  [[nodiscard]] double work_lost() const { return work_lost_; }

  /// Crash/abort re-queues across all jobs.
  [[nodiscard]] std::size_t restarts() const { return restarts_; }

  /// Node-crash events applied so far.
  [[nodiscard]] std::size_t crashes() const { return crashes_; }

  /// In-flight migrations aborted (dead endpoint or retries exhausted).
  [[nodiscard]] std::size_t migration_aborts() const {
    return migration_aborts_;
  }

  /// Migration transfers re-attempted after a link drop.
  [[nodiscard]] std::size_t migration_retries() const {
    return migration_retries_;
  }

  /// Checkpoints completed across all jobs.
  [[nodiscard]] std::size_t checkpoints_taken() const { return checkpoints_; }

  /// Migrations currently in flight; at any quiescent point it equals the
  /// sum of reserved slots across nodes (verify/check_cluster_occupancy).
  [[nodiscard]] std::size_t inflight_migrations() const;

  /// The compiled fault timeline this run executes (empty when the config's
  /// spec is empty). `llsim faults` prints it before running.
  [[nodiscard]] const fault::FaultSchedule& fault_schedule() const;

  /// Fraction of node-time in the idle state (diagnostic).
  [[nodiscard]] double observed_idle_fraction() const;

  /// The "l" value the linger cost model is using.
  [[nodiscard]] double idle_utilization() const { return idle_util_; }

  /// The configuration this simulator was built with.
  [[nodiscard]] const ClusterConfig& config() const;

  /// Attaches a metrics registry (nullptr detaches). The simulator registers
  /// cluster.* counters/gauges and cluster.*-over-virtual-time accumulators
  /// (queue length, occupied/idle node counts) and updates them at the
  /// points where the underlying quantity changes. Purely observational:
  /// attaching a registry cannot change simulated behavior (the golden
  /// digest suite pins this). The registry must outlive its registration.
  void set_metrics(obs::MetricRegistry* registry);

  /// Attaches a flight-recorder tracer (nullptr detaches), the record of
  /// every job and node transition. Instants: a job queued, placed running
  /// or lingering, and done (arg = job id); a node flipping idle or busy,
  /// in a window tick or on recovery (arg = node index); crashes, storms,
  /// pressure spikes, link retries, and requeues. Virtual-time spans:
  /// migrations, checkpoint writes, and node outages. Same
  /// observational-only contract as set_metrics; the tracer must outlive
  /// its registration.
  void set_tracer(obs::Tracer* tracer);

  /// Attaches an observer to the internal event engine (nullptr detaches;
  /// returns the previous observer). The verification layer uses this to
  /// stream digests of every fired event and to machine-check engine
  /// invariants; the observer must outlive its registration.
  des::SimObserver* set_sim_observer(des::SimObserver* observer);

  /// Read-only view of the internal event engine (clock, event counters)
  /// for the verification layer's conservation checks.
  [[nodiscard]] const des::Simulation& engine() const;

  /// Read-only view of one node's occupancy, for the verification layer's
  /// occupancy-legality invariant (src/verify/invariants.hpp). Taken at a
  /// quiescent point (between run_* calls) the legality rules hold exactly.
  /// ShardedClusterSim::node_snapshots returns the same type.
  struct NodeSnapshot {
    bool idle = true;              ///< recruitment-rule idle flag, this window
    bool down = false;             ///< crashed and not yet recovered
    double utilization = 0.0;      ///< owner CPU this window
    std::size_t reserved = 0;      ///< inbound migrations holding a slot
    std::vector<JobId> occupants;  ///< resident foreign jobs
  };
  [[nodiscard]] std::vector<NodeSnapshot> node_snapshots() const;

  /// Observer tags carried by the internal engine's events. The values are
  /// pinned by the golden digests (tests/golden/) — do not renumber.
  static constexpr std::uint64_t kTagTick = 1;
  static constexpr std::uint64_t kTagCompletion = 2;
  static constexpr std::uint64_t kTagRecheck = 3;
  static constexpr std::uint64_t kTagMigration = 4;
  static constexpr std::uint64_t kTagFault = 5;
  static constexpr std::uint64_t kTagCheckpoint = 6;

 private:
  struct Node;
  struct Impl;

  std::unique_ptr<Impl> impl_;
  JobStore jobs_;
  std::size_t active_jobs_ = 0;
  double delivered_cpu_ = 0.0;
  std::size_t migrations_ = 0;
  double work_lost_ = 0.0;
  std::size_t restarts_ = 0;
  std::size_t crashes_ = 0;
  std::size_t migration_aborts_ = 0;
  std::size_t migration_retries_ = 0;
  std::size_t checkpoints_ = 0;
  double idle_util_ = 0.05;
};

}  // namespace ll::cluster
