#pragma once

/// \file sharded_sim.hpp
/// Conservative time-windowed sharded cluster simulation (ROADMAP item 2,
/// second half; DESIGN.md §14).
///
/// A ShardedClusterSim partitions the node set into K contiguous shards.
/// Each shard owns a *private* DES engine (heap or calendar backend, the
/// same EventQueue interface the monolithic engine uses) and the SoA slice
/// of node state for its nodes. Shards advance independently — in parallel
/// on the lock-free TaskRunner — inside conservative time windows of length
///
///     W = MigrationCostModel::cost(job_bytes)
///
/// the minimum latency of any cross-shard interaction (a job can only reach
/// another shard by migrating, which suspends it for at least W). Within a
/// window a node evolves purely locally: trace replay, recruitment flips,
/// analytic job integration, policy consults, faults, checkpoint writes.
/// Everything that couples nodes — migration target selection, queue
/// placement, closed-mode resubmission, crash requeues — is buffered into
/// per-shard mailboxes and resolved at the window-edge barrier by a
/// single-threaded coordinator that drains the mailboxes in canonical
/// (time, job id) order over the quiescent global state. Global policy
/// state (the load ranking behind best-target selection) is therefore
/// refreshed from per-shard summaries exactly once per window edge.
///
/// Determinism contract (pinned by tests/shard/ and the .shards.golden
/// digests): results are byte-identical for every shard count and every
/// queue backend. The construction rules that guarantee it:
///  * per-entity RNG — node i forks `stream.fork("node-setup", i)`, job j
///    forks `stream.fork("job-link", j)`; forking is a pure function of
///    (seed, label, index), so neither shard count nor execution order can
///    perturb any draw;
///  * no cross-shard reads between barriers, and barrier processing is
///    single-threaded in canonical order;
///  * floating-point accumulators are per-node (foreground CPU/delay, lost
///    work), reduced in node-index order on demand — never in event order.
///
/// Scope: the sharded model is a window-granular re-expression of the
/// monolithic ClusterSim, not an event-for-event replica — policy rechecks
/// happen at trace-period granularity, migrations launch at window edges,
/// and the page-pool memory model and OracleLinger episode oracle are not
/// modeled. Its digests are pinned separately (<name>.shards.golden).

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "cluster/job.hpp"
#include "des/simulation.hpp"
#include "fault/fault_spec.hpp"
#include "node/effective_rate.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "rng/rng.hpp"
#include "trace/trace_pool.hpp"
#include "util/runner.hpp"
#include "workload/burst_table.hpp"

namespace ll::shard {

/// Barrier / mailbox accounting for one run (manifest "shards" section).
struct ShardStats {
  std::size_t shards = 0;             ///< shard count K
  std::uint64_t windows = 0;          ///< conservative windows completed
  std::uint64_t mailbox_sent = 0;     ///< cross-shard messages enqueued
  std::uint64_t mailbox_delivered = 0;///< cross-shard messages delivered
  std::uint64_t barrier_wait_ns = 0;  ///< total shard idle time at barriers
  std::uint64_t max_barrier_wait_ns = 0;  ///< worst single-window wait
  std::uint64_t empty_windows = 0;    ///< shard-windows skipped (no events)
};

class ShardedClusterSim {
 public:
  /// `shards` >= 1; shards in excess of nodes own empty slices (their
  /// windows are skipped — pinned by the empty-shard test). `runner`
  /// executes the per-window shard tasks; nullptr (or K == 1) advances the
  /// shards serially on the calling thread — results are identical either
  /// way per the TaskRunner determinism contract. As in ClusterSim, the
  /// pool must outlive the simulator, which shares its derivation.
  ShardedClusterSim(cluster::ClusterConfig config, std::size_t shards,
                    const trace::TracePool& pool,
                    const workload::BurstTable& burst_table,
                    rng::Stream stream, util::TaskRunner* runner = nullptr);
  ~ShardedClusterSim();
  ShardedClusterSim(const ShardedClusterSim&) = delete;
  ShardedClusterSim& operator=(const ShardedClusterSim&) = delete;

  /// Submits a job at the current (window-edge) time. Placement happens
  /// immediately when called between runs, as in the monolithic engine.
  cluster::JobId submit(double cpu_demand_seconds);

  /// Completion callback, fired at the first barrier after the completing
  /// event (closed-system experiments resubmit replacements from it).
  void set_completion_callback(
      std::function<void(const cluster::JobRecord&)> cb);

  /// Advances whole windows until every job completed; throws if
  /// `max_horizon` virtual seconds pass first.
  void run_until_all_complete(double max_horizon = 1e7);

  /// Advances exactly `duration` further virtual seconds (the final window
  /// is truncated to land on the exact horizon).
  void run_for(double duration);

  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] const cluster::JobStore& jobs() const { return jobs_; }
  [[nodiscard]] std::size_t incomplete_jobs() const { return active_jobs_; }

  /// Total foreign CPU-seconds delivered: sum over jobs of
  /// (demand - remaining), reduced in job-id order (shard-count invariant).
  [[nodiscard]] double delivered_cpu() const;

  /// Aggregate owner-work delay ratio, reduced in node-index order.
  [[nodiscard]] double foreground_delay_ratio() const;

  [[nodiscard]] std::size_t migrations_started() const { return migrations_; }
  [[nodiscard]] double work_lost() const;
  [[nodiscard]] std::size_t restarts() const { return restarts_; }
  [[nodiscard]] std::size_t crashes() const { return crashes_; }
  [[nodiscard]] std::size_t migration_aborts() const { return aborts_; }
  [[nodiscard]] std::size_t migration_retries() const { return retries_; }
  [[nodiscard]] std::size_t checkpoints_taken() const { return checkpoints_; }
  [[nodiscard]] std::size_t completions() const { return completions_; }

  /// The conservative window length W (the lookahead).
  [[nodiscard]] double window_length() const { return window_; }
  [[nodiscard]] std::size_t shard_count() const { return shard_count_; }
  [[nodiscard]] const ShardStats& stats() const { return stats_; }
  [[nodiscard]] const cluster::ClusterConfig& config() const { return cfg_; }
  [[nodiscard]] double idle_utilization() const { return idle_util_; }
  [[nodiscard]] const fault::FaultSchedule& fault_schedule() const;

  /// Shard-count-invariant event count for the golden digests: completions
  /// + migrations started + windows run (engine-level event totals vary
  /// with K — each shard runs its own tick chain — so they are not used).
  [[nodiscard]] std::uint64_t logical_events() const;

  /// Shard k's private engine (verification: conservation checks).
  [[nodiscard]] const des::Simulation& engine(std::size_t k) const;

  /// Every node's occupancy in ClusterSim's snapshot shape (at most one
  /// occupant each), for the occupancy invariant checker and the tests.
  /// Valid between run_* calls.
  [[nodiscard]] std::vector<cluster::ClusterSim::NodeSnapshot>
  node_snapshots() const;

  /// Attaches a metric registry (nullptr detaches). Registers shard.*
  /// counters updated only from the coordinator at barriers; purely
  /// observational (digest-neutral, pinned by tests).
  void set_metrics(obs::MetricRegistry* registry);

  /// Attaches a tracer (nullptr detaches): "shard:<k>" wall spans per
  /// window advance, "shard.barrier" instants (arg = imbalance wait ns).
  /// Purely observational.
  void set_tracer(obs::Tracer* tracer);

  static constexpr cluster::JobId kNoJob =
      std::numeric_limits<cluster::JobId>::max();
  static constexpr std::size_t kNoNode =
      std::numeric_limits<std::size_t>::max();

  /// Observer tags on the shard engines (same numbering as ClusterSim).
  static constexpr std::uint64_t kTagTick = 1;
  static constexpr std::uint64_t kTagCompletion = 2;
  static constexpr std::uint64_t kTagMigration = 4;
  static constexpr std::uint64_t kTagFault = 5;
  static constexpr std::uint64_t kTagCheckpoint = 6;

 private:
  struct Shard;

  // --- shard-local dynamics (run on shard tasks; touch only slice state)
  void tick(Shard& sh, std::uint64_t k);
  void refresh_node(Shard& sh, std::size_t i, double t, bool from_tick);
  void integrate_to(std::size_t i, double t);
  void arm_completion(Shard& sh, std::size_t i, double t);
  void disarm_node(Shard& sh, std::size_t i);
  void complete_job(Shard& sh, std::size_t i, double t);
  void apply_fault(Shard& sh, const fault::FaultEvent& ev);
  void crash_node(Shard& sh, std::size_t i, double t, double duration);
  /// Rolls a job back to its last checkpoint and marks it Queued: charges
  /// the lost work to `charge_node`, resets `remaining`, and bumps the
  /// job's restart count. Callers keep their own restart counter and their
  /// own re-queue path (coordinator queue or shard mailbox).
  void rollback(cluster::JobId id, std::size_t charge_node, double t);
  void start_checkpoint(Shard& sh, std::size_t i, double t);
  void finish_checkpoint(Shard& sh, std::size_t i, double t);
  void occupant_policy(Shard& sh, std::size_t i, double t);
  [[nodiscard]] bool is_down(std::size_t i, double t) const;
  [[nodiscard]] bool executing(const cluster::JobRecord& job) const;

  // --- coordinator (single-threaded, between windows)
  void advance_window(double horizon);
  void barrier(double t);
  void place_queue(double t);
  void place_job(cluster::JobId id, std::size_t target, double t);
  void start_transfer(cluster::JobId id, std::size_t from, std::size_t to,
                      double t);
  [[nodiscard]] std::size_t best_target(double t, std::size_t exclude,
                                        bool idle_only) const;
  [[nodiscard]] Shard& shard_of(std::size_t node);
  void finalize_integration();

  cluster::ClusterConfig cfg_;
  std::size_t shard_count_ = 1;
  util::TaskRunner* runner_ = nullptr;
  rng::Stream master_;
  double window_ = 1.0;
  double period_ = 2.0;
  double now_ = 0.0;
  double idle_util_ = 0.05;

  node::EffectiveRateTable rates_;
  std::unique_ptr<core::Policy> policy_;
  std::unique_ptr<fault::FaultSchedule> faults_;

  // Node SoA (global arrays; shard k owns the contiguous slice [lo, hi)).
  std::vector<const trace::CoarseTrace*> node_trace_;
  std::vector<const std::vector<bool>*> node_flags_;
  std::vector<std::size_t> node_offset_;
  std::vector<double> node_util_;
  std::vector<unsigned char> node_idle_;
  std::vector<double> node_down_until_;
  std::vector<double> node_episode_;
  std::vector<double> node_forced_until_;
  std::vector<double> node_forced_util_;
  std::vector<std::uint8_t> node_reserved_;
  std::vector<cluster::JobId> node_occupant_;
  std::vector<double> node_mark_;     // integration watermark
  std::vector<double> node_fg_cpu_;
  std::vector<double> node_fg_delay_;
  std::vector<double> node_lost_;

  // The pool's derivation under cfg_.recruitment: one idle-flag vector per
  // trace, shared by every node replaying that trace and every other run
  // over the pool.
  std::shared_ptr<const trace::PoolDerived> derived_;

  cluster::JobStore jobs_;
  std::vector<rng::Stream> job_link_;    // per-job link-fault stream
  std::vector<std::size_t> job_node_;    // current node or kNoNode
  std::vector<unsigned char> job_intent_;// queued migrate intent
  std::vector<double> job_ckpt_due_;     // next checkpoint time (0 = unset)

  std::deque<cluster::JobId> queue_;     // global FIFO dispatch queue
  std::size_t active_jobs_ = 0;
  std::size_t migrations_ = 0;
  std::size_t restarts_ = 0;
  std::size_t crashes_ = 0;
  std::size_t aborts_ = 0;
  std::size_t retries_ = 0;
  std::size_t checkpoints_ = 0;
  std::size_t completions_ = 0;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::function<void(const cluster::JobRecord&)> on_complete_;
  bool running_ = false;

  // Published-counter watermarks (metric counters are add-only).
  std::uint64_t sent_published_ = 0;
  std::uint64_t delivered_published_ = 0;

  ShardStats stats_;
  obs::MetricRegistry* metrics_ = nullptr;
  obs::Counter* m_windows_ = nullptr;
  obs::Counter* m_sent_ = nullptr;
  obs::Counter* m_delivered_ = nullptr;
  obs::Counter* m_wait_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t lbl_barrier_ = 0;
  std::vector<std::uint32_t> lbl_shard_;
};

}  // namespace ll::shard
