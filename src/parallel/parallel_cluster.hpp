#pragma once

/// \file parallel_cluster.hpp
/// Multi-job parallel cluster co-simulation — the end-to-end evaluation of
/// cluster throughput for parallel jobs that the paper names as work in
/// progress (§5/§7: "the strongest argument for using Linger-Longer is the
/// potential gain in the throughput of a cluster due to the ability to run
/// more parallel jobs at once").
///
/// A cluster of workstations replays coarse owner traces. Parallel
/// (bulk-synchronous) jobs arrive in a FIFO queue; a width policy decides
/// how many and which nodes each job takes:
///
///  * Reconfigure  — the Acha-style baseline: shrink to the largest
///    power-of-two number of *idle* nodes; wait if none are idle.
///  * FixedLinger  — always run at a fixed width, lingering at starvation
///    priority on non-idle nodes when idle ones run out.
///  * Hybrid       — the strategy the paper's §5.2 suggests: pick, at
///    dispatch time, the width (power-of-two) minimizing the cost-model
///    *predicted* completion over the best available nodes — wide with
///    lingering when owners are few, narrower when the cluster is busy.
///
/// Jobs execute phase by phase: each phase samples the barrier-synchronized
/// compute stretch per process against the hosting node's *current* trace
/// utilization, so owner sessions that start mid-job slow exactly the
/// phases they overlap.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "des/simulation.hpp"
#include "fault/fault_spec.hpp"
#include "obs/metrics.hpp"
#include "parallel/bsp.hpp"
#include "rng/rng.hpp"
#include "trace/recruitment.hpp"
#include "trace/trace_pool.hpp"
#include "util/stable_vector.hpp"
#include "workload/burst_table.hpp"

namespace ll::parallel {

enum class WidthPolicy { Reconfigure, FixedLinger, Hybrid };

[[nodiscard]] std::string_view to_string(WidthPolicy policy);

struct ParallelJobSpec {
  double total_work = 38.4;  // CPU-seconds summed over processes
  /// Phase template: granularity, message pattern, barrier style. The
  /// `processes` field is set by the dispatcher to the chosen width.
  BspConfig bsp;
  std::size_t max_width = 32;
};

struct ParallelClusterConfig {
  std::size_t node_count = 32;
  /// Event-queue backend for the internal engine (backend-invariant, as in
  /// ClusterConfig::queue).
  des::QueueBackend queue = des::QueueBackend::kHeap;
  WidthPolicy policy = WidthPolicy::Hybrid;
  std::size_t fixed_width = 32;  // FixedLinger's width
  /// Constrain widths to powers of two (the paper's application constraint).
  bool power_of_two = true;
  trace::RecruitmentRule recruitment;
  double context_switch = 100e-6;
  /// As in ClusterSim: random (trace, offset) per node, or node i -> pool[i]
  /// at offset 0 for deterministic tests.
  bool randomize_placement = true;
  /// Fault plan. The BSP simulator honours node crashes and reclamation
  /// storms; link and memory-pressure faults are ClusterSim concepts (there
  /// is no migration or paging model here) and are ignored. A crash stalls
  /// the whole barrier-synchronized phase: the job's processes wait, and
  /// the aborted phase re-runs once every member node is back up (work is
  /// only credited at phase completion — barrier-granularity
  /// checkpointing). Empty spec => no streams forked, no events scheduled.
  fault::FaultSpec faults;
  /// Process restart latency after the last crashed member node recovers
  /// (image reload before the aborted phase re-runs).
  double crash_restart_delay = 5.0;
};

struct ParallelJobRecord {
  std::uint32_t id = 0;
  double total_work = 0.0;
  double submit_time = 0.0;
  std::optional<double> start_time;
  std::optional<double> completion;
  std::size_t width = 0;             // processes granted at dispatch
  std::size_t idle_at_dispatch = 0;  // idle nodes among those granted
  std::uint32_t restarts = 0;        // phases aborted by member-node crashes

  [[nodiscard]] double turnaround() const;
  [[nodiscard]] double queue_wait() const;
};

class ParallelClusterSim {
 public:
  /// As ClusterSim: the pool must outlive the simulator, which shares its
  /// derivation under config.recruitment.
  ParallelClusterSim(ParallelClusterConfig config,
                     const trace::TracePool& pool,
                     const workload::BurstTable& table, rng::Stream stream);
  ~ParallelClusterSim();
  ParallelClusterSim(const ParallelClusterSim&) = delete;
  ParallelClusterSim& operator=(const ParallelClusterSim&) = delete;

  /// Enqueues a job at the current simulation time.
  std::uint32_t submit(ParallelJobSpec spec);

  /// Invoked when a job completes (closed-system experiments resubmit here).
  void set_completion_callback(std::function<void(const ParallelJobRecord&)> cb);

  void run_until_all_complete(double max_horizon = 1e7);
  void run_for(double duration);

  [[nodiscard]] double now() const;
  /// A chunked pool on purpose: completion callbacks submit replacements
  /// while the engine still references earlier records (StableVector growth
  /// is pointer-stable).
  [[nodiscard]] const util::StableVector<ParallelJobRecord, 256>& jobs()
      const {
    return jobs_;
  }
  [[nodiscard]] std::size_t incomplete_jobs() const { return active_jobs_; }

  /// Parallel CPU-work completed so far (proc-seconds).
  [[nodiscard]] double delivered_work() const { return delivered_work_; }

  /// Node-crash events applied so far.
  [[nodiscard]] std::size_t crashes() const { return crashes_; }

  /// Barrier phases aborted by a member-node crash (each re-runs in full
  /// after recovery).
  [[nodiscard]] std::size_t restarts() const { return restarts_; }

  /// Attaches a metrics registry (nullptr detaches): parallel.* counters
  /// (jobs, phases) plus queue-length and busy-node accumulators over
  /// virtual time. Observational only — never changes simulated behavior.
  /// The registry must outlive its registration.
  void set_metrics(obs::MetricRegistry* registry);

  /// Attaches an observer to the internal event engine (nullptr detaches;
  /// returns the previous observer). Phase completions carry tag
  /// kTagPhase, dispatch retries kTagRetry.
  des::SimObserver* set_sim_observer(des::SimObserver* observer);

  /// Read-only view of the internal event engine (clock, event counters).
  [[nodiscard]] const des::Simulation& engine() const;

  /// Observer tags used by the internal engine's events.
  static constexpr std::uint64_t kTagPhase = 1;
  static constexpr std::uint64_t kTagRetry = 2;
  static constexpr std::uint64_t kTagFault = 3;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  util::StableVector<ParallelJobRecord, 256> jobs_;
  std::size_t active_jobs_ = 0;
  double delivered_work_ = 0.0;
  std::size_t crashes_ = 0;
  std::size_t restarts_ = 0;
};

}  // namespace ll::parallel
