#pragma once

/// \file experiment.hpp
/// Cluster experiment drivers for the paper's §4.2 evaluation.
///
/// Two workloads (Figure 7):
///  * Workload-1: 128 foreign jobs × 600 CPU-seconds on 64 nodes — heavy
///    demand, ~2 jobs per node.
///  * Workload-2: 16 jobs × 1800 CPU-seconds — light demand, ~1/4 of nodes.
///
/// Two modes:
///  * Open ("family"): all jobs submitted at t=0, run to completion —
///    yields average completion time, variation, family time, Figure 8's
///    state breakdown.
///  * Closed: the number of jobs in the system is held constant for a fixed
///    duration (completions trigger resubmission) — yields the throughput
///    metric (foreign CPU-seconds delivered per second).
///
/// The protocol and its ClusterReport reduction are written once, generic
/// over the engine (`drive`). run_open/run_closed below build a ClusterSim;
/// their shard:: twins (shard/experiment.hpp) build a ShardedClusterSim.

#include <functional>
#include <optional>
#include <stdexcept>

#include "cluster/cluster_sim.hpp"
#include "trace/coarse_generator.hpp"

namespace ll::cluster {

struct WorkloadSpec {
  std::size_t jobs = 128;
  double demand = 600.0;  // CPU-seconds per job
};

/// The paper's two workloads.
[[nodiscard]] WorkloadSpec workload_1();
[[nodiscard]] WorkloadSpec workload_2();

struct ClusterReport {
  // Open-mode metrics (zero for closed runs).
  double avg_completion = 0.0;  // mean (completion - submit), paper "Avg. Job"
  double variation = 0.0;       // stddev(execution time)/mean, paper "Variation"
  double family_time = 0.0;     // completion of the last job
  double p50_completion = 0.0;  // median turnaround
  double p90_completion = 0.0;  // 90th-percentile turnaround
  // Closed-mode metric (zero for open runs).
  double throughput = 0.0;  // foreign CPU-seconds delivered per second

  // Figure 8: average per-job time in each state.
  double avg_queued = 0.0;
  double avg_running = 0.0;
  double avg_lingering = 0.0;
  double avg_paused = 0.0;
  double avg_migrating = 0.0;

  double avg_checkpointing = 0.0;

  double foreground_delay = 0.0;  // paper: < 0.5%
  std::size_t migrations = 0;
  std::size_t completed = 0;
  double wall_time = 0.0;  // virtual seconds simulated

  // Fault/checkpoint metrics (all identity values on fault-free runs).
  double goodput = 1.0;     // delivered / (delivered + work_lost)
  double work_lost = 0.0;   // CPU-seconds computed then rolled back
  std::size_t restarts = 0;
  std::size_t crashes = 0;
  std::size_t checkpoints = 0;
};

struct ExperimentConfig {
  ClusterConfig cluster;
  WorkloadSpec workload;
  std::uint64_t seed = 42;
};

/// Observability hooks for the run drivers of engine `Sim`. `on_start`
/// fires right after the simulator is constructed (attach metrics
/// registries, tracers, engine observers); `on_finish` fires after the
/// run completes but while the simulator is still alive (snapshot the
/// profiler against the engine). Hooks must be observational only:
/// attaching them must not change the simulated behavior (the
/// golden-digest suite pins this for the obs layer's own hooks).
template <class Sim>
struct EngineHooks {
  std::function<void(Sim&)> on_start;
  std::function<void(Sim&)> on_finish;
};
using RunHooks = EngineHooks<ClusterSim>;

/// The stream a run's simulator draws from: a pure function of the seed,
/// shared by both engines.
[[nodiscard]] inline rng::Stream run_stream(const ExperimentConfig& config) {
  return rng::Stream(config.seed).fork("cluster");
}

/// Report fields that depend on the job records alone: the completed
/// count, Figure 8's state breakdown and, for open runs, the turnaround
/// summary (mean, variation, family time, p50/p90).
void reduce_jobs(ClusterReport& report, const JobStore& jobs, bool open);

/// The §4.2 protocol on a freshly built simulator of either engine. With
/// no `closed_duration` it is an open run: submit `workload.jobs` jobs and
/// run until all complete. With one (it must be > 0) it is a closed run:
/// every completion resubmits a job of the same demand, for that many
/// virtual seconds. `jobs_out`, when set, receives the per-job records
/// (state times, transition histories) for write_job_log.
template <class Sim>
ClusterReport drive(Sim& sim, const WorkloadSpec& workload,
                    std::optional<double> closed_duration,
                    const EngineHooks<Sim>* hooks,
                    JobStore* jobs_out = nullptr) {
  if (closed_duration && !(*closed_duration > 0.0)) {
    throw std::invalid_argument("run_closed: duration must be > 0");
  }
  if (hooks && hooks->on_start) hooks->on_start(sim);
  const double demand = workload.demand;
  if (closed_duration) {
    sim.set_completion_callback(
        [&sim, demand](const JobRecord&) { sim.submit(demand); });
  }
  for (std::size_t i = 0; i < workload.jobs; ++i) sim.submit(demand);
  if (closed_duration) {
    sim.run_for(*closed_duration);
  } else {
    sim.run_until_all_complete();
  }
  if (hooks && hooks->on_finish) hooks->on_finish(sim);

  ClusterReport report;
  reduce_jobs(report, sim.jobs(), !closed_duration);
  if (closed_duration) {
    report.throughput = sim.delivered_cpu() / *closed_duration;
  }
  report.foreground_delay = sim.foreground_delay_ratio();
  report.migrations = sim.migrations_started();
  report.wall_time = sim.now();
  report.work_lost = sim.work_lost();
  report.restarts = sim.restarts();
  report.crashes = sim.crashes();
  report.checkpoints = sim.checkpoints_taken();
  const double total = sim.delivered_cpu() + sim.work_lost();
  report.goodput = total > 0.0 ? sim.delivered_cpu() / total : 1.0;
  if (jobs_out) *jobs_out = sim.jobs();
  return report;
}

/// Open-mode run over an existing trace pool. When `jobs_out` is non-null it
/// receives the per-job records (state times, transition histories) for
/// export via write_job_log or custom analysis.
[[nodiscard]] ClusterReport run_open(const ExperimentConfig& config,
                                     const trace::TracePool& pool,
                                     const workload::BurstTable& table,
                                     JobStore* jobs_out = nullptr,
                                     const RunHooks* hooks = nullptr);

/// Closed-mode run: holds `workload.jobs` jobs in the system for `duration`.
[[nodiscard]] ClusterReport run_closed(const ExperimentConfig& config,
                                       const trace::TracePool& pool,
                                       const workload::BurstTable& table,
                                       double duration = 3600.0,
                                       const RunHooks* hooks = nullptr);

/// Exports every job's state-transition history as CSV
/// (columns: job, time, state) — the debugging/visualization feed.
void write_job_log(const JobStore& jobs, std::ostream& out);
void write_job_log(const JobStore& jobs, const std::string& path);

}  // namespace ll::cluster
