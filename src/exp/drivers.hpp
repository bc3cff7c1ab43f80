#pragma once

/// \file drivers.hpp
/// Adapters from the simulators to the engine's result model — the bridge
/// every ported consumer (CLI subcommands, registered benches) shares
/// instead of hand-rolling report structs and table emission.

#include <cstdint>
#include <functional>
#include <memory>

#include "cluster/experiment.hpp"
#include "exp/pool_cache.hpp"
#include "exp/result.hpp"
#include "parallel/parallel_cluster.hpp"

namespace ll::exp {

/// Open-mode metrics of a ClusterReport as named metrics
/// (avg_job, variation, family, p50, p90, fg_delay, migrations, ...).
[[nodiscard]] RunResult open_metrics(const cluster::ClusterReport& report);

/// Closed-mode metrics (throughput, completed, fg_delay, migrations).
[[nodiscard]] RunResult closed_metrics(const cluster::ClusterReport& report);

/// One replication of the paper's §4.2 evaluation cell: an open run and a
/// closed run (same derived seed, as Figure 7 reports them side by side),
/// merged into one RunResult.
[[nodiscard]] RunResult cluster_cell(const cluster::ExperimentConfig& config,
                                     const TracePoolCache::PoolPtr& pool,
                                     const workload::BurstTable& table,
                                     double closed_duration = 3600.0);

/// Appends the fault/checkpoint robustness metrics of `report`: goodput,
/// work_lost, restarts, crashes and checkpoints.
void add_fault_metrics(RunResult& r, const cluster::ClusterReport& report);

/// cluster_cell plus add_fault_metrics of the closed run (closed-run values,
/// as the throughput is). With an empty FaultSpec the shared metrics are
/// bitwise-identical to cluster_cell's: same runs, same seeds, and the
/// fault columns collapse to their identity values.
[[nodiscard]] RunResult fault_cell(const cluster::ExperimentConfig& config,
                                   const TracePoolCache::PoolPtr& pool,
                                   const workload::BurstTable& table,
                                   double closed_duration = 3600.0);

struct ParallelCellSpec {
  parallel::ParallelClusterConfig cluster;
  parallel::ParallelJobSpec job;
  std::size_t jobs_in_system = 4;
  double duration = 3600.0;
};

/// Observability hooks for parallel_cell, mirroring cluster::RunHooks:
/// `on_start` fires after the simulator is constructed, `on_finish` after
/// the run while the simulator is still alive. Observational only.
struct ParallelRunHooks {
  std::function<void(parallel::ParallelClusterSim&)> on_start;
  std::function<void(parallel::ParallelClusterSim&)> on_finish;
};

/// One replication of the closed-system parallel-cluster experiment:
/// work_per_s, jobs_per_hour, mean_turnaround, mean_width, mean_queue_wait —
/// the structured form of the report cmd_parallel and
/// ext_parallel_throughput previously computed inline.
[[nodiscard]] RunResult parallel_cell(const ParallelCellSpec& spec,
                                      const TracePoolCache::PoolPtr& pool,
                                      const workload::BurstTable& table,
                                      std::uint64_t seed,
                                      const ParallelRunHooks* hooks = nullptr);

}  // namespace ll::exp
