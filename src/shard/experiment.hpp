#pragma once

/// \file experiment.hpp
/// Open/closed experiment drivers for the sharded engine: cluster::drive
/// (cluster/experiment.hpp) on a ShardedClusterSim, so both engines run
/// one protocol and one ClusterReport reduction. The report carries the
/// same metrics as cluster::run_open/run_closed.

#include "cluster/experiment.hpp"
#include "shard/sharded_sim.hpp"

namespace ll::shard {

/// Observational hooks, as cluster::RunHooks: `on_start` fires right after
/// construction (attach metrics/tracer), `on_finish` after the run
/// completes while the simulator is still alive (snapshot ShardStats).
using RunHooks = cluster::EngineHooks<ShardedClusterSim>;

/// Open-mode run on `shards` shards; `runner` executes the per-window shard
/// tasks (nullptr = serial).
[[nodiscard]] cluster::ClusterReport run_open(
    const cluster::ExperimentConfig& config, std::size_t shards,
    const trace::TracePool& pool, const workload::BurstTable& table,
    util::TaskRunner* runner = nullptr, cluster::JobStore* jobs_out = nullptr,
    const RunHooks* hooks = nullptr);

/// Closed-mode run: holds `workload.jobs` jobs in the system for `duration`.
[[nodiscard]] cluster::ClusterReport run_closed(
    const cluster::ExperimentConfig& config, std::size_t shards,
    const trace::TracePool& pool, const workload::BurstTable& table,
    double duration = 3600.0, util::TaskRunner* runner = nullptr,
    const RunHooks* hooks = nullptr);

}  // namespace ll::shard
