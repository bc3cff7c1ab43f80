#include "shard/experiment.hpp"

namespace ll::shard {

cluster::ClusterReport run_open(const cluster::ExperimentConfig& config,
                                std::size_t shards,
                                const trace::TracePool& pool,
                                const workload::BurstTable& table,
                                util::TaskRunner* runner,
                                const RunHooks* hooks) {
  ShardedClusterSim sim(config.cluster, shards, pool, table,
                        cluster::run_stream(config), runner);
  return cluster::drive(sim, config.workload, std::nullopt, hooks);
}

cluster::ClusterReport run_closed(const cluster::ExperimentConfig& config,
                                  std::size_t shards,
                                  const trace::TracePool& pool,
                                  const workload::BurstTable& table,
                                  double duration, util::TaskRunner* runner,
                                  const RunHooks* hooks) {
  ShardedClusterSim sim(config.cluster, shards, pool, table,
                        cluster::run_stream(config), runner);
  return cluster::drive(sim, config.workload, duration, hooks);
}

}  // namespace ll::shard
