#include "exp/scenario.hpp"

#include <stdexcept>
#include <string>

#include "exp/drivers.hpp"
#include "exp/engine.hpp"
#include "exp/result.hpp"
#include "util/json.hpp"
#include "verify/digest.hpp"
#include "workload/burst_table.hpp"

namespace ll::exp {
namespace {

namespace json = util::json;

/// Request-size ceilings. The server executes whatever it admits, so the
/// scenario parser is the admission control for *work size*: a request
/// asking for a million nodes is rejected at parse time, not discovered as
/// an hour-long simulation in the dispatcher. llsim's flags skip them.
constexpr std::size_t kMaxNodes = 4096;
constexpr std::size_t kMaxJobs = 100000;
constexpr std::size_t kMaxMachines = 1024;
constexpr std::size_t kMaxReps = 1000;
constexpr double kMaxDays = 32.0;
// machines x days: each machine-day is 43,200 samples (~0.7 MB) of pool,
// built and cached whole, so the two caps above alone would admit ~22.6 GB.
// 256 machine-days is the largest pool any bench builds (ext_scale's).
constexpr double kMaxMachineDays = 256.0;
constexpr double kMaxClosedSeconds = 7.0 * 24.0 * 3600.0;

std::size_t size_field(const json::Value& v, const std::string& key,
                       std::size_t min, std::size_t max) {
  std::uint64_t raw = 0;
  try {
    raw = v.as_u64();
  } catch (const std::exception&) {
    throw std::invalid_argument("params." + key + " must be an integer");
  }
  if (raw < min || raw > max) {
    throw std::invalid_argument("params." + key + " out of range [" +
                                std::to_string(min) + ", " +
                                std::to_string(max) + "]");
  }
  return static_cast<std::size_t>(raw);
}

double double_field(const json::Value& v, const std::string& key, double min,
                    double max) {
  if (v.kind() != json::Kind::kNumber) {
    throw std::invalid_argument("params." + key + " must be a number");
  }
  const double d = v.as_number();
  if (!(d >= min && d <= max)) {  // NaN fails both comparisons
    throw std::invalid_argument("params." + key + " out of range");
  }
  return d;
}

}  // namespace

ClusterScenario ClusterScenario::from_json(const json::Value& v) {
  ClusterScenario sc;
  if (v.kind() == json::Kind::kNull) return sc;  // all defaults
  if (v.kind() != json::Kind::kObject) {
    throw std::invalid_argument("params must be an object");
  }
  for (const auto& [key, value] : v.as_object()) {
    if (key == "policy") {
      if (value.kind() != json::Kind::kString) {
        throw std::invalid_argument("params.policy must be a string");
      }
      sc.policy = core::parse_policy_name(value.as_string());
    } else if (key == "nodes") {
      sc.nodes = size_field(value, key, 1, kMaxNodes);
    } else if (key == "jobs") {
      sc.jobs = size_field(value, key, 1, kMaxJobs);
    } else if (key == "demand") {
      sc.demand = double_field(value, key, 1e-6, 1e9);
    } else if (key == "machines") {
      sc.machines = size_field(value, key, 1, kMaxMachines);
    } else if (key == "days") {
      sc.days = double_field(value, key, 1e-3, kMaxDays);
    } else if (key == "closed") {
      sc.closed = double_field(value, key, 0.0, kMaxClosedSeconds);
    } else if (key == "pause") {
      sc.pause = double_field(value, key, 0.0, 1e9);
    } else if (key == "reps") {
      sc.reps = size_field(value, key, 1, kMaxReps);
    } else if (key == "seed") {
      try {
        sc.seed = value.as_u64();
      } catch (const std::exception&) {
        throw std::invalid_argument("params.seed must be an integer");
      }
    } else {
      throw std::invalid_argument("params has unknown key '" + key + "'");
    }
  }
  if (static_cast<double>(sc.machines) * sc.days > kMaxMachineDays) {
    throw std::invalid_argument(
        "params.machines x params.days exceeds " +
        std::to_string(static_cast<int>(kMaxMachineDays)) + " machine-days");
  }
  return sc;
}

std::uint64_t ClusterScenario::config_digest() const {
  verify::Digest digest;
  // Version tag: bump when the scenario semantics change, so stale cached
  // results from an older server can never alias a new config.
  digest.add_string("serve.cluster.v1");
  digest.add_string(core::to_string(policy));
  digest.add_u64(nodes);
  digest.add_u64(jobs);
  digest.add_double(demand);
  digest.add_u64(machines);
  digest.add_double(days);
  digest.add_double(closed);
  digest.add_double(pause);
  digest.add_u64(reps);
  return digest.value();
}

TracePoolCache::PoolPtr ClusterScenario::pool() const {
  return TracePoolCache::shared().standard(machines, days * 24.0, seed + 1);
}

cluster::ClusterReport ClusterScenario::run_one(
    std::uint64_t run_seed, const ClusterEngine& engine,
    const trace::TracePool& pool, const workload::BurstTable& table,
    const ClusterHooks* hooks, cluster::JobStore* jobs_out) const {
  cluster::ExperimentConfig cfg;
  cfg.cluster.node_count = nodes;
  cfg.cluster.queue = engine.queue;
  cfg.cluster.policy = policy;
  cfg.cluster.policy_params.pause_time = pause;
  cfg.workload = cluster::WorkloadSpec{jobs, demand};
  cfg.seed = run_seed;
  if (engine.shards > 0) {
    const shard::RunHooks* h = hooks ? &hooks->sharded : nullptr;
    return closed > 0.0 ? shard::run_closed(cfg, engine.shards, pool, table,
                                            closed, engine.runner, h)
                        : shard::run_open(cfg, engine.shards, pool, table,
                                          engine.runner, jobs_out, h);
  }
  const cluster::RunHooks* h = hooks ? &hooks->monolithic : nullptr;
  return closed > 0.0 ? cluster::run_closed(cfg, pool, table, closed, h)
                      : cluster::run_open(cfg, pool, table, jobs_out, h);
}

ExperimentSpec ClusterScenario::spec(const ClusterEngine& engine,
                                     TracePoolCache::PoolPtr pool,
                                     const workload::BurstTable& table,
                                     HookFactory hooks) const {
  ExperimentSpec spec;
  spec.name = "cluster";
  spec.seed = seed;
  spec.replications = reps;
  spec.axes = {"policy"};
  spec.add_cell({{"policy", std::string(core::to_string(policy))}},
                [scenario = *this, engine, pool = std::move(pool), &table,
                 hooks = std::move(hooks)](std::uint64_t s) {
                  const ClusterHooks h = hooks ? hooks(s) : ClusterHooks{};
                  const cluster::ClusterReport report =
                      scenario.run_one(s, engine, *pool, table, &h);
                  return scenario.closed > 0.0 ? closed_metrics(report)
                                               : open_metrics(report);
                });
  return spec;
}

std::string ClusterScenario::run(util::TaskRunner* runner) const {
  EngineOptions options;
  options.runner = runner;
  return to_json(run_sweep(
      spec(ClusterEngine{}, pool(), workload::default_burst_table()),
      options));
}

}  // namespace ll::exp
