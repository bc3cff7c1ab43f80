#include "exp/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "exp/drivers.hpp"
#include "exp/engine.hpp"
#include "exp/result.hpp"
#include "fault/checkpoint.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "verify/digest.hpp"
#include "workload/burst_table.hpp"

namespace ll::exp {
namespace {

namespace json = util::json;
using S = ClusterScenario;

/// A field's validity bound, checked by validate() on every front end.
enum class Bound { kAny, kAtLeastOne, kPositive, kNonNegative };
/// How config_digest folds a field: always (the ten fields of
/// serve.cluster.v1), by key and value only off its default (the fault
/// plan), or never (the seed, the cache key's other half).
enum class Fold { kAlways, kIfSet, kNever };
using enum Bound;
using enum Fold;

constexpr double kNoCap = std::numeric_limits<double>::infinity();
constexpr double kWeek = 7.0 * 24.0 * 3600.0;

/// One row of the field table; the member's type and default are
/// ClusterScenario's.
struct Field {
  std::string_view key;   ///< wire key in a run request's params
  std::string_view flag;  ///< flag name, without "--"
  Bound bound;
  /// Serve's admission range, [min, cap]: the server runs whatever it
  /// admits, so a million-node request is refused at parse time, not found
  /// as an hour-long run, and a trace too short to hold a sample is refused
  /// before its pool is built. llsim's flags skip it.
  double min, cap;
  Fold fold;
  std::string_view help;
};

/// The field table: calls `visit(&ClusterScenario::member, row)` once per
/// field, in wire and digest order.
template <class Visit>
void for_each_field(Visit&& visit) {
  visit(&S::policy, {"policy", "policy", kAny, 0, kNoCap, kAlways,
                     "LL, LF, IE, PM, or LL-oracle"});
  visit(&S::nodes,
        {"nodes", "nodes", kAtLeastOne, 0, 4096, kAlways, "cluster size"});
  visit(&S::jobs, {"jobs", "jobs", kAtLeastOne, 0, 1e5, kAlways,
                   "foreign jobs (held in the system if closed)"});
  visit(&S::demand, {"demand", "demand", kPositive, 1e-6, 1e9, kAlways,
                     "CPU-seconds per job"});
  visit(&S::machines, {"machines", "machines", kAtLeastOne, 0, 1024, kAlways,
                       "synthetic trace machines (unless --traces)"});
  // Served days start at 0.001 (86 s, 43 samples): a synthetic trace under
  // one 2-s sample is empty, and serve would build its pool of empty traces
  // before the run failed.
  visit(&S::days, {"days", "days", kPositive, 1e-3, 32, kAlways,
                   "synthetic trace days (unless --traces)"});
  visit(&S::closed, {"closed", "closed", kNonNegative, 0, kWeek, kAlways,
                     "if > 0: closed-system run of this many seconds "
                     "(throughput mode)"});
  visit(&S::pause, {"pause", "pause-time", kNonNegative, 0, 1e9, kAlways,
                    "PM grace period (s)"});
  visit(&S::reps, {"reps", "reps", kAtLeastOne, 0, 1000, kAlways,
                   "replications (report means with 95% CIs)"});
  visit(&S::seed,
        {"seed", "seed", kAny, 0, kNoCap, kNever, "master RNG seed"});
  visit(&S::mtbf, {"mtbf", "mtbf", kNonNegative, 0, kNoCap, kIfSet,
                   "per-node mean time between crashes (s, 0 = none)"});
  visit(&S::downtime, {"downtime", "downtime", kPositive, 0, kWeek, kIfSet,
                       "mean crash downtime (s)"});
  visit(&S::drop, {"drop", "drop", kNonNegative, 0, kNoCap, kIfSet,
                   "migration-link drop probability, in [0, 1)"});
  visit(&S::checkpoint, {"checkpoint", "checkpoint", kNonNegative, 0, kNoCap,
                         kIfSet, "checkpoint interval (s, 0 = off)"});
  visit(&S::storm_every,
        {"storm_every", "storm-every", kNonNegative, 0, kNoCap, kIfSet,
         "mean s between reclamation storms (0 = off)"});
  visit(&S::pressure_every,
        {"pressure_every", "pressure-every", kNonNegative, 0, kNoCap, kIfSet,
         "mean s between memory-pressure spikes (0 = off)"});
}

template <class T>
constexpr bool kIsPolicy = std::is_same_v<T, core::PolicyKind>;

/// The policy's name, or the shortest text that reads back to the same
/// number.
template <class T>
std::string value_text(const T& value) {
  if constexpr (kIsPolicy<T>) {
    return std::string(core::to_string(value));
  } else {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  }
}

/// Reads one params value into `out`.
template <class T>
void read_param(const Field& f, const json::Value& v, T& out) {
  const std::string name = "params." + std::string(f.key);
  const json::Kind kind = kIsPolicy<T> ? json::Kind::kString
                                       : json::Kind::kNumber;
  if (v.kind() != kind) {
    throw std::invalid_argument(name + " must be a " +
                                std::string(json::Value::kind_name(kind)));
  }
  if constexpr (kIsPolicy<T>) {
    out = core::parse_policy_name(v.as_string());
  } else if constexpr (std::is_integral_v<T>) {
    try {
      out = v.as_u64();
    } catch (const std::exception&) {
      throw std::invalid_argument(name + " must be a non-negative integer");
    }
  } else {
    out = v.as_number();
  }
}

/// Serve's admission control for work size, all in one place: each field's
/// served range, then the limits that span fields.
void admit(const ClusterScenario& sc) {
  for_each_field([&](auto member, const Field& f) {
    const auto& value = sc.*member;
    if constexpr (!kIsPolicy<std::decay_t<decltype(value)>>) {
      const auto v = static_cast<double>(value);
      if (v < f.min || v > f.cap) {
        throw std::invalid_argument(
            "params." + std::string(f.key) + " is outside the served range [" +
            value_text(f.min) + ", " + value_text(f.cap) + "]");
      }
    }
  });
  // A machine-day is 43,200 samples (~0.7 MB) of pool, built whole, so the
  // two caps alone would admit ~22.6 GB; 256 is the largest pool any bench
  // builds (ext_scale's).
  if (static_cast<double>(sc.machines) * sc.days > 256.0) {
    throw std::invalid_argument(
        "params.machines x params.days exceeds 256 machine-days");
  }
  // A plan compiles every arrival before the run (FaultSpec caps that at
  // 1e6 per category), and each one is simulated work.
  const fault::FaultSpec plan = sc.fault_plan();
  for (const fault::ArrivalProcess* arrivals :
       {&plan.crash.arrivals, &plan.storm.arrivals, &plan.pressure.arrivals}) {
    if (arrivals->expected_count(plan.horizon) > 1e4) {
      throw std::invalid_argument(
          "params: the fault plan expects over 1e4 arrivals of one kind");
    }
  }
  // A checkpoint pauses its job for at least 0.3 s, so a shorter interval
  // runs a job's demand as billions of checkpoints.
  if (sc.checkpoint > 0.0 && sc.checkpoint < 1.0) {
    throw std::invalid_argument("params.checkpoint must be 0 (off) or >= 1");
  }
}

}  // namespace

ClusterScenario ClusterScenario::from_json(const json::Value& v) {
  ClusterScenario sc;
  if (v.kind() == json::Kind::kNull) return sc;  // all defaults
  if (v.kind() != json::Kind::kObject) {
    throw std::invalid_argument("params must be an object");
  }
  for (const auto& [key, value] : v.as_object()) {
    bool known = false;
    for_each_field([&](auto member, const Field& f) {
      if (f.key != key) return;
      known = true;
      read_param(f, value, sc.*member);
    });
    if (!known) {
      throw std::invalid_argument("params has unknown key '" + key + "'");
    }
  }
  sc.validate(FieldNames::kParams);
  admit(sc);
  return sc;
}

std::string ClusterScenario::to_json() const {
  std::string out;
  for (const auto& [key, value] : config()) {
    out += (out.empty() ? "{\"" : ", \"") + key + "\": ";
    out += key == "policy" ? '"' + value + '"' : value;
  }
  return out + "}";
}

std::function<ClusterScenario()> ClusterScenario::add_flags(
    util::Flags& flags) {
  // One read per field copies its parsed flag into the scenario.
  std::vector<std::function<void(ClusterScenario&)>> reads;
  const ClusterScenario defaults;
  for_each_field([&](auto member, const Field& f) {
    using T = std::decay_t<decltype(defaults.*member)>;
    if constexpr (kIsPolicy<T>) {
      auto h = flags.add_string(f.flag, value_text(defaults.*member), f.help);
      reads.push_back([=](S& sc) { sc.*member = core::parse_policy_name(*h); });
    } else if constexpr (std::is_integral_v<T>) {
      auto h = flags.add_uint64(f.flag, defaults.*member, f.help);
      reads.push_back([=](S& sc) { sc.*member = *h; });
    } else {
      auto h = flags.add_double(f.flag, defaults.*member, f.help);
      reads.push_back([=](S& sc) { sc.*member = *h; });
    }
  });
  return [reads = std::move(reads)] {
    ClusterScenario sc;
    for (const auto& read : reads) read(sc);
    sc.validate(FieldNames::kFlags);
    return sc;
  };
}

void ClusterScenario::validate(FieldNames names) const {
  for_each_field([&](auto member, const Field& f) {
    if constexpr (!kIsPolicy<std::decay_t<decltype(this->*member)>>) {
      static constexpr const char* kRule[] = {"", ">= 1", "> 0", ">= 0"};
      const auto v = static_cast<double>(this->*member);
      const bool in_bound = f.bound == kAny          ? true
                            : f.bound == kAtLeastOne ? v >= 1.0
                            : f.bound == kPositive   ? v > 0.0
                                                     : v >= 0.0;
      if (std::isfinite(v) && in_bound) return;
      throw std::invalid_argument(
          (names == FieldNames::kFlags ? "--" + std::string(f.flag)
                                       : "params." + std::string(f.key)) +
          " must be " +
          (std::isfinite(v) ? kRule[static_cast<int>(f.bound)] : "finite"));
    }
  });
  fault_plan().validate();
  fault::CheckpointConfig{checkpoint}.validate();
}

std::vector<std::pair<std::string, std::string>> ClusterScenario::config()
    const {
  std::vector<std::pair<std::string, std::string>> pairs;
  for_each_field([&](auto member, const Field& f) {
    pairs.emplace_back(f.key, value_text(this->*member));
  });
  return pairs;
}

std::uint64_t ClusterScenario::config_digest() const {
  verify::Digest digest;
  // Version tag: bump when the scenario semantics change, so stale cached
  // results from an older server can never alias a new config.
  digest.add_string("serve.cluster.v1");
  const ClusterScenario defaults;
  for_each_field([&](auto member, const Field& f) {
    const auto& value = this->*member;
    if (f.fold == kNever || (f.fold == kIfSet && value == defaults.*member)) {
      return;
    }
    if (f.fold == kIfSet) digest.add_string(f.key);
    if constexpr (kIsPolicy<std::decay_t<decltype(value)>>) {
      digest.add_string(core::to_string(value));
    } else if constexpr (std::is_integral_v<std::decay_t<decltype(value)>>) {
      digest.add_u64(value);
    } else {
      digest.add_double(value);
    }
  });
  return digest.value();
}

fault::FaultSpec ClusterScenario::fault_plan() const {
  fault::FaultSpec plan;
  if (mtbf > 0.0) {
    // Cluster-wide crash rate: node_count / per-node MTBF.
    plan.crash.arrivals =
        fault::ArrivalProcess::exponential(static_cast<double>(nodes) / mtbf);
  }
  plan.crash.mean_downtime = downtime;
  plan.link.drop_probability = drop;
  if (storm_every > 0.0) {
    plan.storm.arrivals = fault::ArrivalProcess::exponential(1.0 / storm_every);
  }
  if (pressure_every > 0.0) {
    plan.pressure.arrivals =
        fault::ArrivalProcess::exponential(1.0 / pressure_every);
  }
  // A closed run draws faults over its whole length; open runs, and closed
  // ones of at most a day, keep the one-day horizon their timelines had.
  plan.horizon = std::max(plan.horizon, closed);
  return plan;
}

bool ClusterScenario::faulty() const {
  return !fault_plan().empty() || checkpoint > 0.0;
}

namespace {

/// One run of `sc` at `run_seed` on `engine`: the open run, or the closed
/// one when `closed` > 0.
cluster::ClusterReport run_one(const ClusterScenario& sc,
                               std::uint64_t run_seed,
                               const ClusterEngine& engine,
                               const trace::TracePool& pool,
                               const workload::BurstTable& table,
                               const ClusterHooks& hooks) {
  cluster::ExperimentConfig cfg;
  cfg.cluster.node_count = sc.nodes;
  cfg.cluster.queue = engine.queue;
  cfg.cluster.policy = sc.policy;
  cfg.cluster.policy_params.pause_time = sc.pause;
  cfg.cluster.faults = sc.fault_plan();
  cfg.cluster.checkpoint.interval = sc.checkpoint;
  cfg.workload = cluster::WorkloadSpec{sc.jobs, sc.demand};
  cfg.seed = run_seed;
  if (engine.shards > 0) {
    return sc.closed > 0.0
               ? shard::run_closed(cfg, engine.shards, pool, table, sc.closed,
                                   engine.runner, &hooks.sharded)
               : shard::run_open(cfg, engine.shards, pool, table,
                                 engine.runner, &hooks.sharded);
  }
  return sc.closed > 0.0 ? cluster::run_closed(cfg, pool, table, sc.closed,
                                               &hooks.monolithic)
                         : cluster::run_open(cfg, pool, table, nullptr,
                                             &hooks.monolithic);
}

}  // namespace

TracePoolCache::PoolPtr ClusterScenario::pool() const {
  return TracePoolCache::shared().standard(machines, days * 24.0, seed + 1);
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
                [scenario = *this, faulty = faulty(), engine,
                 pool = std::move(pool), &table,
                 hooks = std::move(hooks)](std::uint64_t s) {
                  const cluster::ClusterReport report = run_one(
                      scenario, s, engine, *pool, table,
                      hooks ? hooks(s) : ClusterHooks{});
                  RunResult r = scenario.closed > 0.0 ? closed_metrics(report)
                                                      : open_metrics(report);
                  if (faulty) add_fault_metrics(r, report);
                  return r;
                });
  return spec;
}

std::string ClusterScenario::run(util::TaskRunner* runner) const {
  EngineOptions options;
  options.runner = runner;
  return exp::to_json(run_sweep(
      spec(ClusterEngine{}, pool(), workload::default_burst_table()),
      options));
}

}  // namespace ll::exp
