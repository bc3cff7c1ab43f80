#pragma once

/// \file scenario_builders.hpp
/// Shared scenario-building helpers for the cluster, integration and
/// verification test suites. These used to be copy-pasted per test file;
/// keeping one copy here means a pattern-trace or base-config tweak reaches
/// every suite (including the golden-trace tests) at once.

#include <string>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "cluster/experiment.hpp"
#include "workload/burst_table.hpp"

namespace ll::test_support {

/// One quiet window flips the machine idle: recruitment effects are tested
/// in the trace suite; scenario tests want precise per-window control of the
/// idle flag.
inline constexpr trace::RecruitmentRule kInstantRule{0.1, 2.0};

/// Builds a trace from a pattern string: '.' = idle window (cpu 0),
/// 'B' = busy window (cpu = busy_util). The final character repeats forever
/// via trace wrap-around only if the caller makes the trace long enough —
/// so patterns are usually padded.
inline trace::CoarseTrace pattern_trace(const std::string& pattern,
                                        double busy_util = 0.5,
                                        std::int32_t mem_free = 65536) {
  trace::CoarseTrace t(2.0);
  for (char c : pattern) {
    t.push({c == 'B' ? busy_util : 0.0, mem_free, false});
  }
  return t;
}

/// Pool where every node replays the same pattern (offset 0 is not
/// guaranteed unless randomize_placement is off, so tests that need aligned
/// phases use one-window patterns or constant traces).
inline std::vector<trace::CoarseTrace> uniform_pool(const std::string& pattern,
                                                    double busy_util = 0.5) {
  return {pattern_trace(pattern, busy_util)};
}

/// A single always-idle trace, long enough for multi-wave experiments.
inline std::vector<trace::CoarseTrace> idle_pool(std::size_t windows = 4000) {
  trace::CoarseTrace t(2.0);
  for (std::size_t i = 0; i < windows; ++i) t.push({0.0, 65536, false});
  return {t};
}

/// Canonical test cluster: instant recruitment, small (fast) migrations,
/// node i pinned to pool[i % n] at offset 0 for pattern-driven scenarios.
inline cluster::ClusterConfig base_config(core::PolicyKind policy,
                                          std::size_t nodes) {
  cluster::ClusterConfig cfg;
  cfg.node_count = nodes;
  cfg.policy = policy;
  cfg.recruitment = kInstantRule;
  cfg.job_bytes = 1ull << 20;  // ~3.4 s migrations keep tests fast
  cfg.randomize_placement = false;
  return cfg;
}

inline double migration_cost(const cluster::ClusterConfig& cfg) {
  return cfg.migration.cost(cfg.job_bytes);
}

/// Canonical small experiment for the experiment-driver tests.
inline cluster::ExperimentConfig small_experiment(core::PolicyKind policy) {
  cluster::ExperimentConfig cfg;
  cfg.cluster.node_count = 4;
  cfg.cluster.policy = policy;
  cfg.cluster.recruitment = kInstantRule;
  cfg.cluster.job_bytes = 1ull << 20;
  cfg.workload = cluster::WorkloadSpec{8, 20.0};
  cfg.seed = 99;
  return cfg;
}

/// A synthetic pool of `machines` day-long traces (the generator's
/// defaults, as llsim's standard pool), for runs shaped like Figure 7's.
inline std::vector<trace::CoarseTrace> synthetic_pool(std::size_t machines,
                                                      std::uint64_t seed) {
  trace::CoarseGenConfig gen;
  gen.duration = 24.0 * 3600.0;
  return trace::generate_machine_pool(gen, machines, rng::Stream(seed));
}

inline const workload::BurstTable& table() {
  return workload::default_burst_table();
}

}  // namespace ll::test_support
