#pragma once

/// \file scenarios.hpp
/// Pinned verification scenarios: small, fully seed-determined runs of each
/// simulator layer that produce a state digest and execute the invariant
/// checkers. They serve three masters:
///
///  * the golden-trace regression suite (tests/golden/) pins each
///    scenario's digest at kGoldenSeed, so any behavioral drift in
///    des/node/cluster/parallel fails tier-1;
///  * tools/llverify reruns every scenario twice per seed and diffs the
///    digests (differential determinism), and re-derives the RNG streams in
///    a perturbed fork order (stream independence);
///  * the invariant counts double as liveness evidence — a scenario that
///    executes zero checks is itself a failure.
///
/// Scenarios must be *pure functions of ScenarioOptions*: no wall clock, no
/// global mutable state, no platform-dependent iteration order.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "verify/digest.hpp"
#include "verify/invariants.hpp"

namespace ll::cluster {
class ClusterSim;
}

namespace ll::verify {

/// The seed the committed golden digests are pinned at.
inline constexpr std::uint64_t kGoldenSeed = 1998;  // SC'98

struct ScenarioOptions {
  std::uint64_t seed = kGoldenSeed;
  Mode mode = Mode::kCount;
  /// Event-queue backend for every engine the scenarios construct. The
  /// digests are backend-invariant by contract — llverify's --queue flag
  /// (and the CI digest-diff step) prove heap and calendar runs produce
  /// byte-identical digests for all scenarios.
  des::QueueBackend queue = des::QueueBackend::kHeap;
  /// When true, the scenario derives its RNG streams through a perturbed
  /// fork order (decoy forks interleaved). Stream forking is a pure function
  /// of (seed, label, index), so the digest must not change — llverify uses
  /// this to prove sub-stream independence end to end.
  bool reordered_streams = false;
  /// Optional: wraps the scenario's own observer chain before it is
  /// attached to an engine — the hook receives the scenario's
  /// digest/invariant chain head and returns the observer to attach
  /// (typically an obs::EventLoopProfiler forwarding to `inner`). The
  /// golden-digest suite in tests/obs/ uses this to prove attaching the
  /// profiler leaves every pinned digest byte-identical. A hook that does
  /// anything non-observational breaks the purity contract above.
  std::function<des::SimObserver*(des::SimObserver* inner)> wrap_observer;
  /// Optional: runs right after a scenario constructs a ClusterSim (attach
  /// a metrics registry / tracer). Same observational-only contract.
  std::function<void(cluster::ClusterSim&)> cluster_hook;
  /// Shard count for the cluster-backed scenarios. 0 (the default) runs the
  /// monolithic ClusterSim against the base goldens. K >= 1 runs the
  /// conservative time-windowed shard::ShardedClusterSim instead; its state
  /// digests are shard-count AND backend invariant by construction, so one
  /// pinned golden per scenario (<name>.shards.golden) covers every K.
  /// Scenarios that build no cluster ignore the option entirely.
  std::size_t shards = 0;
};

struct ScenarioResult {
  Digest digest;
  std::uint64_t events = 0;      ///< DES events folded into the digest
  std::uint64_t checks = 0;      ///< invariant checks executed
  std::uint64_t violations = 0;  ///< invariant checks failed (kCount mode)
};

struct Scenario {
  std::string name;         ///< e.g. "cluster-open-ll"
  std::string module;       ///< "des" | "node" | "cluster" | "parallel" | ...
  std::string description;  ///< one line for llverify --list
  std::function<ScenarioResult(const ScenarioOptions&)> run;
};

/// All registered scenarios, in stable registration order. Covers at least
/// one scenario per core module (des, node, cluster, parallel, trace,
/// workload, rng).
[[nodiscard]] const std::vector<Scenario>& scenarios();

/// Scenario by name, or nullptr.
[[nodiscard]] const Scenario* find_scenario(std::string_view name);

/// True when ScenarioOptions::shards changes this scenario's digest (it
/// constructs a cluster simulation). llverify uses this to pick between the
/// base golden and the sharded golden file.
[[nodiscard]] bool scenario_sharded(const Scenario& scenario);

/// Derives the scenario's root stream from the options, honouring the
/// reordered_streams perturbation (exposed for tests).
[[nodiscard]] rng::Stream scenario_stream(const ScenarioOptions& options,
                                          std::string_view name);

}  // namespace ll::verify
