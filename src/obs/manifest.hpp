#pragma once

/// \file manifest.hpp
/// Run manifest: one JSON document that makes a simulation run reproducible
/// and auditable after the fact — which binary (git describe), which seed,
/// which configuration flags, and what the run measured (metric snapshot,
/// optional event-loop profile).
///
/// Both `llsim` (via --metrics-out / the profile subcommand) and the
/// experiment engine emit this shape; tools/llmanifest validates it against
/// docs/manifest.schema.json in CI, so the format drifts only deliberately.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace ll::obs {

/// Ring-buffer accounting for the run's flight-recorder tracer. A non-zero
/// drop count means the trace data is a truncated suffix — the manifest
/// surfaces that so truncation is never silent.
struct TraceStats {
  std::uint64_t tracer_recorded = 0;
  std::uint64_t tracer_dropped = 0;
};

/// Conservative-window accounting from a sharded run (src/shard/): shard
/// count, windows completed, mailbox traffic, and the worst single-window
/// barrier imbalance. Mirrors shard::ShardStats without an obs -> shard
/// dependency.
struct ShardSection {
  std::uint64_t count = 0;
  std::uint64_t windows = 0;
  std::uint64_t mailbox_sent = 0;
  std::uint64_t mailbox_delivered = 0;
  std::uint64_t max_barrier_wait_ns = 0;
};

struct RunManifest {
  std::string tool;         ///< "llsim cluster", "llsim bench", ...
  std::string version;      ///< git describe (or "unknown")
  std::uint64_t seed = 0;   ///< master seed of the run
  /// Configuration as ordered key/value pairs (flag name -> rendered value).
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<MetricSample> metrics;
  std::optional<ProfileSnapshot> profile;
  /// Fault-robustness summary, set by the tools that run fault plans
  /// (`llsim faults`, the fault benches); absent on fault-free tools.
  std::optional<double> goodput;    ///< delivered / (delivered + work_lost)
  std::optional<double> work_lost;  ///< CPU-seconds computed then rolled back
  /// Tracer accounting ("trace" object), set by tools that attach an
  /// obs::Tracer (`llsim trace`, `llsim profile --timeline`); absent
  /// otherwise.
  std::optional<TraceStats> trace;
  /// Sharded-engine accounting ("shards" object), set when the run used
  /// the conservative time-windowed engine (`--shards K`); absent otherwise.
  std::optional<ShardSection> shards;
};

/// Serializes the manifest as a single JSON object:
///   {"tool": ..., "version": ..., "seed": N,
///    "config": {...}, "metrics": [...], "profile": {...}?}
void write_manifest_json(const RunManifest& manifest, std::ostream& out);

/// Best-effort `git describe --always --dirty` of the working tree;
/// "unknown" when git or the repo is unavailable. Cached after first call.
[[nodiscard]] std::string current_git_describe();

/// Validates a parsed manifest document against the checked-in schema
/// shape used by docs/manifest.schema.json: the schema's "required" object
/// maps key -> expected kind name ("string"/"number"/"array"/"object").
/// An "optional" object (same shape) kind-checks keys that are allowed to
/// be absent — profile, goodput, work_lost. Returns an empty string on
/// success, else a human-readable error.
[[nodiscard]] std::string validate_manifest(std::string_view manifest_text,
                                            std::string_view schema_text);

}  // namespace ll::obs
