#pragma once

/// \file harness.hpp
/// Shared pieces of the benchmark: run options, the record every workload
/// pass returns, the traced run's span helpers, and the order statistics the
/// end-to-end metrics are built from.
///
/// A workload is a function that runs one *pass*: set up (several times
/// when asked, keeping the last), then run its fixed set of ops, check every
/// op, and digest the outputs. The untraced pass gives the end-to-end
/// metrics; the traced pass (same seed, same ops) gives the per-layer split.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/pool_cache.hpp"
#include "obs/tracer.hpp"
#include "util/runner.hpp"

namespace llbench {

namespace obs = ll::obs;
namespace util = ll::util;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The seed the pinned output digests are recorded for.
inline constexpr std::uint64_t kDefaultSeed = 42;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  /// Nominal length of the timed phase. It sets the size of the fixed op
  /// set (a per-workload ops-per-second constant times this); the time the
  /// ops then take is what wall_s measures.
  double seconds = 20.0;
  bool trace = false;
  /// Tiny op counts for the harness's own tests; same scenarios, so the
  /// pinned digests (computed over a prefix of the ops) still apply.
  bool smoke = false;
  std::string trace_out;  ///< Chrome trace path for the traced run
};

/// Ops in the fixed set: `per_second` x seconds, at least `min_ops` (enough
/// for a tail percentile with 10 ops beyond it), or `smoke_ops` in smoke
/// mode.
[[nodiscard]] std::size_t op_count(const Options& options, double per_second,
                                   std::size_t min_ops, std::size_t smoke_ops);

/// Per-layer values of a traced pass, by metric name.
using Layers = std::map<std::string, double>;

/// What one pass (setup + the fixed op set + checks) produced.
struct Pass {
  std::vector<double> setup_s;  ///< one entry per setup repetition
  double wall_s = 0.0;          ///< host time for the whole op set
  std::vector<double> op_ms;    ///< latency of every op that passed its check
  double peak_rss_mb = 0.0;     ///< process peak RSS when the ops ended
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t digest = 0;         ///< over every op's output, in op order
  std::uint64_t pinned_digest = 0;  ///< over the first pinned ops only
  std::vector<std::string> problems;  ///< failed checks, one line each
  Layers layers;                      ///< traced pass only
};

/// Records an op failure: counts it and keeps the reason.
void fail_op(Pass& pass, const std::string& why);

/// Ring capacity, per recording thread, of the traced run's tracer.
inline constexpr std::size_t kTraceRing = 1 << 17;

/// Wall span over the enclosing scope; does nothing without a tracer.
class Span {
 public:
  Span(obs::Tracer* tracer, std::string_view name, std::uint64_t arg = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t label_ = 0;
  std::uint64_t arg_ = 0;
  std::uint64_t t0_ = 0;
};

/// Runner observer for runners the benchmark owns: forwards to the
/// tracer's obs::RunnerTraceAdapter and keeps an exact suspend-time total.
class RunnerProbe final : public util::RunnerObserver {
 public:
  explicit RunnerProbe(obs::Tracer* tracer) : adapter_(tracer) {}

  void on_batch(std::size_t tasks, std::uint64_t t0_ns,
                std::uint64_t t1_ns) override {
    adapter_.on_batch(tasks, t0_ns, t1_ns);
  }
  void on_steal(std::size_t slot) override { adapter_.on_steal(slot); }
  void on_suspend(std::size_t slot, std::uint64_t t0_ns,
                  std::uint64_t t1_ns) override {
    suspend_ns_.fetch_add(t1_ns - t0_ns, std::memory_order_relaxed);
    adapter_.on_suspend(slot, t0_ns, t1_ns);
  }

  [[nodiscard]] double suspend_ms() const {
    return static_cast<double>(suspend_ns_.load()) / 1e6;
  }

 private:
  obs::RunnerTraceAdapter adapter_;
  std::atomic<std::uint64_t> suspend_ns_{0};
};

/// A runner the benchmark owns. When tracer, its scheduler hooks feed a
/// RunnerProbe. The probe is declared before the runner so it outlives the
/// workers: a suspended worker reports its wait after it wakes, which can
/// be as late as the runner's destructor.
class OwnedRunner {
 public:
  OwnedRunner(std::size_t threads, obs::Tracer* tracer);
  OwnedRunner(const OwnedRunner&) = delete;
  OwnedRunner& operator=(const OwnedRunner&) = delete;

  [[nodiscard]] util::TaskRunner& get() { return runner_; }

  /// Writes runner.{tasks,steals,suspensions,suspend_ms} into `layers`.
  void report(Layers& layers) const;

 private:
  std::optional<RunnerProbe> probe_;
  util::TaskRunner runner_;
};

/// Empties exp::TracePoolCache::shared().
void clear_pool_cache();

/// Runs `setup` `reps` times, timing each into pass.setup_s, and `teardown`
/// between repetitions so only the last setup's state remains. Every
/// repetition starts from an empty process-wide trace-pool cache, as a
/// fresh process does.
template <class Setup, class Teardown>
void repeat_setup(Pass& pass, std::size_t reps, Setup&& setup,
                  Teardown&& teardown) {
  for (std::size_t r = 0; r < reps; ++r) {
    if (r > 0) teardown();
    clear_pool_cache();
    const Clock::time_point t0 = Clock::now();
    setup();
    pass.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
}

/// Trace-pool activity of a pass, from its kept setup to the end of its
/// ops: the trace.* per-layer metrics.
class PoolWatch {
 public:
  /// Restarts counting; call at the start of every setup repetition.
  void mark();
  /// Freezes the build/hit counts; call when the ops end.
  void stop();

  /// exp::TracePoolCache::shared().standard(...), timed (when it builds)
  /// and wrapped in a trace/ span.
  ll::exp::TracePoolCache::PoolPtr standard(std::size_t machines,
                                            double hours, std::uint64_t seed,
                                            obs::Tracer* tracer);

  /// Adds a build time measured elsewhere.
  void add_build_ms(double ms) { build_ms_.push_back(ms); }

  /// trace.pool_build_ms (median build), trace.pool_builds, trace.pool_hits.
  void report(Layers& layers) const;

 private:
  std::size_t builds0_ = 0;
  std::size_t hits0_ = 0;
  std::size_t builds_ = 0;
  std::size_t hits_ = 0;
  std::vector<double> build_ms_;
};

/// Per-key medians over per-op layer values.
[[nodiscard]] Layers median_per_key(const std::vector<Layers>& ops);

[[nodiscard]] double median(std::vector<double> values);

/// Median of `values`, 0 when empty (per-layer metrics of idle layers).
[[nodiscard]] double median_or_zero(const std::vector<double>& values);

/// The highest percentile with at least 10 samples beyond it (the largest
/// sample when there are 10 or fewer).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t beyond = 0;
};
[[nodiscard]] Tail tail(std::vector<double> values);

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// Seed of op `i` of a workload: a pure function of (workload seed, stream,
/// i), so the first ops of a longer run are the ops of a shorter one.
[[nodiscard]] std::uint64_t op_seed(std::uint64_t workload_seed,
                                    std::size_t stream, std::size_t i);

}  // namespace llbench
