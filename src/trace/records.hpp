#pragma once

/// \file records.hpp
/// Trace record containers for the two measurement levels of the paper's
/// workload characterization (§3):
///
/// * Fine-grain: AIX-style scheduler dispatch data reduced to an alternating
///   sequence of RUN / IDLE bursts of the workstation owner's processes.
///   Consecutive dispatches within one logical CPU request are already
///   aggregated into a single run burst (paper §3.1).
/// * Coarse-grain: Arpaci-style samples every 2 seconds of CPU utilization,
///   free memory, and keyboard activity (§3.2); the idle/non-idle flag is
///   *derived* from these by the recruitment rule (see recruitment.hpp).

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace ll::trace {

/// One fine-grain burst: the owner's processes are either occupying the CPU
/// (`Run`) or the CPU is free for that duration (`Idle`).
enum class BurstKind : std::uint8_t { Run, Idle };

struct Burst {
  BurstKind kind = BurstKind::Idle;
  double duration = 0.0;  // seconds
};

/// A fine-grain trace: alternating run/idle bursts (not enforced to strictly
/// alternate, since real dispatch traces can contain zero-length artifacts;
/// the analysis pipeline tolerates repeats by aggregation).
class FineTrace {
 public:
  FineTrace() = default;
  explicit FineTrace(std::vector<Burst> bursts) : bursts_(std::move(bursts)) {}

  void push(BurstKind kind, double duration) {
    if (duration < 0.0) throw std::invalid_argument("negative burst duration");
    bursts_.push_back(Burst{kind, duration});
  }

  [[nodiscard]] const std::vector<Burst>& bursts() const { return bursts_; }
  [[nodiscard]] std::size_t size() const { return bursts_.size(); }
  [[nodiscard]] bool empty() const { return bursts_.empty(); }

  /// Total trace duration (sum of burst durations).
  [[nodiscard]] double duration() const;

  /// Fraction of total duration in run bursts.
  [[nodiscard]] double utilization() const;

 private:
  std::vector<Burst> bursts_;
};

/// One coarse-grain sample (2-second period in the paper's traces).
struct CoarseSample {
  double cpu = 0.0;            // mean CPU utilization over the window, [0,1]
  std::int32_t mem_free_kb = 0;  // free physical memory at sample time
  bool keyboard = false;       // any keyboard/mouse activity in the window
};

/// A coarse-grain machine trace: fixed-period samples.
class CoarseTrace {
 public:
  explicit CoarseTrace(double period_seconds = 2.0)
      : period_(period_seconds) {
    if (!(period_ > 0.0)) throw std::invalid_argument("period must be > 0");
  }
  CoarseTrace(double period_seconds, std::vector<CoarseSample> samples)
      : period_(period_seconds), samples_(std::move(samples)) {
    if (!(period_ > 0.0)) throw std::invalid_argument("period must be > 0");
  }

  void push(CoarseSample sample) { samples_.push_back(sample); }
  void reserve(std::size_t samples) { samples_.reserve(samples); }

  [[nodiscard]] double period() const { return period_; }
  [[nodiscard]] const std::vector<CoarseSample>& samples() const {
    return samples_;
  }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] double duration() const {
    return period_ * static_cast<double>(samples_.size());
  }

  /// Index of the sample covering time t, wrapping around the trace end —
  /// cluster simulations map each node to a random offset into a trace and
  /// may run longer than the trace (paper §4.2 starts each node at a random
  /// offset into a different machine trace).
  [[nodiscard]] std::size_t index_at(double t) const;

  [[nodiscard]] const CoarseSample& sample_at(double t) const {
    return samples_.at(index_at(t));
  }

  /// Mean CPU utilization across all samples.
  [[nodiscard]] double mean_cpu() const;

 private:
  double period_;
  std::vector<CoarseSample> samples_;
};

}  // namespace ll::trace
