#pragma once

/// \file recruitment.hpp
/// The recruitment rule that classifies coarse-trace windows as idle or
/// non-idle. Paper §3.2: "An idle interval is a period of time with the CPU
/// less than 10% used and no keyboard action for 1 minute (called the
/// recruitment threshold)." A machine therefore becomes idle only after a
/// full quiet minute, and becomes non-idle immediately on keyboard activity
/// or a CPU spike.

#include <cstddef>
#include <vector>

#include "trace/records.hpp"

namespace ll::trace {

struct RecruitmentRule {
  double cpu_threshold = 0.10;    // window is "quiet" if cpu < threshold
  double quiet_seconds = 60.0;    // must be quiet this long to count as idle

  /// Throws std::invalid_argument unless cpu_threshold is finite and
  /// quiet_seconds is finite and >= 0.
  void validate() const;
};

/// Computes the per-sample idle flag for a trace under a rule. Sample i is
/// idle iff every sample in the trailing `quiet_seconds` window (including i)
/// has cpu < threshold and no keyboard activity. The leading samples of the
/// trace (age < quiet_seconds) are conservatively non-idle unless the whole
/// prefix is quiet for quiet_seconds... they are treated with the same rule
/// applied to the available prefix only when the prefix spans the full quiet
/// window; otherwise they are non-idle (conservative). A quiet window longer
/// than the whole trace flags no sample. Validates `rule` first.
[[nodiscard]] std::vector<bool> idle_flags(const CoarseTrace& trace,
                                           const RecruitmentRule& rule = {});

/// CPU utilization of idle samples, accumulated across calls: `sum` adds
/// each idle sample's cpu in the order the samples are visited.
struct IdleCpu {
  double sum = 0.0;
  std::size_t count = 0;
};

/// idle_flags, and in the same pass adds every idle sample of `trace` to
/// `idle_cpu`, in sample order. The cluster engines derive a whole pool this
/// way, one pass per trace.
[[nodiscard]] std::vector<bool> idle_flags(const CoarseTrace& trace,
                                           const RecruitmentRule& rule,
                                           IdleCpu& idle_cpu);

/// Fraction of samples flagged idle.
[[nodiscard]] double idle_fraction(const CoarseTrace& trace,
                                   const RecruitmentRule& rule = {});

/// Lengths (seconds) of maximal non-idle episodes. The linger cost model
/// reasons about the distribution of these episode durations (§2).
[[nodiscard]] std::vector<double> nonidle_episode_lengths(
    const CoarseTrace& trace, const RecruitmentRule& rule = {});

/// Lengths (seconds) of maximal idle episodes.
[[nodiscard]] std::vector<double> idle_episode_lengths(
    const CoarseTrace& trace, const RecruitmentRule& rule = {});

}  // namespace ll::trace
