#include "trace/recruitment.hpp"

#include <cmath>

namespace ll::trace {
namespace {

std::vector<double> episode_lengths(const CoarseTrace& trace,
                                    const RecruitmentRule& rule,
                                    bool want_idle) {
  const std::vector<bool> flags = idle_flags(trace, rule);
  std::vector<double> lengths;
  std::size_t run = 0;
  for (bool idle : flags) {
    if (idle == want_idle) {
      ++run;
    } else if (run > 0) {
      lengths.push_back(static_cast<double>(run) * trace.period());
      run = 0;
    }
  }
  if (run > 0) lengths.push_back(static_cast<double>(run) * trace.period());
  return lengths;
}

}  // namespace

std::vector<bool> idle_flags(const CoarseTrace& trace,
                             const RecruitmentRule& rule) {
  IdleCpu unused;
  return idle_flags(trace, rule, unused);
}

std::vector<bool> idle_flags(const CoarseTrace& trace,
                             const RecruitmentRule& rule, IdleCpu& idle_cpu) {
  const auto& samples = trace.samples();
  std::vector<bool> flags(samples.size(), false);
  if (samples.empty()) return flags;

  // Number of consecutive trailing quiet samples needed (>= 1).
  const auto needed = static_cast<std::size_t>(
      std::max(1.0, std::ceil(rule.quiet_seconds / trace.period())));

  // Accumulated in locals: behind the reference, the sum could alias a
  // sample's cpu and the count a word of `flags`, which would keep both in
  // memory through the loop.
  double sum = idle_cpu.sum;
  std::size_t count = idle_cpu.count;
  std::size_t quiet_run = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const CoarseSample& s = samples[i];
    quiet_run = s.cpu < rule.cpu_threshold && !s.keyboard ? quiet_run + 1 : 0;
    if (quiet_run >= needed) {
      flags[i] = true;
      sum += s.cpu;
      ++count;
    }
  }
  idle_cpu = {sum, count};
  return flags;
}

double idle_fraction(const CoarseTrace& trace, const RecruitmentRule& rule) {
  const std::vector<bool> flags = idle_flags(trace, rule);
  if (flags.empty()) return 0.0;
  std::size_t idle = 0;
  for (bool f : flags) idle += f ? 1 : 0;
  return static_cast<double>(idle) / static_cast<double>(flags.size());
}

std::vector<double> nonidle_episode_lengths(const CoarseTrace& trace,
                                            const RecruitmentRule& rule) {
  return episode_lengths(trace, rule, /*want_idle=*/false);
}

std::vector<double> idle_episode_lengths(const CoarseTrace& trace,
                                         const RecruitmentRule& rule) {
  return episode_lengths(trace, rule, /*want_idle=*/true);
}

}  // namespace ll::trace
