#include "trace/trace_pool.hpp"

#include <stdexcept>

namespace ll::trace {
namespace {

/// Checks the pool (non-empty, no empty trace, one shared period) and
/// derives it under `rule`: one pass per trace, its flags and its idle
/// samples' CPU together.
PoolDerived derive_pool(const std::vector<CoarseTrace>& pool,
                        const RecruitmentRule& rule) {
  if (pool.empty()) {
    throw std::invalid_argument("trace pool: no traces");
  }
  PoolDerived out;
  out.period = pool.front().period();
  for (const auto& t : pool) {
    if (t.empty()) {
      throw std::invalid_argument("trace pool: empty trace");
    }
    if (t.period() != out.period) {
      throw std::invalid_argument("trace pool: traces must share one period");
    }
  }
  out.idle_flags.reserve(pool.size());
  IdleCpu idle_cpu;
  for (const auto& t : pool) {
    out.idle_flags.push_back(idle_flags(t, rule, idle_cpu));
  }
  if (idle_cpu.count > 0) {
    out.idle_utilization = idle_cpu.sum / static_cast<double>(idle_cpu.count);
  }
  return out;
}

}  // namespace

std::shared_ptr<const PoolDerived> TracePool::derived(
    const RecruitmentRule& rule) const {
  // Before the lookup: a NaN key would compare equal to every other key.
  rule.validate();
  return derived_
      .get_or_build({rule.cpu_threshold, rule.quiet_seconds},
                    [&] { return derive_pool(traces_, rule); })
      .value;
}

}  // namespace ll::trace
