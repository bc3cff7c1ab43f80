#pragma once

/// \file trace_pool.hpp
/// An immutable pool of coarse machine traces, and what the engines derive
/// from it.
///
/// Paper §4.2 replays one pool in every cluster run. What an engine derives
/// from the pool depends on the pool and the recruitment rule alone: each
/// sample's §3.2 idle flag, and the linger model's "l" (the mean CPU of the
/// idle samples). A TracePool derives both on first use and keeps the result
/// for as long as the pool lives (for one rule at a time), so every run that
/// replays the pool shares one derivation. The pool is immutable and the memo
/// is thread-safe, so runs on any thread may share a pool and its
/// derivations.

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "trace/records.hpp"
#include "trace/recruitment.hpp"
#include "util/single_flight_cache.hpp"

namespace ll::trace {

/// What the engines derive from a pool under one recruitment rule.
struct PoolDerived {
  double period = 0.0;  ///< the sample period every trace shares
  /// Per pool entry: the recruitment rule's idle flag of each sample.
  std::vector<std::vector<bool>> idle_flags;
  /// "l" for the linger cost model: the mean CPU over every idle sample in
  /// the pool (summed in pool order), or 0.05 when no sample is idle.
  double idle_utilization = 0.05;
};

class TracePool {
 public:
  /// Takes the traces as they are; derived() checks them.
  explicit TracePool(std::vector<CoarseTrace> traces)
      : traces_(std::move(traces)) {}

  // The memo holds a mutex; the pool is shared by pointer or reference.
  TracePool(const TracePool&) = delete;
  TracePool& operator=(const TracePool&) = delete;

  [[nodiscard]] const std::vector<CoarseTrace>& traces() const {
    return traces_;
  }
  [[nodiscard]] std::size_t size() const { return traces_.size(); }
  [[nodiscard]] const CoarseTrace& operator[](std::size_t i) const {
    return traces_[i];
  }
  /// Bytes of samples the pool holds (its derivations not included).
  [[nodiscard]] std::size_t sample_bytes() const;

  /// The derivation under `rule`, built by one pass over the pool on the
  /// first call for that rule and shared by every later call for it until
  /// another rule replaces it (concurrent first calls share one build).
  /// Throws std::invalid_argument, on every call, for a rule
  /// RecruitmentRule::validate refuses, an empty pool, an empty trace, or
  /// traces that do not share one period.
  [[nodiscard]] std::shared_ptr<const PoolDerived> derived(
      const RecruitmentRule& rule) const;

  /// Derivations built so far: one per change of rule, plus a rebuild for
  /// each call after a failed build.
  [[nodiscard]] std::size_t derivations() const { return derived_.builds(); }

 private:
  /// Derivations kept per pool. Outside the tests no caller sets a
  /// recruitment rule (no flag, bench, scenario or serve field does), so a
  /// pool is only ever derived under the default rule. A call with another
  /// rule replaces the kept derivation; runs holding the old one keep it.
  static constexpr std::size_t kRulesKept = 1;

  std::vector<CoarseTrace> traces_;
  /// Keyed by (cpu_threshold, quiet_seconds).
  mutable util::SingleFlightCache<std::pair<double, double>, PoolDerived>
      derived_{kRulesKept};
};

}  // namespace ll::trace
