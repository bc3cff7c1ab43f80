#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "exp/pool_cache.hpp"
#include "exp/spec.hpp"

namespace llbench {

std::size_t op_count(const Options& options, double per_second,
                     std::size_t min_ops, std::size_t smoke_ops) {
  if (options.smoke) return smoke_ops;
  const auto scaled =
      static_cast<std::size_t>(std::llround(options.seconds * per_second));
  return std::max(min_ops, scaled);
}

void fail_op(Pass& pass, const std::string& why) {
  ++pass.failed;
  pass.problems.push_back(why);
}

Span::Span(obs::Tracer* tracer, std::string_view name, std::uint64_t arg)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  label_ = tracer_->label(name);
  arg_ = arg;
  t0_ = tracer_->now_ns();
}

Span::~Span() {
  if (tracer_ != nullptr) tracer_->wall_span(label_, t0_, 0.0, arg_);
}

OwnedRunner::OwnedRunner(std::size_t threads, obs::Tracer* tracer)
    : runner_(threads) {
  if (tracer != nullptr) {
    probe_.emplace(tracer);
    runner_.set_observer(&*probe_);
  }
}

void OwnedRunner::report(Layers& layers) const {
  const util::TaskRunner::Stats stats = runner_.stats();
  layers["runner.tasks"] = static_cast<double>(stats.executed);
  layers["runner.steals"] = static_cast<double>(stats.stolen);
  layers["runner.suspensions"] = static_cast<double>(stats.suspensions);
  layers["runner.suspend_ms"] = probe_ ? probe_->suspend_ms() : 0.0;
}

void clear_pool_cache() { ll::exp::TracePoolCache::shared().clear(); }

void PoolWatch::mark() {
  const auto& cache = ll::exp::TracePoolCache::shared();
  builds0_ = cache.builds();
  hits0_ = cache.hits();
  build_ms_.clear();
}

void PoolWatch::stop() {
  const auto& cache = ll::exp::TracePoolCache::shared();
  builds_ = cache.builds() - builds0_;
  hits_ = cache.hits() - hits0_;
}

ll::exp::TracePoolCache::PoolPtr PoolWatch::standard(std::size_t machines,
                                                     double hours,
                                                     std::uint64_t seed,
                                                     obs::Tracer* tracer) {
  auto& cache = ll::exp::TracePoolCache::shared();
  Span span(tracer, "trace/TracePoolCache::standard", machines);
  const std::size_t before = cache.builds();
  const Clock::time_point t0 = Clock::now();
  auto pool = cache.standard(machines, hours, seed);
  if (cache.builds() != before) add_build_ms(ms_between(t0, Clock::now()));
  return pool;
}

void PoolWatch::report(Layers& layers) const {
  layers["trace.pool_build_ms"] = median_or_zero(build_ms_);
  layers["trace.pool_builds"] = static_cast<double>(builds_);
  layers["trace.pool_hits"] = static_cast<double>(hits_);
}

Layers median_per_key(const std::vector<Layers>& ops) {
  std::map<std::string, std::vector<double>> columns;
  for (const Layers& op : ops) {
    for (const auto& [name, value] : op) columns[name].push_back(value);
  }
  Layers medians;
  for (const auto& [name, values] : columns) medians[name] = median(values);
  return medians;
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

double median_or_zero(const std::vector<double>& values) {
  return values.empty() ? 0.0 : median(values);
}

Tail tail(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("tail of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  Tail t;
  if (n <= 10) {
    t.value = values.back();
    return t;
  }
  // Sample n-11 (0-based) has exactly 10 samples above it.
  t.value = values[n - 11];
  t.beyond = 10;
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t op_seed(std::uint64_t workload_seed, std::size_t stream,
                      std::size_t i) {
  return ll::exp::replication_seed(workload_seed, stream, i);
}

}  // namespace llbench
