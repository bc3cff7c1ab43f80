#include "exp/pool_cache.hpp"

#include <cmath>
#include <stdexcept>

#include "rng/rng.hpp"

namespace ll::exp {

TracePoolCache::PoolPtr TracePoolCache::standard(std::size_t machines,
                                                 double hours,
                                                 std::uint64_t seed) {
  // Before the lookup: a NaN key would compare equivalent to every key.
  if (!std::isfinite(hours) || hours < 0.0) {
    throw std::invalid_argument("trace pool: hours must be finite and >= 0");
  }
  const auto build = [&] {
    trace::CoarseGenConfig gen;
    gen.duration = hours * 3600.0;
    gen.start_hour = hours < 24.0 ? 9.0 : 0.0;
    return trace::generate_machine_pool(gen, machines, rng::Stream(seed));
  };
  return cache_.get_or_build({machines, hours, seed}, build).value;
}

void TracePoolCache::export_metrics(obs::MetricRegistry& registry) const {
  registry.counter("exp.pool_cache.builds").add(builds());
  registry.counter("exp.pool_cache.hits").add(hits());
}

TracePoolCache& TracePoolCache::shared() {
  static TracePoolCache cache;
  return cache;
}

}  // namespace ll::exp
