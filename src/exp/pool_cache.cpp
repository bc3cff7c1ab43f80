#include "exp/pool_cache.hpp"

#include "rng/rng.hpp"

namespace ll::exp {

TracePoolCache::PoolPtr TracePoolCache::standard(std::size_t machines,
                                                 double hours,
                                                 std::uint64_t seed) {
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
