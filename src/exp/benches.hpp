#pragma once

/// \file benches.hpp
/// Internal: registration hooks for the built-in benches, grouped by the
/// subsystem they exercise. Called once by BenchRegistry::instance() —
/// explicit registration instead of static-initializer tricks, which the
/// linker may drop from a static library.

namespace ll::exp {

class BenchRegistry;

void register_workload_benches(BenchRegistry& registry);
void register_cluster_benches(BenchRegistry& registry);
void register_parallel_benches(BenchRegistry& registry);
void register_ablation_benches(BenchRegistry& registry);
void register_fault_benches(BenchRegistry& registry);
void register_scale_benches(BenchRegistry& registry);

}  // namespace ll::exp
