#include "exp/registry.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <ostream>
#include <stdexcept>

#include "exp/benches.hpp"
#include "exp/pool_cache.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"

namespace ll::exp {

BenchRegistry& BenchRegistry::instance() {
  static BenchRegistry* registry = [] {
    auto* r = new BenchRegistry;
    register_cluster_benches(*r);
    register_parallel_benches(*r);
    register_ablation_benches(*r);
    register_fault_benches(*r);
    register_scale_benches(*r);
    return r;
  }();
  return *registry;
}

void BenchRegistry::add(Bench bench) { benches_.push_back(std::move(bench)); }

const Bench* BenchRegistry::find(std::string_view name) const {
  for (const Bench& b : benches_) {
    if (b.name == name) return &b;
  }
  return nullptr;
}

std::vector<const Bench*> BenchRegistry::list() const {
  std::vector<const Bench*> out;
  out.reserve(benches_.size());
  for (const Bench& b : benches_) out.push_back(&b);
  std::sort(out.begin(), out.end(),
            [](const Bench* a, const Bench* b) { return a->name < b->name; });
  return out;
}

int run_bench_cli(const std::vector<std::string>& raw_args, std::ostream& out,
                  std::ostream& err) {
  // Peel --metrics-out=FILE before dispatch: it is a cross-bench flag (every
  // registered bench gets a run manifest without re-implementing the
  // plumbing), so the bench's own flag parser must never see it.
  std::string metrics_out;
  std::vector<std::string> args;
  args.reserve(raw_args.size());
  for (const std::string& a : raw_args) {
    constexpr std::string_view kFlag = "--metrics-out=";
    if (a.rfind(kFlag, 0) == 0) {
      metrics_out = a.substr(kFlag.size());
    } else {
      args.push_back(a);
    }
  }

  const BenchRegistry& registry = BenchRegistry::instance();
  if (args.empty() || args[0] == "--list" || args[0] == "list") {
    out << "Registered benches (run with: llsim bench <name> [flags], "
           "--help for each):\n";
    for (const Bench* b : registry.list()) {
      out << "  " << b->name;
      for (std::size_t i = b->name.size(); i < 20; ++i) out << ' ';
      out << b->summary << "\n";
    }
    return 0;
  }
  const Bench* bench = registry.find(args[0]);
  if (!bench) {
    err << "llsim bench: unknown bench '" << args[0]
        << "' (see llsim bench --list)\n";
    return 2;
  }
  const int rc =
      bench->run(std::vector<std::string>(args.begin() + 1, args.end()), out);
  if (rc == 0 && !metrics_out.empty()) {
    obs::MetricRegistry reg;
    TracePoolCache::shared().export_metrics(reg);
    obs::RunManifest manifest;
    manifest.tool = "llsim bench " + args[0];
    manifest.version = obs::current_git_describe();
    manifest.config = {{"bench", args[0]}};
    manifest.metrics = reg.snapshot(0.0);
    std::ofstream file(metrics_out);
    if (!file) {
      throw std::runtime_error("cannot open " + metrics_out +
                               " for writing");
    }
    obs::write_manifest_json(manifest, file);
    out << "wrote run manifest to " << metrics_out << "\n";
  }
  return rc;
}

int bench_main(std::string_view name, int argc, char** argv) {
  const Bench* bench = BenchRegistry::instance().find(name);
  if (!bench) {
    std::cerr << "bench '" << name << "' is not registered\n";
    return 2;
  }
  return bench->run(std::vector<std::string>(argv + 1, argv + argc),
                    std::cout);
}

}  // namespace ll::exp
