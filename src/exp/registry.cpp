#include "exp/registry.hpp"

#include <algorithm>
#include <fstream>
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
    register_workload_benches(*r);
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
  // Peel --metrics-out FILE (or --metrics-out=FILE, the two forms
  // util::Flags accepts) before dispatch: it is a cross-bench flag (every
  // registered bench gets a run manifest without re-implementing the
  // plumbing), so the bench's own flag parser must never see it.
  std::string metrics_out;
  std::vector<std::string> args;
  args.reserve(raw_args.size());
  for (std::size_t i = 0; i < raw_args.size(); ++i) {
    constexpr std::string_view kFlag = "--metrics-out=";
    const std::string& a = raw_args[i];
    if (a == "--metrics-out") {
      if (i + 1 == raw_args.size()) {
        throw std::invalid_argument("flag --metrics-out expects a value");
      }
      metrics_out = raw_args[++i];
    } else if (a.rfind(kFlag, 0) == 0) {
      metrics_out = a.substr(kFlag.size());
    } else {
      args.push_back(a);
    }
  }

  const BenchRegistry& registry = BenchRegistry::instance();
  if (args.empty() || args[0] == "--list" || args[0] == "list") {
    out << "Registered benches (run with: llsim bench <name> [flags], "
           "--help for each):\n";
    const std::vector<const Bench*> benches = registry.list();
    std::size_t width = 0;
    for (const Bench* b : benches) width = std::max(width, b->name.size());
    for (const Bench* b : benches) {
      out << "  " << b->name << std::string(width + 2 - b->name.size(), ' ')
          << b->summary << "\n";
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

}  // namespace ll::exp
