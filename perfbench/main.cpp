// llbench — the benchmark's measuring program.
//
//   llbench --workload NAME --seed N --seconds S --trace 0|1
//           [--smoke] [--trace-out FILE]
//
// --trace 0 runs the workload's fixed op set untraced and prints the
// end-to-end metrics; --trace 1 runs it untraced and then traced (same
// seed, same ops) and prints the per-layer metrics, writing the traced
// run's Chrome trace to --trace-out. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace llbench;

// Digests of the first ops' outputs at kDefaultSeed (the smoke run's ops).
// They change only when the simulator's results change.
const std::vector<Workload> kWorkloads = {
    {"paper_sweep", run_paper_sweep, 0xfe93a2ed90948ba6ULL},
    {"cluster_scale", run_cluster_scale, 0x105c3f9d546b4d1bULL},
    {"sharded_scale", run_sharded_scale, 0x814743138400ef8bULL},
    {"serve_mix", run_serve_mix, 0xcb00917e0ce660aeULL},
};

/// Setups per untraced run; setup_s is their median.
constexpr std::size_t kSetupReps = 3;

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kLayerMetrics[] = {
    {"trace.pool_build_ms", "ms"},
    {"trace.pool_builds", "count"},
    {"trace.pool_hits", "count"},
    {"des.scheduled", "count"},
    {"des.fired", "count"},
    {"des.cancelled", "count"},
    {"des.fired_share", "ratio"},
    {"des.queue_ms", "ms"},
    {"cluster.tick_ms", "ms"},
    {"cluster.completion_ms", "ms"},
    {"cluster.recheck_ms", "ms"},
    {"cluster.migration_ms", "ms"},
    {"cluster.migrations", "count"},
    {"shard.windows", "count"},
    {"shard.window_ms", "ms"},
    {"shard.advance_ms", "ms"},
    {"shard.drain_ms", "ms"},
    {"shard.barrier_wait_ms", "ms"},
    {"shard.max_barrier_wait_ms", "ms"},
    {"shard.mailbox_sent", "count"},
    {"shard.mailbox_delivered", "count"},
    {"shard.empty_windows", "count"},
    {"runner.tasks", "count"},
    {"runner.steals", "count"},
    {"runner.suspensions", "count"},
    {"runner.suspend_ms", "ms"},
    {"exp.busy_share", "ratio"},
    {"serve.hit_ratio", "ratio"},
    {"serve.hit_rtt_ms", "ms"},
    {"serve.miss_rtt_ms", "ms"},
    {"serve.simulate_ms", "ms"},
    {"serve.queue_ms", "ms"},
    {"serve.batches", "count"},
    {"serve.batch_mean", "count"},
    {"serve.rejected", "count"},
    {"serve.errors", "count"},
    {"obs.trace_overhead", "ratio"},
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "llbench: " << message
            << "\nusage: llbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--trace-out FILE]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + std::string(arg));
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (arg == "--trace-out") {
        o.trace_out = value;
      } else {
        usage("unknown flag " + std::string(arg));
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(arg) + ": " + value);
    }
  }
  if (!(o.seconds > 0.0 && o.seconds <= 600.0)) usage("--seconds out of range");
  return o;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<std::pair<Metric, double>>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [m, v] = metrics[i];
    out += (i ? ", \"" : "\"") + std::string(m.name) + "\": {\"value\": " +
           number(v) + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::cout << out << "}}" << std::endl;
}

/// The pass's problems plus the pinned-digest check.
std::vector<std::string> check_pinned(const Workload& w, const Options& o,
                                      const Pass& pass) {
  std::vector<std::string> problems = pass.problems;
  if (o.seed == kDefaultSeed && pass.pinned_digest != w.pinned) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s: pinned-prefix digest %016llx, expected %016llx",
                  w.name, static_cast<unsigned long long>(pass.pinned_digest),
                  static_cast<unsigned long long>(w.pinned));
    problems.emplace_back(buf);
  }
  return problems;
}

void report_problems(const std::vector<std::string>& problems) {
  for (const std::string& p : problems) {
    std::cerr << "check failed: " << p << "\n";
  }
}

int run(const Workload& w, const Options& o) {
  if (!o.trace) {
    const Pass pass = w.run(o, kSetupReps, nullptr);
    const std::vector<std::string> problems = check_pinned(w, o, pass);
    report_problems(problems);
    const bool any = !pass.op_ms.empty();
    const Tail t = any ? tail(pass.op_ms) : Tail{};
    std::printf("# %s seed=%llu ops=%zu failed=%zu tail_ms=p%.2f of %zu ops "
                "(%zu beyond) digest=%016llx pinned=%016llx\n",
                w.name, static_cast<unsigned long long>(o.seed),
                pass.attempted, pass.failed, t.percentile, pass.op_ms.size(),
                t.beyond, static_cast<unsigned long long>(pass.digest),
                static_cast<unsigned long long>(pass.pinned_digest));
    print_result(
        problems.empty() && pass.failed == 0, pass.attempted, pass.failed,
        {{{"setup_s", "s"}, median(pass.setup_s)},
         {{"wall_s", "s"}, pass.wall_s},
         {{"p50_ms", "ms"}, median_or_zero(pass.op_ms)},
         {{"tail_ms", "ms"}, t.value},
         {{"ok_per_s", "1/s"},
          static_cast<double>(pass.op_ms.size()) / pass.wall_s},
         {{"peak_rss_mb", "MiB"}, pass.peak_rss_mb}});
    return 0;
  }

  const Pass plain = w.run(o, 1, nullptr);
  obs::Tracer tracer(kTraceRing);
  const Pass traced = w.run(o, 1, &tracer);
  std::vector<std::string> problems = check_pinned(w, o, plain);
  for (const std::string& p : traced.problems) problems.push_back(p);
  if (plain.digest != traced.digest) {
    problems.emplace_back(std::string(w.name) +
                          ": outputs differ between the untraced and traced "
                          "runs");
  }
  if (!o.trace_out.empty()) {
    std::ofstream file(o.trace_out, std::ios::trunc);
    tracer.write_chrome_json(file);
    if (!file) problems.push_back("cannot write " + o.trace_out);
  }
  report_problems(problems);
  std::printf("# %s seed=%llu traced ops=%zu digest=%016llx spans=%llu "
              "dropped=%llu\n",
              w.name, static_cast<unsigned long long>(o.seed),
              traced.attempted, static_cast<unsigned long long>(traced.digest),
              static_cast<unsigned long long>(tracer.recorded()),
              static_cast<unsigned long long>(tracer.dropped()));
  Layers layers = traced.layers;
  layers["obs.trace_overhead"] = traced.wall_s / plain.wall_s;
  std::vector<std::pair<Metric, double>> metrics;
  for (const Metric& m : kLayerMetrics) {
    const auto it = layers.find(m.name);
    metrics.emplace_back(m, it == layers.end() ? 0.0 : it->second);
  }
  const std::size_t failed = plain.failed + traced.failed;
  print_result(problems.empty() && failed == 0,
               plain.attempted + traced.attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  for (const Workload& w : kWorkloads) {
    if (options.workload != w.name) continue;
    try {
      return run(w, options);
    } catch (const std::exception& e) {
      std::cerr << "llbench: " << w.name << ": " << e.what() << "\n";
      return 1;
    }
  }
  usage("unknown workload '" + options.workload + "'");
}
