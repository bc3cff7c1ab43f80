/// \file trace_workbench.cpp
/// Workload-characterization walkthrough (paper §3): generate coarse and
/// fine traces, run the recruitment rule and the two-level analysis
/// pipeline, fit per-utilization hyperexponential burst models, and persist
/// everything to disk in the library's text trace formats.
///
///   ./build/examples/trace_workbench --out-dir=/tmp/ll-traces

#include <cstdio>
#include <filesystem>

#include "trace/coarse_analysis.hpp"
#include "trace/coarse_generator.hpp"
#include "trace/trace_io.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "workload/fine_generator.hpp"
#include "workload/fit.hpp"

int main(int argc, char** argv) {
  using namespace ll;

  util::Flags flags("trace_workbench",
                    "Generate, analyze, and persist workstation traces.");
  auto out_dir = flags.add_string("out-dir", "", "write traces here (optional)");
  auto machines = flags.add_uint64("machines", 8, "machines to synthesize");
  auto seed = flags.add_uint64("seed", 42, "RNG seed");
  flags.parse(argc, argv);

  // --- coarse level -------------------------------------------------------
  trace::CoarseGenConfig gen;  // one full day per machine
  const auto pool = trace::generate_machine_pool(
      gen, static_cast<std::size_t>(*machines), rng::Stream(*seed));
  const auto stats = trace::analyze_coarse(pool);
  std::printf("Coarse level (%llu machines x 1 day, 2 s samples):\n",
              static_cast<unsigned long long>(*machines));
  std::printf("  non-idle fraction            %5.1f%%   (paper: ~46%%)\n",
              stats.nonidle_fraction * 100);
  std::printf("  non-idle time below 10%% cpu %5.1f%%   (paper: ~76%%)\n",
              stats.nonidle_below_10pct * 100);
  std::printf("  mean cpu: overall %.1f%%, idle %.1f%%, non-idle %.1f%%\n",
              stats.mean_cpu_overall * 100, stats.mean_cpu_idle * 100,
              stats.mean_cpu_nonidle * 100);
  std::printf("  mean episode: idle %.0f s, non-idle %.0f s\n\n",
              stats.mean_idle_episode, stats.mean_nonidle_episode);

  const auto mem = trace::memory_availability(pool);
  std::printf("Free memory (64 MB machines):\n");
  for (double mb : {8.0, 10.0, 14.0, 20.0, 32.0}) {
    std::printf("  >= %4.0f MB free for %5.1f%% of time\n", mb,
                trace::fraction_with_at_least(mem.all_kb, mb * 1024) * 100);
  }

  // --- fine level ---------------------------------------------------------
  std::printf("\nFine level: dispatch-trace synthesis + 21-level H2 re-fit\n");
  const auto& truth = workload::default_burst_table();
  util::Table fit_table({"target util", "run mean (ms)", "fitted (ms)",
                         "idle mean (ms)", "fitted (ms)"});
  std::vector<trace::FineTrace> fines;
  for (double u : {0.1, 0.3, 0.5, 0.7}) {
    fines.push_back(
        workload::generate_fine_trace(truth, u, 4000.0, rng::Stream(*seed + 1)));
    const auto analysis = workload::analyze_fine_trace(fines.back());
    const auto fitted = analysis.to_table();
    const auto level =
        static_cast<std::size_t>(u * (workload::kUtilizationLevels - 1) + 0.5);
    fit_table.add_row({util::percent(u, 0),
                       util::fixed(truth.level(level).run_mean * 1e3, 1),
                       util::fixed(fitted.level(level).run_mean * 1e3, 1),
                       util::fixed(truth.level(level).idle_mean * 1e3, 1),
                       util::fixed(fitted.level(level).idle_mean * 1e3, 1)});
  }
  std::printf("%s", fit_table.render().c_str());

  // --- persistence --------------------------------------------------------
  if (!out_dir->empty()) {
    std::filesystem::create_directories(*out_dir);
    for (std::size_t m = 0; m < pool.size(); ++m) {
      trace::save_coarse(pool[m],
                         *out_dir + "/machine" + std::to_string(m) + ".coarse");
    }
    for (std::size_t f = 0; f < fines.size(); ++f) {
      trace::save_fine(fines[f],
                       *out_dir + "/dispatch" + std::to_string(f) + ".fine");
    }
    // Round-trip sanity: reload the first coarse trace.
    const auto back = trace::load_coarse(*out_dir + "/machine0.coarse");
    std::printf("\nwrote %zu coarse + %zu fine traces to %s "
                "(round-trip check: %zu samples)\n",
                pool.size(), fines.size(), out_dir->c_str(), back.size());
  }
  return 0;
}
