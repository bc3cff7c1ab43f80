/// \file sec32_coarse_stats.cpp
/// Paper §3.2 (text statistics): how often workstations are non-idle under
/// the recruitment rule, and how lightly loaded non-idle time actually is —
/// the observations motivating fine-grain cycle stealing.

#include <cstdio>

#include "common.hpp"
#include "exp/pool_cache.hpp"
#include "trace/coarse_analysis.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ll;

  util::Flags flags("sec32_coarse_stats",
                    "Coarse-grain workstation availability statistics.");
  auto seed = flags.add_uint64("seed", 42, "RNG seed");
  auto machines = flags.add_uint64("machines", 32, "machines in the pool");
  auto days = flags.add_double("days", 2.0, "trace days per machine");
  auto csv_path = flags.add_string("csv", "", "optional CSV output path");
  flags.parse(argc, argv);

  benchx::banner("Section 3.2: coarse-grain availability statistics",
                 "Paper: 46% of time non-idle; 76% of non-idle time below 10% "
                 "CPU;\nidle-state CPU is the destination load 'l' of the "
                 "linger cost model.",
                 *seed);

  const auto pool = exp::TracePoolCache::shared().standard(
      static_cast<std::size_t>(*machines), *days * 24.0, *seed);
  const auto stats = trace::analyze_coarse(*pool);

  util::Table out({"metric", "paper", "measured"});
  out.add_row({"non-idle fraction of time", "46%",
               util::percent(stats.nonidle_fraction, 1)});
  out.add_row({"non-idle time below 10% cpu", "76%",
               util::percent(stats.nonidle_below_10pct, 1)});
  out.add_row({"mean cpu, overall", "-",
               util::percent(stats.mean_cpu_overall, 1)});
  out.add_row({"mean cpu, idle state (l)", "-",
               util::percent(stats.mean_cpu_idle, 1)});
  out.add_row({"mean cpu, non-idle state (h)", "-",
               util::percent(stats.mean_cpu_nonidle, 1)});
  out.add_row({"mean idle episode", "-",
               util::format("%.0f s", stats.mean_idle_episode)});
  out.add_row({"mean non-idle episode", "-",
               util::format("%.0f s", stats.mean_nonidle_episode)});
  std::printf("%s", out.render().c_str());

  util::CsvWriter csv(*csv_path);
  csv.row({"metric", "value"});
  csv.row({"nonidle_fraction", util::fixed(stats.nonidle_fraction, 4)});
  csv.row({"nonidle_below_10pct", util::fixed(stats.nonidle_below_10pct, 4)});
  csv.row({"mean_cpu_overall", util::fixed(stats.mean_cpu_overall, 4)});
  csv.row({"mean_cpu_idle", util::fixed(stats.mean_cpu_idle, 4)});
  csv.row({"mean_cpu_nonidle", util::fixed(stats.mean_cpu_nonidle, 4)});

  std::printf("\nsamples analyzed: %zu (%llu machines x %.1f days)\n",
              stats.sample_count, static_cast<unsigned long long>(*machines),
              *days);
  return 0;
}
