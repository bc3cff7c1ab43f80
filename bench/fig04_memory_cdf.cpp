/// \file fig04_memory_cdf.cpp
/// Paper Figure 4: distribution of available (free) physical memory on
/// 64 MB workstations, overall and split by idle/non-idle state. The paper's
/// anchors: >= 14 MB free 90% of the time, >= 10 MB free 95% of the time,
/// and no significant idle/non-idle difference — enough headroom for one
/// moderate compute-bound foreign job.

#include <cstdio>

#include "common.hpp"
#include "exp/pool_cache.hpp"
#include "trace/coarse_analysis.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ll;

  util::Flags flags("fig04_memory_cdf", "Available-memory distribution.");
  auto seed = flags.add_uint64("seed", 42, "RNG seed");
  auto machines = flags.add_uint64("machines", 32, "machines in the pool");
  auto days = flags.add_double("days", 2.0, "trace days per machine");
  auto csv_path = flags.add_string("csv", "", "optional CSV output path");
  flags.parse(argc, argv);

  benchx::banner("Figure 4: distribution of available memory",
                 "Paper: >=14 MB free 90% of time, >=10 MB free 95% of time "
                 "(64 MB machines);\nidle and non-idle distributions nearly "
                 "coincide.",
                 *seed);

  const auto pool = exp::TracePoolCache::shared().standard(
      static_cast<std::size_t>(*machines), *days * 24.0, *seed);
  const auto mem = trace::memory_availability(*pool);

  util::CsvWriter csv(*csv_path);
  csv.row({"free_mb", "all", "idle", "nonidle"});

  util::Table out({"free >= (MB)", "all time", "idle windows", "non-idle windows"});
  for (double mb : {4.0, 8.0, 10.0, 14.0, 18.0, 22.0, 26.0, 30.0, 36.0, 42.0,
                    48.0}) {
    const double all = trace::fraction_with_at_least(mem.all_kb, mb * 1024);
    const double idle = trace::fraction_with_at_least(mem.idle_kb, mb * 1024);
    const double nonidle =
        trace::fraction_with_at_least(mem.nonidle_kb, mb * 1024);
    out.add_row({util::fixed(mb, 0), util::percent(all, 1),
                 util::percent(idle, 1), util::percent(nonidle, 1)});
    csv.row({util::fixed(mb, 0), util::fixed(all, 4), util::fixed(idle, 4),
             util::fixed(nonidle, 4)});
  }
  std::printf("%s", out.render().c_str());

  std::printf("\npaper anchors: >=14 MB @ 90%% -> measured %s;  "
              ">=10 MB @ 95%% -> measured %s\n",
              util::percent(trace::fraction_with_at_least(mem.all_kb, 14 * 1024), 1)
                  .c_str(),
              util::percent(trace::fraction_with_at_least(mem.all_kb, 10 * 1024), 1)
                  .c_str());
  return 0;
}
