#pragma once

/// \file bench_util.hpp
/// Internal helpers shared by the registered benches: the banner, argument
/// parsing (llsim's subcommands use it too), the standard flag set of the
/// engine sweeps (--seed/--reps/--jobs/--csv/--json) and their common emit
/// path (banner + table, or JSON to stdout, or CSV to a file).

#include <cstdint>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "exp/engine.hpp"
#include "exp/result.hpp"
#include "util/flags.hpp"

namespace ll::exp {

/// Prints the standard bench banner: figure id, claim, and the seed, with
/// the reminder that shapes, not absolute values, are the comparison target.
inline void print_banner(std::ostream& out, std::string_view figure,
                         std::string_view claim, std::uint64_t seed) {
  out << "=== " << figure << " ===\n"
      << claim << "\nseed=" << seed
      << " (shapes, not absolute values, are the comparison target)\n\n";
}

struct StandardFlags {
  util::Flags::Handle<std::uint64_t> seed;
  util::Flags::Handle<std::uint64_t> reps;
  util::Flags::Handle<std::uint64_t> jobs;
  util::Flags::Handle<std::string> csv;
  util::Flags::Handle<bool> json;
};

inline StandardFlags add_standard_flags(util::Flags& flags,
                                        std::uint64_t default_reps) {
  return StandardFlags{
      flags.add_uint64("seed", 42, "master RNG seed"),
      flags.add_uint64("reps", default_reps,
                       "replications per cell (means with 95% CIs)"),
      flags.add_uint64(
          "jobs", 0, "worker threads for the sweep (0 = hardware concurrency)"),
      flags.add_string("csv", "", "optional CSV output path"),
      flags.add_bool("json", false,
                     "emit the sweep as JSON instead of a table"),
  };
}

inline void parse_args(util::Flags& flags, const std::string& program,
                       const std::vector<std::string>& args) {
  std::vector<const char*> argv{program.c_str()};
  for (const std::string& a : args) argv.push_back(a.c_str());
  flags.parse(static_cast<int>(argv.size()), argv.data());
}

inline EngineOptions engine_options(const StandardFlags& std_flags) {
  EngineOptions options;
  options.jobs = static_cast<std::size_t>(*std_flags.jobs);
  return options;
}

/// Applies the spec-level standard flags (seed, reps).
inline void apply_standard_flags(ExperimentSpec& spec,
                                 const StandardFlags& std_flags) {
  spec.seed = *std_flags.seed;
  spec.replications = static_cast<std::size_t>(*std_flags.reps);
}

/// Emits the sweep: JSON to `out` when --json, otherwise the banner
/// (figure id + claim + seed) and the ASCII table; --csv=<path> always
/// writes the CSV file in addition.
inline void emit_sweep(const SweepResult& sweep, const StandardFlags& std_flags,
                       std::ostream& out, const std::string& claim) {
  if (!std_flags.csv->empty()) {
    std::ofstream csv(*std_flags.csv, std::ios::trunc);
    if (!csv) {
      throw std::runtime_error("cannot open CSV output " + *std_flags.csv);
    }
    write_csv(sweep, csv);
  }
  if (*std_flags.json) {
    write_json(sweep, out);
    return;
  }
  print_banner(out, sweep.name, claim, sweep.seed);
  out << render_table(sweep);
}

}  // namespace ll::exp
