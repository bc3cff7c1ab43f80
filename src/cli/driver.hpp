#pragma once

/// \file driver.hpp
/// The `llsim` command-line driver, as a library so every code path is unit
/// testable. The thin binary in tools/llsim.cpp just forwards to run_cli().
///
/// Subcommands:
///   llsim traces   --machines N --days D --out DIR      synthesize traces
///   llsim analyze  --dir DIR                            §3.2 stats + memory
///   llsim fit      --fine FILE --out TABLE              burst table from a
///                                                       dispatch trace
///   llsim cluster  --policy LL|LF|IE|PM|LL-oracle ...   sequential-job runs
///   llsim parallel --policy reconfigure|fixed-linger|hybrid ...
///                                                       parallel-job runs
///
/// Every subcommand accepts --help and --seed. Trace directories use the
/// text formats of trace/trace_io.hpp; burst tables those of
/// workload/table_io.hpp.

#include <iosfwd>
#include <optional>
#include <string_view>
#include <vector>

#include "parallel/parallel_cluster.hpp"

namespace ll::cli {

/// Runs the driver. `args` excludes the program name (subcommand first).
/// Output goes to `out`, diagnostics to `err`. Returns a process exit code.
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

/// Parses a parallel width-policy name.
[[nodiscard]] std::optional<parallel::WidthPolicy> parse_width_policy(
    std::string_view name);

}  // namespace ll::cli
