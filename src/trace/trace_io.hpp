#pragma once

/// \file trace_io.hpp
/// Text serialization of fine and coarse traces.
///
/// Formats are line-oriented and self-describing so traces can be inspected,
/// diffed and re-plotted with standard tools:
///
/// Coarse:  "# ll-coarse-trace v1 period=<seconds>"
///          one line per sample: "<cpu> <mem_free_kb> <kb 0|1>"
///          (load_coarse refuses a period that is not one finite number of
///          at least 1 ms)
/// Fine:    "# ll-fine-trace v1"
///          one line per burst: "<R|I> <duration-seconds>"

#include <iosfwd>
#include <string>

#include "trace/records.hpp"

namespace ll::trace {

void save_coarse(const CoarseTrace& trace, std::ostream& out);
void save_coarse(const CoarseTrace& trace, const std::string& path);
[[nodiscard]] CoarseTrace load_coarse(std::istream& in);
[[nodiscard]] CoarseTrace load_coarse(const std::string& path);

void save_fine(const FineTrace& trace, std::ostream& out);
void save_fine(const FineTrace& trace, const std::string& path);
[[nodiscard]] FineTrace load_fine(std::istream& in);
[[nodiscard]] FineTrace load_fine(const std::string& path);

}  // namespace ll::trace
