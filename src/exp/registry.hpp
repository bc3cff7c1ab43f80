#pragma once

/// \file registry.hpp
/// The bench registry: every figure, ablation and extension of the paper's
/// evaluation registers a name, a one-line summary, and an entry point
/// taking (args, out). `llsim bench <name>` is the one way to run them.

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace ll::exp {

struct Bench {
  std::string name;     // e.g. "fig07"
  std::string summary;  // one line for `llsim bench --list`
  std::function<int(const std::vector<std::string>& args, std::ostream& out)>
      run;
};

class BenchRegistry {
 public:
  /// The process-wide registry, pre-populated with the built-in benches.
  static BenchRegistry& instance();

  void add(Bench bench);
  [[nodiscard]] const Bench* find(std::string_view name) const;
  /// All benches, sorted by name.
  [[nodiscard]] std::vector<const Bench*> list() const;

 private:
  std::vector<Bench> benches_;
};

/// `llsim bench` entry: `--list` (or no args) lists the registry; otherwise
/// args[0] names the bench and the rest are its flags, plus `--metrics-out
/// FILE` (or `--metrics-out=FILE`), which any bench accepts. Returns the
/// bench's exit code; 2 on unknown names.
int run_bench_cli(const std::vector<std::string>& args, std::ostream& out,
                  std::ostream& err);

}  // namespace ll::exp
