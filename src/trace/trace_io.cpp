#include "trace/trace_io.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace ll::trace {
namespace {

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  return out;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  return in;
}

/// Shortest sample period a coarse trace file may declare. A cluster run
/// re-rates every node once per sample, so a period of 1e-300 s would keep
/// it ticking without end.
constexpr double kMinPeriod = 1e-3;

/// The header's period: the whole token must be one finite number of at
/// least kMinPeriod seconds.
double parse_period(const std::string& token) {
  std::istringstream in(token);
  double period = 0.0;
  if (!(in >> period) || !(in >> std::ws).eof() || !std::isfinite(period) ||
      period < kMinPeriod) {
    throw std::runtime_error("coarse trace: bad period '" + token + "'");
  }
  return period;
}

}  // namespace

void save_coarse(const CoarseTrace& trace, std::ostream& out) {
  out << "# ll-coarse-trace v1 period=" << trace.period() << "\n";
  for (const CoarseSample& s : trace.samples()) {
    out << s.cpu << ' ' << s.mem_free_kb << ' ' << (s.keyboard ? 1 : 0) << '\n';
  }
}

void save_coarse(const CoarseTrace& trace, const std::string& path) {
  auto out = open_out(path);
  save_coarse(trace, out);
}

CoarseTrace load_coarse(std::istream& in) {
  std::string header;
  if (!std::getline(in, header)) {
    throw std::runtime_error("coarse trace: empty input");
  }
  const std::string magic = "# ll-coarse-trace v1 period=";
  if (header.rfind(magic, 0) != 0) {
    throw std::runtime_error("coarse trace: bad header '" + header + "'");
  }
  CoarseTrace trace(parse_period(header.substr(magic.size())));
  std::string line;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    double cpu = 0.0;
    std::int32_t mem = 0;
    int kb = 0;
    if (!(fields >> cpu >> mem >> kb) || (kb != 0 && kb != 1)) {
      throw std::runtime_error("coarse trace: malformed line " +
                               std::to_string(line_no) + ": '" + line + "'");
    }
    trace.push(CoarseSample{cpu, mem, kb == 1});
  }
  return trace;
}

CoarseTrace load_coarse(const std::string& path) {
  auto in = open_in(path);
  return load_coarse(in);
}

void save_fine(const FineTrace& trace, std::ostream& out) {
  out << "# ll-fine-trace v1\n";
  for (const Burst& b : trace.bursts()) {
    out << (b.kind == BurstKind::Run ? 'R' : 'I') << ' ' << b.duration << '\n';
  }
}

void save_fine(const FineTrace& trace, const std::string& path) {
  auto out = open_out(path);
  save_fine(trace, out);
}

FineTrace load_fine(std::istream& in) {
  std::string header;
  if (!std::getline(in, header) || header.rfind("# ll-fine-trace v1", 0) != 0) {
    throw std::runtime_error("fine trace: bad or missing header");
  }
  FineTrace trace;
  std::string line;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    char kind = 0;
    double duration = 0.0;
    if (!(fields >> kind >> duration) || (kind != 'R' && kind != 'I') ||
        duration < 0.0) {
      throw std::runtime_error("fine trace: malformed line " +
                               std::to_string(line_no) + ": '" + line + "'");
    }
    trace.push(kind == 'R' ? BurstKind::Run : BurstKind::Idle, duration);
  }
  return trace;
}

FineTrace load_fine(const std::string& path) {
  auto in = open_in(path);
  return load_fine(in);
}

}  // namespace ll::trace
