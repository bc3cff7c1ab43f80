#include "fault/fault_spec.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "rng/distributions.hpp"
#include "util/table.hpp"

namespace ll::fault {
namespace {

// A view, so a passing check allocates nothing.
void require(bool ok, std::string_view message) {
  if (!ok) throw std::invalid_argument("FaultSpec: " + std::string(message));
}

/// Distinct node indices, `fraction` of the cluster (at least one node),
/// drawn by partial Fisher-Yates and returned ascending so the compiled
/// timeline is readable and order-independent of the draw.
std::vector<std::size_t> draw_node_set(double fraction, std::size_t node_count,
                                       rng::Stream& stream) {
  auto want = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(node_count) - 1e-12));
  want = std::clamp<std::size_t>(want, 1, node_count);
  std::vector<std::size_t> indices(node_count);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  for (std::size_t i = 0; i < want; ++i) {
    const auto j = i + stream.uniform_index(node_count - i);
    std::swap(indices[i], indices[j]);
  }
  indices.resize(want);
  std::sort(indices.begin(), indices.end());
  return indices;
}

}  // namespace

ArrivalProcess ArrivalProcess::exponential(double rate) {
  ArrivalProcess out;
  out.kind = Kind::Exponential;
  out.rate = rate;
  return out;
}

ArrivalProcess ArrivalProcess::hyperexp2(double p, double rate1, double rate2) {
  ArrivalProcess out;
  out.kind = Kind::HyperExp2;
  out.p = p;
  out.rate1 = rate1;
  out.rate2 = rate2;
  return out;
}

ArrivalProcess ArrivalProcess::fixed(std::vector<double> times) {
  ArrivalProcess out;
  out.kind = Kind::Fixed;
  out.times = std::move(times);
  return out;
}

bool ArrivalProcess::empty() const {
  return kind == Kind::None || (kind == Kind::Fixed && times.empty());
}

void ArrivalProcess::validate(std::string_view what) const {
  const std::string where(what);
  switch (kind) {
    case Kind::None:
      return;
    case Kind::Exponential:
      require(std::isfinite(rate) && rate > 0.0,
              where + " arrival rate must be > 0");
      return;
    case Kind::HyperExp2:
      require(p >= 0.0 && p <= 1.0, where + " arrival p must be in [0, 1]");
      require(std::isfinite(rate1) && rate1 > 0.0 && std::isfinite(rate2) &&
                  rate2 > 0.0,
              where + " arrival rates must be > 0");
      return;
    case Kind::Fixed:
      for (double t : times) {
        require(std::isfinite(t) && t >= 0.0,
                where + " fixed arrival times must be finite and >= 0");
      }
      return;
  }
  throw std::logic_error("ArrivalProcess: unknown kind");
}

std::vector<double> ArrivalProcess::draw(double horizon,
                                         rng::Stream& stream) const {
  std::vector<double> out;
  switch (kind) {
    case Kind::None:
      break;
    case Kind::Exponential: {
      const rng::Exponential gap(rate);
      for (double t = gap.sample(stream); t < horizon; t += gap.sample(stream)) {
        out.push_back(t);
      }
      break;
    }
    case Kind::HyperExp2: {
      const rng::HyperExp2 gap(p, rate1, rate2);
      for (double t = gap.sample(stream); t < horizon; t += gap.sample(stream)) {
        out.push_back(t);
      }
      break;
    }
    case Kind::Fixed:
      for (double t : times) {
        if (t < horizon) out.push_back(t);
      }
      std::sort(out.begin(), out.end());
      break;
  }
  return out;
}

double ArrivalProcess::expected_count(double horizon) const {
  switch (kind) {
    case Kind::None:
      return 0.0;
    case Kind::Exponential:
      return rate * horizon;
    case Kind::HyperExp2:
      return horizon / (p / rate1 + (1.0 - p) / rate2);
    case Kind::Fixed:
      return static_cast<double>(std::count_if(
          times.begin(), times.end(), [horizon](double t) { return t < horizon; }));
  }
  throw std::logic_error("ArrivalProcess: unknown kind");
}

bool FaultSpec::empty() const {
  return crash.arrivals.empty() && storm.arrivals.empty() &&
         pressure.arrivals.empty() && link.drop_probability == 0.0;
}

void FaultSpec::validate() const {
  crash.arrivals.validate("crash");
  storm.arrivals.validate("storm");
  pressure.arrivals.validate("pressure");
  require(std::isfinite(horizon) && horizon > 0.0, "horizon must be > 0");
  for (const auto& [what, arrivals] :
       {std::pair{"crash", &crash.arrivals}, std::pair{"storm", &storm.arrivals},
        std::pair{"pressure", &pressure.arrivals}}) {
    const double expected = arrivals->expected_count(horizon);
    if (!(expected <= kMaxExpectedArrivals)) {
      throw std::invalid_argument(util::format(
          "FaultSpec: %s arrivals expect %.3g events over the %g-s horizon "
          "(at most %.0e)",
          what, expected, horizon, kMaxExpectedArrivals));
    }
  }
  require(std::isfinite(crash.mean_downtime) && crash.mean_downtime > 0.0,
          "crash mean_downtime must be > 0");
  require(link.drop_probability >= 0.0 && link.drop_probability < 1.0,
          "link drop_probability must be in [0, 1)");
  require(std::isfinite(link.retry_backoff) && link.retry_backoff >= 0.0,
          "link retry_backoff must be >= 0");
  require(storm.node_fraction > 0.0 && storm.node_fraction <= 1.0,
          "storm node_fraction must be in (0, 1]");
  require(std::isfinite(storm.duration) && storm.duration > 0.0,
          "storm duration must be > 0");
  require(storm.utilization >= 0.0 && storm.utilization <= 1.0,
          "storm utilization must be in [0, 1]");
  require(pressure.node_fraction > 0.0 && pressure.node_fraction <= 1.0,
          "pressure node_fraction must be in (0, 1]");
  require(std::isfinite(pressure.duration) && pressure.duration > 0.0,
          "pressure duration must be > 0");
  require(pressure.extra_kb > 0, "pressure extra_kb must be > 0");
}

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::NodeCrash:
      return "crash";
    case FaultKind::Storm:
      return "storm";
    case FaultKind::Pressure:
      return "pressure";
  }
  throw std::logic_error("to_string: unknown FaultKind");
}

FaultSchedule FaultSchedule::compile(const FaultSpec& spec,
                                     std::size_t node_count,
                                     rng::Stream stream) {
  spec.validate();
  if (node_count == 0) {
    throw std::invalid_argument("FaultSchedule: node_count must be > 0");
  }
  FaultSchedule out;
  out.spec_ = spec;

  if (!spec.crash.arrivals.empty()) {
    rng::Stream s = stream.fork("crash");
    for (double t : spec.crash.arrivals.draw(spec.horizon, s)) {
      FaultEvent ev;
      ev.time = t;
      ev.kind = FaultKind::NodeCrash;
      ev.nodes = {static_cast<std::size_t>(s.uniform_index(node_count))};
      ev.duration = spec.crash.exponential_downtime
                        ? rng::Exponential(1.0 / spec.crash.mean_downtime)
                              .sample(s)
                        : spec.crash.mean_downtime;
      out.events_.push_back(std::move(ev));
    }
  }
  if (!spec.storm.arrivals.empty()) {
    rng::Stream s = stream.fork("storm");
    for (double t : spec.storm.arrivals.draw(spec.horizon, s)) {
      FaultEvent ev;
      ev.time = t;
      ev.kind = FaultKind::Storm;
      ev.nodes = draw_node_set(spec.storm.node_fraction, node_count, s);
      ev.duration = spec.storm.duration;
      out.events_.push_back(std::move(ev));
    }
  }
  if (!spec.pressure.arrivals.empty()) {
    rng::Stream s = stream.fork("pressure");
    for (double t : spec.pressure.arrivals.draw(spec.horizon, s)) {
      FaultEvent ev;
      ev.time = t;
      ev.kind = FaultKind::Pressure;
      ev.nodes = draw_node_set(spec.pressure.node_fraction, node_count, s);
      ev.duration = spec.pressure.duration;
      out.events_.push_back(std::move(ev));
    }
  }
  // Stable: same-time events keep category order (crash < storm < pressure),
  // which the compile order above fixed deterministically.
  std::stable_sort(
      out.events_.begin(), out.events_.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.time < b.time; });
  return out;
}

void FaultSchedule::write_timeline(std::ostream& out) const {
  util::Table table({"time (s)", "fault", "nodes", "duration (s)"});
  for (const FaultEvent& ev : events_) {
    std::string nodes;
    for (std::size_t i = 0; i < ev.nodes.size(); ++i) {
      if (i > 0) nodes += ",";
      if (i == 8 && ev.nodes.size() > 9) {
        nodes += util::format("… (%zu total)", ev.nodes.size());
        break;
      }
      nodes += std::to_string(ev.nodes[i]);
    }
    table.add_row({util::fixed(ev.time, 1), std::string(to_string(ev.kind)),
                   nodes, util::fixed(ev.duration, 1)});
  }
  out << table.render();
  if (spec_.link.drop_probability > 0.0) {
    out << util::format(
        "link faults: drop probability %.2f per transfer, %zu retries, "
        "%.1f s backoff\n",
        spec_.link.drop_probability, spec_.link.max_retries,
        spec_.link.retry_backoff);
  }
}

}  // namespace ll::fault
