#pragma once

/// \file fault_spec.hpp
/// Declarative fault-injection plans and their compiled, seed-stable
/// timelines.
///
/// The paper models only the benign availability story: owners return,
/// guests linger/pause/migrate, nodes never fail and the migration network
/// never drops a transfer. This subsystem layers the malign cases on top —
/// node crash + recovery, transient migration-link failures, owner
/// "reclamation storms" that force many simultaneous evictions, and
/// memory-pressure spikes that shrink the donated page pool — without
/// touching the DES core.
///
/// Determinism contract: a FaultSpec is *compiled* into a FaultSchedule —
/// every arrival time, crashed-node index, downtime and storm membership is
/// pre-drawn from a dedicated rng sub-stream at compile time, so the same
/// (spec, node_count, stream) always yields the identical timeline no matter
/// what the simulator does with it. Only migration-link drops are drawn
/// lazily (they depend on how many transfers the run attempts); they consume
/// a separate stream the simulator forks for exactly that purpose.
///
/// An empty spec compiles to an empty schedule: zero events, zero stream
/// draws, zero behavioral footprint. The golden-digest suite pins that a
/// fault-free configuration is bit-for-bit identical to a build without the
/// fault layer attached.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "rng/rng.hpp"

namespace ll::fault {

/// When fault events of one category occur. Arrivals are cluster-wide; the
/// compiler draws per-event details (which node, how long) separately.
struct ArrivalProcess {
  enum class Kind : std::uint8_t {
    None,         ///< the category is disabled
    Exponential,  ///< Poisson arrivals at `rate` per second
    HyperExp2,    ///< bursty arrivals: H2(p, rate1, rate2) inter-arrival gaps
    Fixed,        ///< explicit times (trace-positioned injection)
  };

  Kind kind = Kind::None;
  double rate = 0.0;                      // Exponential
  double p = 1.0, rate1 = 0.0, rate2 = 0.0;  // HyperExp2
  std::vector<double> times;              // Fixed

  [[nodiscard]] static ArrivalProcess none() { return {}; }
  [[nodiscard]] static ArrivalProcess exponential(double rate);
  [[nodiscard]] static ArrivalProcess hyperexp2(double p, double rate1,
                                                double rate2);
  [[nodiscard]] static ArrivalProcess fixed(std::vector<double> times);

  /// True when the process can never produce an event.
  [[nodiscard]] bool empty() const;

  /// Throws std::invalid_argument naming `what` on nonsensical parameters
  /// (non-positive rates, p outside [0,1], negative/non-finite fixed times).
  void validate(std::string_view what) const;

  /// Draws the sorted arrival times in [0, horizon). Deterministic in
  /// (spec, stream); an empty process returns no times and consumes no draws.
  [[nodiscard]] std::vector<double> draw(double horizon,
                                         rng::Stream& stream) const;

  /// Mean number of arrivals in [0, horizon): rate x horizon for the
  /// random kinds, the count of fixed times below the horizon otherwise.
  [[nodiscard]] double expected_count(double horizon) const;
};

/// Whole-node crashes. Each arrival picks a victim uniformly at random; the
/// node is unusable for an exponential (or fixed) downtime, then recovers.
struct CrashSpec {
  ArrivalProcess arrivals;
  double mean_downtime = 120.0;
  /// Exponential downtimes (mean above) when true, fixed otherwise.
  bool exponential_downtime = true;
};

/// Transient migration-link failures: each completed transfer is dropped
/// with `drop_probability`, retried after a backoff up to `max_retries`
/// times while the destination slot stays reserved, then fails outright
/// (the job restarts from its last checkpoint via the queue).
struct LinkFaultSpec {
  double drop_probability = 0.0;  // [0, 1)
  std::size_t max_retries = 3;
  double retry_backoff = 5.0;  // seconds added before each re-attempt
};

/// Owner reclamation storms: a random `node_fraction` of the cluster turns
/// non-idle simultaneously at `utilization` for `duration` seconds — the
/// coordinated-return worst case for lingering policies.
struct StormSpec {
  ArrivalProcess arrivals;
  double node_fraction = 0.5;  // (0, 1]
  double duration = 300.0;
  double utilization = 0.9;  // forced owner CPU during the storm
};

/// Memory-pressure spikes: the owner working set on a random `node_fraction`
/// of nodes grows by `extra_kb` for `duration` seconds, shrinking the page
/// pool donated to foreign jobs (their progress degrades via the memory
/// model, exactly as a real owner launching a large application would).
struct PressureSpec {
  ArrivalProcess arrivals;
  double node_fraction = 1.0;  // (0, 1]
  double duration = 600.0;
  std::uint32_t extra_kb = 32768;
};

/// The complete declarative fault plan for one run.
struct FaultSpec {
  CrashSpec crash;
  LinkFaultSpec link;
  StormSpec storm;
  PressureSpec pressure;
  /// Timeline horizon: arrivals are drawn in [0, horizon).
  double horizon = 86400.0;

  /// Most arrivals one category may expect over the horizon. The compiled
  /// timeline holds every arrival, so a rate past any real plan (a 1e-4-s
  /// MTBF asks for billions) must be refused before it is drawn.
  static constexpr double kMaxExpectedArrivals = 1e6;

  /// True when the spec can never inject anything: no arrivals in any
  /// category and a zero link-drop probability. Simulators skip stream
  /// forking and event scheduling entirely for empty specs.
  [[nodiscard]] bool empty() const;

  /// Throws std::invalid_argument with a specific message on any
  /// nonsensical parameter, or when a category expects more than
  /// kMaxExpectedArrivals arrivals. Cheap; safe to call unconditionally.
  void validate() const;
};

enum class FaultKind : std::uint8_t { NodeCrash, Storm, Pressure };

[[nodiscard]] std::string_view to_string(FaultKind kind);

/// One pre-drawn timeline entry.
struct FaultEvent {
  double time = 0.0;
  FaultKind kind = FaultKind::NodeCrash;
  /// Crashed node (size 1) or the affected storm/pressure membership set
  /// (distinct, ascending).
  std::vector<std::size_t> nodes;
  double duration = 0.0;  ///< downtime / storm length / spike length
};

/// A compiled, immutable fault timeline. Everything random is drawn at
/// compile time from dedicated sub-streams ("crash", "storm", "pressure" of
/// the stream handed in), so the timeline is a pure function of
/// (spec, node_count, stream seed).
class FaultSchedule {
 public:
  FaultSchedule() = default;

  [[nodiscard]] static FaultSchedule compile(const FaultSpec& spec,
                                             std::size_t node_count,
                                             rng::Stream stream);

  [[nodiscard]] const FaultSpec& spec() const { return spec_; }
  /// Timeline entries sorted by (time, kind insertion order).
  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// Renders the timeline as a human-readable table (`llsim faults`).
  void write_timeline(std::ostream& out) const;

 private:
  FaultSpec spec_;
  std::vector<FaultEvent> events_;
};

}  // namespace ll::fault
