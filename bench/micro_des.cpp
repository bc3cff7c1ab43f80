/// \file micro_des.cpp
/// DES event-queue microbenchmark: the calendar queue against the binary
/// heap it complements, on two operation mixes.
///
///  * Hold model, across pending-set sizes (1k / 100k / 1M by default): a
///    steady population of `pending` events where every fire is replaced by
///    a fresh schedule and every 4th iteration cancels a recently issued id
///    (replacing it only on success, so the population is exactly
///    constant). This is a fire-dominated mix: about 1 schedule in 5 is
///    cancelled. It measures raw push/pop cost at scale. The events/s
///    column counts fires.
///  * Reschedule churn, the mix the cluster engines presented before they
///    armed only completions that land by the next sample: each 2-s
///    owner-activity sample cancelled and re-armed every running job's
///    far-future completion event, and only ~1% of scheduled events fired
///    (perfbench measured 0.5-1.1%). It stays as the guard for cancel-time
///    compaction, which any reschedule-heavy caller relies on. A few
///    re-arms belong to jobs starved by a busy owner and land ~10^5 s out. Left queued, those dead outliers stretch the time
///    span the calendar sizes its day width from, until the near-term days
///    hold thousands of dead entries each and every pop scans them. The
///    events/s column counts scheduled events, each of which later fires
///    or is cancelled.
///
/// Two gates, both exit 1 on failure so CI can run the bench as a
/// regression check:
///  * the calendar sustains >= --min-speedup x the heap's events/second on
///    the hold model at the *largest* pending size (2x at 1M);
///  * the calendar sustains >= kMinChurnRatio x the heap's events/second on
///    the reschedule churn. Without cancel-time queue compaction the
///    calendar collapses on this mix.
/// Both backends run the identical operation sequence; the bench also
/// asserts they fire the same event count and land on the same virtual
/// clock — the cheap end of the backend-invariance contract the golden
/// digests pin in full.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "des/simulation.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct MixResult {
  double events_per_s = 0.0;   // per wall second, best of reps (file comment)
  std::uint64_t fired = 0;     // total events fired (identical across reps)
  double final_now = 0.0;      // virtual clock at the end of the run
};

/// Runs the hold model on one backend: prefill `pending` events, then
/// `fires` rounds of fire + schedule (+ cancel/replace every 4th). The RNG
/// is a fixed-seed xorshift, so every backend and every rep sees the exact
/// same operation sequence.
MixResult hold_model(ll::des::QueueBackend backend, std::size_t pending,
                  std::size_t fires, std::uint64_t seed, int reps) {
  MixResult result;
  for (int rep = 0; rep < reps; ++rep) {
    ll::des::Simulation sim(ll::des::Simulation::Options{backend});
    std::uint64_t state = seed | 1;
    const auto next = [&state] {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state;
    };
    // Continuous holds in [1, 65): 53-bit-mantissa uniform, the realistic
    // timestamp shape. A quantized lattice would pile equal times into a
    // handful of calendar buckets and measure the documented worst case
    // instead of the steady state.
    const auto hold_delta = [&next] {
      return 1.0 + static_cast<double>(next() >> 11) * 0x1.0p-53 * 64.0;
    };
    std::vector<ll::des::EventId> recent(1024, ll::des::kNoEvent);
    for (std::size_t i = 0; i < pending; ++i) {
      recent[i % recent.size()] = sim.schedule_in(hold_delta(), [] {}, 1);
    }
    const auto start = Clock::now();
    for (std::size_t f = 0; f < fires; ++f) {
      sim.step();
      recent[f % recent.size()] = sim.schedule_in(hold_delta(), [] {}, 1);
      if ((f & 3u) == 3u) {
        if (sim.cancel(recent[next() % recent.size()])) {
          sim.schedule_in(hold_delta(), [] {}, 1);
        }
      }
    }
    const double wall = seconds_since(start);
    result.events_per_s = std::max(
        result.events_per_s, static_cast<double>(fires) / wall);
    result.fired = sim.events_fired();
    result.final_now = sim.now();
  }
  return result;
}

// Reschedule-churn shape: the running-job count of a 2000-node closed run
// (perfbench's cluster_scale), sampled every 2 s of virtual time.
constexpr std::size_t kChurnJobs = 500;
constexpr std::size_t kChurnTicks = 4000;
constexpr double kChurnPeriod = 2.0;
// Measured on a 4-vCPU host: 0.10-0.11x without cancel-time queue
// compaction (3 runs), 0.62-0.69x with it (5 runs).
constexpr double kMinChurnRatio = 0.3;

/// Runs the reschedule churn on one backend. Each of `jobs` running jobs
/// holds one completion event. Every tick re-rates each job: with
/// probability 1/10 its owner's activity changed and it draws a new rate,
/// in [0.5, 1) or, with probability 1/500, a starved 1e-3; otherwise the
/// rate stays and the job re-arms at the same instant. The tick cancels
/// the job's completion and re-arms it at now + remaining / rate. A
/// completion that fires ends its job, and the next tick starts a fresh
/// one (100-300 s of work at full rate) in its place.
MixResult reschedule_churn(ll::des::QueueBackend backend, std::size_t jobs,
                           std::size_t ticks, std::uint64_t seed, int reps) {
  MixResult result;
  for (int rep = 0; rep < reps; ++rep) {
    ll::des::Simulation sim(ll::des::Simulation::Options{backend});
    std::uint64_t state = seed | 1;
    const auto uniform = [&state] {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return static_cast<double>(state >> 11) * 0x1.0p-53;
    };
    struct Job {
      ll::des::EventId completion = ll::des::kNoEvent;
      double work = 0.0;  // remaining seconds at full rate
      double rate = 1.0;
    };
    std::vector<Job> running(jobs);
    const auto start = Clock::now();
    for (std::size_t tick = 0; tick < ticks; ++tick) {
      for (Job& job : running) {
        if (!sim.cancel(job.completion)) {
          job.work = 100.0 + 200.0 * uniform();
          job.rate = 1.0;
        }
        if (uniform() < 0.1) {
          job.rate = uniform() < 0.002 ? 1e-3 : 0.5 + 0.5 * uniform();
        }
        job.completion = sim.schedule_in(job.work / job.rate, [] {}, 1);
        job.work -= kChurnPeriod * job.rate;
      }
      sim.run_until(sim.now() + kChurnPeriod);
    }
    const double wall = seconds_since(start);
    result.events_per_s =
        std::max(result.events_per_s,
                 static_cast<double>(sim.events_scheduled()) / wall);
    result.fired = sim.events_fired();
    result.final_now = sim.now();
  }
  return result;
}

std::string human(std::size_t n) {
  if (n % 1000000 == 0 && n >= 1000000) return std::to_string(n / 1000000) + "M";
  if (n % 1000 == 0 && n >= 1000) return std::to_string(n / 1000) + "k";
  return std::to_string(n);
}

/// Checks the backend-invariance contract for one measurement; prints and
/// returns false on divergence.
bool agree(const char* mix, std::size_t pending, const MixResult& heap,
           const MixResult& calendar) {
  if (heap.fired == calendar.fired && heap.final_now == calendar.final_now) {
    return true;
  }
  std::printf(
      "FAIL: backends diverged on %s at %s pending (heap fired %llu @ %.6f, "
      "calendar fired %llu @ %.6f)\n",
      mix, human(pending).c_str(),
      static_cast<unsigned long long>(heap.fired), heap.final_now,
      static_cast<unsigned long long>(calendar.fired), calendar.final_now);
  return false;
}

void add_rows(ll::util::Table& out, const char* mix, std::size_t pending,
              const MixResult& heap, const MixResult& calendar) {
  out.add_row({mix, human(pending), "binary heap",
               ll::util::fixed(heap.events_per_s, 0), "1.00"});
  out.add_row({mix, human(pending), "calendar",
               ll::util::fixed(calendar.events_per_s, 0),
               ll::util::fixed(calendar.events_per_s / heap.events_per_s, 2)});
}

}  // namespace

int main(int argc, char** argv) {
  ll::util::Flags flags(
      "micro_des",
      "Calendar event queue vs binary heap: a schedule/fire/cancel hold "
      "model across pending-set sizes, and cluster-style reschedule "
      "churn.");
  auto fires =
      flags.add_uint64("fires", 200000, "hold-model iterations per run");
  auto reps = flags.add_uint64("reps", 3, "reps per measurement (best-of)");
  auto seed = flags.add_uint64("seed", 42, "operation-sequence seed");
  auto small = flags.add_uint64("pending-small", 1000, "small pending set");
  auto mid = flags.add_uint64("pending-mid", 100000, "medium pending set");
  auto large = flags.add_uint64("pending-large", 1000000,
                                "large pending set (the gated size)");
  auto min_speedup = flags.add_double(
      "min-speedup", 2.0,
      "required calendar/heap events-per-second ratio at the largest "
      "pending size (0 disables the gate)");
  flags.parse(argc, argv);

  const auto n_fires = static_cast<std::size_t>(*fires);
  const int n_reps = static_cast<int>(*reps);
  const std::vector<std::size_t> sizes{static_cast<std::size_t>(*small),
                                       static_cast<std::size_t>(*mid),
                                       static_cast<std::size_t>(*large)};

  // The 2x headline is a *memory-hierarchy* result: at 1M pending the
  // heap's pop walks ~20 random cache lines while the calendar touches one
  // bucket. On a machine too small to hold that working set hot — under 4
  // hardware threads is the same cut micro_steal uses for its contention
  // regime — the gate relaxes to "the calendar still wins" and says so.
  double required = *min_speedup;
  const std::size_t hw = std::thread::hardware_concurrency();
  if (required > 1.2 && hw < 4) {
    std::printf(
        "note: only %zu hardware thread(s) — relaxing calendar gate "
        "%.2fx -> 1.20x\n",
        hw, required);
    required = 1.2;
  }

  ll::util::Table out({"mix", "pending", "backend", "events/s", "ratio"});
  bool ok = true;
  double gated_speedup = 0.0;

  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::size_t pending = sizes[i];
    const MixResult heap =
        hold_model(ll::des::QueueBackend::kHeap, pending, n_fires, *seed,
                   n_reps);
    const MixResult calendar = hold_model(ll::des::QueueBackend::kCalendar,
                                          pending, n_fires, *seed, n_reps);
    ok = agree("hold", pending, heap, calendar) && ok;
    const double speedup = calendar.events_per_s / heap.events_per_s;
    add_rows(out, "hold", pending, heap, calendar);
    const bool gated = i + 1 == sizes.size();
    if (gated) {
      gated_speedup = speedup;
      if (*min_speedup > 0.0 && speedup < required) {
        ok = false;
        std::printf("FAIL: calendar speedup %.2fx < required %.2fx at %s "
                    "pending\n",
                    speedup, required, human(pending).c_str());
      }
    }
  }

  const MixResult heap = reschedule_churn(
      ll::des::QueueBackend::kHeap, kChurnJobs, kChurnTicks, *seed, n_reps);
  const MixResult calendar =
      reschedule_churn(ll::des::QueueBackend::kCalendar, kChurnJobs,
                       kChurnTicks, *seed, n_reps);
  ok = agree("churn", kChurnJobs, heap, calendar) && ok;
  const double churn_ratio = calendar.events_per_s / heap.events_per_s;
  add_rows(out, "churn", kChurnJobs, heap, calendar);
  if (churn_ratio < kMinChurnRatio) {
    ok = false;
    std::printf("FAIL: calendar %.2fx heap on reschedule churn < required "
                "%.2fx\n",
                churn_ratio, kMinChurnRatio);
  }

  std::printf("%s\n", out.render().c_str());
  if (!ok) return 1;
  std::printf("OK: calendar %.2fx heap at %s pending (gate %.2fx) and %.2fx "
              "on reschedule churn (gate %.2fx), backends agree on fires and "
              "clock\n",
              gated_speedup, human(sizes.back()).c_str(), required,
              churn_ratio, kMinChurnRatio);
  return 0;
}
