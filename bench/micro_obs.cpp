/// \file micro_obs.cpp
/// google-benchmark microbenchmarks of the observability layer: what does a
/// detached simulator pay (nothing beyond the engine's null check), what
/// does a fully instrumented one pay (profiler + metrics + tracer), and
/// how expensive are the individual metric primitives. The
/// detached-vs-bare pair is the acceptance gate for the obs layer: attach
/// nothing and the event loop must run at its pre-obs speed.
///
/// `--gate-only` skips google-benchmark and runs the tracer overhead gate
/// directly (CI's regression check, exit 1 on breach): the disabled path —
/// the `if (tracer)` null guard every instrumentation site uses — must
/// cost nanoseconds, and the enabled per-record cost (ring write + clock
/// read) must stay bounded. Bounds are generous (orders of magnitude above
/// the measured values) so only a lost fast path trips them, never
/// scheduler noise.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string_view>

#include "des/simulation.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/tracer.hpp"

namespace {

using namespace ll;

constexpr std::uint64_t kTag = 1;

void schedule_all(des::Simulation& sim, std::size_t n, std::size_t& fired) {
  for (std::size_t i = 0; i < n; ++i) {
    sim.schedule_at(static_cast<double>((i * 7919) % 104729),
                    [&fired] { ++fired; }, kTag);
  }
}

// Baseline: the same loop shape as BM_DesScheduleFire in micro_substrate,
// no observer attached. The profiler benches below are measured against
// this (identical code path, so the delta is pure observation cost).
void BM_ObsDetached(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    des::Simulation sim;
    std::size_t fired = 0;
    schedule_all(sim, n, fired);
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ObsDetached)->Arg(1000)->Arg(100000);

void BM_ObsProfilerAttached(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    des::Simulation sim;
    obs::EventLoopProfiler profiler;
    sim.set_observer(&profiler);
    std::size_t fired = 0;
    schedule_all(sim, n, fired);
    sim.run();
    benchmark::DoNotOptimize(profiler.fires());
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ObsProfilerAttached)->Arg(1000)->Arg(100000);

// Flight recorder on the engine: every fire becomes a wall span in the
// tracer's ring. Delta over BM_ObsDetached = full tracing cost per event.
void BM_ObsTracerAttached(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    des::Simulation sim;
    obs::Tracer tracer;
    obs::TracingObserver observer(&tracer);
    sim.set_observer(&observer);
    std::size_t fired = 0;
    schedule_all(sim, n, fired);
    sim.run();
    benchmark::DoNotOptimize(tracer.recorded());
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ObsTracerAttached)->Arg(1000)->Arg(100000);

// The raw record primitive in isolation: one clock read + one ring write.
void BM_ObsTracerRecord(benchmark::State& state) {
  obs::Tracer tracer(1 << 12);  // realistic ring: wraps during the bench
  const std::uint32_t label = tracer.label("bench.span");
  std::uint64_t arg = 0;
  for (auto _ : state) {
    tracer.wall_span(label, tracer.now_ns(), 0.0, ++arg);
    benchmark::DoNotOptimize(arg);
  }
  benchmark::DoNotOptimize(tracer.recorded());
}
BENCHMARK(BM_ObsTracerRecord);

// The full `llsim profile` stack: profiler on the engine plus a callback
// that bumps a counter and a time-weighted metric per event — the densest
// instrumentation any simulator in this repo attaches.
void BM_ObsFullStack(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    des::Simulation sim;
    obs::EventLoopProfiler profiler;
    sim.set_observer(&profiler);
    obs::MetricRegistry registry;
    obs::Counter& events = registry.counter("bench.events");
    obs::TimeWeighted& level = registry.time_weighted("bench.level");
    std::size_t fired = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double t = static_cast<double>((i * 7919) % 104729);
      sim.schedule_at(t, [&fired, &events, &level, &sim] {
        ++fired;
        events.add();
        level.set(sim.now(), static_cast<double>(fired & 7));
      }, kTag);
    }
    sim.run();
    benchmark::DoNotOptimize(registry.size());
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ObsFullStack)->Arg(100000);

void BM_ObsCounterAdd(benchmark::State& state) {
  obs::MetricRegistry registry;
  obs::Counter& c = registry.counter("bench.counter");
  for (auto _ : state) {
    c.add();
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsTimeWeightedSet(benchmark::State& state) {
  obs::MetricRegistry registry;
  obs::TimeWeighted& tw = registry.time_weighted("bench.tw");
  double t = 0.0;
  for (auto _ : state) {
    t += 1.0;
    tw.set(t, t * 0.5);
    benchmark::DoNotOptimize(tw);
  }
}
BENCHMARK(BM_ObsTimeWeightedSet);

// The tracer overhead gate (see file comment). Bounds are deliberately
// generous: the disabled guard measures ~1 ns and the enabled record
// ~20-100 ns on any modern machine; the gates only trip when the null
// fast path is lost (e.g. an unconditional virtual call sneaks in) or the
// record path grows a lock/allocation.
int run_tracer_gate() {
  using Clock = std::chrono::steady_clock;
  constexpr double kDisabledBoundNs = 50.0;
  constexpr double kEnabledBoundNs = 5000.0;

  // Disabled path: the exact guard shape the instrumentation sites use —
  // an atomic-load-then-branch on a pointer that stays null. The atomic
  // keeps the compiler from folding the loop away.
  constexpr std::size_t kGuardIters = 4'000'000;
  std::atomic<ll::obs::Tracer*> slot{nullptr};
  std::uint64_t touched = 0;
  const Clock::time_point g0 = Clock::now();
  for (std::size_t i = 0; i < kGuardIters; ++i) {
    if (ll::obs::Tracer* t = slot.load(std::memory_order_relaxed)) {
      t->instant(0, 0.0, i);
      ++touched;
    }
  }
  const double disabled_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - g0).count() /
      static_cast<double>(kGuardIters);
  benchmark::DoNotOptimize(touched);

  // Enabled path: wall_span = one steady_clock read + one ring write.
  constexpr std::size_t kRecords = 1'000'000;
  ll::obs::Tracer tracer(1 << 12);
  const std::uint32_t label = tracer.label("gate.span");
  const Clock::time_point e0 = Clock::now();
  for (std::size_t i = 0; i < kRecords; ++i) {
    tracer.wall_span(label, tracer.now_ns(), 0.0, i);
  }
  const double enabled_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - e0).count() /
      static_cast<double>(kRecords);
  if (tracer.recorded() != kRecords) {
    std::fprintf(stderr, "tracer gate: FAIL — recorded %llu of %zu records\n",
                 static_cast<unsigned long long>(tracer.recorded()), kRecords);
    return 1;
  }

  const bool disabled_ok = disabled_ns <= kDisabledBoundNs;
  const bool enabled_ok = enabled_ns <= kEnabledBoundNs;
  std::printf(
      "tracer gate: disabled guard %.2f ns/iter (bound %.0f), enabled "
      "wall_span %.1f ns/record (bound %.0f): %s\n",
      disabled_ns, kDisabledBoundNs, enabled_ns, kEnabledBoundNs,
      disabled_ok && enabled_ok ? "ok" : "FAIL");
  return disabled_ok && enabled_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--gate-only") return run_tracer_gate();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
