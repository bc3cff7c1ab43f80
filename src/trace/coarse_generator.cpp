#include "trace/coarse_generator.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <utility>

#include "rng/distributions.hpp"
#include "util/runner.hpp"

namespace ll::trace {
namespace {

enum class UserState { Away, Active };

double hour_of_day(double t) { return std::fmod(t / 3600.0, 24.0); }

double p_active_at(const CoarseGenConfig& cfg, double t) {
  const double h = hour_of_day(t + cfg.start_hour * 3600.0);
  if (h >= 9.0 && h < 18.0) return cfg.p_active_day;
  if (h >= 18.0 && h < 23.0) return cfg.p_active_evening;
  return cfg.p_active_night;
}

double sample_exp(rng::Stream& s, double mean) {
  return -std::log(1.0 - s.uniform01()) * mean;
}

/// Gaussian via Box–Muller (one draw per call; simple and adequate here).
double sample_normal(rng::Stream& s) {
  const double u1 = 1.0 - s.uniform01();
  const double u2 = s.uniform01();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

/// Samples in a trace of `cfg.duration` seconds at `cfg.period` seconds each.
std::size_t sample_count(const CoarseGenConfig& cfg) {
  return static_cast<std::size_t>(std::floor(cfg.duration / cfg.period));
}

/// An empty trace with room for exactly the samples `cfg` asks for. The
/// duration is checked first, then the period (by CoarseTrace's
/// constructor), and only then is floor(duration / period) taken.
CoarseTrace reserved_trace(const CoarseGenConfig& cfg) {
  if (!std::isfinite(cfg.duration) || cfg.duration < 0.0) {
    throw std::invalid_argument(
        "generate_coarse_trace: duration must be finite and >= 0");
  }
  CoarseTrace trace(cfg.period);
  // One allocation at the final size. A long-lived pool cache (serve)
  // evicts and rebuilds traces, and blocks of one size are reused exactly;
  // doubling growth leaves holes of mixed sizes, and how much of them stays
  // resident varies run to run (over 10 MiB of peak RSS in a served mix).
  trace.reserve(sample_count(cfg));
  return trace;
}

/// Appends the samples of one machine, drawn from `stream`, to a trace from
/// reserved_trace(cfg). Allocates nothing, so it may run on any thread.
void fill(const CoarseGenConfig& cfg, rng::Stream stream, CoarseTrace& trace) {
  rng::Stream sessions = stream.fork("sessions");
  rng::Stream typing = stream.fork("typing");
  rng::Stream cpu = stream.fork("cpu");
  rng::Stream episodes = stream.fork("episodes");
  rng::Stream memory = stream.fork("memory");

  // Per-sample probability that a compute episode starts.
  const double p_episode_active =
      1.0 - std::exp(-cfg.episode_rate_active * cfg.period);
  const double p_episode_away =
      1.0 - std::exp(-cfg.episode_rate_away * cfg.period);

  // User state machine.
  UserState user = UserState::Away;
  double state_remaining = sample_exp(sessions, cfg.away_mean);

  // Typing/pause micro-structure (only meaningful while Active).
  bool is_typing = true;
  double micro_remaining = sample_exp(typing, cfg.typing_mean);

  // Compute-episode overlay.
  double episode_remaining = 0.0;
  double episode_cpu = 0.0;
  double episode_mem = 0.0;

  // Memory state.
  double mem_base = memory.uniform(cfg.mem_base_away_lo, cfg.mem_base_away_hi);
  double mem_walk = 0.0;

  const std::size_t samples = sample_count(cfg);
  for (std::size_t i = 0; i < samples; ++i) {
    const double t = static_cast<double>(i) * cfg.period;

    // --- advance user state ---
    while (state_remaining <= 0.0) {
      if (user == UserState::Active) {
        user = UserState::Away;
        state_remaining += sample_exp(sessions, cfg.away_mean);
        mem_base = memory.uniform(cfg.mem_base_away_lo, cfg.mem_base_away_hi);
      } else if (sessions.uniform01() < p_active_at(cfg, t)) {
        user = UserState::Active;
        state_remaining +=
            cfg.active_min + sample_exp(sessions, cfg.active_mean - cfg.active_min);
        mem_base = memory.uniform(cfg.mem_base_active_lo, cfg.mem_base_active_hi);
        is_typing = true;
        micro_remaining = sample_exp(typing, cfg.typing_mean);
      } else {
        state_remaining += sample_exp(sessions, cfg.away_mean);
      }
    }
    state_remaining -= cfg.period;

    // --- typing / pause micro-structure ---
    bool keyboard = false;
    if (user == UserState::Active) {
      while (micro_remaining <= 0.0) {
        is_typing = !is_typing;
        micro_remaining +=
            sample_exp(typing, is_typing ? cfg.typing_mean : cfg.pause_mean);
      }
      micro_remaining -= cfg.period;
      const double p = is_typing ? cfg.kb_prob_typing : cfg.kb_prob_pause;
      keyboard = typing.uniform01() < p;
    }

    // --- compute episodes ---
    if (episode_remaining <= 0.0) {
      const double p =
          user == UserState::Active ? p_episode_active : p_episode_away;
      if (episodes.uniform01() < p) {
        episode_remaining = sample_exp(episodes, cfg.episode_mean);
        episode_cpu = episodes.uniform(cfg.episode_cpu_lo, cfg.episode_cpu_hi);
        episode_mem = episodes.uniform(cfg.mem_episode_lo, cfg.mem_episode_hi);
      }
    } else {
      episode_remaining -= cfg.period;
      if (episode_remaining <= 0.0) {
        episode_cpu = 0.0;
        episode_mem = 0.0;
      }
    }

    // --- CPU utilization for this window ---
    double util;
    if (user == UserState::Active) {
      util = cfg.interactive_cpu_base +
             sample_exp(cpu, cfg.interactive_cpu_exp_mean);
    } else {
      util = sample_exp(cpu, cfg.away_cpu_exp_mean);
    }
    if (episode_remaining > 0.0) util = std::max(util, episode_cpu);
    util = std::clamp(util, 0.0, 1.0);

    // --- memory ---
    mem_walk += cfg.mem_walk_sd * sample_normal(memory) -
                cfg.mem_walk_reversion * mem_walk;
    double used = mem_base + mem_walk + (episode_remaining > 0.0 ? episode_mem : 0.0);
    used = std::clamp(used, 4096.0, static_cast<double>(cfg.mem_total_kb) - 2048.0);
    const auto free_kb = static_cast<std::int32_t>(cfg.mem_total_kb - used);

    trace.push(CoarseSample{util, free_kb, keyboard});
  }
}

}  // namespace

CoarseTrace generate_coarse_trace(const CoarseGenConfig& cfg,
                                  rng::Stream stream) {
  CoarseTrace trace = reserved_trace(cfg);
  fill(cfg, std::move(stream), trace);
  return trace;
}

std::vector<CoarseTrace> generate_machine_pool(const CoarseGenConfig& config,
                                               std::size_t machines,
                                               const rng::Stream& master) {
  // Every buffer is allocated here, on the calling thread, and the fill
  // tasks only write into them. Traces allocated by the runner's workers
  // would spread over glibc's per-thread arenas and raise peak RSS in a
  // long-lived pool cache (DESIGN.md §6).
  std::vector<CoarseTrace> pool;
  pool.reserve(machines);
  for (std::size_t m = 0; m < machines; ++m) {
    pool.push_back(reserved_trace(config));
  }
  // One task per machine. Each draws from its own pure fork of `master`
  // and writes only its own trace, so the pool is the same on any number
  // of threads. Safe inside another task of the shared runner: a caller
  // waiting in run() drains only its own batch. A task fills a local
  // CoarseTrace holding the buffer and moves it back: two 32-byte traces
  // share a cache line, and each sample stores the trace's end pointer.
  std::vector<std::function<void()>> tasks;
  tasks.reserve(machines);
  for (std::size_t m = 0; m < machines; ++m) {
    tasks.emplace_back([&config, &master, &slot = pool[m], m] {
      CoarseTrace trace = std::move(slot);
      fill(config, master.fork("machine", m), trace);
      slot = std::move(trace);
    });
  }
  util::TaskRunner::shared().run(std::move(tasks));
  return pool;
}

}  // namespace ll::trace
