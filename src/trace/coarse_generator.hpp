#pragma once

/// \file coarse_generator.hpp
/// Synthetic coarse-grain workstation traces.
///
/// The paper drives its cluster simulations with the Arpaci et al. traces
/// (132 machines, 40 days, 2-second samples of CPU, memory, keyboard). Those
/// traces are not redistributable, so this generator synthesizes
/// session-structured traces tuned to reproduce the aggregate properties the
/// paper reports and that the scheduling results actually depend on:
///
///   * ~46% of time in the non-idle state under the recruitment rule
///     (CPU < 10% + no keyboard for 1 minute),
///   * ~76% of non-idle time with CPU utilization below 10%,
///   * free memory >= 14 MB for ~90% of time and >= 10 MB for ~95%
///     (64 MB machines), with no significant idle/non-idle difference,
///   * episode-length distributions with many short non-idle episodes
///     (the fine-grain opportunity Linger-Longer exploits).
///
/// Structure: a two-state user model (Away / Active session) with diurnal
/// modulation; within active sessions, typing/pause micro-structure drives
/// the keyboard flag and interactive CPU, and Poisson compute episodes
/// (compiles, simulations) drive high-utilization windows. Memory usage is a
/// per-session base plus a slow mean-reverting walk plus compute overhead.

#include <vector>

#include "rng/rng.hpp"
#include "trace/records.hpp"

namespace ll::trace {

struct CoarseGenConfig {
  double period = 2.0;               // seconds per sample
  double duration = 86400.0;         // trace length in seconds (1 day)
  double start_hour = 0.0;           // time-of-day at trace start (diurnal
                                     // model); traces shorter than a day
                                     // should usually start at 9.0 to cover
                                     // working hours
  std::int32_t mem_total_kb = 65536;  // 64 MB machines, as in the paper

  // --- user session model ---
  double away_mean = 900.0;     // mean away-period length (s)
  double active_mean = 2400.0;  // mean active-session length (s)
  double active_min = 120.0;    // sessions never shorter than this
  // Probability that the user returns after an away period, by time of day.
  double p_active_day = 0.85;      // 09:00-18:00
  double p_active_evening = 0.45;  // 18:00-23:00
  double p_active_night = 0.08;    // 23:00-09:00

  // --- typing/pause micro-structure inside a session ---
  double typing_mean = 45.0;   // mean typing stretch (s)
  double pause_mean = 30.0;    // mean thinking pause (s) — below the 60 s
                               // recruitment threshold, so pauses do not
                               // release the machine
  double kb_prob_typing = 0.85;  // per-sample keyboard probability
  double kb_prob_pause = 0.04;

  // --- interactive CPU while active ---
  double interactive_cpu_base = 0.015;
  double interactive_cpu_exp_mean = 0.025;  // + Exp(mean) tail

  // --- compute episodes (compiles, local simulations) ---
  double episode_rate_active = 1.0 / 360.0;  // Poisson, per active second
  double episode_rate_away = 1.0 / 7200.0;   // jobs left running unattended
  double episode_mean = 75.0;                // mean episode length (s)
  double episode_cpu_lo = 0.30;              // episode utilization ~ U[lo,hi]
  double episode_cpu_hi = 1.00;

  // --- background CPU while away ---
  double away_cpu_exp_mean = 0.012;

  // --- memory (KB) ---
  std::int32_t mem_base_active_lo = 26624;  // per-session base ~ U[lo,hi]
  std::int32_t mem_base_active_hi = 51200;
  // Away bases stay close to active ones: users leave their applications
  // open, and the paper observes no significant idle/non-idle difference in
  // free memory.
  std::int32_t mem_base_away_lo = 22528;
  std::int32_t mem_base_away_hi = 47104;
  std::int32_t mem_episode_lo = 4096;   // extra during a compute episode
  std::int32_t mem_episode_hi = 16384;
  double mem_walk_sd = 320.0;           // per-sample random-walk step (KB)
  double mem_walk_reversion = 0.02;     // pull back toward the session base
};

/// Generates one machine trace. Deterministic in (config, stream). Throws
/// std::invalid_argument when the duration is negative or not finite, or
/// the period is not > 0.
[[nodiscard]] CoarseTrace generate_coarse_trace(const CoarseGenConfig& config,
                                                rng::Stream stream);

/// Generates a pool of machine traces, as the cluster simulator expects —
/// it assigns each simulated node a random trace and a random starting
/// offset, mirroring the paper's methodology. Entry m is exactly
/// generate_coarse_trace(config, master.fork("machine", m)). The traces are
/// allocated on the calling thread and filled as one batch on
/// util::TaskRunner::shared(), one task per machine; the call may itself
/// run inside a task of that runner. Throws like generate_coarse_trace.
[[nodiscard]] std::vector<CoarseTrace> generate_machine_pool(
    const CoarseGenConfig& config, std::size_t machines,
    const rng::Stream& master);

}  // namespace ll::trace
