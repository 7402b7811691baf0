// Telemetry anomaly detection for soak runs.
//
// Point-in-time asserts catch outright wrong answers; the regressions that
// matter at fleet scale show up as *trends* over a run — a queue that only
// ever grows (the scheduler admits more than the park can execute), a
// tracking error that walks out of its steady-state band mid-run (demand
// drift the plan no longer matches), or a warm-LP fallback rate that spikes
// (the session machinery silently degrading to cold solves). Each detector
// here turns one such trend into a deterministic pass/fail over a recorded
// "tapo-telemetry-v1" series (docs/OBSERVABILITY.md), with thresholds in
// AnomalyOptions tuned so stationary-but-noisy series stay quiet (the unit
// suite pins both the planted true positives and a bounded false-positive
// rate).
//
// Detectors are pure functions of the sample vector: no clocks, no
// randomness, so a soak report is bit-identical across thread counts and
// cache states.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/telemetry.h"
#include "util/telemetry_read.h"

namespace tapo::soak {

struct AnomalyOptions {
  // Monotone ramp (queue depth): fire when at least `ramp_min_monotone`
  // of consecutive steps are non-decreasing AND the final value exceeds the
  // early-window mean by `ramp_min_rise` absolutely AND by a factor of
  // `ramp_rise_factor` relatively (the factor is waived while the early mean
  // is below the absolute floor — a queue that starts empty has no baseline).
  std::size_t ramp_min_points = 8;
  double ramp_min_monotone = 0.85;
  double ramp_min_rise = 8.0;
  double ramp_rise_factor = 3.0;
  // Rise floor for the scheduler.backlog series specifically. Backlog is
  // recorded in units of the longest relative deadline (sim/des.cpp), and
  // deadline-checked admission caps it at 1.0 by construction — so a rise
  // past 1.25 is only reachable when unguarded admission is stacking work
  // the park cannot execute.
  double backlog_min_rise = 1.25;

  // Rolling-band drift (tracking error): the first half of the series sets
  // the band (mean + max(drift_min_band, drift_band_sigmas * stddev)); fire
  // when the mean of the last quarter leaves it.
  std::size_t drift_min_points = 8;
  double drift_band_sigmas = 4.0;
  double drift_min_band = 0.05;

  // Session-fallback spike: fire when lp.session.fallbacks / lp.session.solves
  // exceeds `fallback_max_fraction` with at least `fallback_min_solves`
  // solves observed (below that the ratio is noise).
  double fallback_max_fraction = 0.25;
  std::uint64_t fallback_min_solves = 8;

  // FT-budget pressure: fire when lp.session.ft_budget_exhausted /
  // lp.session.resident_resumes exceeds `ft_budget_max_fraction` (with the
  // same min-solves floor). Resumes that exhaust the patch-repair update
  // budget fall back to a full refactorization — correct but paying the
  // cost sessions exist to amortize; a sustained spike means the patch
  // bursts outgrew the min(96, m/4+1) update budget for this workload.
  double ft_budget_max_fraction = 0.5;

  // Re-plan storm: fire when more than `replan_storm_max_steps` horizon steps
  // land inside any sliding `replan_storm_window_s` window of the
  // replan.step_times series (one sample per step, recorded at its simulated
  // time). A healthy rolling planner fires on its cadence plus the occasional
  // tracking trigger; a storm means the trigger logic is flapping — each
  // adopted plan immediately re-trips the sensor — and the fleet is paying
  // LP time for churn, not reward.
  double replan_storm_window_s = 30.0;
  std::size_t replan_storm_max_steps = 8;
};

struct Anomaly {
  std::string detector;  // "ramp" | "drift" | "fallback_spike" |
                         // "ft_budget_pressure" | "replan_storm"
  std::string series;    // series/counter name the finding anchors to
  double value = 0.0;       // observed statistic
  double threshold = 0.0;   // the bound it crossed
  std::string detail;       // human-readable one-liner
};

// Individual detectors, exposed for the unit suite. `series` is the name
// recorded into Anomaly::series.
std::optional<Anomaly> detect_monotone_ramp(
    const std::string& series,
    const std::vector<util::telemetry::Sample>& samples,
    const AnomalyOptions& options = {});
std::optional<Anomaly> detect_drift(
    const std::string& series,
    const std::vector<util::telemetry::Sample>& samples,
    const AnomalyOptions& options = {});
std::optional<Anomaly> detect_fallback_spike(std::uint64_t fallbacks,
                                             std::uint64_t solves,
                                             const AnomalyOptions& options = {});
std::optional<Anomaly> detect_ft_budget_pressure(
    std::uint64_t exhausted, std::uint64_t resumes,
    const AnomalyOptions& options = {});
std::optional<Anomaly> detect_replan_storm(
    const std::string& series,
    const std::vector<util::telemetry::Sample>& samples,
    const AnomalyOptions& options = {});

// The standard wiring the soak runner applies to one scenario's telemetry:
//   * scheduler.backlog          -> monotone ramp (queued work, seconds)
//   * sim.queue_depth            -> monotone ramp (admitted, unfinished tasks)
//   * scheduler.tracking_error   -> rolling-band drift
//   * lp.session.fallbacks/solves -> fallback spike
//   * lp.session.ft_budget_exhausted/resident_resumes -> FT-budget pressure
//   * replan.step_times          -> re-plan storm (sliding-window step count)
// Returned in that fixed order, so reports are deterministic.
std::vector<Anomaly> detect_anomalies(const util::telemetry::Registry& registry,
                                      const AnomalyOptions& options = {});
// Same pass over a re-read snapshot (util/telemetry_read.h), so archived
// telemetry files can be regression-checked after the fact.
std::vector<Anomaly> detect_anomalies(
    const util::telemetry::Snapshot& snapshot,
    const AnomalyOptions& options = {});

}  // namespace tapo::soak
