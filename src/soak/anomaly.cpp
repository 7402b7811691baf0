#include "soak/anomaly.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace tapo::soak {

namespace {

using util::telemetry::Sample;

double mean_of(const std::vector<Sample>& samples, std::size_t begin,
               std::size_t end) {
  double sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) sum += samples[i].value;
  return end > begin ? sum / static_cast<double>(end - begin) : 0.0;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

}  // namespace

std::optional<Anomaly> detect_monotone_ramp(const std::string& series,
                                            const std::vector<Sample>& samples,
                                            const AnomalyOptions& options) {
  const std::size_t n = samples.size();
  if (n < std::max<std::size_t>(options.ramp_min_points, 3)) return std::nullopt;

  std::size_t non_decreasing = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (samples[i].value >= samples[i - 1].value - 1e-12) ++non_decreasing;
  }
  const double monotone_fraction =
      static_cast<double>(non_decreasing) / static_cast<double>(n - 1);
  if (monotone_fraction < options.ramp_min_monotone) return std::nullopt;

  // Baseline: the first quarter of the window (>= 1 sample).
  const std::size_t head = std::max<std::size_t>(1, n / 4);
  const double baseline = mean_of(samples, 0, head);
  const double last = samples[n - 1].value;
  const double rise = last - baseline;
  if (rise < options.ramp_min_rise) return std::nullopt;
  // Relative growth check only once the baseline itself is meaningful; a
  // queue that starts near empty is judged on the absolute rise alone.
  if (baseline > options.ramp_min_rise &&
      last < options.ramp_rise_factor * baseline) {
    return std::nullopt;
  }

  Anomaly a;
  a.detector = "ramp";
  a.series = series;
  a.value = rise;
  a.threshold = options.ramp_min_rise;
  a.detail = series + " rose monotonically (" + fmt(monotone_fraction * 100.0) +
             "% non-decreasing steps) from " + fmt(baseline) + " to " +
             fmt(last);
  return a;
}

std::optional<Anomaly> detect_drift(const std::string& series,
                                    const std::vector<Sample>& samples,
                                    const AnomalyOptions& options) {
  const std::size_t n = samples.size();
  if (n < std::max<std::size_t>(options.drift_min_points, 4)) return std::nullopt;

  // Band from the first half: mean + max(min_band, sigmas * stddev).
  const std::size_t half = n / 2;
  const double base_mean = mean_of(samples, 0, half);
  double var = 0.0;
  for (std::size_t i = 0; i < half; ++i) {
    const double d = samples[i].value - base_mean;
    var += d * d;
  }
  var /= static_cast<double>(half);
  const double band = std::max(options.drift_min_band,
                               options.drift_band_sigmas * std::sqrt(var));
  const double limit = base_mean + band;

  // Statistic: the mean of the last quarter, so one noisy sample cannot
  // fire the detector on its own.
  const std::size_t tail = std::max<std::size_t>(1, n / 4);
  const double tail_mean = mean_of(samples, n - tail, n);
  if (tail_mean <= limit) return std::nullopt;

  Anomaly a;
  a.detector = "drift";
  a.series = series;
  a.value = tail_mean;
  a.threshold = limit;
  a.detail = series + " tail mean " + fmt(tail_mean) +
             " left the rolling band (baseline " + fmt(base_mean) +
             " + band " + fmt(band) + ")";
  return a;
}

std::optional<Anomaly> detect_fallback_spike(std::uint64_t fallbacks,
                                             std::uint64_t solves,
                                             const AnomalyOptions& options) {
  if (solves < options.fallback_min_solves) return std::nullopt;
  const double fraction =
      static_cast<double>(fallbacks) / static_cast<double>(solves);
  if (fraction <= options.fallback_max_fraction) return std::nullopt;

  Anomaly a;
  a.detector = "fallback_spike";
  a.series = "lp.session.fallbacks";
  a.value = fraction;
  a.threshold = options.fallback_max_fraction;
  a.detail = "lp.session fallbacks hit " + fmt(fraction * 100.0) + "% of " +
             std::to_string(solves) + " session solves";
  return a;
}

std::optional<Anomaly> detect_ft_budget_pressure(
    std::uint64_t exhausted, std::uint64_t resumes,
    const AnomalyOptions& options) {
  if (resumes < options.fallback_min_solves) return std::nullopt;
  const double fraction =
      static_cast<double>(exhausted) / static_cast<double>(resumes);
  if (fraction <= options.ft_budget_max_fraction) return std::nullopt;

  Anomaly a;
  a.detector = "ft_budget_pressure";
  a.series = "lp.session.ft_budget_exhausted";
  a.value = fraction;
  a.threshold = options.ft_budget_max_fraction;
  a.detail = "FT update budget exhausted on " + fmt(fraction * 100.0) +
             "% of " + std::to_string(resumes) +
             " resident resumes (patch bursts outgrow the FT update budget)";
  return a;
}

std::optional<Anomaly> detect_replan_storm(const std::string& series,
                                           const std::vector<Sample>& samples,
                                           const AnomalyOptions& options) {
  const std::size_t n = samples.size();
  if (n <= options.replan_storm_max_steps) return std::nullopt;

  // One sample per horizon step, stamped with its simulated time; slide a
  // window over the (sorted) step times and find the densest burst. Two
  // pointers, O(n).
  std::size_t worst_count = 0;
  double worst_start = 0.0;
  std::size_t lo = 0;
  for (std::size_t hi = 0; hi < n; ++hi) {
    while (samples[hi].x - samples[lo].x > options.replan_storm_window_s) {
      ++lo;
    }
    const std::size_t count = hi - lo + 1;
    if (count > worst_count) {
      worst_count = count;
      worst_start = samples[lo].x;
    }
  }
  if (worst_count <= options.replan_storm_max_steps) return std::nullopt;

  Anomaly a;
  a.detector = "replan_storm";
  a.series = series;
  a.value = static_cast<double>(worst_count);
  a.threshold = static_cast<double>(options.replan_storm_max_steps);
  a.detail = std::to_string(worst_count) + " horizon steps inside " +
             fmt(options.replan_storm_window_s) + "s starting at t=" +
             fmt(worst_start) + " (limit " +
             std::to_string(options.replan_storm_max_steps) + ")";
  return a;
}

namespace {

// Shared wiring over any (series, counter) source; keeps the Registry and
// Snapshot entry points byte-identical in behavior.
template <typename SeriesFn, typename CounterFn>
std::vector<Anomaly> run_standard_pass(const SeriesFn& series,
                                       const CounterFn& counter,
                                       const AnomalyOptions& options) {
  std::vector<Anomaly> anomalies;
  // scheduler.backlog is the deepest core's queued work (in longest-deadline
  // units); sim.queue_depth counts admitted-but-unfinished tasks across all
  // cores. Both are ramp-checked: one deep core and a park-wide pile-up are
  // different runaways.
  AnomalyOptions backlog_options = options;
  backlog_options.ramp_min_rise = options.backlog_min_rise;
  if (auto a = detect_monotone_ramp("scheduler.backlog",
                                    series("scheduler.backlog"),
                                    backlog_options)) {
    anomalies.push_back(std::move(*a));
  }
  if (auto a = detect_monotone_ramp("sim.queue_depth",
                                    series("sim.queue_depth"), options)) {
    anomalies.push_back(std::move(*a));
  }
  if (auto a = detect_drift("scheduler.tracking_error",
                            series("scheduler.tracking_error"), options)) {
    anomalies.push_back(std::move(*a));
  }
  if (auto a = detect_fallback_spike(counter("lp.session.fallbacks"),
                                     counter("lp.session.solves"), options)) {
    anomalies.push_back(std::move(*a));
  }
  if (auto a = detect_ft_budget_pressure(
          counter("lp.session.ft_budget_exhausted"),
          counter("lp.session.resident_resumes"), options)) {
    anomalies.push_back(std::move(*a));
  }
  if (auto a = detect_replan_storm("replan.step_times",
                                   series("replan.step_times"), options)) {
    anomalies.push_back(std::move(*a));
  }
  return anomalies;
}

}  // namespace

std::vector<Anomaly> detect_anomalies(const util::telemetry::Registry& registry,
                                      const AnomalyOptions& options) {
  return run_standard_pass(
      [&](const char* name) { return registry.series_values(name); },
      [&](const char* name) { return registry.counter_value(name); }, options);
}

std::vector<Anomaly> detect_anomalies(const util::telemetry::Snapshot& snapshot,
                                      const AnomalyOptions& options) {
  return run_standard_pass(
      [&](const char* name) {
        const auto* s = snapshot.find_series(name);
        return s ? *s : std::vector<Sample>{};
      },
      [&](const char* name) { return snapshot.counter(name); }, options);
}

}  // namespace tapo::soak
