#include "sim/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "util/check.h"

namespace tapo::sim {

Trace generate_poisson_trace(const std::vector<dc::TaskType>& task_types,
                             double horizon_seconds, util::Rng rng) {
  TAPO_CHECK(horizon_seconds > 0.0);
  Trace trace;
  for (std::size_t i = 0; i < task_types.size(); ++i) {
    const double rate = task_types[i].arrival_rate;
    if (rate <= 0.0) continue;
    util::Rng stream = rng.fork(i);
    double t = stream.exponential(rate);
    while (t < horizon_seconds) {
      trace.push_back({t, i});
      t += stream.exponential(rate);
    }
  }
  std::sort(trace.begin(), trace.end(),
            [](const TraceEvent& a, const TraceEvent& b) { return a.time < b.time; });
  return trace;
}

Trace generate_mmpp_trace(const std::vector<dc::TaskType>& task_types,
                          double horizon_seconds, const MmppConfig& config,
                          util::Rng rng) {
  TAPO_CHECK(horizon_seconds > 0.0);
  TAPO_CHECK(config.burst_multiplier >= 1.0);
  TAPO_CHECK(config.burst_duty > 0.0 && config.burst_duty < 1.0);
  TAPO_CHECK(config.mean_phase_seconds > 0.0);

  // Phase sojourn rates chosen so the stationary burst fraction equals
  // burst_duty with the requested mean phase length scale.
  const double leave_quiet =
      config.burst_duty / (config.mean_phase_seconds * (1.0 - config.burst_duty));
  const double leave_burst = 1.0 / config.mean_phase_seconds;

  Trace trace;
  for (std::size_t i = 0; i < task_types.size(); ++i) {
    const double lambda = task_types[i].arrival_rate;
    if (lambda <= 0.0) continue;
    const double quiet_rate =
        lambda / ((1.0 - config.burst_duty) +
                  config.burst_multiplier * config.burst_duty);
    const double burst_rate = config.burst_multiplier * quiet_rate;

    util::Rng stream = rng.fork(i);
    bool burst = stream.next_double() < config.burst_duty;  // stationary start
    double t = 0.0;
    double phase_end =
        stream.exponential(burst ? leave_burst : leave_quiet);
    while (t < horizon_seconds) {
      const double rate = burst ? burst_rate : quiet_rate;
      const double next = t + (rate > 0.0
                                   ? stream.exponential(rate)
                                   : horizon_seconds + 1.0);
      if (next < phase_end) {
        t = next;
        if (t < horizon_seconds) trace.push_back({t, i});
      } else {
        t = phase_end;
        burst = !burst;
        phase_end = t + stream.exponential(burst ? leave_burst : leave_quiet);
      }
    }
  }
  std::sort(trace.begin(), trace.end(),
            [](const TraceEvent& a, const TraceEvent& b) { return a.time < b.time; });
  return trace;
}

std::vector<double> trace_rates(const Trace& trace, std::size_t num_task_types,
                                double horizon_seconds) {
  TAPO_CHECK(horizon_seconds > 0.0);
  std::vector<double> rates(num_task_types, 0.0);
  for (const TraceEvent& e : trace) {
    TAPO_CHECK(e.task_type < num_task_types);
    rates[e.task_type] += 1.0;
  }
  for (double& r : rates) r /= horizon_seconds;
  return rates;
}

bool save_trace_csv(const Trace& trace, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  os << "time,task_type\n";
  char buf[64];
  for (const TraceEvent& e : trace) {
    std::snprintf(buf, sizeof(buf), "%.9f,%zu\n", e.time, e.task_type);
    os << buf;
  }
  return static_cast<bool>(os);
}

std::optional<Trace> load_trace_csv(const std::string& path,
                                    std::size_t num_task_types) {
  std::ifstream is(path);
  if (!is) return std::nullopt;
  std::string line;
  if (!std::getline(is, line) || line != "time,task_type") return std::nullopt;
  Trace trace;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    double time = 0.0;
    unsigned long type = 0;
    if (std::sscanf(line.c_str(), "%lf,%lu", &time, &type) != 2) {
      return std::nullopt;
    }
    if (type >= num_task_types || time < 0.0) return std::nullopt;
    trace.push_back({time, static_cast<std::size_t>(type)});
  }
  if (!std::is_sorted(trace.begin(), trace.end(),
                      [](const TraceEvent& a, const TraceEvent& b) {
                        return a.time < b.time;
                      })) {
    return std::nullopt;
  }
  return trace;
}

}  // namespace tapo::sim
