// Shared pieces of the tapo end-to-end benchmark: the span recorder, the
// timed plan and recovery paths, and the parks each workload runs on.
//
// The benchmark times only calls into libtapo's public API. The plan path
// calls Stage 1, Stage 2, Stage 3 and finalize_assignment one by one, in the
// order ThreeStageAssigner::assign does, so each stage gets its own span;
// the fidelity test (tests/fidelity_test.cpp) links this file and checks
// that the sequence still yields the assignment the library's own entry
// point returns.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/assigner.h"
#include "core/recovery.h"
#include "dc/datacenter.h"
#include "scenario/generator.h"
#include "sim/faults.h"
#include "thermal/heatflow.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point start, Clock::time_point end);

// Spans recorded around calls into the library, kept in memory for one pass.
// A span with parent -1 is top level; top-level spans never overlap, so
// their sum is the share of a pass that named layers account for.
class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
  };

  // Opens a span as a child of the innermost open span; returns its index.
  int open(std::string_view name);
  void close(int index);

  // Summed duration of every span with this name.
  double total(std::string_view name) const;
  // Summed duration of the top-level spans.
  double top_level_total() const;
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name)
      : tracer_(tracer), index_(tracer.open(name)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

// One generated park: the data center plus its heat-flow model. The model
// keeps a reference to `scenario.dc`, so a Park is built in place and never
// moved.
struct Park {
  explicit Park(tapo::scenario::Scenario generated)
      : scenario(std::move(generated)), model(scenario.dc) {}
  Park(const Park&) = delete;
  Park& operator=(const Park&) = delete;

  tapo::scenario::Scenario scenario;
  tapo::thermal::HeatFlowModel model;
};

// scenario::generate_scenario, then the HeatFlowModel constructor, each in
// its own span. Aborts (TAPO_CHECK) if the generator finds no scenario; the
// workloads only use configurations it always accepts.
std::unique_ptr<Park> build_park(const tapo::scenario::ScenarioConfig& config,
                                 double arrival_scale, Tracer& tracer);

// Stage 1 -> 2 -> 3 -> finalize_assignment, called as
// ThreeStageAssigner::assign calls them, one span per stage. Adds the
// process CPU time Stage 1 took (all sweep workers) to `stage1_cpu_s`.
tapo::core::Assignment staged_plan(const tapo::dc::DataCenter& dc,
                                   const tapo::thermal::HeatFlowModel& model,
                                   const tapo::core::ThreeStageOptions& options,
                                   Tracer& tracer, double* stage1_cpu_s = nullptr);

// One fault answered by one recovery. `degraded` is a fresh copy of the
// healthy park; apply_fault, the controller and recover() run inside one
// "core.recover" span, whose duration is `seconds`.
struct TimedRecovery {
  tapo::dc::DataCenter degraded;
  tapo::core::RecoveryOutcome outcome;
  double seconds = 0.0;
};
TimedRecovery timed_recover(const tapo::dc::DataCenter& healthy_dc,
                            const tapo::thermal::HeatFlowModel& model,
                            const tapo::core::Assignment& healthy_plan,
                            const tapo::sim::FaultEvent& event,
                            const tapo::core::RecoveryOptions& options,
                            Tracer& tracer);

// The recover-150 fault sequence: `count` faults cycling node failure, CRAC
// derate to 50% and power cap to 85% of the budget, with seeded targets.
std::vector<tapo::sim::FaultEvent> fault_sequence(const tapo::dc::DataCenter& dc,
                                                  std::uint64_t seed,
                                                  std::size_t count);

}  // namespace perfbench
