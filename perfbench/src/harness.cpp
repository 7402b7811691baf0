#include "harness.h"

#include <time.h>

#include <utility>

#include "core/stage1.h"
#include "core/stage2.h"
#include "core/stage3.h"
#include "util/check.h"
#include "util/rng.h"

namespace perfbench {

using namespace tapo;

double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

int Tracer::open(std::string_view name) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::string(name), Clock::now(), {}, parent});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::close(int index) {
  TAPO_CHECK(!open_.empty() && open_.back() == index);
  spans_[static_cast<std::size_t>(index)].end = Clock::now();
  open_.pop_back();
}

double Tracer::total(std::string_view name) const {
  double sum = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) sum += seconds_between(span.start, span.end);
  }
  return sum;
}

double Tracer::top_level_total() const {
  double sum = 0.0;
  for (const Span& span : spans_) {
    if (span.parent == -1) sum += seconds_between(span.start, span.end);
  }
  return sum;
}

namespace {

// Process CPU time (all threads), for Stage-1 parallelism.
double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

std::unique_ptr<Park> build_park(const scenario::ScenarioConfig& config,
                                 double arrival_scale, Tracer& tracer) {
  std::optional<scenario::Scenario> generated;
  {
    const ScopedSpan span(tracer, "scenario.generate");
    generated = scenario::generate_scenario(config);
  }
  TAPO_CHECK_MSG(generated.has_value(), "benchmark park failed to generate");
  // The profile's arrival overlay, applied after generation as the soak
  // runner applies it.
  for (dc::TaskType& task : generated->dc.task_types) {
    task.arrival_rate *= arrival_scale;
  }
  const ScopedSpan span(tracer, "thermal.heatflow");
  return std::make_unique<Park>(std::move(*generated));
}

core::Assignment staged_plan(const dc::DataCenter& dc,
                             const thermal::HeatFlowModel& model,
                             const core::ThreeStageOptions& options,
                             Tracer& tracer, double* stage1_cpu_s) {
  util::telemetry::Registry* const reg = options.stage1.telemetry;
  const ScopedSpan plan_span(tracer, "core.plan");

  core::Assignment assignment;
  assignment.technique =
      "three-stage psi=" + std::to_string(static_cast<int>(options.stage1.psi));

  core::Stage1Result s1;
  {
    const ScopedSpan span(tracer, "core.stage1");
    const double cpu0 = process_cpu_seconds();
    s1 = core::Stage1Solver(dc, model).solve(options.stage1);
    if (stage1_cpu_s) *stage1_cpu_s += process_cpu_seconds() - cpu0;
  }
  assignment.lp_solves = s1.lp_solves;
  if (!s1.feasible) {
    assignment.status = s1.status.ok()
                            ? util::Status::Infeasible("stage1 found no plan")
                            : s1.status;
    return assignment;
  }
  assignment.stage1_objective = s1.objective;
  assignment.crac_out_c = s1.crac_out_c;
  assignment.stage1_basis = s1.basis;

  core::Stage2Result s2;
  {
    const ScopedSpan span(tracer, "core.stage2");
    s2 = core::convert_power_to_pstates(dc, s1.node_core_power_kw, reg);
  }
  if (!s2.status.ok()) {
    assignment.status = s2.status;
    return assignment;
  }
  assignment.core_pstate = s2.core_pstate;

  core::Stage3Result s3;
  {
    const ScopedSpan span(tracer, "core.stage3");
    s3 = core::solve_stage3(dc, s2.core_pstate, reg);
  }
  if (!s3.optimal) {
    assignment.status = s3.status.ok()
                            ? util::Status::Internal("stage3 solver failure")
                            : s3.status;
    return assignment;
  }
  assignment.tc = s3.tc;
  assignment.reward_rate = s3.reward_rate;
  assignment.feasible = true;

  const ScopedSpan span(tracer, "core.finalize");
  return core::finalize_assignment(dc, model, std::move(assignment));
}

TimedRecovery timed_recover(const dc::DataCenter& healthy_dc,
                            const thermal::HeatFlowModel& model,
                            const core::Assignment& healthy_plan,
                            const sim::FaultEvent& event,
                            const core::RecoveryOptions& options,
                            Tracer& tracer) {
  TimedRecovery result;
  {
    const ScopedSpan span(tracer, "bench.copy_park");
    result.degraded = healthy_dc;
  }
  const int span = tracer.open("core.recover");
  sim::apply_fault(result.degraded, event, options.assign.stage1.tcrac_min_c,
                   options.assign.stage1.tcrac_max_c);
  const core::RecoveryController controller(result.degraded, model, options);
  result.outcome = controller.recover(healthy_plan);
  tracer.close(span);
  const Tracer::Span& closed = tracer.spans()[static_cast<std::size_t>(span)];
  result.seconds = seconds_between(closed.start, closed.end);
  return result;
}

std::vector<sim::FaultEvent> fault_sequence(const dc::DataCenter& dc,
                                            std::uint64_t seed,
                                            std::size_t count) {
  util::Rng rng(seed);
  std::vector<sim::FaultEvent> events;
  events.reserve(count);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  for (std::size_t i = 0; i < count; ++i) {
    sim::FaultEvent event;
    switch (i % 3) {
      case 0:
        event.kind = sim::FaultKind::kNodeFail;
        event.target = pick(dc.num_nodes());
        break;
      case 1:
        event.kind = sim::FaultKind::kCracDerate;
        event.target = pick(dc.num_cracs());
        event.value = 0.5;
        break;
      default:
        event.kind = sim::FaultKind::kPowerCap;
        event.value = 0.85 * dc.p_const_kw;
        break;
    }
    events.push_back(event);
  }
  return events;
}

}  // namespace perfbench
