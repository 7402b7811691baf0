// Robustness extension: time-to-safe-plan and reward retained after a fault.
//
// A fault (node loss, CRAC derate, power-cap drop) invalidates the plan in
// force; the two-phase recovery controller answers with a safety throttle
// (no LP) and a full three-stage re-plan. This harness measures both phases'
// wall-clock latency and how much of the pre-fault reward rate each phase
// retains - the operational cost of a fault under the paper's model.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "core/recovery.h"
#include "core/replanner.h"
#include "scenario/generator.h"
#include "sim/faults.h"
#include "thermal/heatflow.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  using namespace tapo;

  const std::size_t nodes = bench::env_size("TAPO_NODES", 15);
  const std::size_t runs = bench::env_size("TAPO_RUNS", 5);
  // TAPO_LP_ENGINE=dense and TAPO_NO_WARM=1 reproduce the pre-warm-start
  // baseline (dense tableau, cold re-plans) for A/B latency comparisons
  // against the default revised + warm-seeded configuration.
  const char* engine_env = std::getenv("TAPO_LP_ENGINE");
  const bool use_dense =
      engine_env != nullptr && std::string(engine_env) == "dense";
  const bool no_warm = std::getenv("TAPO_NO_WARM") != nullptr;
  util::telemetry::Registry* const reg = bench::telemetry_sink();
  std::printf("=== Extension: recovery latency and retained reward per fault "
              "(%zu nodes, %zu scenarios, %s engine, warm seeds %s) ===\n\n",
              nodes, runs, use_dense ? "dense" : "revised",
              no_warm ? "off" : "on");

  struct FaultCase {
    const char* label;
    sim::FaultEvent event;
  };
  const FaultCase cases[] = {
      {"node failure", {0.0, sim::FaultKind::kNodeFail, 0, 0.0}},
      {"CRAC derate to 50%", {0.0, sim::FaultKind::kCracDerate, 0, 0.5}},
      {"power cap to 85%", {0.0, sim::FaultKind::kPowerCap, 0, 0.0}},
  };

  util::Table table({"fault", "horizon step (ms)", "throttle (ms)",
                     "full recovery (ms)", "throttle reward (%)",
                     "recovered reward (%)", "replans adopted",
                     "LP warm hit (%)", "LP iters/solve"});
  // Re-plan LP effort: recover() seeds the phase-2 sweep with the pre-fault
  // plan's Stage-1 basis, so most grid points should warm-start (lp.* in
  // docs/OBSERVABILITY.md). Shared with the JSON sink when one is set.
  util::telemetry::Registry lp_local;
  util::telemetry::Registry* const lp_reg = reg ? reg : &lp_local;
  for (const FaultCase& fault_case : cases) {
    util::RunningStats horizon_ms, throttle_ms, recover_ms, throttle_pct,
        recovered_pct;
    std::size_t adopted = 0, measured = 0;
    const std::uint64_t solves0 = lp_reg->counter_value("lp.solves");
    const std::uint64_t iters0 = lp_reg->counter_value("lp.iterations");
    const std::uint64_t warm0 = lp_reg->counter_value("lp.warm_starts");
    for (std::size_t run = 0; run < runs; ++run) {
      scenario::ScenarioConfig config;
      config.num_nodes = nodes;
      config.num_cracs = 2;
      config.seed = 91000 + run;
      auto scenario = scenario::generate_scenario(config);
      if (!scenario) continue;
      const thermal::HeatFlowModel model(scenario->dc);
      const core::ThreeStageAssigner assigner(scenario->dc, model);
      core::Assignment healthy = assigner.assign();
      if (!healthy.feasible || healthy.reward_rate <= 0.0) continue;
      if (no_warm) healthy.stage1_basis = {};  // recover() finds no seed

      // Demand-drift yardstick on the healthy park: a receding-horizon step
      // at +20% arrivals patches the resident LP's arrival rows and resumes
      // — no rebuild, no grid sweep. One untimed step absorbs the cold
      // first factorization so the timed step is the steady-state path.
      {
        core::RollingPlanner planner(scenario->dc, model, healthy);
        std::vector<double> lambda;
        for (const auto& t : scenario->dc.task_types) {
          lambda.push_back(t.arrival_rate);
        }
        (void)planner.step(lambda);
        for (double& rate : lambda) rate *= 1.2;
        auto step_start = std::chrono::steady_clock::now();
        const core::HorizonStep step = planner.step(lambda);
        if (step.adopted()) horizon_ms.add(ms_since(step_start));
      }

      core::RecoveryOptions options;
      options.telemetry = reg;
      options.assign.stage1.telemetry = lp_reg;
      if (use_dense) options.assign.stage1.lp.engine = solver::LpEngine::Dense;
      sim::FaultEvent event = fault_case.event;
      if (event.kind == sim::FaultKind::kPowerCap) {
        event.value = 0.85 * scenario->dc.p_const_kw;
      }
      sim::apply_fault(scenario->dc, event, options.assign.stage1.tcrac_min_c,
                       options.assign.stage1.tcrac_max_c);

      const core::RecoveryController controller(scenario->dc, model, options);
      auto start = std::chrono::steady_clock::now();
      const core::Assignment throttle = controller.safety_throttle(healthy);
      throttle_ms.add(ms_since(start));

      start = std::chrono::steady_clock::now();
      const core::RecoveryOutcome outcome = controller.recover(healthy);
      recover_ms.add(ms_since(start));

      if (throttle.feasible && outcome.safe) {
        throttle_pct.add(100.0 * outcome.throttle_reward_rate /
                         healthy.reward_rate);
        recovered_pct.add(100.0 * outcome.plan.reward_rate /
                          healthy.reward_rate);
        if (outcome.replan_adopted) ++adopted;
        ++measured;
      }
    }
    const double solves =
        static_cast<double>(lp_reg->counter_value("lp.solves") - solves0);
    const double iters =
        static_cast<double>(lp_reg->counter_value("lp.iterations") - iters0);
    const double warm =
        static_cast<double>(lp_reg->counter_value("lp.warm_starts") - warm0);
    const double hit_pct = solves > 0.0 ? 100.0 * warm / solves : 0.0;
    const double iters_per_solve = solves > 0.0 ? iters / solves : 0.0;
    char hit_buf[32], iters_buf[32];
    std::snprintf(hit_buf, sizeof(hit_buf), "%.1f", hit_pct);
    std::snprintf(iters_buf, sizeof(iters_buf), "%.1f", iters_per_solve);
    table.add_row(
        {fault_case.label,
         util::fmt_ci(horizon_ms.mean(), horizon_ms.ci_halfwidth(0.95)),
         util::fmt_ci(throttle_ms.mean(), throttle_ms.ci_halfwidth(0.95)),
         util::fmt_ci(recover_ms.mean(), recover_ms.ci_halfwidth(0.95)),
         util::fmt_ci(throttle_pct.mean(), throttle_pct.ci_halfwidth(0.95)),
         util::fmt_ci(recovered_pct.mean(), recovered_pct.ci_halfwidth(0.95)),
         std::to_string(adopted) + "/" + std::to_string(measured), hit_buf,
         iters_buf});
    std::fprintf(stderr, "  %s done\n", fault_case.label);
    if (reg) {
      reg->gauge_set(std::string("bench.recovery.throttle_ms.") +
                         fault_case.label,
                     throttle_ms.mean());
      reg->gauge_set(std::string("bench.recovery.full_ms.") + fault_case.label,
                     recover_ms.mean());
      reg->gauge_set(std::string("bench.recovery.horizon_step_ms.") +
                         fault_case.label,
                     horizon_ms.mean());
      reg->gauge_set(std::string("bench.recovery.lp_warm_hit_pct.") +
                         fault_case.label,
                     hit_pct);
    }
  }
  table.print(std::cout);
  std::printf(
      "\nReading: the throttle reaches a safe (possibly conservative)\n"
      "operating point orders of magnitude faster than the re-plan; the\n"
      "re-plan then buys back most of the reward the fault destroyed. The\n"
      "horizon step is the demand-drift yardstick: a rates-only patch of\n"
      "the resident LP, cheaper still than the full fault re-plan.\n");
  bench::write_telemetry();
  return 0;
}
