#include "core/powermin.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>

#include "core/stage1_lp.h"
#include "core/stage2.h"
#include "core/stage3.h"
#include "solver/lp.h"
#include "util/telemetry.h"

namespace tapo::core {

PowerMinResult minimize_power_for_reward(const dc::DataCenter& dc,
                                         const thermal::HeatFlowModel& model,
                                         double target_reward_rate,
                                         const PowerMinOptions& options) {
  util::telemetry::Registry* const reg = options.stage1.telemetry;
  const util::telemetry::ScopedTimer total_timer(reg, "powermin.solve");

  PowerMinResult result;
  double floor = target_reward_rate;

  // Warm-start seed carried across retry attempts: an inflated reward floor
  // only moves one RHS, so the previous attempt's optimal basis is a few
  // dual pivots from the new optimum.
  solver::LpBasis attempt_seed;

  for (std::size_t attempt = 0; attempt <= options.max_retries; ++attempt) {
    ++result.attempts;
    if (reg) {
      reg->count("powermin.attempts");
      reg->sample("powermin.floor_by_attempt", static_cast<double>(attempt),
                  floor);
    }

    // Same degraded-CRAC lower bounds as Stage 1: a derated unit cannot go
    // below its raised minimum outlet temperature.
    const std::size_t nc = dc.num_cracs();
    std::vector<double> lo(nc);
    const std::vector<double> hi(nc, options.stage1.tcrac_max_c);
    for (std::size_t c = 0; c < nc; ++c) {
      lo[c] = std::min(dc.crac_min_outlet(c, options.stage1.tcrac_min_c),
                       options.stage1.tcrac_max_c);
    }
    // Each lane's first build seeds from the previous attempt's winning
    // basis (or the caller's warm_seed on the first attempt).
    const solver::LpBasis* seed =
        attempt_seed.empty() ? options.stage1.warm_seed : &attempt_seed;
    // Same lane sweep as Stage 1 (solve_on_lane): on the revised engine one
    // resident MinimizePower LP per lane for the whole search, patched in
    // place between grid points (the reward floor is fixed within an
    // attempt, so only the thermal RHS and the CoP coefficients move).
    std::atomic<std::size_t> lp_solves{0};
    std::atomic<std::size_t> infeasible{0};
    std::atomic<std::size_t> iter_limited{0};
    const solver::GridChainObjective objective =
        [&](const std::vector<double>& crac_out,
            std::shared_ptr<void>& lane_state) -> std::optional<double> {
      lp_solves.fetch_add(1, std::memory_order_relaxed);
      const util::telemetry::ScopedTimer lp_timer(reg, "powermin.lp");
      solver::LpOptions lp_opt = options.stage1.lp;
      lp_opt.telemetry = reg;
      const Stage1Solver::LpOutcome outcome = solve_on_lane(
          dc, model, Stage1LpEvaluator::Mode::MinimizePower, options.stage1.psi,
          floor, crac_out, lp_opt, seed, lane_state);
      if (!outcome.feasible) {
        infeasible.fetch_add(1, std::memory_order_relaxed);
        if (outcome.status == solver::LpStatus::IterLimit) {
          iter_limited.fetch_add(1, std::memory_order_relaxed);
        }
        return std::nullopt;
      }
      return -(outcome.compute_power_kw + outcome.crac_power_kw);
    };
    // Every LP lives in per-call or per-lane state only, so the sweep
    // honours the Stage-1 threads knob (each round's lanes run as one
    // parallel batch).
    const solver::GridSearchResult search = solver::uniform_then_coordinate_maximize(
        lo, hi, objective, stage1_grid_options(options.stage1));
    if (reg) {
      reg->count("powermin.lp_solves",
                 lp_solves.load(std::memory_order_relaxed));
      reg->count("powermin.infeasible_candidates",
                 infeasible.load(std::memory_order_relaxed));
    }
    if (!search.found) {
      result.status =
          iter_limited.load(std::memory_order_relaxed) > 0
              ? util::Status::ResourceExhausted(
                    "powermin: no feasible setpoint found and at least one "
                    "candidate LP hit the iteration cap")
              : util::Status::Infeasible(
                    "powermin: reward floor unreachable at every CRAC "
                    "setpoint");
      return result;  // target unreachable even relaxed
    }

    // Dense-oracle re-solve at the winner keeps the published plan
    // engine-independent (mirrors Stage 1's polish step).
    solver::LpOptions polish = options.stage1.lp;
    polish.engine = solver::LpEngine::Dense;
    polish.warm_start = nullptr;
    polish.telemetry = reg;
    Stage1Solver::LpOutcome best;
    {
      const util::telemetry::ScopedTimer polish_timer(reg, "powermin.polish");
      best = solve_stage1_lp(dc, model, Stage1LpEvaluator::Mode::MinimizePower,
                             options.stage1.psi, floor, search.best_point,
                             polish);
    }
    if (!best.feasible) {
      result.status =
          best.status == solver::LpStatus::IterLimit
              ? util::Status::ResourceExhausted(
                    "powermin: LP iteration cap hit re-solving the selected "
                    "setpoints")
              : util::Status::Internal(
                    "powermin: best grid point infeasible on re-solve");
      return result;
    }
    attempt_seed = best.basis;

    const Stage2Result s2 =
        convert_power_to_pstates(dc, best.node_core_power_kw, reg);
    if (!s2.status.ok()) {
      result.status = s2.status;
      return result;
    }
    const Stage3Result s3 = solve_stage3(dc, s2.core_pstate, reg);
    if (!s3.optimal) {
      result.status = s3.status.ok()
                          ? util::Status::Internal("powermin: stage3 failure")
                          : s3.status;
      return result;
    }

    Assignment assignment;
    assignment.feasible = true;
    assignment.technique = "power-min";
    assignment.crac_out_c = search.best_point;
    assignment.core_pstate = s2.core_pstate;
    assignment.tc = s3.tc;
    assignment.reward_rate = s3.reward_rate;
    assignment.stage1_objective = floor;
    assignment = finalize_assignment(dc, model, std::move(assignment));

    result.feasible = true;
    result.total_power_kw = assignment.total_power_kw();
    result.reward_rate = s3.reward_rate;
    result.assignment = std::move(assignment);
    result.met_target = s3.reward_rate >=
                        target_reward_rate * (1.0 - options.relative_tolerance);
    if (reg) {
      reg->sample("powermin.reward_by_attempt", static_cast<double>(attempt),
                  s3.reward_rate);
      reg->gauge_set("powermin.total_power_kw", result.total_power_kw);
      reg->gauge_set("powermin.reward_rate", result.reward_rate);
      reg->gauge_set("powermin.met_target", result.met_target ? 1.0 : 0.0);
    }
    if (result.met_target) return result;
    floor *= options.retry_inflation;  // rounding shortfall: ask Stage 1 for more
  }
  return result;
}

}  // namespace tapo::core
