#include "core/stage1.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>

#include "core/stage1_lp.h"
#include "solver/lp.h"
#include "util/telemetry.h"

namespace tapo::core {

solver::GridSearchOptions stage1_grid_options(const Stage1Options& options) {
  solver::GridSearchOptions grid = options.grid;
  grid.threads = options.threads;
  return grid;
}

Stage1Solver::Stage1Solver(const dc::DataCenter& dc,
                           const thermal::HeatFlowModel& model)
    : dc_(dc), model_(model) {}

Stage1Solver::LpOutcome Stage1Solver::solve_at(const std::vector<double>& crac_out,
                                               double psi) const {
  return solve_at(crac_out, psi, solver::LpOptions{});
}

Stage1Solver::LpOutcome Stage1Solver::solve_at(const std::vector<double>& crac_out,
                                               double psi,
                                               const solver::LpOptions& lp_options) const {
  return solve_stage1_lp(dc_, model_, Stage1LpEvaluator::Mode::MaximizeReward,
                         psi, 0.0, crac_out, lp_options);
}

Stage1Result Stage1Solver::solve(const Stage1Options& options) const {
  util::telemetry::Registry* const reg = options.telemetry;
  const util::telemetry::ScopedTimer stage_timer(reg, "stage1.solve");

  // Per-CRAC lower bounds honor degraded units: a derated CRAC cannot hold
  // supply air colder than its raised minimum outlet, so the sweep simply
  // never proposes such setpoints (clamped to the top of the range on full
  // failure).
  const std::size_t nc = dc_.num_cracs();
  std::vector<double> lo(nc);
  const std::vector<double> hi(nc, options.tcrac_max_c);
  for (std::size_t c = 0; c < nc; ++c) {
    lo[c] = std::min(dc_.crac_min_outlet(c, options.tcrac_min_c),
                     options.tcrac_max_c);
  }

  // Every LP lives in per-call or per-lane state only, so the sweep may
  // evaluate lanes from several threads at once; the counters are the sole
  // shared writes (the telemetry registry is itself thread-safe).
  //
  // On the revised engine each grid-search lane holds one resident LP for
  // the whole search (solve_on_lane), seeded from options.warm_seed at the
  // lane's first point. The lane partition depends only on the point
  // sequence, so results are bit-identical for any thread count.
  std::atomic<std::size_t> lp_solves{0};
  std::atomic<std::size_t> infeasible{0};
  std::atomic<std::size_t> iter_limited{0};
  const solver::GridChainObjective objective =
      [&](const std::vector<double>& crac_out,
          std::shared_ptr<void>& lane_state) -> std::optional<double> {
    lp_solves.fetch_add(1, std::memory_order_relaxed);
    const util::telemetry::ScopedTimer lp_timer(reg, "stage1.lp");
    solver::LpOptions lp_opt = options.lp;
    lp_opt.telemetry = reg;
    const LpOutcome outcome = solve_on_lane(
        dc_, model_, Stage1LpEvaluator::Mode::MaximizeReward, options.psi, 0.0,
        crac_out, lp_opt, options.warm_seed, lane_state);
    if (!outcome.feasible) {
      infeasible.fetch_add(1, std::memory_order_relaxed);
      if (outcome.status == solver::LpStatus::IterLimit) {
        iter_limited.fetch_add(1, std::memory_order_relaxed);
      }
      return std::nullopt;
    }
    return outcome.objective;
  };

  solver::GridSearchOptions grid = stage1_grid_options(options);
  if (reg) {
    grid.on_round = [reg](std::size_t round,
                          const solver::GridSearchResult& running) {
      reg->count("stage1.sweep_rounds");
      if (running.found) {
        reg->sample("stage1.best_objective_by_round",
                    static_cast<double>(round), running.best_value);
      }
    };
  }
  const solver::GridSearchResult search =
      options.full_grid
          ? solver::grid_search_maximize(lo, hi, objective, grid)
          : solver::uniform_then_coordinate_maximize(lo, hi, objective, grid);

  Stage1Result result;
  result.lp_solves = lp_solves.load(std::memory_order_relaxed);
  if (reg) {
    reg->count("stage1.solves");
    reg->count("stage1.lp_solves", result.lp_solves);
    reg->count("stage1.infeasible_candidates",
               infeasible.load(std::memory_order_relaxed));
    reg->count("stage1.grid_evaluations", search.evaluations);
  }
  if (!search.found) {
    // Distinguish "every point truly infeasible" from "the LP iteration cap
    // cut candidate solves short": the latter is a resource failure, not a
    // statement about the data center.
    result.status =
        iter_limited.load(std::memory_order_relaxed) > 0
            ? util::Status::ResourceExhausted(
                  "stage1: no feasible setpoint found and at least one "
                  "candidate LP hit the iteration cap")
            : util::Status::Infeasible(
                  "stage1: no CRAC setpoint vector admits a feasible power LP "
                  "(redlines or power budget unsatisfiable)");
    return result;
  }

  // Final re-solve at the winner always runs the Dense oracle cold, so the
  // published plan is bit-identical whichever engine powered the sweep.
  solver::LpOptions polish = options.lp;
  polish.engine = solver::LpEngine::Dense;
  polish.telemetry = reg;
  LpOutcome best;
  {
    const util::telemetry::ScopedTimer polish_timer(reg, "stage1.polish");
    best = solve_at(search.best_point, options.psi, polish);
  }
  if (!best.feasible) {
    result.status =
        best.status == solver::LpStatus::IterLimit
            ? util::Status::ResourceExhausted(
                  "stage1: LP iteration cap hit re-solving the selected "
                  "setpoints")
            : util::Status::Internal(
                  "stage1: best grid point infeasible on re-solve");
    return result;
  }
  result.feasible = true;
  result.crac_out_c = search.best_point;
  result.node_core_power_kw = best.node_core_power_kw;
  result.objective = best.objective;
  result.compute_power_kw = best.compute_power_kw;
  result.crac_power_kw = best.crac_power_kw;
  result.basis = best.basis;
  if (reg) {
    reg->gauge_set("stage1.best_objective", result.objective);
    reg->gauge_set("stage1.compute_power_kw", result.compute_power_kw);
    reg->gauge_set("stage1.crac_power_kw", result.crac_power_kw);
  }
  return result;
}

}  // namespace tapo::core
