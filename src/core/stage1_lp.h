// The Stage-1 LP at fixed CRAC setpoints, in its two roles (Stage 1's
// reward maximization and powermin's power minimization under a reward
// floor), built two ways.
//
// solve_stage1_lp builds the LP from scratch at one point and solves it
// once. It is the per-point path: the Dense-engine sweep (the test oracle)
// and the Dense polish re-solve at every sweep's winner, whose output is the
// published plan.
//
// Stage1LpEvaluator is the revised-engine sweep's path: one resident LP per
// grid-search lane, built once and re-pointed at successive setpoints. Between
// neighboring points only the setpoint-dependent pieces move: every row's RHS
// (through the affine offsets of HeatFlowModel::offsets) and, in the CRAC
// power rows, the CoP factor k_c = rho*Cp*F_c / CoP(tout_c). The evaluator
// patches exactly those pieces in place:
//
//   * the CRAC power row is carried in the k-scaled form
//       (crac_in_c - tout_c) - q_c / k_c <= 0
//     (solve_stage1_lp multiplies through by k_c), so the node-power
//     coefficients — the dense thermal part — are setpoint-INDEPENDENT and
//     a move touches one coefficient (-1/k_c) plus the RHS per CRAC;
//   * redline rows keep their coefficients verbatim and move only the RHS;
//   * the reward-floor row (MinimizePower) and the budget row never move.
//
// The feasible set at each point is identical for both builders (row
// scaling changes no solution), and the variable layout and row structure
// are exchangeable (an LpBasis from either warm-starts the other). See
// docs/SOLVER.md §7.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/stage1.h"
#include "dc/datacenter.h"
#include "solver/session.h"
#include "thermal/heatflow.h"

namespace tapo::core {

class Stage1LpEvaluator {
 public:
  enum class Mode {
    MaximizeReward,  // Stage 1 proper: reward objective + power budget row
    MinimizePower,   // powermin: -power objective + reward-floor row
  };

  // Builds the LP at crac_out0 and standardizes it into a resident
  // LpSession. reward_floor is only meaningful for MinimizePower (pass 0.0
  // otherwise). lp_options supplies numerics and the telemetry sink; the
  // engine/warm_start fields are ignored (sessions are always the revised
  // engine with per-solve seeds).
  Stage1LpEvaluator(const dc::DataCenter& dc,
                    const thermal::HeatFlowModel& model, Mode mode, double psi,
                    double reward_floor, const std::vector<double>& crac_out0,
                    const solver::LpOptions& lp_options);

  // Re-points the resident LP at new setpoints (patch_rhs on every thermal
  // row, patch_coefficient on one column per CRAC power row).
  void move_to(const std::vector<double>& crac_out);

  // MinimizePower only: moves the reward-floor row's RHS (one patch).
  void set_reward_floor(double floor);

  // Solves the resident LP. A non-null seed warm-starts from that basis
  // (a lane's first solve, from the caller's warm seed); otherwise the
  // previous solve's state is resumed in place. The outcome mirrors Stage1Solver::solve_at:
  // objective/powers on Optimal, the infeasibility-certificate basis on a
  // warm Infeasible.
  Stage1Solver::LpOutcome solve(const solver::LpBasis* seed = nullptr);

  // Session statistics (patches, FT updates, refactorizations, fallbacks).
  solver::LpSession::Stats session_stats() const { return session_->stats(); }

  // The resident patched problem, for differential-oracle re-solves.
  const solver::LpProblem& problem() const { return session_->problem(); }

 private:
  double node_row_rhs(std::size_t r, double node_in0) const;
  double crac_row_rhs(std::size_t c, double crac_in0) const;
  double power_row_rhs(std::size_t c, double crac_in0, double tout) const;
  static double inv_k(const dc::CracSpec& crac, double tout);

  const dc::DataCenter& dc_;
  const thermal::HeatFlowModel& model_;
  Mode mode_;

  std::vector<std::vector<std::size_t>> seg_vars_;
  std::vector<std::size_t> crac_power_vars_;
  double base_power_ = 0.0;

  // Row layout: [floor_row_ (MinimizePower)] node redlines, CRAC redlines,
  // CRAC power rows, [budget (MaximizeReward)].
  std::size_t node_row0_ = 0;
  std::size_t crac_row0_ = 0;
  std::size_t power_row0_ = 0;

  // Setpoint-independent RHS base terms (sum over nodes of w * base power,
  // accumulated in the same order as solve_stage1_lp).
  std::vector<double> node_rhs_base_, crac_rhs_base_, power_rhs_base_;

  std::unique_ptr<solver::LpSession> session_;
};

// Builds the LP of `mode` at crac_out from scratch (CRAC power rows
// multiplied through by k_c) and solves it once with lp_options. A base
// load that alone breaks a redline returns infeasible without a solve.
// reward_floor is only meaningful for MinimizePower (pass 0.0 otherwise).
Stage1Solver::LpOutcome solve_stage1_lp(const dc::DataCenter& dc,
                                        const thermal::HeatFlowModel& model,
                                        Stage1LpEvaluator::Mode mode,
                                        double psi, double reward_floor,
                                        const std::vector<double>& crac_out,
                                        const solver::LpOptions& lp_options);

// One setpoint-sweep point of `mode` evaluated on a grid-search lane
// (lane_state, see solver::GridChainObjective). On the revised engine the
// lane holds one resident Stage1LpEvaluator: built at the lane's first point
// and seeded from `seed` (may be null), then moved to crac_out and resumed
// at every later point. The Dense engine (the test oracle) ignores the lane
// and solves the point with solve_stage1_lp.
Stage1Solver::LpOutcome solve_on_lane(const dc::DataCenter& dc,
                                      const thermal::HeatFlowModel& model,
                                      Stage1LpEvaluator::Mode mode, double psi,
                                      double reward_floor,
                                      const std::vector<double>& crac_out,
                                      const solver::LpOptions& lp_options,
                                      const solver::LpBasis* seed,
                                      std::shared_ptr<void>& lane_state);

}  // namespace tapo::core
