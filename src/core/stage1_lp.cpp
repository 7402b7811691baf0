#include "core/stage1_lp.h"

#include <optional>
#include <utility>

#include "core/reward.h"
#include "dc/crac.h"
#include "solver/piecewise.h"
#include "util/check.h"
#include "util/telemetry.h"

namespace tapo::core {

namespace {

// Node-level concave reward functions, one per node type.
std::vector<solver::PiecewiseLinear> node_rewards(const dc::DataCenter& dc,
                                                  double psi) {
  std::vector<solver::PiecewiseLinear> arr_by_type;
  arr_by_type.reserve(dc.node_types.size());
  for (std::size_t t = 0; t < dc.node_types.size(); ++t) {
    arr_by_type.push_back(concave_aggregate_reward_rate(dc, t, psi)
                              .scale_copies(dc.node_types[t].cores_per_node()));
  }
  return arr_by_type;
}

}  // namespace

Stage1Solver::LpOutcome solve_stage1_lp(const dc::DataCenter& dc,
                                        const thermal::HeatFlowModel& model,
                                        Stage1LpEvaluator::Mode mode,
                                        double psi, double reward_floor,
                                        const std::vector<double>& crac_out,
                                        const solver::LpOptions& lp_options) {
  using Mode = Stage1LpEvaluator::Mode;
  const std::size_t nn = dc.num_nodes();
  const std::size_t nc = dc.num_cracs();
  TAPO_CHECK(crac_out.size() == nc);

  // Phase accounting for docs/SOLVER.md §6: everything up to solve_lp is
  // per-point fixed cost that the resident evaluator amortizes away.
  std::optional<util::telemetry::ScopedTimer> build_timer;
  if (lp_options.telemetry) build_timer.emplace(lp_options.telemetry, "lp.phase.build");

  const std::vector<solver::PiecewiseLinear> arr_by_type = node_rewards(dc, psi);
  const thermal::LinearResponse lr = model.linearize(crac_out);

  solver::LpProblem lp;
  // Segment variables per node; consecutive segments of a concave function
  // have decreasing slopes, so a maximizing LP fills them in order and the
  // sum of segment variables is exactly the node core power p_j. Failed
  // nodes get no variables at all - their core power is pinned to zero and
  // their base draw is excluded from every row via node_base_power_kw.
  // MinimizePower prices every segment at -1 (minimize power) and moves the
  // slopes into the reward-floor row.
  std::vector<std::vector<std::size_t>> seg_vars(nn);
  std::vector<std::pair<std::size_t, double>> reward_terms;
  for (std::size_t j = 0; j < nn; ++j) {
    if (dc.node_failed(j)) continue;
    const auto& fn = arr_by_type[dc.nodes[j].type];
    const auto& pts = fn.points();
    const auto slopes = fn.slopes();
    for (std::size_t s = 0; s < slopes.size(); ++s) {
      const double len = pts[s + 1].x - pts[s].x;
      const double obj = mode == Mode::MaximizeReward ? slopes[s] : -1.0;
      const std::size_t v = lp.add_variable(0.0, len, obj);
      seg_vars[j].push_back(v);
      if (mode == Mode::MinimizePower) reward_terms.emplace_back(v, slopes[s]);
    }
  }
  // One auxiliary variable per CRAC carrying its (clamped) power; it appears
  // with +1 in the budget row (or -1 in a minimized objective), so the LP
  // presses it down onto max(0, linear expression) - an exact encoding of
  // Eq. 3's clamp.
  std::vector<std::size_t> crac_power_vars(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    crac_power_vars[c] = lp.add_variable(
        0.0, solver::kLpInfinity, mode == Mode::MaximizeReward ? 0.0 : -1.0);
  }

  const double base_power = dc.total_base_power_kw();

  if (mode == Mode::MinimizePower) {
    lp.add_constraint(std::move(reward_terms), solver::Relation::GreaterEq,
                      reward_floor);
  }

  // Thermal redlines: node_in0 already contains the CRAC-outlet contribution;
  // the coefficient rows add the node-power influence, including base power.
  for (std::size_t r = 0; r < nn; ++r) {
    std::vector<std::pair<std::size_t, double>> terms;
    double rhs = dc.redline_node_c - lr.node_in0[r];
    for (std::size_t j = 0; j < nn; ++j) {
      const double w = lr.node_in_coeff(r, j);
      if (w == 0.0) continue;
      rhs -= w * dc.node_base_power_kw(j);
      for (std::size_t v : seg_vars[j]) terms.emplace_back(v, w);
    }
    if (rhs < 0.0 && terms.empty()) {
      return {};  // base load alone violates a redline at these setpoints
    }
    lp.add_constraint(std::move(terms), solver::Relation::LessEq, rhs);
  }
  for (std::size_t r = 0; r < nc; ++r) {
    std::vector<std::pair<std::size_t, double>> terms;
    double rhs = dc.redline_crac_c - lr.crac_in0[r];
    for (std::size_t j = 0; j < nn; ++j) {
      const double w = lr.crac_in_coeff(r, j);
      if (w == 0.0) continue;
      rhs -= w * dc.node_base_power_kw(j);
      for (std::size_t v : seg_vars[j]) terms.emplace_back(v, w);
    }
    if (rhs < 0.0 && terms.empty()) return {};
    lp.add_constraint(std::move(terms), solver::Relation::LessEq, rhs);
  }

  // CRAC power definition rows: k_c * (crac_in_c - tout_c) - q_c <= 0 with
  // k_c = rho*Cp*F_c / CoP(tout_c).
  for (std::size_t c = 0; c < nc; ++c) {
    const dc::CracSpec& crac = dc.cracs[c];
    const double k = dc::kAirDensity * dc::kAirSpecificHeat * crac.flow_m3s /
                     crac.cop(crac_out[c]);
    std::vector<std::pair<std::size_t, double>> terms;
    double rhs = -k * (lr.crac_in0[c] - crac_out[c]);
    for (std::size_t j = 0; j < nn; ++j) {
      const double w = k * lr.crac_in_coeff(c, j);
      if (w == 0.0) continue;
      rhs -= w * dc.node_base_power_kw(j);
      for (std::size_t v : seg_vars[j]) terms.emplace_back(v, w);
    }
    terms.emplace_back(crac_power_vars[c], -1.0);
    lp.add_constraint(std::move(terms), solver::Relation::LessEq, rhs);
  }

  // Power budget: sum of node core powers + CRAC powers <= Pconst - base.
  if (mode == Mode::MaximizeReward) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t j = 0; j < nn; ++j) {
      for (std::size_t v : seg_vars[j]) terms.emplace_back(v, 1.0);
    }
    for (std::size_t v : crac_power_vars) terms.emplace_back(v, 1.0);
    lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                      dc.p_const_kw - base_power);
  }

  build_timer.reset();
  const solver::LpSolution sol = solve_lp(lp, lp_options);
  Stage1Solver::LpOutcome out;
  out.status = sol.status;
  if (!sol.optimal()) {
    // A warm dual solve that proved infeasibility exports its (dual-
    // feasible) certificate basis.
    out.basis = sol.basis;
    return out;
  }

  out.feasible = true;
  out.basis = sol.basis;
  out.objective = sol.objective;
  out.node_core_power_kw.assign(nn, 0.0);
  for (std::size_t j = 0; j < nn; ++j) {
    for (std::size_t v : seg_vars[j]) out.node_core_power_kw[j] += sol.x[v];
  }
  out.compute_power_kw = base_power;
  for (double p : out.node_core_power_kw) out.compute_power_kw += p;
  out.crac_power_kw = 0.0;
  for (std::size_t v : crac_power_vars) out.crac_power_kw += sol.x[v];
  return out;
}

double Stage1LpEvaluator::inv_k(const dc::CracSpec& crac, double tout) {
  // k_c = rho*Cp*F_c / CoP(tout_c); the resident row carries -1/k_c on the
  // CRAC power variable so the thermal coefficients stay fixed.
  return crac.cop(tout) /
         (dc::kAirDensity * dc::kAirSpecificHeat * crac.flow_m3s);
}

double Stage1LpEvaluator::node_row_rhs(std::size_t r, double node_in0) const {
  return (dc_.redline_node_c - node_in0) - node_rhs_base_[r];
}

double Stage1LpEvaluator::crac_row_rhs(std::size_t c, double crac_in0) const {
  return (dc_.redline_crac_c - crac_in0) - crac_rhs_base_[c];
}

double Stage1LpEvaluator::power_row_rhs(std::size_t c, double crac_in0,
                                        double tout) const {
  // solve_stage1_lp's row, divided through by k_c:
  //   sum_j w_cj p_j - q_c / k_c <= -(crac_in0_c - tout_c) - sum_j w_cj base_j
  return -(crac_in0 - tout) - power_rhs_base_[c];
}

Stage1Solver::LpOutcome solve_on_lane(const dc::DataCenter& dc,
                                      const thermal::HeatFlowModel& model,
                                      Stage1LpEvaluator::Mode mode, double psi,
                                      double reward_floor,
                                      const std::vector<double>& crac_out,
                                      const solver::LpOptions& lp_options,
                                      const solver::LpBasis* seed,
                                      std::shared_ptr<void>& lane_state) {
  if (lp_options.engine == solver::LpEngine::Dense) {
    return solve_stage1_lp(dc, model, mode, psi, reward_floor, crac_out,
                           lp_options);
  }
  if (lane_state == nullptr) {
    auto eval = std::make_shared<Stage1LpEvaluator>(
        dc, model, mode, psi, reward_floor, crac_out, lp_options);
    lane_state = eval;
    return eval->solve(seed);
  }
  auto* eval = static_cast<Stage1LpEvaluator*>(lane_state.get());
  eval->move_to(crac_out);
  return eval->solve();
}

Stage1LpEvaluator::Stage1LpEvaluator(const dc::DataCenter& dc,
                                     const thermal::HeatFlowModel& model,
                                     Mode mode, double psi, double reward_floor,
                                     const std::vector<double>& crac_out0,
                                     const solver::LpOptions& lp_options)
    : dc_(dc), model_(model), mode_(mode) {
  const std::size_t nn = dc_.num_nodes();
  const std::size_t nc = dc_.num_cracs();
  TAPO_CHECK(crac_out0.size() == nc);

  const std::vector<solver::PiecewiseLinear> arr_by_type = node_rewards(dc_, psi);
  const thermal::HeatFlowModel::AffineOffsets off = model_.offsets(crac_out0);
  const solver::Matrix& node_coeff = model_.node_in_coeff();
  const solver::Matrix& crac_coeff = model_.crac_in_coeff();

  solver::LpProblem lp;
  // Same variable layout as solve_stage1_lp, so an LpBasis is exchangeable
  // between this LP and the per-point builder's.
  seg_vars_.assign(nn, {});
  std::vector<std::pair<std::size_t, double>> reward_terms;
  for (std::size_t j = 0; j < nn; ++j) {
    if (dc_.node_failed(j)) continue;
    const auto& fn = arr_by_type[dc_.nodes[j].type];
    const auto& pts = fn.points();
    const auto slopes = fn.slopes();
    for (std::size_t s = 0; s < slopes.size(); ++s) {
      const double len = pts[s + 1].x - pts[s].x;
      const double obj = mode_ == Mode::MaximizeReward ? slopes[s] : -1.0;
      const std::size_t v = lp.add_variable(0.0, len, obj);
      seg_vars_[j].push_back(v);
      if (mode_ == Mode::MinimizePower) reward_terms.emplace_back(v, slopes[s]);
    }
  }
  crac_power_vars_.resize(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    crac_power_vars_[c] = lp.add_variable(
        0.0, solver::kLpInfinity, mode_ == Mode::MaximizeReward ? 0.0 : -1.0);
  }

  base_power_ = dc_.total_base_power_kw();

  std::size_t next_row = 0;
  if (mode_ == Mode::MinimizePower) {
    lp.add_constraint(std::move(reward_terms), solver::Relation::GreaterEq,
                      reward_floor);
    ++next_row;
  }

  // Thermal redline rows. Unlike solve_stage1_lp there is no early
  // return when base load alone violates a redline with no adjustable
  // terms: the empty row makes the LP infeasible, which is the same verdict
  // through the normal path — and keeps the row structure point-invariant.
  node_row0_ = next_row;
  node_rhs_base_.assign(nn, 0.0);
  for (std::size_t r = 0; r < nn; ++r) {
    std::vector<std::pair<std::size_t, double>> terms;
    double rhs_base = 0.0;
    for (std::size_t j = 0; j < nn; ++j) {
      const double w = node_coeff(r, j);
      if (w == 0.0) continue;
      rhs_base += w * dc_.node_base_power_kw(j);
      for (std::size_t v : seg_vars_[j]) terms.emplace_back(v, w);
    }
    node_rhs_base_[r] = rhs_base;
    lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                      node_row_rhs(r, off.node_in0[r]));
    ++next_row;
  }
  crac_row0_ = next_row;
  crac_rhs_base_.assign(nc, 0.0);
  for (std::size_t c = 0; c < nc; ++c) {
    std::vector<std::pair<std::size_t, double>> terms;
    double rhs_base = 0.0;
    for (std::size_t j = 0; j < nn; ++j) {
      const double w = crac_coeff(c, j);
      if (w == 0.0) continue;
      rhs_base += w * dc_.node_base_power_kw(j);
      for (std::size_t v : seg_vars_[j]) terms.emplace_back(v, w);
    }
    crac_rhs_base_[c] = rhs_base;
    lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                      crac_row_rhs(c, off.crac_in0[c]));
    ++next_row;
  }

  // k-scaled CRAC power rows (see file comment): thermal coefficients are
  // the raw crac_in_coeff entries, so only (-1/k_c) and the RHS move with
  // the setpoints.
  power_row0_ = next_row;
  power_rhs_base_.assign(nc, 0.0);
  for (std::size_t c = 0; c < nc; ++c) {
    std::vector<std::pair<std::size_t, double>> terms;
    double rhs_base = 0.0;
    for (std::size_t j = 0; j < nn; ++j) {
      const double w = crac_coeff(c, j);
      if (w == 0.0) continue;
      rhs_base += w * dc_.node_base_power_kw(j);
      for (std::size_t v : seg_vars_[j]) terms.emplace_back(v, w);
    }
    power_rhs_base_[c] = rhs_base;
    terms.emplace_back(crac_power_vars_[c],
                       -inv_k(dc_.cracs[c], crac_out0[c]));
    lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                      power_row_rhs(c, off.crac_in0[c], crac_out0[c]));
    ++next_row;
  }

  if (mode_ == Mode::MaximizeReward) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t j = 0; j < nn; ++j) {
      for (std::size_t v : seg_vars_[j]) terms.emplace_back(v, 1.0);
    }
    for (std::size_t v : crac_power_vars_) terms.emplace_back(v, 1.0);
    lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                      dc_.p_const_kw - base_power_);
  }

  session_ = std::make_unique<solver::LpSession>(std::move(lp), lp_options);
}

void Stage1LpEvaluator::move_to(const std::vector<double>& crac_out) {
  const std::size_t nn = dc_.num_nodes();
  const std::size_t nc = dc_.num_cracs();
  TAPO_CHECK(crac_out.size() == nc);
  const thermal::HeatFlowModel::AffineOffsets off = model_.offsets(crac_out);
  for (std::size_t r = 0; r < nn; ++r) {
    session_->patch_rhs(node_row0_ + r, node_row_rhs(r, off.node_in0[r]));
  }
  for (std::size_t c = 0; c < nc; ++c) {
    session_->patch_rhs(crac_row0_ + c, crac_row_rhs(c, off.crac_in0[c]));
  }
  for (std::size_t c = 0; c < nc; ++c) {
    session_->patch_coefficient(power_row0_ + c, crac_power_vars_[c],
                                -inv_k(dc_.cracs[c], crac_out[c]));
    session_->patch_rhs(power_row0_ + c,
                        power_row_rhs(c, off.crac_in0[c], crac_out[c]));
  }
}

void Stage1LpEvaluator::set_reward_floor(double floor) {
  TAPO_CHECK_MSG(mode_ == Mode::MinimizePower,
                 "reward floor exists only in MinimizePower mode");
  session_->patch_rhs(0, floor);
}

Stage1Solver::LpOutcome Stage1LpEvaluator::solve(const solver::LpBasis* seed) {
  const solver::LpSolution sol = session_->solve(seed);
  Stage1Solver::LpOutcome out;
  out.status = sol.status;
  if (!sol.optimal()) {
    out.basis = sol.basis;  // certificate basis on a warm Infeasible
    return out;
  }
  out.feasible = true;
  out.basis = sol.basis;
  out.objective = sol.objective;
  const std::size_t nn = dc_.num_nodes();
  out.node_core_power_kw.assign(nn, 0.0);
  for (std::size_t j = 0; j < nn; ++j) {
    for (std::size_t v : seg_vars_[j]) out.node_core_power_kw[j] += sol.x[v];
  }
  out.compute_power_kw = base_power_;
  for (double p : out.node_core_power_kw) out.compute_power_kw += p;
  out.crac_power_kw = 0.0;
  for (std::size_t v : crac_power_vars_) out.crac_power_kw += sol.x[v];
  return out;
}

}  // namespace tapo::core
