#include "core/baseline.h"

#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>

#include "dc/crac.h"
#include "solver/lp.h"
#include "solver/session.h"
#include "util/check.h"
#include "util/telemetry.h"

namespace tapo::core {

namespace {

constexpr std::size_t kNoVar = static_cast<std::size_t>(-1);

// FRAC(i, j) variables, frac_var[i][j]; kNoVar marks a task type that cannot
// meet its deadline on node j (FRAC pinned to 0).
std::vector<std::vector<std::size_t>> add_frac_vars(const dc::DataCenter& dc,
                                                    solver::LpProblem& lp) {
  const std::size_t nn = dc.num_nodes();
  const std::size_t t = dc.num_task_types();
  std::vector<std::vector<std::size_t>> frac_var(t, std::vector<std::size_t>(nn));
  for (std::size_t i = 0; i < t; ++i) {
    for (std::size_t j = 0; j < nn; ++j) {
      const std::size_t type = dc.nodes[j].type;
      if (!dc.ecs.can_meet_deadline(i, type, 0,
                                    dc.task_types[i].relative_deadline)) {
        frac_var[i][j] = kNoVar;
        continue;
      }
      const double cores = static_cast<double>(dc.node_type(j).cores_per_node());
      const double reward_coeff =
          dc.task_types[i].reward * dc.ecs.ecs(i, type, 0) * cores;
      frac_var[i][j] = lp.add_variable(0.0, 1.0, reward_coeff);
    }
  }
  return frac_var;
}

// Constraint 1 (arrival rates): sum_j |cores_j| ECS(i,j,0) FRAC(i,j) <= lambda_i.
void add_arrival_rows(const dc::DataCenter& dc,
                      const std::vector<std::vector<std::size_t>>& frac_var,
                      solver::LpProblem& lp) {
  for (std::size_t i = 0; i < dc.num_task_types(); ++i) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t j = 0; j < dc.num_nodes(); ++j) {
      if (frac_var[i][j] == kNoVar) continue;
      const double cores = static_cast<double>(dc.node_type(j).cores_per_node());
      terms.emplace_back(frac_var[i][j],
                         cores * dc.ecs.ecs(i, dc.nodes[j].type, 0));
    }
    if (!terms.empty()) {
      lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                        dc.task_types[i].arrival_rate);
    }
  }
}

// Node compute power per unit of sum_i FRAC(i, j).
std::vector<double> power_per_frac(const dc::DataCenter& dc) {
  std::vector<double> out(dc.num_nodes());
  for (std::size_t j = 0; j < dc.num_nodes(); ++j) {
    const dc::NodeTypeSpec& spec = dc.node_type(j);
    out[j] = spec.core_power_kw(0) * static_cast<double>(spec.cores_per_node());
  }
  return out;
}

// The sweep LP: the Eq. 21 LP with node load aggregated, held resident in
// one LpSession and re-pointed at successive CRAC setpoints.
//
// In the Eq. 21 LP every FRAC(i, j) column repeats node j's whole column
// (every thermal row, every CRAC power row, the budget row) scaled by the
// same per-node factor, so pricing pays for ~T copies of each dense node
// column. Here one load variable u_j in [0, 1] per node carries those
// coefficients (w * pi_{j,0} * |cores_j|), and a link row
//   sum_i FRAC(i, j) - u_j = 0
// replaces the node fraction budget sum_i FRAC(i, j) <= 1 (now u_j's upper
// bound). Each FRAC column keeps two entries: its arrival row and its link
// row. Substituting u_j = sum_i FRAC(i, j) maps the feasible set onto Eq.
// 21's one-to-one with the same objective, so the LP optimum is the same.
//
// As in Stage1LpEvaluator the CRAC power rows are divided by k_c, so the
// node coefficients are setpoint-independent and a move patches only every
// thermal row's RHS plus one coefficient (-1/k_c) and the RHS per CRAC row.
// A base load that alone breaks a redline leaves an empty row with a
// negative RHS: the LP is infeasible, the verdict solve_at returns early.
class SweepLp {
 public:
  SweepLp(const dc::DataCenter& dc, const thermal::HeatFlowModel& model,
          const std::vector<double>& crac_out0, const solver::LpOptions& lp_options)
      : dc_(dc), model_(model) {
    const std::size_t nn = dc_.num_nodes();
    const std::size_t nc = dc_.num_cracs();
    const std::size_t t = dc_.num_task_types();
    TAPO_CHECK(crac_out0.size() == nc);

    solver::LpProblem lp;
    const auto frac_var = add_frac_vars(dc_, lp);
    // Load variables only for nodes that can take some task type; a node
    // without one contributes its base power to the RHS, as in solve_at.
    std::vector<std::size_t> load_var(nn, kNoVar);
    for (std::size_t j = 0; j < nn; ++j) {
      for (std::size_t i = 0; i < t; ++i) {
        if (frac_var[i][j] != kNoVar) {
          load_var[j] = lp.add_variable(0.0, 1.0, 0.0);
          break;
        }
      }
    }
    crac_power_vars_.resize(nc);
    for (std::size_t c = 0; c < nc; ++c) {
      crac_power_vars_[c] = lp.add_variable(0.0, solver::kLpInfinity, 0.0);
    }

    const std::vector<double> power_per_load = power_per_frac(dc_);
    add_arrival_rows(dc_, frac_var, lp);
    // Link rows: sum_i FRAC(i, j) - u_j = 0.
    for (std::size_t j = 0; j < nn; ++j) {
      if (load_var[j] == kNoVar) continue;
      std::vector<std::pair<std::size_t, double>> terms;
      for (std::size_t i = 0; i < t; ++i) {
        if (frac_var[i][j] != kNoVar) terms.emplace_back(frac_var[i][j], 1.0);
      }
      terms.emplace_back(load_var[j], -1.0);
      lp.add_constraint(std::move(terms), solver::Relation::Equal, 0.0);
    }

    // Node power coefficients of one heat-flow row on the load variables,
    // and the row's base-power term (moved to the RHS).
    const auto load_terms = [&](const double* coeff_row, double& base_term) {
      std::vector<std::pair<std::size_t, double>> terms;
      base_term = 0.0;
      for (std::size_t j = 0; j < nn; ++j) {
        const double w = coeff_row[j];
        if (w == 0.0) continue;
        base_term += w * dc_.node_type(j).base_power_kw();
        if (load_var[j] != kNoVar) {
          terms.emplace_back(load_var[j], w * power_per_load[j]);
        }
      }
      return terms;
    };
    const thermal::HeatFlowModel::AffineOffsets off = model_.offsets(crac_out0);
    const solver::Matrix& node_coeff = model_.node_in_coeff();
    const solver::Matrix& crac_coeff = model_.crac_in_coeff();

    // Thermal redlines (constraint 4).
    node_row0_ = lp.num_constraints();
    node_rhs_base_.resize(nn);
    for (std::size_t r = 0; r < nn; ++r) {
      auto terms = load_terms(node_coeff.row(r), node_rhs_base_[r]);
      lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                        node_row_rhs(r, off.node_in0[r]));
    }
    crac_row0_ = lp.num_constraints();
    crac_rhs_base_.resize(nc);
    for (std::size_t c = 0; c < nc; ++c) {
      auto terms = load_terms(crac_coeff.row(c), crac_rhs_base_[c]);
      lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                        crac_row_rhs(c, off.crac_in0[c]));
    }

    // k-scaled CRAC power rows: (crac_in_c - tout_c) - q_c / k_c <= 0.
    power_row0_ = lp.num_constraints();
    for (std::size_t c = 0; c < nc; ++c) {
      double base_term = 0.0;
      auto terms = load_terms(crac_coeff.row(c), base_term);
      terms.emplace_back(crac_power_vars_[c], -inv_k(c, crac_out0[c]));
      lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                        power_row_rhs(c, off.crac_in0[c], crac_out0[c]));
    }

    // Power budget (constraint 3).
    {
      std::vector<std::pair<std::size_t, double>> terms;
      for (std::size_t j = 0; j < nn; ++j) {
        if (load_var[j] != kNoVar) terms.emplace_back(load_var[j], power_per_load[j]);
      }
      for (std::size_t v : crac_power_vars_) terms.emplace_back(v, 1.0);
      lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                        dc_.p_const_kw - dc_.total_base_power_kw());
    }
    session_ = std::make_unique<solver::LpSession>(std::move(lp), lp_options);
  }

  // Re-points the resident LP at new setpoints.
  void move_to(const std::vector<double>& crac_out) {
    const std::size_t nn = dc_.num_nodes();
    const std::size_t nc = dc_.num_cracs();
    TAPO_CHECK(crac_out.size() == nc);
    const thermal::HeatFlowModel::AffineOffsets off = model_.offsets(crac_out);
    for (std::size_t r = 0; r < nn; ++r) {
      session_->patch_rhs(node_row0_ + r, node_row_rhs(r, off.node_in0[r]));
    }
    for (std::size_t c = 0; c < nc; ++c) {
      session_->patch_rhs(crac_row0_ + c, crac_row_rhs(c, off.crac_in0[c]));
      session_->patch_coefficient(power_row0_ + c, crac_power_vars_[c],
                                  -inv_k(c, crac_out[c]));
      session_->patch_rhs(power_row0_ + c,
                          power_row_rhs(c, off.crac_in0[c], crac_out[c]));
    }
  }

  // Solves the resident LP, resuming the previous solve's state in place.
  solver::LpSolution solve() { return session_->solve(); }

 private:
  double node_row_rhs(std::size_t r, double node_in0) const {
    return (dc_.redline_node_c - node_in0) - node_rhs_base_[r];
  }
  double crac_row_rhs(std::size_t c, double crac_in0) const {
    return (dc_.redline_crac_c - crac_in0) - crac_rhs_base_[c];
  }
  // solve_at's CRAC power row divided by k_c (its base term equals the CRAC
  // redline row's).
  double power_row_rhs(std::size_t c, double crac_in0, double tout) const {
    return -(crac_in0 - tout) - crac_rhs_base_[c];
  }
  // 1 / k_c with k_c = rho * Cp * F_c / CoP(tout_c).
  double inv_k(std::size_t c, double tout) const {
    const dc::CracSpec& crac = dc_.cracs[c];
    return crac.cop(tout) /
           (dc::kAirDensity * dc::kAirSpecificHeat * crac.flow_m3s);
  }

  const dc::DataCenter& dc_;
  const thermal::HeatFlowModel& model_;
  std::vector<std::size_t> crac_power_vars_;
  // Row layout: arrival rows, link rows, node redlines, CRAC redlines, CRAC
  // power rows, budget.
  std::size_t node_row0_ = 0;
  std::size_t crac_row0_ = 0;
  std::size_t power_row0_ = 0;
  std::vector<double> node_rhs_base_, crac_rhs_base_;
  std::unique_ptr<solver::LpSession> session_;
};

}  // namespace

BaselineAssigner::BaselineAssigner(const dc::DataCenter& dc,
                                   const thermal::HeatFlowModel& model)
    : dc_(dc), model_(model) {}

BaselineAssigner::LpOutcome BaselineAssigner::solve_at(
    const std::vector<double>& crac_out) const {
  return solve_at(crac_out, solver::LpOptions{});
}

BaselineAssigner::LpOutcome BaselineAssigner::solve_at(
    const std::vector<double>& crac_out,
    const solver::LpOptions& lp_options) const {
  const std::size_t nn = dc_.num_nodes();
  const std::size_t nc = dc_.num_cracs();
  const std::size_t t = dc_.num_task_types();
  TAPO_CHECK(crac_out.size() == nc);

  const thermal::HeatFlowModel::AffineOffsets off = model_.offsets(crac_out);
  const solver::Matrix& node_coeff = model_.node_in_coeff();
  const solver::Matrix& crac_coeff = model_.crac_in_coeff();

  solver::LpProblem lp;
  const auto frac_var = add_frac_vars(dc_, lp);
  std::vector<std::size_t> crac_power_vars(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    crac_power_vars[c] = lp.add_variable(0.0, solver::kLpInfinity, 0.0);
  }

  const std::vector<double> frac_power = power_per_frac(dc_);
  add_arrival_rows(dc_, frac_var, lp);
  // Constraint 2 (node fraction budget): sum_i FRAC(i,j) <= 1.
  for (std::size_t j = 0; j < nn; ++j) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t i = 0; i < t; ++i) {
      if (frac_var[i][j] != kNoVar) terms.emplace_back(frac_var[i][j], 1.0);
    }
    if (!terms.empty()) {
      lp.add_constraint(std::move(terms), solver::Relation::LessEq, 1.0);
    }
  }

  // Thermal redlines (constraint 4): affine in node powers; node power is
  // affine in the fractions.
  const auto add_thermal_row = [&](const double* coeff_row, double base_rhs) {
    std::vector<std::pair<std::size_t, double>> terms;
    double rhs = base_rhs;
    for (std::size_t j = 0; j < nn; ++j) {
      const double w = coeff_row[j];
      if (w == 0.0) continue;
      rhs -= w * dc_.node_type(j).base_power_kw();
      const double per_frac = w * frac_power[j];
      for (std::size_t i = 0; i < t; ++i) {
        if (frac_var[i][j] != kNoVar) terms.emplace_back(frac_var[i][j], per_frac);
      }
    }
    if (terms.empty() && rhs < 0.0) return false;
    lp.add_constraint(std::move(terms), solver::Relation::LessEq, rhs);
    return true;
  };
  for (std::size_t r = 0; r < nn; ++r) {
    if (!add_thermal_row(node_coeff.row(r),
                         dc_.redline_node_c - off.node_in0[r])) {
      return {};
    }
  }
  for (std::size_t r = 0; r < nc; ++r) {
    if (!add_thermal_row(crac_coeff.row(r),
                         dc_.redline_crac_c - off.crac_in0[r])) {
      return {};
    }
  }

  // CRAC power definitions: k_c (crac_in_c - tout_c) - q_c <= 0.
  for (std::size_t c = 0; c < nc; ++c) {
    const dc::CracSpec& crac = dc_.cracs[c];
    const double k = dc::kAirDensity * dc::kAirSpecificHeat * crac.flow_m3s /
                     crac.cop(crac_out[c]);
    std::vector<std::pair<std::size_t, double>> terms;
    double rhs = -k * (off.crac_in0[c] - crac_out[c]);
    for (std::size_t j = 0; j < nn; ++j) {
      const double w = k * crac_coeff(c, j);
      if (w == 0.0) continue;
      rhs -= w * dc_.node_type(j).base_power_kw();
      const double per_frac = w * frac_power[j];
      for (std::size_t i = 0; i < t; ++i) {
        if (frac_var[i][j] != kNoVar) terms.emplace_back(frac_var[i][j], per_frac);
      }
    }
    terms.emplace_back(crac_power_vars[c], -1.0);
    lp.add_constraint(std::move(terms), solver::Relation::LessEq, rhs);
  }

  // Power budget (constraint 3).
  {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t j = 0; j < nn; ++j) {
      for (std::size_t i = 0; i < t; ++i) {
        if (frac_var[i][j] != kNoVar) {
          terms.emplace_back(frac_var[i][j], frac_power[j]);
        }
      }
    }
    for (std::size_t v : crac_power_vars) terms.emplace_back(v, 1.0);
    lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                      dc_.p_const_kw - dc_.total_base_power_kw());
  }

  const solver::LpSolution sol = solve_lp(lp, lp_options);
  LpOutcome out;
  out.status = sol.status;
  if (!sol.optimal()) return out;

  out.feasible = true;
  out.basis = sol.basis;
  out.objective = sol.objective;
  out.frac = solver::Matrix(t, nn);
  for (std::size_t i = 0; i < t; ++i) {
    for (std::size_t j = 0; j < nn; ++j) {
      if (frac_var[i][j] != kNoVar) out.frac(i, j) = sol.x[frac_var[i][j]];
    }
  }
  return out;
}

std::vector<std::optional<double>> BaselineAssigner::sweep_objectives(
    const std::vector<std::vector<double>>& chain,
    const solver::LpOptions& lp) const {
  std::vector<std::optional<double>> out;
  std::unique_ptr<SweepLp> sweep;
  for (const std::vector<double>& crac_out : chain) {
    if (sweep == nullptr) {
      sweep = std::make_unique<SweepLp>(dc_, model_, crac_out, lp);
    } else {
      sweep->move_to(crac_out);
    }
    const solver::LpSolution sol = sweep->solve();
    out.push_back(sol.optimal() ? std::optional<double>(sol.objective)
                                : std::nullopt);
  }
  return out;
}

Assignment BaselineAssigner::assign(const BaselineOptions& options) const {
  const std::size_t nc = dc_.num_cracs();
  const std::size_t nn = dc_.num_nodes();
  const std::size_t t = dc_.num_task_types();
  util::telemetry::Registry* const reg = options.lp.telemetry;

  // One resident sweep LP per grid-search lane (the lane state), built at
  // the lane's first point and patched to every later point of the lane for
  // the whole search. The lane partition is a pure function of the point
  // sequence, so results are identical for any thread count.
  std::atomic<std::size_t> lp_solves{0};
  std::atomic<std::size_t> iter_limited{0};
  const auto objective =
      [&](const std::vector<double>& crac_out,
          std::shared_ptr<void>& lane_state) -> std::optional<double> {
    lp_solves.fetch_add(1, std::memory_order_relaxed);
    auto* sweep = static_cast<SweepLp*>(lane_state.get());
    if (sweep == nullptr) {
      auto head = std::make_shared<SweepLp>(dc_, model_, crac_out, options.lp);
      sweep = head.get();
      lane_state = std::move(head);
    } else {
      sweep->move_to(crac_out);
    }
    const solver::LpSolution sol = sweep->solve();
    if (!sol.optimal()) {
      if (sol.status == solver::LpStatus::IterLimit) {
        iter_limited.fetch_add(1, std::memory_order_relaxed);
      }
      return std::nullopt;
    }
    return sol.objective;
  };
  const std::vector<double> lo(nc, options.tcrac_min_c);
  const std::vector<double> hi(nc, options.tcrac_max_c);
  solver::GridSearchResult search;
  {
    const util::telemetry::ScopedTimer sweep_timer(reg, "baseline.sweep");
    search = options.full_grid
                 ? solver::grid_search_maximize(lo, hi, objective, options.grid)
                 : solver::uniform_then_coordinate_maximize(lo, hi, objective,
                                                            options.grid);
  }

  Assignment assignment;
  assignment.technique = "baseline-P0-or-off";
  assignment.lp_solves = lp_solves.load(std::memory_order_relaxed);
  if (reg) reg->count("baseline.lp_solves", assignment.lp_solves);
  if (!search.found) {
    assignment.status =
        iter_limited.load(std::memory_order_relaxed) > 0
            ? util::Status::ResourceExhausted(
                  "baseline: no feasible setpoint found and at least one "
                  "candidate LP hit the iteration cap")
            : util::Status::Infeasible(
                  "baseline: every CRAC setpoint vector is infeasible");
    return assignment;
  }

  // Dense-oracle re-solve at the winner (engine-independent published plan).
  solver::LpOptions polish = options.lp;
  polish.engine = solver::LpEngine::Dense;
  LpOutcome best;
  {
    const util::telemetry::ScopedTimer polish_timer(reg, "baseline.polish");
    best = solve_at(search.best_point, polish);
  }
  if (!best.feasible) {
    assignment.status =
        best.status == solver::LpStatus::IterLimit
            ? util::Status::ResourceExhausted(
                  "baseline: LP iteration cap hit re-solving the selected "
                  "setpoints")
            : util::Status::Internal(
                  "baseline: best grid point infeasible on re-solve");
    return assignment;
  }
  assignment.stage1_basis = best.basis;
  assignment.stage1_objective = best.objective;
  assignment.crac_out_c = search.best_point;

  // Rounding: shrink each node's fractions so |cores_j| * sum_i FRAC is an
  // integer core count (Eq. 22 discussion).
  assignment.core_pstate.assign(dc_.total_cores(), 0);
  assignment.tc = solver::Matrix(t, dc_.total_cores());
  double reward = 0.0;
  for (std::size_t j = 0; j < nn; ++j) {
    const dc::NodeTypeSpec& spec = dc_.node_type(j);
    const double cores = static_cast<double>(spec.cores_per_node());
    double frac_sum = 0.0;
    for (std::size_t i = 0; i < t; ++i) frac_sum += best.frac(i, j);
    const double used = cores * frac_sum;
    const auto target = static_cast<std::size_t>(std::floor(used + 1e-9));
    const double scale = (used > 1e-12 && target > 0)
                             ? static_cast<double>(target) / used
                             : 0.0;

    const std::size_t offset = dc_.core_offset(j);
    for (std::size_t c = 0; c < spec.cores_per_node(); ++c) {
      assignment.core_pstate[offset + c] =
          (c < target) ? 0 : spec.off_state();
    }
    if (target == 0) continue;
    for (std::size_t i = 0; i < t; ++i) {
      const double frac = best.frac(i, j) * scale;
      if (frac <= 0.0) continue;
      const double node_rate =
          dc_.ecs.ecs(i, dc_.nodes[j].type, 0) * cores * frac;
      reward += dc_.task_types[i].reward * node_rate;
      const double per_core = node_rate / static_cast<double>(target);
      for (std::size_t c = 0; c < target; ++c) {
        assignment.tc(i, offset + c) = per_core;
      }
    }
  }
  assignment.reward_rate = reward;
  assignment.feasible = true;
  return finalize_assignment(dc_, model_, std::move(assignment));
}

}  // namespace tapo::core
