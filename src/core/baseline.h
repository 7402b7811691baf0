// Baseline assignment technique (Section VII.A, Eq. 21; adapted from
// Parolini et al. [26]).
//
// The comparison technique only chooses between running a core in P-state 0
// and turning it off. FRAC(i, j) is the fraction of node j's cores devoted
// to task type i; the LP maximizes sum r_i * ECS(i,j,0) * |cores_j| *
// FRAC(i,j) subject to arrival rates, per-node fraction budgets, and the
// same power and thermal constraints, again with a discretized CRAC-setpoint
// search on top. Because |cores_j| * sum_i FRAC(i,j) may be fractional, the
// fractions of each node are scaled down so the used-core count is integral
// (the paper's rounding rule).
//
// The setpoint sweep evaluates grid points on an equivalent node-aggregated
// form of the Eq. 21 LP, one resident LP per grid-search lane for the whole
// search (baseline.cpp, docs/MODEL.md §7). The published plan comes from the Eq. 21 LP itself
// (solve_at), re-solved on the Dense oracle at the winning setpoints.
//
// Note: the paper's Eq. 19 prints PCN_j = B_j + pi_{NTj,0} * sum_i FRAC(i,j);
// the per-node compute power must scale with the number of cores actually
// used, so we take PCN_j = B_j + pi_{NTj,0} * |cores_j| * sum_i FRAC(i,j)
// (see DESIGN.md, paper-typo list).
#pragma once

#include <optional>
#include <vector>

#include "core/assigner.h"
#include "dc/datacenter.h"
#include "solver/gridsearch.h"
#include "solver/lp.h"
#include "thermal/heatflow.h"

namespace tapo::core {

struct BaselineOptions {
  double tcrac_min_c = 10.0;
  double tcrac_max_c = 25.0;
  solver::GridSearchOptions grid;
  bool full_grid = false;
  // Iteration cap and telemetry sink for the sweep's solves. The sweep runs
  // on resident LP sessions (always the revised engine; engine is ignored
  // there); the final re-solve at the selected setpoints always
  // runs the Dense oracle (engine-independent published plans, mirroring
  // Stage 1). With a telemetry sink, assign() also records the
  // baseline.sweep / baseline.polish timers and baseline.lp_solves.
  solver::LpOptions lp;
};

class BaselineAssigner {
 public:
  BaselineAssigner(const dc::DataCenter& dc, const thermal::HeatFlowModel& model);

  Assignment assign(const BaselineOptions& options = {}) const;

  // The Eq. 21 LP at fixed CRAC outlet temperatures (before rounding).
  struct LpOutcome {
    bool feasible = false;
    solver::LpStatus status = solver::LpStatus::Infeasible;
    double objective = 0.0;
    solver::Matrix frac;    // T x NCN
    solver::LpBasis basis;  // optimal basis, empty when !feasible
  };
  LpOutcome solve_at(const std::vector<double>& crac_out) const;
  // As above with explicit LP options (engine, warm start).
  LpOutcome solve_at(const std::vector<double>& crac_out,
                     const solver::LpOptions& lp) const;

  // The optimum of the sweep LP that assign() evaluates grid points with
  // (Eq. 21 with node load aggregated; docs/MODEL.md §7) at each point of
  // `chain`, in order, on one resident LP patched from point to point;
  // nullopt where it is infeasible. Equals solve_at's objective up to
  // rounding.
  std::vector<std::optional<double>> sweep_objectives(
      const std::vector<std::vector<double>>& chain,
      const solver::LpOptions& lp = {}) const;

 private:
  const dc::DataCenter& dc_;
  const thermal::HeatFlowModel& model_;
};

}  // namespace tapo::core
