// Stage 1 of the first-step assignment (Section V.B.2).
//
// With the integer P-state constraint relaxed, each core is assigned a
// continuous power in [0, pi_{j,0}] and earns the concave piecewise-linear
// aggregate reward rate ARR_j(p). Identical cores within a node share the
// node budget optimally by splitting it evenly, so the node-level aggregate
// is n * ARR(p/n) - also concave piecewise-linear - and the decision reduces
// to one power variable per node, encoded as bounded segment variables.
//
// For fixed CRAC outlet temperatures the problem is an LP:
//   maximize  sum_j NodeARR_j(p_j)
//   s.t.      total compute power + total CRAC power <= Pconst   (Eq. 9 c1)
//             Tin <= Tredline                                    (Eq. 9 c2)
// where the thermal rows and the CRAC power (at fixed setpoints, with CoP
// known) are affine in the node powers via HeatFlowModel::offsets and the
// resident node_in_coeff()/crac_in_coeff() sensitivities. The
// outlet temperatures themselves are found by the paper's discretized
// coarse-to-fine search (Section V.B.2's multi-step method).
#pragma once

#include <optional>
#include <vector>

#include "dc/datacenter.h"
#include "solver/gridsearch.h"
#include "solver/lp.h"
#include "thermal/heatflow.h"
#include "util/status.h"

namespace tapo::util::telemetry {
class Registry;
}

namespace tapo::core {

struct Stage1Options {
  double psi = 50.0;  // "best psi%" of task types in ARR_j
  double tcrac_min_c = 10.0;
  double tcrac_max_c = 25.0;
  // Setpoint-search shape (samples, refinement rounds, resolution). The
  // sweep evaluates its points on the search's fixed lanes (see
  // solver::GridChainObjective); `threads` below overrides grid.threads.
  solver::GridSearchOptions grid;
  // Full Cartesian coarse-to-fine search (paper's generic multi-step method)
  // instead of the cheaper uniform-value + coordinate-descent default.
  bool full_grid = false;
  // Worker threads for the setpoint sweep: each sweep round solves its LPs
  // as one batch (0 = all hardware threads, 1 = the serial legacy path).
  // Every value yields a bit-identical Stage1Result — batch results are
  // reduced in a fixed order with value ties broken toward the
  // lexicographically smallest setpoint vector, and the lane partition
  // depends only on the point sequence. Overrides grid.threads.
  std::size_t threads = 0;
  // LP engine and iteration cap for every solve in the sweep (the final re-solve
  // at the selected setpoints always runs the Dense oracle, so the published
  // plan is engine-independent). On the revised engine the sweep holds one
  // resident LP session per grid-search lane for the whole search
  // (core/stage1_lp.h): built at the lane's first point, then patched in
  // place and resumed at every later point of the lane. The Dense engine
  // solves every point from scratch. The telemetry pointer inside is
  // ignored; `telemetry` below is used for the lp.* metrics too.
  solver::LpOptions lp;
  // Optional warm-start basis for each lane's first build (non-owning; must
  // outlive solve()); every later point of a lane resumes from its
  // predecessor's resident basis regardless. Recovery passes the pre-fault
  // plan's basis here so a re-plan converges in a handful of dual pivots
  // per grid point.
  const solver::LpBasis* warm_seed = nullptr;
  // Optional metrics sink (stage1.* in docs/OBSERVABILITY.md): per-stage
  // timers, LP-solve / infeasible-candidate counters, the best-objective
  // trajectory per sweep round. Null disables recording; enabling it never
  // changes the solved result. ThreeStageAssigner and powermin reuse this
  // pointer for their stage2.* / stage3.* / powermin.* metrics.
  util::telemetry::Registry* telemetry = nullptr;
};

// `options.grid` with the Stage-1 `threads` knob applied; shared by every
// caller that drives a grid search over the Stage-1-style LP objective.
solver::GridSearchOptions stage1_grid_options(const Stage1Options& options);

struct Stage1Result {
  bool feasible = false;
  // Non-ok when infeasible (every candidate setpoint vector violated a
  // constraint) or on an internal solver failure; mirrors `feasible` so the
  // recovery path can report *why* a degraded re-solve found no plan.
  util::Status status;
  std::vector<double> crac_out_c;            // chosen CRAC outlet setpoints
  std::vector<double> node_core_power_kw;    // per node, cores only (excl. base)
  double objective = 0.0;                    // relaxed aggregate reward rate
  double compute_power_kw = 0.0;             // incl. base power
  double crac_power_kw = 0.0;
  std::size_t lp_solves = 0;
  // Optimal basis of the winning LP (from the Dense-oracle re-solve at the
  // selected setpoints); warm-start currency for later re-plans.
  solver::LpBasis basis;
};

class Stage1Solver {
 public:
  Stage1Solver(const dc::DataCenter& dc, const thermal::HeatFlowModel& model);

  Stage1Result solve(const Stage1Options& options = {}) const;

  // The LP at fixed CRAC outlet temperatures; exposed for tests, ablations
  // and the power-minimization extension.
  struct LpOutcome {
    bool feasible = false;
    // Why the point failed: Infeasible is a real thermal/budget violation,
    // IterLimit means the solver cap cut the solve short (the point may well
    // be feasible). Callers that give up must report the distinction (see
    // util::Status::ResourceExhausted).
    solver::LpStatus status = solver::LpStatus::Infeasible;
    double objective = 0.0;
    std::vector<double> node_core_power_kw;
    double compute_power_kw = 0.0;
    double crac_power_kw = 0.0;
    // Optimal basis when feasible; on a warm-started infeasible solve, the
    // dual phase's infeasibility-certificate basis (still a valid warm
    // seed). Empty otherwise.
    solver::LpBasis basis;
  };
  LpOutcome solve_at(const std::vector<double>& crac_out, double psi) const;
  // As above with explicit LP options (engine, warm start, telemetry); the
  // two-argument form uses defaults.
  LpOutcome solve_at(const std::vector<double>& crac_out, double psi,
                     const solver::LpOptions& lp) const;

 private:
  const dc::DataCenter& dc_;
  const thermal::HeatFlowModel& model_;
};

}  // namespace tapo::core
