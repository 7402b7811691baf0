// Internal entry points of the revised-simplex engine (solver/revised.cpp).
//
// Callers use solve_lp (solver/lp.h) with LpOptions::engine, or an LpSession
// (solver/session.h); this header only decouples the engine's translation
// unit from the dense oracle's.
#pragma once

#include "solver/lp.h"

namespace tapo::solver::internal {

// Revised simplex over an LU-factorized basis with Forrest–Tomlin updates:
// standardizes the problem and runs the same cold first solve a fresh
// LpSession runs. Counts the engine-side lp.* metrics (refactorizations,
// fallbacks, dual iterations) when options.telemetry is set. Statuses and
// tolerances match the dense engine.
LpSolution solve_lp_revised(const LpProblem& problem, const LpOptions& options);

// The per-solve lp.* counters both solve_lp and LpSession::solve emit:
// lp.solves, lp.iterations and one lp.iters.* histogram bucket.
void count_solve(util::telemetry::Registry& reg, const LpSolution& sol);

}  // namespace tapo::solver::internal
