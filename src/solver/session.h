// Persistent warm LP solving: one resident problem, patched in place and
// re-solved many times.
//
// solve_lp (lp.h) prices every solve at full fixed cost: build the
// LpProblem, standardize it into CSC form, solve cold, and refactorize once
// more for canonical extraction. docs/SOLVER.md §6 measured that such fixed
// costs — not simplex pivots — are why the dense tableau kept winning
// wall-clock even at a ~0.9 warm-hit rate. An LpSession pays them once: it
// owns the problem, its standardized arrays, the basis and the LU factors
// across solves, and callers mutate the resident problem through the
// structure-preserving patch API instead of rebuilding it. It is also the
// only way to import a warm basis: solve(seed).
//
// Between solves the factorization is maintained, not rebuilt: pivots and
// patched columns that are currently basic both become in-place
// Forrest–Tomlin column replacements (a patched column's at the next
// solve). A stability monitor (spike-pivot check on each replacement,
// residual check on the resumed solution) demotes updates to a
// refactorization, and any failure beyond that falls back to the engine's
// cold path — a session solve is never less correct than a fresh one, and
// canonical extraction keeps its results a function of the final basis
// alone. A session's first unseeded solve is exactly solve_lp's revised
// solve: both run the same driver (solver/revised_core.h). Protocol
// details: docs/SOLVER.md §7.
//
// The CRAC grid sweep (core/stage1.cpp), powermin attempts, recovery
// re-plans and the baseline sweep hold one session per grid-search lane for
// a whole search. Not thread-safe; one session belongs to one lane, which
// runs on one thread at a time.
#pragma once

#include <cstdint>
#include <memory>

#include "solver/lp.h"

namespace tapo::solver {

class LpSession {
 public:
  // Lifetime counters, cumulative across all solves of this session.
  struct Stats {
    std::uint64_t solves = 0;
    std::uint64_t patches = 0;            // patch_* calls accepted
    std::uint64_t ft_updates = 0;         // Forrest–Tomlin column replacements
    std::uint64_t refactorizations = 0;   // LU rebuilds (any reason)
    std::uint64_t stability_refactorizations = 0;  // monitor-triggered
    std::uint64_t fallbacks = 0;          // warm/resident state abandoned
    std::uint64_t resident_resumes = 0;   // solves resumed without any rebuild
    std::uint64_t seed_imports = 0;       // solves warm-started from a seed
    std::uint64_t ft_budget_exhausted = 0;  // resumes whose patch queue hit
                                            // the min(96, m/4+1) update
                                            // budget and refactorized instead
  };

  // Takes ownership of the built problem and standardizes it once
  // (telemetry: lp.session.build). The engine choice in options is ignored —
  // a session is always the revised engine (the dense oracle has no
  // persistent form).
  LpSession(LpProblem problem, const LpOptions& options);
  ~LpSession();
  LpSession(LpSession&&) noexcept;
  LpSession& operator=(LpSession&&) noexcept;

  // Structure-preserving patches, applied to the resident standardized
  // arrays AND the owned LpProblem (same contracts as LpProblem::patch_*).
  void patch_rhs(std::size_t r, double rhs);
  void patch_coefficient(std::size_t r, std::size_t v, double coeff);
  void patch_bound(std::size_t v, double lo, double hi);
  void patch_cost(std::size_t v, double obj);

  // Solves the resident problem. A non-null, non-empty seed re-imports that
  // basis (a lane's first solve, from a warm seed); a seed that does not fit
  // the problem falls back to a cold solve (lp.warm_rejects). Otherwise the
  // previous solve's basis and factors are resumed in place, or — on the
  // first solve — the problem is solved cold, exactly as solve_lp with the
  // revised engine solves it.
  LpSolution solve(const LpBasis* seed = nullptr);

  // The resident problem (patched state); useful for oracle re-solves.
  const LpProblem& problem() const;

  Stats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tapo::solver
