// Differential and stability tests for the persistent LP session.
//
// An LpSession keeps one standardized problem, basis and LU factorization
// resident across solves; callers mutate it through the structure-preserving
// patch API. The contract under test: after ANY sequence of patches, a
// session solve must agree with a fresh build of the identically patched
// problem — the dense tableau as oracle for status/objective, the resident
// problem's own max_violation for primal feasibility — and the stability
// monitor must demote bad column replacements to refactorizations or cold
// fallbacks rather than return drifted answers. See docs/SOLVER.md §7.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "solver/lp.h"
#include "solver/session.h"
#include "util/rng.h"
#include "util/telemetry.h"

namespace tapo::solver {
namespace {

// A random LP kept in mutable, rebuildable form so the test can apply every
// patch twice: once to the resident session, once to this model, then
// rebuild a fresh LpProblem from the model as the differential reference.
struct MutableLp {
  std::vector<double> lo, hi, obj;
  std::vector<std::vector<std::pair<std::size_t, double>>> terms;
  std::vector<Relation> rels;
  std::vector<double> rhs;

  LpProblem build() const {
    LpProblem p;
    for (std::size_t v = 0; v < lo.size(); ++v) p.add_variable(lo[v], hi[v], obj[v]);
    for (std::size_t r = 0; r < terms.size(); ++r) {
      p.add_constraint(terms[r], rels[r], rhs[r]);
    }
    return p;
  }
};

MutableLp make_random_lp(util::Rng& rng, std::size_t n_vars, std::size_t n_rows) {
  MutableLp lp;
  for (std::size_t v = 0; v < n_vars; ++v) {
    const double lo = rng.uniform(-2.0, 0.0);
    const double hi =
        rng.next_double() < 0.7 ? lo + rng.uniform(0.5, 4.0) : kLpInfinity;
    lp.lo.push_back(lo);
    lp.hi.push_back(hi);
    lp.obj.push_back(rng.uniform(-2.0, 2.0));
  }
  for (std::size_t r = 0; r < n_rows; ++r) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t v = 0; v < n_vars; ++v) {
      // Each variable appears at most once per row (the patch API requires a
      // unique term); a handful of 0.0 placeholders exercise patching a
      // coefficient "in" from zero.
      const double pick = rng.next_double();
      if (pick < 0.55) {
        terms.emplace_back(v, rng.uniform(-1.5, 1.5));
      } else if (pick < 0.65) {
        terms.emplace_back(v, 0.0);
      }
    }
    const double pick = rng.next_double();
    Relation rel = Relation::LessEq;
    double rhs = rng.uniform(0.5, 6.0);
    if (pick < 0.15) {
      rel = Relation::GreaterEq;
      rhs = rng.uniform(-6.0, -0.5);
    } else if (pick < 0.25) {
      rel = Relation::Equal;
      rhs = rng.uniform(-1.0, 1.0);
    }
    lp.rels.push_back(rel);
    lp.rhs.push_back(rhs);
    lp.terms.push_back(std::move(terms));
  }
  return lp;
}

LpSolution solve_with(const LpProblem& problem, LpEngine engine) {
  LpOptions opt;
  opt.engine = engine;
  return solve_lp(problem, opt);
}

// Applies one random patch to the session and the mutable model.
void random_patch(util::Rng& rng, LpSession& session, MutableLp& lp) {
  const double pick = rng.next_double();
  if (pick < 0.35 && !lp.rhs.empty()) {
    const auto r = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(lp.rhs.size()) - 1));
    const double rhs = lp.rels[r] == Relation::GreaterEq
                           ? rng.uniform(-6.0, -0.5)
                           : rng.uniform(-1.0, 6.0);
    lp.rhs[r] = rhs;
    session.patch_rhs(r, rhs);
  } else if (pick < 0.70) {
    // Coefficient patch on an existing (possibly zero-placeholder) term.
    for (int attempt = 0; attempt < 8; ++attempt) {
      const auto r = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(lp.terms.size()) - 1));
      if (lp.terms[r].empty()) continue;
      const auto t = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(lp.terms[r].size()) - 1));
      const double coeff = rng.uniform(-1.5, 1.5);
      lp.terms[r][t].second = coeff;
      session.patch_coefficient(r, lp.terms[r][t].first, coeff);
      return;
    }
  } else if (pick < 0.85) {
    const auto v = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(lp.lo.size()) - 1));
    const double lo = rng.uniform(-2.0, 0.0);
    const double hi =
        rng.next_double() < 0.7 ? lo + rng.uniform(0.5, 4.0) : kLpInfinity;
    lp.lo[v] = lo;
    lp.hi[v] = hi;
    session.patch_bound(v, lo, hi);
  } else {
    const auto v = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(lp.obj.size()) - 1));
    const double obj = rng.uniform(-2.0, 2.0);
    lp.obj[v] = obj;
    session.patch_cost(v, obj);
  }
}

TEST(LpSession, RandomPatchSequencesMatchFreshSolves) {
  // The core differential: a session dragged through a random patch
  // sequence must, at every step, agree with a from-scratch dense solve of
  // the identically patched problem on status and objective, and its point
  // must be feasible for that problem.
  util::Rng rng(0x9e3779b97f4a7c15ULL);
  std::size_t optimal_count = 0, solves = 0, borderline = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n_vars = static_cast<std::size_t>(rng.uniform_int(2, 14));
    const std::size_t n_rows = static_cast<std::size_t>(rng.uniform_int(1, 10));
    MutableLp lp = make_random_lp(rng, n_vars, n_rows);
    LpSession session(lp.build(), LpOptions{});
    const int steps = rng.uniform_int(3, 7);
    for (int step = 0; step < steps; ++step) {
      const int patches = rng.uniform_int(1, 4);
      for (int k = 0; k < patches; ++k) random_patch(rng, session, lp);

      const LpSolution got = session.solve();
      ++solves;
      const LpProblem fresh = lp.build();
      const LpSolution dense = solve_with(fresh, LpEngine::Dense);
      const LpSolution revised = solve_with(fresh, LpEngine::Revised);
      if (dense.status != revised.status) {
        // The instance sits on the phase-1 feasibility threshold and the two
        // engines themselves split on it; the session cannot be held to the
        // dense verdict there. Must stay rare.
        ++borderline;
        continue;
      }
      ASSERT_EQ(dense.status, got.status)
          << "trial " << trial << " step " << step
          << ": dense=" << to_string(dense.status)
          << " session=" << to_string(got.status);
      if (dense.status != LpStatus::Optimal) continue;
      ++optimal_count;
      EXPECT_NEAR(dense.objective, got.objective, 1e-7)
          << "trial " << trial << " step " << step;
      EXPECT_LT(fresh.max_violation(got.x), 1e-6)
          << "trial " << trial << " step " << step;
      // The session's resident LpProblem mirrors every patch.
      EXPECT_NEAR(session.problem().objective_value(got.x), got.objective, 1e-7);
    }
  }
  EXPECT_GT(optimal_count, solves / 3);
  EXPECT_LT(borderline, solves / 20);

  // The generator must keep exercising the interesting regime: mostly
  // feasible instances, yet a meaningful infeasible/unbounded share.
  EXPECT_LT(optimal_count, solves);
}

TEST(LpSession, UnpatchedResolveIsBitIdentical) {
  util::Rng rng(0x5eed5eed5eed5eedULL);
  std::size_t checked = 0;
  for (int trial = 0; trial < 25; ++trial) {
    const MutableLp lp = make_random_lp(rng, 8, 5);
    LpSession session(lp.build(), LpOptions{});
    const LpSolution first = session.solve();
    if (!first.optimal()) continue;
    // No patches: the resume must reproduce the previous answer bit for bit
    // (canonical extraction makes the result a function of the basis alone)
    // without any rebuild or fallback.
    const LpSolution again = session.solve();
    ASSERT_TRUE(again.optimal());
    EXPECT_EQ(first.objective, again.objective);
    ASSERT_EQ(first.x.size(), again.x.size());
    for (std::size_t v = 0; v < first.x.size(); ++v) {
      EXPECT_EQ(first.x[v], again.x[v]) << "var " << v;
    }
    EXPECT_EQ(again.iterations, 0u);
    const LpSession::Stats stats = session.stats();
    EXPECT_EQ(stats.solves, 2u);
    EXPECT_GE(stats.resident_resumes, 1u);
    EXPECT_EQ(stats.fallbacks, 0u);
    ++checked;
  }
  EXPECT_GT(checked, 10u);
}

TEST(LpSession, SeedImportMatchesWarmSolveLp) {
  // A seeded session solve imports the basis, repairs and extracts
  // canonically — so seeded with the optimal basis of a one-shot solve of
  // the same problem, it must reproduce that solve bit for bit.
  util::Rng rng(0xabcddcba12344321ULL);
  std::size_t checked = 0;
  for (int trial = 0; trial < 25; ++trial) {
    const MutableLp lp = make_random_lp(rng, 10, 6);
    const LpProblem fresh = lp.build();
    const LpSolution cold = solve_with(fresh, LpEngine::Revised);
    if (!cold.optimal()) continue;

    LpSession session(lp.build(), LpOptions{});
    const LpSolution seeded = session.solve(&cold.basis);
    ASSERT_TRUE(seeded.optimal());
    EXPECT_TRUE(seeded.warm_used);
    EXPECT_EQ(cold.objective, seeded.objective);
    ASSERT_EQ(cold.x.size(), seeded.x.size());
    for (std::size_t v = 0; v < cold.x.size(); ++v) {
      EXPECT_EQ(cold.x[v], seeded.x[v]) << "var " << v;
    }
    EXPECT_EQ(session.stats().seed_imports, 1u);
    ++checked;
  }
  EXPECT_GT(checked, 10u);
}

// An 8-row instance whose optimal basis is the full set of structural
// variables, so patching one of them rewrites a *basic* column and the
// resume must go through the in-place Forrest–Tomlin column-replacement
// machinery (m/4 + 1 = 3 > 1 dirty column keeps the update path, not the
// rebuild).
LpProblem diagonal_lp(double x1_in_row0) {
  LpProblem lp;
  for (int v = 0; v < 8; ++v) lp.add_variable(0.0, kLpInfinity, 1.0);
  lp.add_constraint({{0, 1.0}, {1, x1_in_row0}}, Relation::LessEq, 1.0);
  for (std::size_t r = 1; r < 8; ++r) {
    lp.add_constraint({{r, 1.0}}, Relation::LessEq, 1.0);
  }
  return lp;
}

TEST(LpSession, PatchedBasicColumnTakesFtUpdate) {
  LpSession session(diagonal_lp(0.0), LpOptions{});
  const LpSolution first = session.solve();
  ASSERT_TRUE(first.optimal());
  EXPECT_DOUBLE_EQ(first.objective, 8.0);

  // Row 0 becomes x0 + 0.5*x1 <= 1 while x1 is basic: exactly one
  // column-replacement update, no refactorization, no fallback.
  session.patch_coefficient(0, 1, 0.5);
  const LpSolution second = session.solve();
  ASSERT_TRUE(second.optimal());
  EXPECT_NEAR(second.objective, 7.5, 1e-9);
  const LpSolution oracle = solve_with(session.problem(), LpEngine::Dense);
  ASSERT_TRUE(oracle.optimal());
  EXPECT_NEAR(oracle.objective, second.objective, 1e-9);

  const LpSession::Stats stats = session.stats();
  EXPECT_GE(stats.ft_updates, 1u);
  EXPECT_EQ(stats.stability_refactorizations, 0u);
  EXPECT_EQ(stats.fallbacks, 0u);
  EXPECT_GE(stats.resident_resumes, 1u);
}

TEST(LpSession, SingularPatchTriggersStabilityMonitorAndFallsBack) {
  // Rewrite x1's column into an exact copy of x0's (1 in row 0, gone from
  // row 1). The replacement pivot w_r is then zero — the spike check must
  // demote the update to a refactorization, the rebuilt basis is singular,
  // and the session must fall back to a cold solve rather than produce a
  // drifted answer.
  LpSession session(diagonal_lp(0.0), LpOptions{});
  ASSERT_TRUE(session.solve().optimal());

  session.patch_coefficient(0, 1, 1.0);
  session.patch_coefficient(1, 1, 0.0);
  const LpSolution after = session.solve();
  ASSERT_TRUE(after.optimal());
  // max x0+..+x7 with x0 + x1 <= 1 and x2..x7 <= 1 each.
  EXPECT_NEAR(after.objective, 7.0, 1e-9);
  const LpSolution oracle = solve_with(session.problem(), LpEngine::Dense);
  EXPECT_NEAR(oracle.objective, after.objective, 1e-9);

  const LpSession::Stats stats = session.stats();
  EXPECT_GE(stats.stability_refactorizations, 1u);
  EXPECT_GE(stats.fallbacks, 1u);

  // The cold fallback leaves a healthy resident state behind: further
  // patched solves keep matching the oracle.
  session.patch_rhs(0, 2.0);
  const LpSolution resumed = session.solve();
  ASSERT_TRUE(resumed.optimal());
  EXPECT_NEAR(resumed.objective, 8.0, 1e-9);
}

TEST(LpSession, InfeasibleStretchResumesAndRecovers) {
  // Sessions must survive a patched excursion into infeasibility exactly
  // like PR 4's certificate warm-start: the infeasible conclusion keeps the
  // certificate basis resident, and patching back to feasibility resumes
  // from it without a cold restart.
  LpProblem lp;
  lp.add_variable(0.0, kLpInfinity, 1.0);
  lp.add_constraint({{0, 1.0}}, Relation::LessEq, 1.0);
  LpSession session(std::move(lp), LpOptions{});

  const LpSolution feasible = session.solve();
  ASSERT_TRUE(feasible.optimal());
  EXPECT_DOUBLE_EQ(feasible.objective, 1.0);

  session.patch_rhs(0, -1.0);  // x0 <= -1 with x0 >= 0: infeasible
  const LpSolution infeasible = session.solve();
  EXPECT_EQ(infeasible.status, LpStatus::Infeasible);
  EXPECT_FALSE(infeasible.basis.empty());  // certificate exported

  session.patch_rhs(0, 2.0);
  const LpSolution back = session.solve();
  ASSERT_TRUE(back.optimal());
  EXPECT_DOUBLE_EQ(back.objective, 2.0);

  const LpSession::Stats stats = session.stats();
  EXPECT_EQ(stats.solves, 3u);
  EXPECT_GE(stats.resident_resumes, 2u);
  EXPECT_EQ(stats.fallbacks, 0u);
}

TEST(LpSession, PatchApiMatchesRebuiltProblem) {
  // LpProblem::patch_* alone (no session): patched problem must be
  // indistinguishable from one built directly with the final data.
  LpProblem patched;
  patched.add_variable(0.0, 1.0, 1.0);
  patched.add_variable(-1.0, kLpInfinity, 0.5);
  patched.add_constraint({{0, 1.0}, {1, 0.0}}, Relation::LessEq, 2.0);
  patched.add_constraint({{1, -1.0}}, Relation::GreaterEq, -3.0);
  patched.patch_coefficient(0, 1, 0.75);
  patched.patch_rhs(0, 1.5);
  patched.patch_bound(1, -0.5, 2.0);
  patched.patch_cost(0, -1.0);

  LpProblem direct;
  direct.add_variable(0.0, 1.0, -1.0);
  direct.add_variable(-0.5, 2.0, 0.5);
  direct.add_constraint({{0, 1.0}, {1, 0.75}}, Relation::LessEq, 1.5);
  direct.add_constraint({{1, -1.0}}, Relation::GreaterEq, -3.0);

  const LpProblem::SparseColumns a = patched.columns();
  const LpProblem::SparseColumns b = direct.columns();
  EXPECT_EQ(a.starts, b.starts);
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.values, b.values);
  for (std::size_t v = 0; v < 2; ++v) {
    EXPECT_EQ(patched.lower_bound(v), direct.lower_bound(v));
    EXPECT_EQ(patched.upper_bound(v), direct.upper_bound(v));
    EXPECT_EQ(patched.objective_coeff(v), direct.objective_coeff(v));
  }
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(patched.rhs(r), direct.rhs(r));
    EXPECT_EQ(patched.relation(r), direct.relation(r));
  }
  const LpSolution pa = solve_with(patched, LpEngine::Dense);
  const LpSolution pb = solve_with(direct, LpEngine::Dense);
  ASSERT_EQ(pa.status, pb.status);
  EXPECT_EQ(pa.objective, pb.objective);
}

TEST(LpSession, TelemetryCatalogsSessionActivity) {
  util::telemetry::Registry reg;
  LpOptions opt;
  opt.telemetry = &reg;
  LpSession session(diagonal_lp(0.0), opt);
  ASSERT_TRUE(session.solve().optimal());
  session.patch_coefficient(0, 1, 0.5);
  session.patch_rhs(0, 1.25);
  ASSERT_TRUE(session.solve().optimal());

  EXPECT_EQ(reg.timer_stats("lp.session.build").count, 1u);
  EXPECT_EQ(reg.timer_stats("lp.session.solve").count, 2u);
  EXPECT_EQ(reg.counter_value("lp.session.solves"), 2u);
  EXPECT_EQ(reg.counter_value("lp.session.patches"), 2u);
  EXPECT_EQ(reg.counter_value("lp.session.resident_resumes"),
            session.stats().resident_resumes);
  EXPECT_EQ(reg.counter_value("lp.session.ft_updates"),
            session.stats().ft_updates);
  EXPECT_EQ(reg.counter_value("lp.session.ft_budget_exhausted"),
            session.stats().ft_budget_exhausted);
  // Sessions feed the same lp.* rollups as one-shot solves.
  EXPECT_EQ(reg.counter_value("lp.solves"), 2u);
  // Standardization/factorization phase timers fire inside the session.
  EXPECT_GE(reg.timer_stats("lp.phase.standardize").count, 1u);
  EXPECT_GE(reg.timer_stats("lp.phase.factorize").count, 1u);
}

}  // namespace
}  // namespace tapo::solver
