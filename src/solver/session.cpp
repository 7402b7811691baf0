#include "solver/session.h"

#include <utility>

#include "solver/revised.h"
#include "solver/revised_core.h"
#include "util/telemetry.h"

namespace tapo::solver {

struct LpSession::Impl {
  Impl(LpProblem p, const LpOptions& options)
      : problem(std::move(p)), core(problem, options), reg(options.telemetry) {}

  LpProblem problem;
  internal::RevisedCore core;
  util::telemetry::Registry* reg = nullptr;
  std::uint64_t pending_patches = 0;  // flushed to telemetry per solve
  Stats stats;
};

LpSession::LpSession(LpProblem problem, const LpOptions& options) {
  util::telemetry::ScopedTimer timer(options.telemetry, "lp.session.build");
  impl_ = std::make_unique<Impl>(std::move(problem), options);
}

LpSession::~LpSession() = default;
LpSession::LpSession(LpSession&&) noexcept = default;
LpSession& LpSession::operator=(LpSession&&) noexcept = default;

void LpSession::patch_rhs(std::size_t r, double rhs) {
  impl_->problem.patch_rhs(r, rhs);
  impl_->core.patch_rhs(r, rhs);
  ++impl_->pending_patches;
}

void LpSession::patch_coefficient(std::size_t r, std::size_t v, double coeff) {
  impl_->problem.patch_coefficient(r, v, coeff);
  impl_->core.patch_coefficient(r, v, coeff);
  ++impl_->pending_patches;
}

void LpSession::patch_bound(std::size_t v, double lo, double hi) {
  impl_->problem.patch_bound(v, lo, hi);
  impl_->core.patch_bound(v, lo, hi);
  ++impl_->pending_patches;
}

void LpSession::patch_cost(std::size_t v, double obj) {
  impl_->problem.patch_cost(v, obj);
  impl_->core.patch_cost(v, obj);
  ++impl_->pending_patches;
}

LpSolution LpSession::solve(const LpBasis* seed) {
  Impl& im = *impl_;
  util::telemetry::ScopedTimer timer(im.reg, "lp.session.solve");
  const internal::RevisedCore::SessionCounters before =
      im.core.session_counters();

  LpSolution sol = im.core.solve(seed);

  ++im.stats.solves;
  im.stats.patches += im.pending_patches;
  const internal::RevisedCore::SessionCounters& after =
      im.core.session_counters();
  im.stats.ft_updates = after.ft_updates;
  im.stats.refactorizations = after.refactorizations;
  im.stats.stability_refactorizations = after.stability_refactorizations;
  im.stats.fallbacks = after.fallbacks;
  im.stats.resident_resumes = after.resident_resumes;
  im.stats.seed_imports = after.seed_imports;
  im.stats.ft_budget_exhausted = after.ft_budget_exhausted;

  if (auto* reg = im.reg) {
    // lp.session.* deltas for this solve (docs/OBSERVABILITY.md).
    reg->count("lp.session.solves");
    if (im.pending_patches) reg->count("lp.session.patches", im.pending_patches);
    const auto delta = [&](std::uint64_t b, std::uint64_t a, const char* key) {
      if (a > b) reg->count(key, a - b);
    };
    delta(before.ft_updates, after.ft_updates, "lp.session.ft_updates");
    delta(before.refactorizations, after.refactorizations,
          "lp.session.refactorizations");
    delta(before.fallbacks, after.fallbacks, "lp.session.fallbacks");
    delta(before.resident_resumes, after.resident_resumes,
          "lp.session.resident_resumes");
    delta(before.seed_imports, after.seed_imports, "lp.session.seed_imports");
    delta(before.ft_budget_exhausted, after.ft_budget_exhausted,
          "lp.session.ft_budget_exhausted");

    // The same per-solve lp.* counters as solve_lp, so session and one-shot
    // solves stay comparable in benches and dashboards. A resident resume or
    // accepted seed counts as a warm start; an attempted one that fell back
    // counts as a reject.
    internal::count_solve(*reg, sol);
    const bool warm_attempted =
        after.seed_imports + after.resident_resumes + after.fallbacks >
        before.seed_imports + before.resident_resumes + before.fallbacks;
    if (warm_attempted) {
      reg->count(sol.warm_used ? "lp.warm_starts" : "lp.warm_rejects");
    }
  }
  im.pending_patches = 0;
  return sol;
}

const LpProblem& LpSession::problem() const { return impl_->problem; }

LpSession::Stats LpSession::stats() const { return impl_->stats; }

}  // namespace tapo::solver
