// Internal: the revised-simplex engine class behind solve_lp_revised and
// LpSession. Not part of the public solver API — include solver/lp.h (one-
// shot solves) or solver/session.h (persistent sessions) instead.
//
// One driver serves both callers. The constructor standardizes the problem
// once; then any number of patch_*() calls and solve() calls follow.
// solve_lp_revised is a core that solves once, cold. An LpSession keeps the
// core: patches edit the resident standardized arrays in place (CSC values,
// shifted RHS, bounds, costs), and a patched column that is currently basic
// is queued for an in-place Forrest–Tomlin column replacement in the
// resident factorization instead of a refactorization. A stability monitor
// (spike-pivot and residual checks) demotes updates to a refactorization
// and, failing that, to the cold path, so a resumed solve is never less
// correct than a fresh one (docs/SOLVER.md §7).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "solver/lp.h"
#include "solver/lu.h"

namespace tapo::solver::internal {

class RevisedCore {
 public:
  // Forrest–Tomlin budget: refactorize after this many column replacements,
  // once update fill-in exceeds this multiple of the post-refactorization
  // factor size, or when an update's emerging diagonal falls below this
  // fraction of max(1, ||spike||_inf).
  static constexpr std::size_t kFtMaxUpdates = 96;
  static constexpr double kFtFillFactor = 4.0;
  static constexpr double kFtPivotTolerance = 1e-7;

  // Standardizes p (timed as lp.phase.standardize). p must outlive the core;
  // options supply the iteration cap and the telemetry sink.
  RevisedCore(const LpProblem& p, const LpOptions& options);

  // Counters a core accumulates across its lifetime; never reset.
  struct SessionCounters {
    std::uint64_t ft_updates = 0;        // Forrest–Tomlin column replacements
    std::uint64_t refactorizations = 0;  // LU rebuilds (any reason)
    std::uint64_t stability_refactorizations = 0;  // monitor-triggered ones
    std::uint64_t fallbacks = 0;      // resident/seed state abandoned for cold
    std::uint64_t resident_resumes = 0;  // solves served from resident state
    std::uint64_t seed_imports = 0;      // seed basis imports
    // Resumes whose queued patch set hit the min(kFtMaxUpdates, m/4+1)
    // update budget and were demoted to a refactorization. A climbing rate
    // here means patch chains outgrew the factor-update budget (soak
    // anomaly detection watches the lp.session.ft_budget_exhausted series).
    std::uint64_t ft_budget_exhausted = 0;
  };

  // In-place patches of the standardized arrays. The caller (LpSession)
  // applies the same patch to the LpProblem this core references, so
  // extraction — which reads bounds/objective through the problem — stays
  // consistent. patch_coefficient requires the CSC entry to exist.
  void patch_rhs(std::size_t r, double rhs);
  void patch_coefficient(std::size_t r, std::size_t v, double coeff);
  void patch_bound(std::size_t v, double lo, double hi);
  void patch_cost(std::size_t v, double obj);

  // Solves the resident (patched) problem. A non-empty seed re-imports that
  // basis (one refactorization — the cost of a seeded build); otherwise the
  // previous solve's basis and factors are resumed with pending column
  // updates applied, or — on the first solve — the problem is solved cold.
  // Falls back to a cold solve on any validation or numerical failure.
  // Extraction is canonical: the result depends only on the final basis.
  LpSolution solve(const LpBasis* seed);

  const SessionCounters& session_counters() const { return session_; }

 private:
  enum class VarStatus : unsigned char { AtLower, AtUpper, Basic };
  enum class Step { Done, Unbounded, Numerical };
  enum class Outcome { Optimal, Infeasible, Unbounded, IterLimit, Restart };

  // ---- setup ----
  void standardize(std::size_t max_iterations);
  void build_col_classes();
  void demote_col_class(std::size_t v);
  void cold_start();
  bool try_warm(const LpBasis& wb);

  // ---- basis inverse ----
  bool refactorize();
  // FTRAN: v <- B^{-1} v. `entering` marks v as an entering/replacement
  // column whose update the next push_update_and_maybe_refactor() will
  // apply: the partially solved spike is captured for it.
  void ftran(std::vector<double>& v, bool entering = false) const;
  void btran(std::vector<double>& v) const;

  // ---- column access (structural / slack / artificial uniformly) ----
  template <typename F>
  void for_col(std::size_t j, F&& f) const {
    if (j < slack0_) {
      for (std::size_t k = col_start_[j]; k < col_start_[j + 1]; ++k) {
        f(col_row_[k], col_val_[k]);
      }
    } else if (j < art0_) {
      f(j - slack0_, 1.0);
    } else {
      f(j - art0_, art_sign_[j - art0_]);
    }
  }
  // Pricing dot, split per structural column into sparse head / contiguous
  // dense run / sparse tail (see col_run_start_). The three loops visit the
  // same entries in the same ascending-row order as for_col, so the sum is
  // bit-identical; the dense middle loop — the thermal-row block in the
  // Stage-1 LPs — just drops the per-entry row-index gather.
  double col_dot(const std::vector<double>& y, std::size_t j) const {
    double s = 0.0;
    if (j < slack0_) {
      const std::size_t k1 = col_start_[j + 1];
      const std::size_t rs = col_run_start_[j];
      const std::size_t rl = col_run_len_[j];
      for (std::size_t k = col_start_[j]; k < rs; ++k) {
        s += y[col_row_[k]] * col_val_[k];
      }
      if (rl != 0) {
        const double* yv = y.data() + col_row_[rs];
        const double* cv = col_val_.data() + rs;
        for (std::size_t i = 0; i < rl; ++i) s += yv[i] * cv[i];
      }
      for (std::size_t k = rs + rl; k < k1; ++k) {
        s += y[col_row_[k]] * col_val_[k];
      }
    } else if (j < art0_) {
      s = y[j - slack0_];
    } else {
      s = y[j - art0_] * art_sign_[j - art0_];
    }
    return s;
  }
  void load_col(std::size_t j, std::vector<double>& w) const {
    w.assign(m_, 0.0);
    for_col(j, [&](std::size_t r, double v) { w[r] += v; });
  }

  // Memoized pricing dot. Structural columns that are bit-identical (every
  // Stage-1 segment variable of a node carries its node's thermal column)
  // share a class; the dot against the current pricing vector is computed
  // once per class per pricing epoch. The class representative's entries are
  // the same values in the same order as the member's, so the memoized sum
  // is bit-identical to col_dot — pivot selection cannot change.
  double priced_dot(const std::vector<double>& y, std::size_t j) {
    if (j >= slack0_) return col_dot(y, j);  // slack/artificial: O(1) anyway
    const std::size_t rep = col_class_[j];
    if (class_stamp_[rep] != pricing_epoch_) {
      class_dot_[rep] = col_dot(y, rep);
      class_stamp_[rep] = pricing_epoch_;
    }
    return class_dot_[rep];
  }

  // ---- state recomputation ----
  void price_y(const std::vector<double>& cost);
  void compute_xb();
  double primal_infeasibility() const;

  // ---- pricing (docs/SOLVER.md §8) ----
  // Entering-variable selection for one primal iteration: candidate-list
  // partial Devex; `bland` forces the full lowest-index anti-cycling scan.
  // Returns false when no eligible candidate exists anywhere — a verdict
  // only reached by a full scan after the candidate list ran dry (y is
  // re-priced fresh every pivot), so it is a full scan's optimality
  // certificate.
  bool price_entering(const std::vector<double>& cost, bool bland,
                      std::size_t& enter, int& dir);
  // Rebuilds the candidate-list units (one unit per column class) after
  // build_col_classes or a class demotion.
  void rebuild_pricing_units();
  // Resets the Devex reference framework (all weights to 1). Runs at every
  // cold start / basis import — weights describe pivot history of the
  // current basis trajectory — and on weight overflow (counted as
  // lp.pricing.devex_resets). Resident session resumes keep their weights.
  void reset_devex(bool count_overflow = false);
  // Flushes the per-iterate phase-time accumulators and pricing counters to
  // the registry; called once per primal_iterate/dual_iterate return.
  void flush_iterate_stats();

  // ---- pivoting ----
  // Applies the basis update for the column that just became basic in
  // `pivot_row`: an in-place FT column replacement consuming the spike the
  // last entering ftran captured. Refactorizes when the update budget, the
  // fill monitor or the stability monitor says so.
  bool push_update_and_maybe_refactor(std::size_t pivot_row);
  bool pivot(std::size_t enter, int dir, std::size_t pivot_row, double delta,
             bool leaving_at_upper);
  Step primal_iterate(bool phase1, const std::vector<double>& cost);
  Step dual_iterate();
  void make_dual_feasible();
  bool driveout_artificials();

  // Shared solve tail from an established (seeded, resident, or
  // post-phase-1) basis: optional dual repair of primal infeasibility, then
  // primal phase 2. repair_primal is false on the cold path, where phase 1
  // already guarantees feasibility.
  Outcome finish_from_basis(bool repair_primal);
  Outcome cold_attempt();
  LpSolution extract(LpStatus status);

  // ---- persistent-session internals ----
  // Applies queued column-replacement updates to the resident factorization;
  // refactorizes on a spike pivot or an exhausted update budget. False =
  // numerical failure (caller falls back to cold).
  bool apply_pending_updates();
  // Residual stability check of the resident solution xb against the
  // patched system; part of the session's stability monitor.
  bool residual_ok();

  const LpProblem& p_;
  util::telemetry::Registry* reg_ = nullptr;

  std::size_t m_ = 0;         // rows
  std::size_t n_struct_ = 0;  // structural variables
  std::size_t slack0_ = 0;    // first slack index (= n_struct_)
  std::size_t art0_ = 0;      // first artificial index (= n_struct_ + m_)
  std::size_t n_total_ = 0;   // n_struct_ + 2 * m_

  // Standardized structural columns (CSC), rel_sign already applied.
  std::vector<std::size_t> col_start_, col_row_;
  std::vector<double> col_val_;

  // Per structural column, the longest contiguous row-index run inside its
  // CSC slice: col_run_start_[v] is a CSC position k in
  // [col_start_[v], col_start_[v+1]] and col_run_len_[v] its length, with
  // col_row_[k..k+len) consecutive. In the Stage-1 LPs this is the dense
  // thermal block of the column; col_dot iterates it without the row-index
  // gather. Row structure never changes after standardize() (patches edit
  // values only), so the runs are computed once.
  std::vector<std::size_t> col_run_start_, col_run_len_;

  // Pricing dedup state (see priced_dot). col_class_[v] is the smallest
  // structural index whose column is bit-identical to v's (v itself for a
  // singleton); patch_coefficient demotes the patched column to a singleton.
  std::vector<std::size_t> col_class_;
  std::vector<double> class_dot_;          // memoized dot, indexed by rep
  std::vector<std::uint64_t> class_stamp_; // epoch the memo slot was filled
  std::uint64_t pricing_epoch_ = 1;        // bumped when y_/rho_ change

  // Candidate-list partial pricing (docs/SOLVER.md §8). A unit is one column
  // class: units_ lists the representatives ascending, and unit_cols_
  // (grouped by unit_start_) the member columns of each unit, ascending —
  // members share the class dot but carry their own objective coefficients,
  // so a partial scan prices the class dot once and still visits every
  // member. cand_units_ is the candidate list: the globally best-scoring
  // ~2*sqrt(#units) units of the last full scan (price_window_ is that
  // capacity), re-scanned each iteration and rebuilt by a fresh full scan
  // when it yields no eligible candidate. The list persists across
  // iterations AND session resumes (the amortization is exactly the point).
  // Slack/artificial columns are priced every iteration (O(1) dots) and
  // never enter the list. rep_unit_ maps a class representative to its unit
  // (the leaving variable's unit is promoted into the list every pivot —
  // its reduced cost just flipped, so it is the likeliest next candidate).
  // Class demotions mark units_dirty_; unit lists are rebuilt lazily at the
  // next persistent solve.
  std::vector<std::size_t> units_;
  std::vector<std::size_t> unit_start_, unit_cols_;
  std::vector<std::size_t> rep_unit_;
  std::vector<std::size_t> cand_units_;
  std::size_t price_window_ = 0;
  // Minor-cycle length control: pivots since the candidate list was last
  // rebuilt by a full scan. The list is refreshed when it runs dry, shrinks
  // below half capacity, or serves more than price_window_ pivots — stale
  // best-of-list picks degrade pivot quality well before the list empties
  // (measured: dry-only refreshes cost +53% iterations vs full Devex).
  std::size_t pivots_since_rebuild_ = 0;
  bool units_dirty_ = false;

  // Devex reference weights. Primal: per-column (n_total_), selection score
  // d^2 / weight, leaving-variable update from the pivot element of the
  // already-computed FTRAN column. Dual: per-row (m_), leaving-row score
  // violation^2 / weight, O(m) exact update from the FTRAN column. Both
  // reset to the unit framework on cold starts / basis imports and on
  // overflow past kDevexResetThreshold; resident resumes keep them (§8's
  // session-survival contract).
  static constexpr double kDevexResetThreshold = 1e8;
  std::vector<double> devex_w_;
  std::vector<double> dual_devex_w_;

  // Per-iterate phase-time accumulators (lp.phase.price/ftran/update) and
  // pricing counters (lp.pricing.*), flushed by flush_iterate_stats once
  // per iterate call — per-pivot ScopedTimers would pay the registry mutex
  // on the hot path.
  double t_price_ = 0.0, t_ftran_ = 0.0, t_update_ = 0.0;
  std::uint64_t n_window_refreshes_ = 0;
  std::uint64_t n_devex_resets_ = 0;
  std::uint64_t n_full_scan_fallbacks_ = 0;

  std::vector<double> rel_sign_;  // -1 for GreaterEq rows, +1 otherwise
  std::vector<char> equality_;    // per row
  std::vector<double> art_sign_;  // artificial column coefficient, per row
  std::vector<double> b_;         // standardized rhs
  std::vector<double> ub_;        // per variable, shifted space
  std::vector<double> obj2_;      // phase-2 cost over all n_total_ slots
  double bnorm_ = 0.0;            // max |b_r|, for relative feasibility tests

  std::vector<std::size_t> basis_;  // variable basic in each row
  std::vector<VarStatus> status_;   // per variable
  std::vector<double> xb_;          // basic variable values, aligned to basis_

  // Basis inverse: ft_ holds the factors and absorbs basis changes as
  // in-place Forrest–Tomlin column replacements. spike_ holds the partially
  // solved entering column the last ftran(v, true) captured — the
  // replacement column the next update consumes.
  std::optional<FtFactorization> ft_;
  mutable std::vector<double> spike_;
  mutable bool spike_valid_ = false;

  std::size_t iterations_ = 0;
  std::size_t max_iterations_ = 0;
  bool needs_phase1_ = false;
  bool warm_used_ = false;

  // Patch state. lo_ mirrors the structural lower bounds and rhs_shift_
  // the per-row sum of a_std * lo, so patches can maintain the standardized
  // b_ = rel_sign * rhs_raw - rhs_shift incrementally. dirty_cols_ queues
  // patched columns that were basic at patch time for factor updates.
  std::vector<double> lo_;         // n_struct_
  std::vector<double> rhs_shift_;  // m_
  std::vector<std::size_t> dirty_cols_;
  std::vector<char> col_dirty_;  // n_struct_, dedupes dirty_cols_
  bool resident_ok_ = false;  // basis_/status_/factors describe a prior solve
  bool b_dirty_ = false;      // bnorm_ needs a refresh before the next solve
  bool extract_refactor_ok_ = true;  // canonical refactorize succeeded
  SessionCounters session_;

  // Scratch (one per solver instance; the in-place LU solves also use a
  // per-factorization scratch, so nothing here is shareable across threads).
  std::vector<double> y_, w_, rho_, wf_;  // wf_: BFRT flip-column scratch
  std::vector<double> d_;       // nonbasic reduced costs (dual phase only)
  std::vector<double> alphas_;  // pivot-row entries, refreshed per dual pivot
};

}  // namespace tapo::solver::internal
