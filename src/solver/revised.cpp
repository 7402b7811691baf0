// Revised simplex over an LU-factorized basis with Forrest–Tomlin updates.
//
// The engine works on the standardized system
//   A' z = b',  0 <= z_j <= ub_j,
// where z is: shifted structural variables (lower bounds moved to zero),
// then one slack per row (coefficient +1, upper bound 0 for equality rows),
// then one artificial per row (coefficient sign(b'_r), upper bound 0 unless
// the cold start unlocks it for phase 1). GreaterEq rows are negated
// (rel_sign), but — unlike the dense oracle in lp.cpp — negative-rhs rows
// are NOT flipped. Keeping the row orientation fixed is what lets a basis
// exported from one LP warm-start a perturbed one: the slack of row r is
// the same logical variable in both, whatever the sign of b'_r.
//
// The basis inverse is an LU factorization maintained with in-place
// Forrest–Tomlin column replacements (FtFactorization, solver/lu.h): each
// basis change mutates U and records one row eta per eliminated entry, so
// FTRAN/BTRAN stay two sparse triangular solves plus scalar eta
// applications regardless of how dense the replaced columns were. A
// stability monitor (emerging-diagonal test) and a fill/update budget
// (RevisedCore::kFtMaxUpdates, kFtFillFactor) demote the update chain to a
// from-scratch refactorization.
//
// Pricing is partial Devex over a candidate list of column classes, with
// Bland's lowest-index rule once a phase stalls (docs/SOLVER.md §8).
//
// Warm starts: an imported seed LpBasis is validated (slot count, exactly m
// basic variables, factorizable basis matrix); on acceptance phase 1 is
// skipped entirely and the solve enters primal phase 2 directly (still
// primal feasible) or a dual simplex phase (primal infeasible after an
// RHS/bound change, dual feasibility restored by bound flips first). Any
// validation failure, numerical trouble, or dual-unbounded conclusion
// falls back to a full cold start, so a warm solve is never less correct
// than a cold one — only cheaper.
//
// Optimal bases are extracted canonically: the basic set is sorted
// ascending and refactorized fresh (no pending updates) before x, the duals
// and the exported basis are computed. Extraction therefore depends only
// on the final (basis set, nonbasic statuses), not on the pivot path, so a
// warm re-solve landing on the same basis is bit-identical to a cold one.
//
// solve_lp_revised and persistent sessions (solver/session.h) share one
// driver: the constructor standardizes once, patch_*() edit the
// standardized arrays in place, and solve() resumes the previous solve's
// basis and factors, repairing them with Forrest–Tomlin column replacements
// instead of refactorizing — see the notes on apply_pending_updates below
// and docs/SOLVER.md §7. A one-shot solve is a core's first, cold solve.
#include "solver/revised.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "solver/matrix.h"
#include "solver/revised_core.h"
#include "util/check.h"
#include "util/telemetry.h"

namespace tapo::solver::internal {

RevisedCore::RevisedCore(const LpProblem& p, const LpOptions& options)
    : p_(p), reg_(options.telemetry) {
  standardize(options.max_iterations);
}

void RevisedCore::standardize(std::size_t max_iterations) {
  util::telemetry::ScopedTimer timer(reg_, "lp.phase.standardize");
  m_ = p_.num_constraints();
  n_struct_ = p_.num_vars();
  slack0_ = n_struct_;
  art0_ = n_struct_ + m_;
  n_total_ = n_struct_ + 2 * m_;

  rel_sign_.assign(m_, 1.0);
  equality_.assign(m_, 0);
  b_.assign(m_, 0.0);
  for (std::size_t r = 0; r < m_; ++r) {
    equality_[r] = p_.relation(r) == Relation::Equal ? 1 : 0;
    if (p_.relation(r) == Relation::GreaterEq) rel_sign_[r] = -1.0;
    b_[r] = p_.rhs(r);
  }

  LpProblem::SparseColumns raw = p_.columns();
  col_start_ = std::move(raw.starts);
  col_row_ = std::move(raw.rows);
  col_val_ = std::move(raw.values);

  // Shift lower bounds to zero: b -= A * lo (raw coefficients), then apply
  // the GreaterEq negation to both the columns and the rhs.
  for (std::size_t v = 0; v < n_struct_; ++v) {
    const double lo = p_.lower_bound(v);
    if (lo == 0.0) continue;
    for (std::size_t k = col_start_[v]; k < col_start_[v + 1]; ++k) {
      b_[col_row_[k]] -= col_val_[k] * lo;
    }
  }
  for (std::size_t k = 0; k < col_row_.size(); ++k) {
    col_val_[k] *= rel_sign_[col_row_[k]];
  }

  // Longest contiguous row run per structural column (see col_run_* in the
  // header). Row structure is fixed for the life of the core, so one pass.
  col_run_start_.assign(n_struct_, 0);
  col_run_len_.assign(n_struct_, 0);
  for (std::size_t v = 0; v < n_struct_; ++v) {
    const std::size_t k1 = col_start_[v + 1];
    std::size_t best_start = col_start_[v];
    std::size_t best_len = 0;
    std::size_t k = col_start_[v];
    while (k < k1) {
      std::size_t j = k + 1;
      while (j < k1 && col_row_[j] == col_row_[j - 1] + 1) ++j;
      if (j - k > best_len) {
        best_len = j - k;
        best_start = k;
      }
      k = j;
    }
    col_run_start_[v] = best_start;
    col_run_len_[v] = best_len;
  }

  bnorm_ = 0.0;
  art_sign_.assign(m_, 1.0);
  for (std::size_t r = 0; r < m_; ++r) {
    b_[r] *= rel_sign_[r];
    if (b_[r] < 0.0) art_sign_[r] = -1.0;
    bnorm_ = std::max(bnorm_, std::fabs(b_[r]));
  }

  ub_.assign(n_total_, 0.0);
  obj2_.assign(n_total_, 0.0);
  for (std::size_t v = 0; v < n_struct_; ++v) {
    const double hi = p_.upper_bound(v);
    ub_[v] = std::isfinite(hi) ? hi - p_.lower_bound(v) : kLpInfinity;
    obj2_[v] = p_.objective_coeff(v);
  }
  for (std::size_t r = 0; r < m_; ++r) {
    ub_[slack0_ + r] = equality_[r] ? 0.0 : kLpInfinity;
    ub_[art0_ + r] = 0.0;  // locked unless the cold start needs it
  }

  max_iterations_ =
      max_iterations ? max_iterations : 50 * (m_ + n_total_) + 2000;

  build_col_classes();

  // Patch bookkeeping: lo_ mirrors the structural lower bounds and
  // rhs_shift_ the standardized-coefficient shift sum, so every patch can
  // maintain b_[r] = rel_sign_[r] * rhs_raw[r] - rhs_shift_[r] in O(row) or
  // O(column) work without replaying the standardization.
  lo_.resize(n_struct_);
  for (std::size_t v = 0; v < n_struct_; ++v) lo_[v] = p_.lower_bound(v);
  rhs_shift_.assign(m_, 0.0);
  for (std::size_t v = 0; v < n_struct_; ++v) {
    if (lo_[v] == 0.0) continue;
    for (std::size_t k = col_start_[v]; k < col_start_[v + 1]; ++k) {
      rhs_shift_[col_row_[k]] += col_val_[k] * lo_[v];
    }
  }
  col_dirty_.assign(n_struct_, 0);
}

void RevisedCore::build_col_classes() {
  // Group bit-identical structural columns for priced_dot. In the Stage-1 LP
  // every segment variable of a node repeats the node's thermal-distribution
  // column verbatim, so the pricing scans — the dominant per-iteration cost —
  // recompute the same dot once per segment; classes collapse that to once
  // per node. Buckets are keyed by an FNV hash of the column bytes with an
  // exact byte comparison against each bucket member, so two columns share a
  // class only when their CSC slices are bitwise equal.
  col_class_.resize(n_struct_);
  class_dot_.assign(n_struct_, 0.0);
  class_stamp_.assign(n_struct_, 0);
  pricing_epoch_ = 1;  // stamps start at 0 = "never filled"
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
  buckets.reserve(n_struct_);
  for (std::size_t v = 0; v < n_struct_; ++v) {
    const std::size_t k0 = col_start_[v];
    const std::size_t len = col_start_[v + 1] - k0;
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t x) {
      h ^= x;
      h *= 1099511628211ull;
    };
    mix(len);
    for (std::size_t k = k0; k < k0 + len; ++k) {
      mix(col_row_[k]);
      std::uint64_t bits;
      std::memcpy(&bits, &col_val_[k], sizeof(bits));
      mix(bits);
    }
    std::size_t rep = v;
    std::vector<std::size_t>& bucket = buckets[h];
    for (const std::size_t u : bucket) {
      const std::size_t u0 = col_start_[u];
      if (col_start_[u + 1] - u0 != len) continue;
      if (len == 0 ||
          (std::memcmp(&col_row_[u0], &col_row_[k0],
                       len * sizeof(col_row_[0])) == 0 &&
           std::memcmp(&col_val_[u0], &col_val_[k0],
                       len * sizeof(col_val_[0])) == 0)) {
        rep = u;
        break;
      }
    }
    if (rep == v) bucket.push_back(v);
    col_class_[v] = rep;
  }
  rebuild_pricing_units();
}

void RevisedCore::rebuild_pricing_units() {
  // One pricing unit per column class, representatives ascending, members
  // ascending within each unit (so a partial scan visits candidates in the
  // same relative order as a full ascending scan). The candidate-list
  // capacity is ~2*sqrt(#units) — wide enough that the list survives many
  // pivots between full-scan rebuilds without starving pivot quality,
  // floored so tiny LPs degenerate to a full scan.
  units_.clear();
  rep_unit_.assign(n_struct_, 0);
  for (std::size_t v = 0; v < n_struct_; ++v) {
    if (col_class_[v] == v) {
      rep_unit_[v] = units_.size();
      units_.push_back(v);
    }
  }
  const std::size_t nu = units_.size();
  unit_start_.assign(nu + 1, 0);
  for (std::size_t v = 0; v < n_struct_; ++v) {
    ++unit_start_[rep_unit_[col_class_[v]] + 1];
  }
  for (std::size_t u = 0; u < nu; ++u) unit_start_[u + 1] += unit_start_[u];
  unit_cols_.resize(n_struct_);
  std::vector<std::size_t> fill(unit_start_.begin(), unit_start_.end() - 1);
  for (std::size_t v = 0; v < n_struct_; ++v) {
    unit_cols_[fill[rep_unit_[col_class_[v]]]++] = v;
  }
  price_window_ = std::max<std::size_t>(
      8, 2 * static_cast<std::size_t>(
                 std::ceil(std::sqrt(static_cast<double>(nu)))));
  cand_units_.clear();  // unit indices changed; rebuilt by the next scan
  pivots_since_rebuild_ = 0;
  units_dirty_ = false;
}

void RevisedCore::reset_devex(bool count_overflow) {
  devex_w_.assign(n_total_, 1.0);
  dual_devex_w_.assign(m_, 1.0);
  if (count_overflow) ++n_devex_resets_;
}

void RevisedCore::flush_iterate_stats() {
  if (reg_ != nullptr) {
    if (t_price_ > 0.0) reg_->record_duration("lp.phase.price", t_price_);
    if (t_ftran_ > 0.0) reg_->record_duration("lp.phase.ftran", t_ftran_);
    if (t_update_ > 0.0) reg_->record_duration("lp.phase.update", t_update_);
    if (n_window_refreshes_) {
      reg_->count("lp.pricing.window_refreshes", n_window_refreshes_);
    }
    if (n_devex_resets_) reg_->count("lp.pricing.devex_resets", n_devex_resets_);
    if (n_full_scan_fallbacks_) {
      reg_->count("lp.pricing.full_scan_fallbacks", n_full_scan_fallbacks_);
    }
  }
  t_price_ = t_ftran_ = t_update_ = 0.0;
  n_window_refreshes_ = n_devex_resets_ = n_full_scan_fallbacks_ = 0;
}

void RevisedCore::demote_col_class(std::size_t v) {
  // A patched column no longer matches its class content. Make it a
  // singleton; if it was the representative, re-point the surviving members
  // (whose columns still hold the old content) at one of their own.
  if (col_class_[v] == v) {
    std::size_t new_rep = n_struct_;
    for (std::size_t u = 0; u < n_struct_; ++u) {
      if (u == v || col_class_[u] != v) continue;
      if (new_rep == n_struct_) new_rep = u;
      col_class_[u] = new_rep;
    }
  }
  col_class_[v] = v;
  units_dirty_ = true;  // unit lists rebuilt lazily at the next solve
}

void RevisedCore::cold_start() {
  status_.assign(n_total_, VarStatus::AtLower);
  basis_.assign(m_, 0);
  xb_.assign(m_, 0.0);
  needs_phase1_ = false;
  // Fresh basis trajectory: unit Devex framework, empty candidate list
  // (keeps a cold solve a pure function of the patched problem, independent
  // of whatever pricing state earlier solves left behind).
  reset_devex();
  cand_units_.clear();
  for (std::size_t r = 0; r < m_; ++r) {
    // Re-derive the artificial's sign from the *current* rhs: patches can
    // flip the sign of b_r after standardize(), and an artificial basic at
    // |b_r| is only a consistent start when its column is sign(b_r) * e_r.
    art_sign_[r] = b_[r] < 0.0 ? -1.0 : 1.0;
    ub_[art0_ + r] = 0.0;
    // The slack can start basic whenever its value b_r is within [0, ub]:
    // inequality rows with b_r >= 0, equality rows with b_r == 0. Everything
    // else starts on a phase-1 artificial at |b_r|.
    const bool slack_ok = equality_[r] ? b_[r] == 0.0 : b_[r] >= 0.0;
    if (slack_ok) {
      basis_[r] = slack0_ + r;
      xb_[r] = b_[r];
    } else {
      basis_[r] = art0_ + r;
      ub_[art0_ + r] = kLpInfinity;
      xb_[r] = std::fabs(b_[r]);
      needs_phase1_ = true;
    }
    status_[basis_[r]] = VarStatus::Basic;
  }
}

bool RevisedCore::try_warm(const LpBasis& wb) {
  if (wb.status.size() != n_struct_ + m_) return false;
  // An imported basis starts a new trajectory: the reference framework of
  // the previous one says nothing about it (§8 invalidation rule).
  reset_devex();
  cand_units_.clear();
  std::size_t n_basic = 0;
  for (const LpBasisStatus s : wb.status) {
    if (s == LpBasisStatus::Basic) ++n_basic;
  }
  if (n_basic != m_) return false;

  status_.assign(n_total_, VarStatus::AtLower);
  basis_.clear();
  basis_.reserve(m_);
  for (std::size_t v = 0; v < n_struct_ + m_; ++v) {
    switch (wb.status[v]) {
      case LpBasisStatus::Basic:
        status_[v] = VarStatus::Basic;
        basis_.push_back(v);
        break;
      case LpBasisStatus::AtUpper:
        // An upper status only makes sense against a finite, positive range;
        // after a bound change that dropped it, park at lower instead.
        status_[v] =
            (std::isfinite(ub_[v]) && ub_[v] > 0.0) ? VarStatus::AtUpper
                                                    : VarStatus::AtLower;
        break;
      case LpBasisStatus::AtLower:
        status_[v] = VarStatus::AtLower;
        break;
    }
  }
  for (std::size_t r = 0; r < m_; ++r) ub_[art0_ + r] = 0.0;
  if (!refactorize()) return false;
  compute_xb();
  return true;
}

bool RevisedCore::refactorize() {
  util::telemetry::ScopedTimer timer(reg_, "lp.phase.factorize");
  Matrix bm(m_, m_);
  for (std::size_t r = 0; r < m_; ++r) {
    for_col(basis_[r], [&](std::size_t row, double v) { bm(row, r) = v; });
  }
  ft_.emplace(bm);
  if (!ft_->ok()) {
    ft_.reset();
    return false;
  }
  spike_valid_ = false;
  // A from-scratch rebuild reads the patched CSC directly, so any queued
  // column updates are incorporated for free.
  for (const std::size_t v : dirty_cols_) col_dirty_[v] = 0;
  dirty_cols_.clear();
  ++session_.refactorizations;
  if (reg_) reg_->count("lp.refactorizations");
  return true;
}

void RevisedCore::ftran(std::vector<double>& v, bool entering) const {
  if (entering) {
    ft_->ftran(v, &spike_);
    spike_valid_ = true;
  } else {
    ft_->ftran(v);
  }
}

void RevisedCore::btran(std::vector<double>& v) const { ft_->btran(v); }

void RevisedCore::price_y(const std::vector<double>& cost) {
  y_.assign(m_, 0.0);
  for (std::size_t r = 0; r < m_; ++r) y_[r] = cost[basis_[r]];
  btran(y_);
  ++pricing_epoch_;  // invalidate priced_dot memos of the previous vector
}

void RevisedCore::compute_xb() {
  w_ = b_;
  for (std::size_t j = 0; j < n_total_; ++j) {
    if (status_[j] != VarStatus::AtUpper) continue;
    const double u = ub_[j];
    if (u == 0.0 || !std::isfinite(u)) continue;
    for_col(j, [&](std::size_t r, double v) { w_[r] -= v * u; });
  }
  ftran(w_);
  xb_ = w_;
}

double RevisedCore::primal_infeasibility() const {
  double worst = 0.0;
  for (std::size_t r = 0; r < m_; ++r) {
    worst = std::max(worst, -xb_[r]);
    const double u = ub_[basis_[r]];
    if (std::isfinite(u)) worst = std::max(worst, xb_[r] - u);
  }
  return worst;
}

bool RevisedCore::push_update_and_maybe_refactor(std::size_t pivot_row) {
  TAPO_CHECK_MSG(spike_valid_, "FT update without a captured entering spike");
  spike_valid_ = false;
  const FtFactorization::Update res =
      ft_->replace_column(pivot_row, spike_, kFtPivotTolerance);
  if (res == FtFactorization::Update::kUnstable) {
    // The rejected update left the factors unusable; rebuild from basis_
    // (which pivot() already updated, so the rebuild is the new basis).
    if (reg_) reg_->count("lp.ft.stability_rejects");
    ++session_.stability_refactorizations;
    return refactorize();
  }
  if (reg_) reg_->count("lp.ft.updates");
  const bool fill = ft_->fill_exceeded(kFtFillFactor);
  if (fill || ft_->updates() >= kFtMaxUpdates) {
    if (fill && reg_) reg_->count("lp.ft.fill_refactorizations");
    if (!refactorize()) return false;
  }
  return true;
}

bool RevisedCore::pivot(std::size_t enter, int dir, std::size_t pivot_row,
                        double delta, bool leaving_at_upper) {
  // w_ holds B^{-1} a_enter. Mirrors SimplexSolver::apply_pivot, with the
  // tableau elimination replaced by a Forrest–Tomlin factor update.
  for (std::size_t r = 0; r < m_; ++r) {
    if (r == pivot_row) continue;
    xb_[r] -= dir * delta * w_[r];
  }
  const std::size_t leaving = basis_[pivot_row];
  status_[leaving] = leaving_at_upper ? VarStatus::AtUpper : VarStatus::AtLower;
  basis_[pivot_row] = enter;
  status_[enter] = VarStatus::Basic;
  xb_[pivot_row] = (dir > 0) ? delta : ub_[enter] - delta;
  return push_update_and_maybe_refactor(pivot_row);
}

bool RevisedCore::price_entering(const std::vector<double>& cost, bool bland,
                                 std::size_t& enter, int& dir) {
  const double tol = kLpTolerance;
  // A candidate is a nonbasic, non-fixed column whose reduced cost d moves
  // the objective up from its current bound by more than tol.
  const auto eligible = [&](std::size_t v, double d) -> bool {
    if (status_[v] == VarStatus::Basic) return false;
    if (ub_[v] <= 0.0 && status_[v] == VarStatus::AtLower) return false;
    return (status_[v] == VarStatus::AtLower && d > tol) ||
           (status_[v] == VarStatus::AtUpper && d < -tol);
  };
  // Devex scores d^2 / weight; the best-scoring candidate seen so far wins.
  bool found = false;
  double best = 0.0;
  const auto consider = [&](std::size_t v, double d) -> bool {
    if (!eligible(v, d)) return false;
    const double score = d * d / devex_w_[v];
    if (!found || score > best) {
      best = score;
      enter = v;
      dir = d > 0.0 ? +1 : -1;
      found = true;
    }
    return true;
  };

  if (bland || units_.empty()) {
    // Full ascending scan. Under Bland the first eligible index wins —
    // windowing is bypassed entirely so the anti-cycling argument (strictly
    // lowest eligible index) is untouched by the candidate list.
    for (std::size_t v = 0; v < n_total_; ++v) {
      if (status_[v] == VarStatus::Basic) continue;
      if (ub_[v] <= 0.0 && status_[v] == VarStatus::AtLower) continue;
      const double d = cost[v] - priced_dot(y_, v);
      if (!bland) {
        consider(v, d);
      } else if (eligible(v, d)) {
        enter = v;
        dir = d > 0.0 ? +1 : -1;
        return true;
      }
    }
    return found;
  }

  // Partial (candidate-list) pricing. Slacks and artificials are priced
  // every iteration — their dots are one array read, so exempting them from
  // the list costs nothing and keeps the cheap bound-flip candidates in
  // view. Structural columns are priced through the candidate list: the
  // globally best-scoring units of the last full scan, re-scanned every
  // iteration. Only when the list (plus the slack sweep) is dry does a full
  // scan run — it selects the global best AND harvests the next list. A dry
  // full scan is a complete scan, so the optimality certificate is
  // identical to a full scan's.
  for (std::size_t v = slack0_; v < n_total_; ++v) {
    consider(v, cost[v] - col_dot(y_, v));
  }
  // Scans the list; units with no eligible member left are pruned so later
  // iterations skip their dots.
  std::size_t alive = 0;
  for (std::size_t i = 0; i < cand_units_.size(); ++i) {
    const std::size_t u = cand_units_[i];
    const double dot = priced_dot(y_, units_[u]);
    bool unit_alive = false;
    for (std::size_t k = unit_start_[u]; k < unit_start_[u + 1]; ++k) {
      const std::size_t v = unit_cols_[k];
      if (consider(v, cost[v] - dot)) unit_alive = true;
    }
    if (unit_alive) cand_units_[alive++] = u;
  }
  cand_units_.resize(alive);
  if (found && 2 * alive >= price_window_ &&
      pivots_since_rebuild_ <= price_window_) {
    return true;
  }

  // Rebuild the candidate list from a full scan — because the list ran dry,
  // shrank below half capacity, or served a full minor cycle of pivots
  // (best-of-list drifts from the global best as weights evolve). The scan
  // continues accumulating into `best`, so when a list candidate was
  // already found the rebuild can only improve the selection: the returned
  // column is the global Devex argmax either way. Per-unit best scores are
  // collected along the way; the top price_window_ units become the next
  // list.
  ++n_window_refreshes_;
  pivots_since_rebuild_ = 0;
  struct UnitScore {
    double score;
    std::size_t unit;
  };
  std::vector<UnitScore> scored;
  for (std::size_t u = 0; u < units_.size(); ++u) {
    const double dot = priced_dot(y_, units_[u]);
    double unit_best = 0.0;
    bool unit_found = false;
    for (std::size_t k = unit_start_[u]; k < unit_start_[u + 1]; ++k) {
      const std::size_t v = unit_cols_[k];
      const double d = cost[v] - dot;
      if (!consider(v, d)) continue;
      const double score = d * d / devex_w_[v];
      if (!unit_found || score > unit_best) {
        unit_best = score;
        unit_found = true;
      }
    }
    if (unit_found) scored.push_back({unit_best, u});
  }
  const std::size_t keep = std::min(price_window_, scored.size());
  std::partial_sort(scored.begin(),
                    scored.begin() + static_cast<std::ptrdiff_t>(keep),
                    scored.end(), [](const UnitScore& a, const UnitScore& b) {
                      return a.score > b.score;
                    });
  cand_units_.clear();
  for (std::size_t i = 0; i < keep; ++i) cand_units_.push_back(scored[i].unit);
  if (!found) ++n_full_scan_fallbacks_;  // certified: no candidate anywhere
  return found;
}

RevisedCore::Step RevisedCore::primal_iterate(bool phase1,
                                              const std::vector<double>& cost) {
  using Clock = std::chrono::steady_clock;
  const bool timed = reg_ != nullptr;
  struct Flusher {
    RevisedCore* core;
    ~Flusher() { core->flush_iterate_stats(); }
  } flusher{this};
  const double tol = kLpTolerance;
  // Switch to Bland's anti-cycling rule if pricing stalls (same threshold
  // as the dense oracle).
  const std::size_t bland_after = 10 * (m_ + n_total_) + 500;
  std::size_t local_iter = 0;
  bool y_valid = false;  // bound flips keep y; only pivots invalidate it

  while (true) {
    TAPO_CHECK_MSG(iterations_ <= max_iterations_, "caller must check the cap");
    if (iterations_ == max_iterations_) return Step::Done;  // caller checks
    const bool bland = local_iter > bland_after;

    Clock::time_point mark;
    if (timed) mark = Clock::now();
    if (!y_valid) price_y(cost);
    y_valid = true;
    std::size_t enter = 0;
    int dir = 0;
    const bool found = price_entering(cost, bland, enter, dir);
    if (timed) {
      const Clock::time_point now = Clock::now();
      t_price_ += std::chrono::duration<double>(now - mark).count();
      mark = now;
    }
    if (!found) return Step::Done;  // phase optimal

    load_col(enter, w_);
    ftran(w_, /*entering=*/true);
    if (timed) {
      const Clock::time_point now = Clock::now();
      t_ftran_ += std::chrono::duration<double>(now - mark).count();
      mark = now;
    }

    // Ratio test: largest step delta keeping all basic variables in their
    // bounds; ties prefer the larger |pivot| (same rule as the oracle).
    double delta = ub_[enter];  // may be +inf (a bound flip if it wins)
    std::ptrdiff_t pivot_row = -1;
    bool leaving_at_upper = false;
    for (std::size_t r = 0; r < m_; ++r) {
      const double wd = dir * w_[r];
      const std::size_t bvar = basis_[r];
      if (wd > kLpPivotTolerance) {
        const double limit = xb_[r] / wd;  // basic variable reaches 0
        if (limit < delta - tol ||
            (limit < delta + tol && pivot_row >= 0 &&
             std::fabs(w_[r]) > std::fabs(w_[static_cast<std::size_t>(pivot_row)]))) {
          delta = std::max(limit, 0.0);
          pivot_row = static_cast<std::ptrdiff_t>(r);
          leaving_at_upper = false;
        }
      } else if (wd < -kLpPivotTolerance && std::isfinite(ub_[bvar])) {
        const double limit = (ub_[bvar] - xb_[r]) / (-wd);  // basic reaches ub
        if (limit < delta - tol ||
            (limit < delta + tol && pivot_row >= 0 &&
             std::fabs(w_[r]) > std::fabs(w_[static_cast<std::size_t>(pivot_row)]))) {
          delta = std::max(limit, 0.0);
          pivot_row = static_cast<std::ptrdiff_t>(r);
          leaving_at_upper = true;
        }
      }
    }

    if (!std::isfinite(delta)) {
      // No limit: unbounded. Cannot happen in phase 1 (objective bounded).
      TAPO_CHECK(!phase1);
      return Step::Unbounded;
    }

    ++iterations_;
    ++local_iter;

    if (pivot_row < 0) {
      // Bound flip: the entering variable moves to its opposite bound. No
      // basis change, so the Devex framework is untouched.
      for (std::size_t r = 0; r < m_; ++r) xb_[r] -= dir * delta * w_[r];
      status_[enter] = (status_[enter] == VarStatus::AtLower)
                           ? VarStatus::AtUpper
                           : VarStatus::AtLower;
      if (timed) {
        t_update_ += std::chrono::duration<double>(Clock::now() - mark).count();
      }
      continue;
    }
    const std::size_t leaving = basis_[static_cast<std::size_t>(pivot_row)];
    // Approximate Devex update from the pivot element of the entering
    // FTRAN column: the leaving variable re-enters the nonbasic pool with
    // the entering column's weight projected through the pivot. Overflow
    // resets the whole framework to the unit reference.
    const double ar = w_[static_cast<std::size_t>(pivot_row)];
    const double gl =
        std::max(std::max(devex_w_[enter], 1.0) / (ar * ar), 1.0);
    if (gl > kDevexResetThreshold) {
      reset_devex(/*count_overflow=*/true);
    } else {
      devex_w_[leaving] = gl;
    }
    if (!pivot(enter, dir, static_cast<std::size_t>(pivot_row), delta,
               leaving_at_upper)) {
      if (timed) {
        t_update_ += std::chrono::duration<double>(Clock::now() - mark).count();
      }
      return Step::Numerical;
    }
    if (!units_.empty()) {
      ++pivots_since_rebuild_;
      if (leaving < n_struct_) {
        // The leaving variable just turned nonbasic with a freshly flipped
        // reduced cost — promote its unit into the candidate list so the
        // next partial scans keep it in view instead of waiting for a
        // rebuild.
        const std::size_t u = rep_unit_[col_class_[leaving]];
        if (std::find(cand_units_.begin(), cand_units_.end(), u) ==
            cand_units_.end()) {
          cand_units_.push_back(u);
        }
      }
    }
    y_valid = false;
    if (timed) {
      t_update_ += std::chrono::duration<double>(Clock::now() - mark).count();
    }
  }
}

void RevisedCore::make_dual_feasible() {
  // Nonbasic reduced costs with the wrong sign are repaired by bound flips
  // where a finite opposite bound exists (flips do not change y, so one pass
  // suffices). A wrong-sign reduced cost on an infinite-bound column — which
  // happens when a coefficient change flipped a free column's pricing, e.g.
  // the CRAC-power columns between grid points — is neutralized with a dual
  // phase-1 cost shift: its dual-phase reduced cost is seeded at zero. The
  // dual phase consumes costs only through the d_ seed (it re-prices
  // nothing), the exact costs re-enter in the primal phase-2 polish, and
  // the dual-unbounded infeasibility certificate is bounds-based, so the
  // shift cannot change any answer — it only lets a warm basis survive
  // instead of falling back to a cold phase 1.
  //
  // The pass also seeds d_, which dual_iterate maintains incrementally (one
  // dual pivot moves every nonbasic reduced cost by -t * alpha_v; flips
  // leave them unchanged).
  price_y(obj2_);
  d_.assign(n_total_, 0.0);
  bool flipped = false;
  for (std::size_t v = 0; v < n_total_; ++v) {
    if (status_[v] == VarStatus::Basic) continue;
    if (ub_[v] <= 0.0 && status_[v] == VarStatus::AtLower) continue;  // fixed
    const double d = obj2_[v] - priced_dot(y_, v);
    d_[v] = d;
    if (status_[v] == VarStatus::AtLower && d > kLpTolerance) {
      if (std::isfinite(ub_[v])) {
        status_[v] = VarStatus::AtUpper;
        flipped = true;
      } else {
        d_[v] = 0.0;  // dual phase-1 shift
      }
    } else if (status_[v] == VarStatus::AtUpper && d < -kLpTolerance) {
      status_[v] = VarStatus::AtLower;
      flipped = true;
    }
  }
  if (flipped) compute_xb();
}

RevisedCore::Step RevisedCore::dual_iterate() {
  // Bounded-variable dual simplex with a bound-flipping ratio test (BFRT):
  // restores primal feasibility while keeping dual feasibility. Used only on
  // warm starts whose basis became primal infeasible through an RHS, bound
  // or coefficient change. The BFRT is what keeps warm re-solves short: a
  // candidate whose finite range cannot absorb the row's violation is bound-
  // flipped within the step (its reduced cost crosses zero at a smaller dual
  // step than the eventual pivot's, so the flip is dual feasible), and the
  // basis change is spent only on the candidate that finishes the repair.
  using Clock = std::chrono::steady_clock;
  const bool timed = reg_ != nullptr;
  struct Flusher {
    RevisedCore* core;
    ~Flusher() { core->flush_iterate_stats(); }
  } flusher{this};
  const std::size_t bland_after = 10 * (m_ + n_total_) + 500;
  std::size_t local_iter = 0;

  struct Cand {
    std::size_t v;
    double alpha;
    double ratio;
  };
  std::vector<Cand> cands;

  while (true) {
    TAPO_CHECK_MSG(iterations_ <= max_iterations_, "caller must check the cap");
    if (iterations_ == max_iterations_) return Step::Done;  // caller checks
    const bool bland = local_iter > bland_after;

    Clock::time_point mark;
    if (timed) mark = Clock::now();
    // Leaving row: the largest violation^2 / row weight among basic
    // variables — the exact dual Devex rule, whose weights are maintained
    // in O(m) per pivot from the entering FTRAN column below. The
    // dual-ratio candidate scan stays a FULL scan — the bound-flipping
    // ratio test needs every eligible candidate, so the partial window
    // applies only to the primal side.
    std::ptrdiff_t r_leave = -1;
    const double eps = std::max(kLpTolerance, 1e-9 * bnorm_);
    double worst = 0.0;   // violation of the selected row
    double best_score = eps;  // selection score
    bool upper_viol = false;
    for (std::size_t r = 0; r < m_; ++r) {
      double viol = -xb_[r];
      bool at_upper = false;
      const double u = ub_[basis_[r]];
      if (std::isfinite(u) && xb_[r] - u > viol) {
        viol = xb_[r] - u;
        at_upper = true;
      }
      if (viol <= eps) continue;
      const double score = viol * viol / dual_devex_w_[r];
      if (r_leave < 0 || score > best_score) {
        best_score = score;
        worst = viol;
        r_leave = static_cast<std::ptrdiff_t>(r);
        upper_viol = at_upper;
      }
    }
    if (r_leave < 0) return Step::Done;  // primal feasible again
    const std::size_t rl = static_cast<std::size_t>(r_leave);

    rho_.assign(m_, 0.0);
    rho_[rl] = 1.0;
    btran(rho_);
    ++pricing_epoch_;  // the alpha scan below prices against the new rho_

    // Collect every eligible entering candidate (moves the violated basic
    // variable toward its bound) with its dual ratio. alphas_ keeps the
    // pivot-row entry of every nonbasic column for the incremental reduced-
    // cost update after the pivot; d_ was seeded by make_dual_feasible.
    cands.clear();
    alphas_.resize(n_total_);  // stale entries belong to skipped vars only
    for (std::size_t v = 0; v < n_total_; ++v) {
      if (status_[v] == VarStatus::Basic) continue;
      if (ub_[v] <= 0.0 && status_[v] == VarStatus::AtLower) continue;  // fixed
      const double alpha = priced_dot(rho_, v);
      alphas_[v] = alpha;
      bool eligible = false;
      if (!upper_viol) {
        // Basic variable below zero: entering must push it up.
        eligible = (status_[v] == VarStatus::AtLower && alpha < -kLpPivotTolerance) ||
                   (status_[v] == VarStatus::AtUpper && alpha > kLpPivotTolerance);
      } else {
        eligible = (status_[v] == VarStatus::AtLower && alpha > kLpPivotTolerance) ||
                   (status_[v] == VarStatus::AtUpper && alpha < -kLpPivotTolerance);
      }
      if (!eligible) continue;
      cands.push_back({v, alpha, std::fabs(d_[v]) / std::fabs(alpha)});
    }
    if (timed) {
      const Clock::time_point now = Clock::now();
      t_price_ += std::chrono::duration<double>(now - mark).count();
      mark = now;
    }
    if (cands.empty()) return Step::Unbounded;  // dual unbounded

    // Smallest dual ratio first (the order in which reduced costs cross
    // zero as the dual step grows). Deterministic total order; under Bland,
    // ties break toward the smallest index for termination.
    std::sort(cands.begin(), cands.end(), [&](const Cand& a, const Cand& b) {
      if (a.ratio != b.ratio) return a.ratio < b.ratio;
      if (!bland && std::fabs(a.alpha) != std::fabs(b.alpha)) {
        return std::fabs(a.alpha) > std::fabs(b.alpha);
      }
      return a.v < b.v;
    });

    // BFRT walk: flip candidates whose whole range still leaves the row
    // violated; pivot on the first that can absorb what remains. The flips'
    // effect on xb (-sum_v move_v * B^{-1} A_v) is accumulated sparsely in
    // original row space and pushed through ONE ftran after the walk — a
    // flip itself costs only its column's nonzeros, not an LU solve.
    double remaining = worst;
    std::size_t enter = n_total_;
    bool any_flip = false;
    for (const Cand& c : cands) {
      const double range = ub_[c.v];
      if (std::isfinite(range) &&
          std::fabs(c.alpha) * range < remaining - kLpTolerance) {
        const double move =
            (status_[c.v] == VarStatus::AtLower) ? range : -range;
        if (!any_flip) wf_.assign(m_, 0.0);
        any_flip = true;
        for_col(c.v, [&](std::size_t r, double v) { wf_[r] += move * v; });
        status_[c.v] = (status_[c.v] == VarStatus::AtLower)
                           ? VarStatus::AtUpper
                           : VarStatus::AtLower;
        remaining -= std::fabs(c.alpha) * range;
        continue;
      }
      enter = c.v;
      break;
    }
    if (enter == n_total_) {
      // Even moving every eligible nonbasic across its whole range leaves
      // the row violated: the row can never be satisfied, which is a valid
      // primal-infeasibility certificate whether or not flips were applied.
      // (xb is left stale; only the status vector is exported after this.)
      return Step::Unbounded;
    }
    if (any_flip) {
      ftran(wf_);
      for (std::size_t r = 0; r < m_; ++r) xb_[r] -= wf_[r];
    }

    load_col(enter, w_);
    ftran(w_, /*entering=*/true);
    if (timed) {
      const Clock::time_point now = Clock::now();
      t_ftran_ += std::chrono::duration<double>(now - mark).count();
      mark = now;
    }
    const double wr = w_[rl];
    if (std::fabs(wr) < 1e-9) return Step::Numerical;  // rho/FTRAN disagree

    const double target = upper_viol ? ub_[basis_[rl]] : 0.0;
    const double theta = (xb_[rl] - target) / wr;  // entering moves by theta

    ++iterations_;
    ++local_iter;
    if (reg_) reg_->count("lp.dual_iterations");

    // Dual step of size t = d_enter / alpha_enter: every nonbasic reduced
    // cost moves by -t * alpha_v (y moves by t * rho, and alpha_v is the
    // rho-projection of column v). The entering variable's reduced cost
    // lands on zero and the leaving one (whose pivot-row entry is 1 by
    // construction) on -t. This O(n) update replaces a full BTRAN-and-
    // reprice per dual pivot.
    const double t = d_[enter] / wr;
    for (std::size_t v = 0; v < n_total_; ++v) {
      if (status_[v] == VarStatus::Basic) continue;
      if (ub_[v] <= 0.0 && status_[v] == VarStatus::AtLower) continue;  // fixed
      d_[v] -= t * alphas_[v];
    }

    for (std::size_t r = 0; r < m_; ++r) {
      if (r == rl) continue;
      xb_[r] -= theta * w_[r];
    }
    // Exact dual Devex update from the already-computed FTRAN column:
    // gamma_i = max(gamma_i, (alpha_i / alpha_r)^2 * gamma_r) for the
    // staying rows, gamma_r = max(gamma_r / alpha_r^2, 1) for the pivot
    // row. O(m) on a vector the pivot loop above already touched.
    const double gr = std::max(dual_devex_w_[rl], 1.0);
    const double inv2 = gr / (wr * wr);
    double wmax = 0.0;
    for (std::size_t r = 0; r < m_; ++r) {
      if (r == rl) continue;
      const double cand = w_[r] * w_[r] * inv2;
      if (cand > dual_devex_w_[r]) dual_devex_w_[r] = cand;
      wmax = std::max(wmax, dual_devex_w_[r]);
    }
    dual_devex_w_[rl] = std::max(inv2, 1.0);
    if (std::max(wmax, dual_devex_w_[rl]) > kDevexResetThreshold) {
      reset_devex(/*count_overflow=*/true);
    }
    const double enter_old =
        (status_[enter] == VarStatus::AtUpper) ? ub_[enter] : 0.0;
    const std::size_t leaving = basis_[rl];
    status_[leaving] = upper_viol ? VarStatus::AtUpper : VarStatus::AtLower;
    basis_[rl] = enter;
    status_[enter] = VarStatus::Basic;
    d_[leaving] = -t;
    d_[enter] = 0.0;
    // After the BFRT walk theta cannot overshoot the entering variable's
    // range (the ratio test picked a candidate that absorbs the remaining
    // violation); any residual wrong-side value is a new violation this
    // same loop repairs.
    xb_[rl] = enter_old + theta;
    const bool pushed = push_update_and_maybe_refactor(rl);
    if (timed) {
      t_update_ += std::chrono::duration<double>(Clock::now() - mark).count();
    }
    if (!pushed) return Step::Numerical;
  }
}

bool RevisedCore::driveout_artificials() {
  // Swap remaining (zero-valued) basic artificials for any non-artificial
  // column with a usable pivot in their row; redundant rows keep a zero
  // artificial pinned by ub = 0. Mirrors the dense oracle, with the tableau
  // row recomputed as rho^T A via BTRAN.
  for (std::size_t r = 0; r < m_; ++r) {
    if (basis_[r] < art0_) continue;
    rho_.assign(m_, 0.0);
    rho_[r] = 1.0;
    btran(rho_);
    std::size_t replacement = n_total_;
    for (std::size_t v = 0; v < art0_; ++v) {
      if (status_[v] == VarStatus::Basic) continue;
      if (std::fabs(col_dot(rho_, v)) > 1e-7) {
        replacement = v;
        break;
      }
    }
    bool swapped = false;
    if (replacement != n_total_) {
      load_col(replacement, w_);
      ftran(w_, /*entering=*/true);
      if (std::fabs(w_[r]) > 1e-9) {
        // Degenerate pivot (delta = 0) to swap the artificial out.
        const int dir = (status_[replacement] == VarStatus::AtLower) ? +1 : -1;
        if (!pivot(replacement, dir, r, 0.0, /*leaving_at_upper=*/false)) {
          return false;
        }
        swapped = true;
      }
    }
    if (!swapped) ub_[basis_[r]] = 0.0;  // pin the artificial at zero
  }
  // Forbid artificials from ever re-entering.
  for (std::size_t v = art0_; v < n_total_; ++v) {
    if (status_[v] != VarStatus::Basic) ub_[v] = 0.0;
  }
  return true;
}

RevisedCore::Outcome RevisedCore::finish_from_basis(bool repair_primal) {
  if (repair_primal &&
      // Relative feasibility test: compute_xb's residual scales with |b|.
      primal_infeasibility() > std::max(10 * kLpTolerance, 1e-10 * bnorm_)) {
    make_dual_feasible();
    const Step sd = dual_iterate();
    if (sd == Step::Numerical) return Outcome::Restart;
    if (iterations_ >= max_iterations_) return Outcome::IterLimit;
    // Dual feasibility was established before the dual phase, so dual
    // unboundedness certifies primal infeasibility — concluding here is
    // what makes warm sweeps cheap on infeasible grid points (no cold
    // phase-1 re-derivation).
    if (sd == Step::Unbounded) return Outcome::Infeasible;
  }
  const Step s2 = primal_iterate(/*phase1=*/false, obj2_);
  if (s2 == Step::Numerical) return Outcome::Restart;
  if (iterations_ >= max_iterations_) return Outcome::IterLimit;
  if (s2 == Step::Unbounded) return Outcome::Unbounded;
  return Outcome::Optimal;
}

RevisedCore::Outcome RevisedCore::cold_attempt() {
  cold_start();
  if (!refactorize()) return Outcome::Restart;  // unit basis; cannot happen
  if (needs_phase1_) {
    // Phase 1: maximize -(sum of artificials).
    std::vector<double> c1(n_total_, 0.0);
    for (std::size_t v = art0_; v < n_total_; ++v) c1[v] = -1.0;
    const Step s1 = primal_iterate(/*phase1=*/true, c1);
    if (s1 == Step::Numerical) return Outcome::Restart;
    if (iterations_ >= max_iterations_) return Outcome::IterLimit;
    double infeasibility = 0.0;
    for (std::size_t r = 0; r < m_; ++r) {
      if (basis_[r] >= art0_) infeasibility += xb_[r];
    }
    if (infeasibility > 1e-6) return Outcome::Infeasible;
    if (!driveout_artificials()) return Outcome::Restart;
  }
  // repair_primal=false: phase 1 just established feasibility, and skipping
  // the repair keeps the cold control flow (and its results) identical to
  // the pre-session engine — phase-1 leftovers below the acceptance
  // threshold must not trigger a dual phase here.
  return finish_from_basis(/*repair_primal=*/false);
}

LpSolution RevisedCore::extract(LpStatus status) {
  LpSolution sol;
  sol.status = status;
  sol.iterations = iterations_;
  sol.warm_used = warm_used_;
  sol.x.assign(n_struct_, 0.0);
  const auto export_basis = [&] {
    sol.basis.status.resize(n_struct_ + m_);
    for (std::size_t v = 0; v < n_struct_ + m_; ++v) {
      switch (status_[v]) {
        case VarStatus::Basic: sol.basis.status[v] = LpBasisStatus::Basic; break;
        case VarStatus::AtUpper: sol.basis.status[v] = LpBasisStatus::AtUpper; break;
        case VarStatus::AtLower: sol.basis.status[v] = LpBasisStatus::AtLower; break;
      }
    }
  };
  if (status == LpStatus::Infeasible && warm_used_) {
    // The dual phase's infeasibility certificate leaves a dual-feasible,
    // artificial-free basis. Exporting it lets a grid sweep keep warm-
    // starting across an infeasible stretch of points: the neighbors are
    // usually infeasible too, and a warm dual solve concludes that in a few
    // pivots instead of a cold phase 1. The status vector does not depend
    // on basis order, so no canonicalization is needed here.
    export_basis();
  }
  if (status != LpStatus::Optimal && status != LpStatus::IterLimit) return sol;

  if (status == LpStatus::Optimal) {
    // Canonicalize: ascending basis order and a fresh factorization (no
    // pending updates) make the extracted numbers a function of the basis
    // alone. When the basis is already sorted and the factors are fresh (a
    // warm solve that pivoted fewer times than the update budget from an
    // imported basis, which try_warm builds in ascending order), the
    // resident factorization IS the canonical one — refactorizing again
    // would reproduce it bit for bit. A zero-update FT factorization
    // qualifies: its solves delegate to the wrapped fresh LU.
    if (ft_->updates() == 0 && std::is_sorted(basis_.begin(), basis_.end())) {
      compute_xb();
    } else {
      std::sort(basis_.begin(), basis_.end());
      extract_refactor_ok_ = refactorize();
      if (extract_refactor_ok_) compute_xb();
    }
  }

  std::vector<double> z(n_total_, 0.0);
  for (std::size_t v = 0; v < n_total_; ++v) {
    if (status_[v] == VarStatus::AtUpper && std::isfinite(ub_[v])) z[v] = ub_[v];
  }
  for (std::size_t r = 0; r < m_; ++r) z[basis_[r]] = xb_[r];
  for (std::size_t v = 0; v < n_struct_; ++v) {
    sol.x[v] = p_.lower_bound(v) + z[v];
  }
  sol.objective = p_.objective_value(sol.x);

  // Duals y = B^{-T} c_B of the standardized system map back through the
  // GreaterEq negation only (no rhs flips in this standardization).
  price_y(obj2_);
  sol.duals.assign(m_, 0.0);
  for (std::size_t r = 0; r < m_; ++r) sol.duals[r] = rel_sign_[r] * y_[r];

  if (status == LpStatus::Optimal) export_basis();
  return sol;
}

// ---- patches ----

void RevisedCore::patch_rhs(std::size_t r, double rhs) {
  TAPO_CHECK_MSG(r < m_, "patch_rhs: bad row");
  b_[r] = rel_sign_[r] * rhs - rhs_shift_[r];
  b_dirty_ = true;
}

void RevisedCore::patch_coefficient(std::size_t r, std::size_t v,
                                    double coeff) {
  TAPO_CHECK_MSG(r < m_ && v < n_struct_, "patch_coefficient: bad row/var");
  // The CSC column is row-sorted, so the entry is found by binary search.
  const auto first = col_row_.begin() + static_cast<std::ptrdiff_t>(col_start_[v]);
  const auto last = col_row_.begin() + static_cast<std::ptrdiff_t>(col_start_[v + 1]);
  const auto it = std::lower_bound(first, last, r);
  TAPO_CHECK_MSG(it != last && *it == r,
                 "patch_coefficient: term absent from the standardized matrix");
  const std::size_t k =
      static_cast<std::size_t>(it - col_row_.begin());
  const double new_std = rel_sign_[r] * coeff;
  const double old_std = col_val_[k];
  if (new_std == old_std) return;
  demote_col_class(v);  // its content now diverges from its pricing class
  col_val_[k] = new_std;
  if (lo_[v] != 0.0) {
    const double shift_delta = (new_std - old_std) * lo_[v];
    rhs_shift_[r] += shift_delta;
    b_[r] -= shift_delta;
  }
  b_dirty_ = true;
  // A basic column's change invalidates the resident factorization; queue a
  // Forrest–Tomlin column replacement (applied at the next solve).
  if (resident_ok_ && status_.size() > v && status_[v] == VarStatus::Basic &&
      !col_dirty_[v]) {
    col_dirty_[v] = 1;
    dirty_cols_.push_back(v);
  }
}

void RevisedCore::patch_bound(std::size_t v, double lo, double hi) {
  TAPO_CHECK_MSG(v < n_struct_, "patch_bound: bad var");
  if (lo != lo_[v]) {
    const double dlo = lo - lo_[v];
    for (std::size_t k = col_start_[v]; k < col_start_[v + 1]; ++k) {
      const double shift_delta = col_val_[k] * dlo;
      rhs_shift_[col_row_[k]] += shift_delta;
      b_[col_row_[k]] -= shift_delta;
    }
    lo_[v] = lo;
  }
  ub_[v] = std::isfinite(hi) ? hi - lo : kLpInfinity;
  b_dirty_ = true;
  // Same revalidation as try_warm: an upper status needs a finite, positive
  // range under the new bounds.
  if (!status_.empty() && status_[v] == VarStatus::AtUpper &&
      !(std::isfinite(ub_[v]) && ub_[v] > 0.0)) {
    status_[v] = VarStatus::AtLower;
  }
}

void RevisedCore::patch_cost(std::size_t v, double obj) {
  TAPO_CHECK_MSG(v < n_struct_, "patch_cost: bad var");
  // Dual feasibility is re-established by the resume path (dual repair or
  // primal phase 2), so a cost change needs no factor work at all.
  obj2_[v] = obj;
}

bool RevisedCore::apply_pending_updates() {
  if (dirty_cols_.empty()) return true;
  // When the patch set rivals the refactorization budget, one rebuild from
  // the already-patched CSC is cheaper (and tighter numerically) than a
  // long chain of sequential column replacements.
  const std::size_t budget =
      std::min<std::size_t>(kFtMaxUpdates, m_ / 4 + 1);
  if (dirty_cols_.size() + ft_->updates() >= budget) {
    // Surfaced, not silent: long resident chains (partial pricing makes
    // them longer) that keep outrunning the update budget show up as a
    // counter the soak anomaly pass can watch, instead of hiding inside
    // the generic refactorization total.
    ++session_.ft_budget_exhausted;  // emitted by LpSession as a delta
    return refactorize();  // clears the dirty queue
  }
  // Sequential column replacement: for a basic column v in basis row r whose
  // values changed, w = B^{-1} a_new through the *current* factors gives the
  // replacement — an in-place Forrest–Tomlin update consuming the spike
  // captured by the entering ftran. A small pivot w_r means the new column is near-dependent on the rest of
  // the basis through these factors — the stability monitor demotes that to
  // a refactorization.
  // Iterate by index: refactorize() inside the loop would clear the queue.
  std::vector<std::size_t> queue;
  queue.swap(dirty_cols_);
  for (const std::size_t v : queue) col_dirty_[v] = 0;
  for (const std::size_t v : queue) {
    if (status_[v] != VarStatus::Basic) continue;
    std::size_t r = m_;
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] == v) { r = i; break; }
    }
    TAPO_CHECK_MSG(r < m_, "basic column missing from basis");
    load_col(v, w_);
    ftran(w_, /*entering=*/true);
    double wmax = 0.0;
    for (std::size_t i = 0; i < m_; ++i) wmax = std::max(wmax, std::fabs(w_[i]));
    if (std::fabs(w_[r]) < 1e-6 * std::max(1.0, wmax)) {
      ++session_.stability_refactorizations;
      if (reg_) reg_->count("lp.session.stability_refactorizations");
      return refactorize();
    }
    spike_valid_ = false;
    const FtFactorization::Update res =
        ft_->replace_column(r, spike_, kFtPivotTolerance);
    if (res == FtFactorization::Update::kUnstable) {
      ++session_.stability_refactorizations;
      if (reg_) reg_->count("lp.ft.stability_rejects");
      if (reg_) reg_->count("lp.session.stability_refactorizations");
      return refactorize();
    }
    if (reg_) reg_->count("lp.ft.updates");
    ++session_.ft_updates;
    if (ft_->updates() >= kFtMaxUpdates ||
        ft_->fill_exceeded(kFtFillFactor)) {
      if (!refactorize()) return false;
      break;  // remaining queue entries were absorbed by the rebuild
    }
  }
  return true;
}

bool RevisedCore::residual_ok() {
  // ||b_eff - B xb||_inf against the patched system, using the same
  // effective rhs as compute_xb. Catches accumulated factor error that the
  // spike check alone cannot see.
  rho_ = b_;
  for (std::size_t j = 0; j < n_total_; ++j) {
    if (status_[j] != VarStatus::AtUpper) continue;
    const double u = ub_[j];
    if (u == 0.0 || !std::isfinite(u)) continue;
    for_col(j, [&](std::size_t r, double v) { rho_[r] -= v * u; });
  }
  for (std::size_t r = 0; r < m_; ++r) {
    const double x = xb_[r];
    if (x == 0.0) continue;
    for_col(basis_[r], [&](std::size_t row, double v) { rho_[row] -= v * x; });
  }
  double worst = 0.0;
  for (std::size_t r = 0; r < m_; ++r) worst = std::max(worst, std::fabs(rho_[r]));
  return worst <= 1e-7 * std::max(1.0, bnorm_);
}

LpSolution RevisedCore::solve(const LpBasis* seed) {
  iterations_ = 0;
  // Coefficient patches may have demoted column classes; refresh the
  // candidate-list units before any pricing scan runs. Devex weights are
  // deliberately NOT touched here: they survive patches and resident
  // resumes (§8), and are reset only by cold_start/try_warm.
  if (units_dirty_) rebuild_pricing_units();
  if (b_dirty_) {
    bnorm_ = 0.0;
    for (std::size_t r = 0; r < m_; ++r) {
      bnorm_ = std::max(bnorm_, std::fabs(b_[r]));
    }
    b_dirty_ = false;
  }

  const bool have_seed = seed != nullptr && !seed->empty();
  const bool warm_available = have_seed || resident_ok_;
  warm_used_ = false;
  Outcome out = Outcome::Restart;

  if (have_seed) {
    // Seed import: one refactorization. The import replaces the resident
    // state wholesale (try_warm rebuilds the status vector and
    // refactorizes, flushing any queued column updates).
    if (try_warm(*seed)) {
      ++session_.seed_imports;
      warm_used_ = true;
      out = finish_from_basis(/*repair_primal=*/true);
    }
  } else if (resident_ok_) {
    // Resident resume: no rebuild, no standardization, no import
    // refactorization. Queued column updates are applied as Forrest–Tomlin
    // replacements; the residual monitor guards the recomputed xb.
    if (apply_pending_updates()) {
      compute_xb();
      if (residual_ok()) {
        ++session_.resident_resumes;
        warm_used_ = true;
        out = finish_from_basis(/*repair_primal=*/true);
      }
    }
  }

  // Cold path: a core's first solve, or the replacement for an attempt that
  // could not finish. lp.fallbacks counts every abandoned attempt that a
  // fresh cold attempt replaces — a seed or resident state that was rejected
  // or hit numerical trouble, and a cold attempt that hit numerical trouble.
  // A second numerical failure of a cold attempt reports IterLimit.
  if (out == Outcome::Restart && warm_available) ++session_.fallbacks;
  for (int cold = 0; out == Outcome::Restart && cold < 2; ++cold) {
    if (reg_ && (warm_available || cold > 0)) reg_->count("lp.fallbacks");
    warm_used_ = false;
    out = cold_attempt();
  }

  LpStatus status = LpStatus::IterLimit;
  switch (out) {
    case Outcome::Optimal: status = LpStatus::Optimal; break;
    case Outcome::Infeasible: status = LpStatus::Infeasible; break;
    case Outcome::Unbounded: status = LpStatus::Unbounded; break;
    default: break;
  }
  extract_refactor_ok_ = true;
  LpSolution sol = extract(status);
  // Resident state is reusable when the factors still describe basis_:
  // after a canonical Optimal extraction (sorted basis + fresh or already-
  // canonical LU), or after a warm Infeasible conclusion (the certificate
  // basis is dual feasible and artificial-free — resuming from it carries
  // a warm chain across an infeasible stretch of grid points).
  resident_ok_ = (status == LpStatus::Optimal && extract_refactor_ok_) ||
                 (status == LpStatus::Infeasible && warm_used_);
  if (!resident_ok_) {
    for (const std::size_t v : dirty_cols_) col_dirty_[v] = 0;
    dirty_cols_.clear();
  }
  return sol;
}

LpSolution solve_lp_revised(const LpProblem& problem, const LpOptions& options) {
  return RevisedCore(problem, options).solve(nullptr);
}

}  // namespace tapo::solver::internal
