#include "solver/gridsearch.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "util/check.h"
#include "util/threadpool.h"

namespace tapo::solver {

namespace {

bool lex_less(const std::vector<double>& a, const std::vector<double>& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

// Warm-start chain length and lane count of the chained-objective drivers.
// Each batch is cut into chains of kChain consecutive points (in submission
// order) and chain c is dealt to lane c mod kLanes. A lane runs its chains
// serially on one resident state that lives for the whole search, so the
// resident memory is bounded by kLanes states whatever the grid size.
constexpr std::size_t kChain = 8;
constexpr std::size_t kLanes = 4;
// Lane count of the plain-objective drivers: stateless, so no bound is
// needed and every chain (one point) gets its own lane.
constexpr std::size_t kLanePerPoint = static_cast<std::size_t>(-1);

// Evaluates batches of candidate points — serially or on a thread pool — and
// folds them into the incumbent in submission order, so the result is
// bit-identical for every thread count. A lane is the parallel work unit;
// the chain partition and the chain-to-lane deal depend only on the
// submitted point sequence, never on the thread count, so each lane's state
// sees the same points in the same order on every run. One evaluator serves
// a whole search, including the uniform driver's full-grid fallback, so the
// lane states and the round numbering carry across both.
class BatchEvaluator {
 public:
  BatchEvaluator(const GridChainObjective& objective,
                 const GridSearchOptions& options, std::size_t chain,
                 std::size_t lanes)
      : objective_(objective), options_(options), chain_(chain), lanes_(lanes) {
    const std::size_t n = options.threads == 0
                              ? util::ThreadPool::hardware_threads()
                              : options.threads;
    if (n > 1) pool_ = std::make_unique<util::ThreadPool>(n);
  }

  // Evaluates every point; the returned values are aligned with `points` and
  // remain valid until the next evaluate() call.
  const std::vector<std::optional<double>>& evaluate(
      const std::vector<std::vector<double>>& points) {
    values_.assign(points.size(), std::nullopt);
    const std::size_t n_chains = (points.size() + chain_ - 1) / chain_;
    const std::size_t n_lanes = std::min(lanes_, n_chains);
    if (states_.size() < n_lanes) states_.resize(n_lanes);
    const auto eval_lane = [&](std::size_t lane) {
      for (std::size_t c = lane; c < n_chains; c += n_lanes) {
        const std::size_t end = std::min(points.size(), (c + 1) * chain_);
        for (std::size_t i = c * chain_; i < end; ++i) {
          values_[i] = objective_(points[i], states_[lane]);
        }
      }
    };
    if (pool_ && n_lanes > 1) {
      pool_->parallel_for(n_lanes, eval_lane);
    } else {
      for (std::size_t lane = 0; lane < n_lanes; ++lane) eval_lane(lane);
    }
    return values_;
  }

  // Evaluates every point and updates the incumbent: a higher value wins,
  // and an exact value tie goes to the lexicographically smallest point.
  void sweep(const std::vector<std::vector<double>>& points,
             GridSearchResult& result) {
    const auto& values = evaluate(points);
    for (std::size_t i = 0; i < points.size(); ++i) {
      ++result.evaluations;
      if (!values[i]) continue;
      const double value = *values[i];
      if (!result.found || value > result.best_value ||
          (value == result.best_value &&
           lex_less(points[i], result.best_point))) {
        result.found = true;
        result.best_value = value;
        result.best_point = points[i];
      }
    }
  }

  // Ends a sweep round: reports the running result to the progress hook.
  void round_done(const GridSearchResult& result) {
    if (options_.on_round) options_.on_round(rounds_, result);
    ++rounds_;
  }

 private:
  const GridChainObjective& objective_;
  const GridSearchOptions& options_;
  std::size_t rounds_ = 0;
  std::size_t chain_;
  std::size_t lanes_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<std::shared_ptr<void>> states_;  // one per lane, search-long
  std::vector<std::optional<double>> values_;
};

// All points of the Cartesian grid defined by per-dimension sample lists,
// in odometer order (dimension 0 fastest).
std::vector<std::vector<double>> cartesian_points(
    const std::vector<std::vector<double>>& samples) {
  const std::size_t dims = samples.size();
  std::size_t total = 1;
  for (const auto& s : samples) total *= s.size();
  std::vector<std::vector<double>> points;
  points.reserve(total);
  std::vector<std::size_t> idx(dims, 0);
  std::vector<double> point(dims);
  while (true) {
    for (std::size_t d = 0; d < dims; ++d) point[d] = samples[d][idx[d]];
    points.push_back(point);
    // Odometer increment.
    std::size_t d = 0;
    while (d < dims) {
      if (++idx[d] < samples[d].size()) break;
      idx[d] = 0;
      ++d;
    }
    if (d == dims) break;
  }
  return points;
}

std::vector<double> linspace(double lo, double hi, std::size_t n) {
  TAPO_CHECK(n >= 1);
  if (n == 1 || hi <= lo) return {0.5 * (lo + hi)};
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1);
  }
  return v;
}

GridSearchResult grid_search_impl(const std::vector<double>& lo,
                                  const std::vector<double>& hi,
                                  const GridSearchOptions& options,
                                  BatchEvaluator& evaluator) {
  TAPO_CHECK(lo.size() == hi.size() && !lo.empty());
  const std::size_t dims = lo.size();

  GridSearchResult result;
  std::vector<std::vector<double>> samples(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    samples[d] = linspace(lo[d], hi[d], options.coarse_samples);
  }
  evaluator.sweep(cartesian_points(samples), result);
  evaluator.round_done(result);
  if (!result.found) return result;

  std::vector<double> step(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    step[d] = (hi[d] - lo[d]) /
              static_cast<double>(std::max<std::size_t>(options.coarse_samples - 1, 1));
  }
  for (std::size_t round = 0; round < options.refine_rounds; ++round) {
    bool any = false;
    for (std::size_t d = 0; d < dims; ++d) {
      step[d] *= 2.0 / static_cast<double>(std::max<std::size_t>(options.refine_samples, 2));
      if (step[d] >= options.min_resolution) any = true;
      const double center = result.best_point[d];
      samples[d] = linspace(std::max(lo[d], center - step[d] * 1.5),
                            std::min(hi[d], center + step[d] * 1.5),
                            options.refine_samples);
    }
    if (!any) break;
    evaluator.sweep(cartesian_points(samples), result);
    evaluator.round_done(result);
  }
  return result;
}

GridSearchResult uniform_then_coordinate_impl(const std::vector<double>& lo,
                                              const std::vector<double>& hi,
                                              const GridSearchOptions& options,
                                              BatchEvaluator& evaluator) {
  TAPO_CHECK(lo.size() == hi.size() && !lo.empty());
  const std::size_t dims = lo.size();

  GridSearchResult result;

  // Phase 1: all dimensions share one value; coarse sweep + one refinement.
  const double ulo = *std::max_element(lo.begin(), lo.end());
  const double uhi = *std::min_element(hi.begin(), hi.end());
  const auto uniform_points = [dims](const std::vector<double>& us) {
    std::vector<std::vector<double>> points;
    points.reserve(us.size());
    for (double u : us) points.emplace_back(dims, u);
    return points;
  };
  const std::size_t coarse = std::max<std::size_t>(options.coarse_samples * 2, 6);
  evaluator.sweep(uniform_points(linspace(ulo, uhi, coarse)), result);
  evaluator.round_done(result);
  if (!result.found) {
    // Fall back to the full grid: a uniform value may be infeasible while a
    // non-uniform point is feasible. The fallback runs on the same evaluator,
    // so it keeps the lanes' states and continues the round numbering.
    return grid_search_impl(lo, hi, options, evaluator);
  }
  double step = (uhi - ulo) / static_cast<double>(std::max<std::size_t>(coarse - 1, 1));
  for (std::size_t round = 0; round < options.refine_rounds; ++round) {
    step *= 0.5;
    if (step < options.min_resolution * 0.5) break;
    const double center = result.best_point[0];
    std::vector<double> us;
    for (double u : {center - step, center + step}) {
      if (u >= ulo && u <= uhi) us.push_back(u);
    }
    evaluator.sweep(uniform_points(us), result);
    evaluator.round_done(result);
  }

  // Phase 2: cyclic coordinate descent around the best uniform point. Both
  // deltas of a coordinate are evaluated from the same incumbent and reduced
  // deterministically, then the incumbent moves only on a strict improvement.
  double cstep = std::max(step, options.min_resolution);
  for (std::size_t round = 0; round < options.refine_rounds + 1; ++round) {
    bool improved = false;
    for (std::size_t d = 0; d < dims; ++d) {
      std::vector<std::vector<double>> pair;
      pair.reserve(2);
      for (double delta : {-cstep, cstep}) {
        std::vector<double> point = result.best_point;
        point[d] = std::clamp(point[d] + delta, lo[d], hi[d]);
        pair.push_back(std::move(point));
      }
      const auto& values = evaluator.evaluate(pair);
      result.evaluations += pair.size();
      std::size_t pick = pair.size();
      for (std::size_t i = 0; i < pair.size(); ++i) {
        if (!values[i]) continue;
        if (pick == pair.size() || *values[i] > *values[pick] ||
            (*values[i] == *values[pick] && lex_less(pair[i], pair[pick]))) {
          pick = i;
        }
      }
      if (pick < pair.size() && *values[pick] > result.best_value + 1e-12) {
        result.best_value = *values[pick];
        result.best_point = pair[pick];
        improved = true;
      }
    }
    evaluator.round_done(result);
    if (!improved) {
      cstep *= 0.5;
      if (cstep < options.min_resolution * 0.5) break;
    }
  }
  return result;
}

// Adapts a plain objective to the chained signature (state ignored); run
// with chains of one point and kLanePerPoint, it keeps the per-point
// parallel granularity.
GridChainObjective ignore_chain(const GridObjective& objective) {
  return [&objective](const std::vector<double>& point,
                      std::shared_ptr<void>& /*lane_state*/) {
    return objective(point);
  };
}

}  // namespace

GridSearchResult grid_search_maximize(const std::vector<double>& lo,
                                      const std::vector<double>& hi,
                                      const GridObjective& objective,
                                      const GridSearchOptions& options) {
  const GridChainObjective stateless = ignore_chain(objective);
  BatchEvaluator evaluator(stateless, options, 1, kLanePerPoint);
  return grid_search_impl(lo, hi, options, evaluator);
}

GridSearchResult grid_search_maximize(const std::vector<double>& lo,
                                      const std::vector<double>& hi,
                                      const GridChainObjective& objective,
                                      const GridSearchOptions& options) {
  BatchEvaluator evaluator(objective, options, kChain, kLanes);
  return grid_search_impl(lo, hi, options, evaluator);
}

GridSearchResult uniform_then_coordinate_maximize(
    const std::vector<double>& lo, const std::vector<double>& hi,
    const GridObjective& objective, const GridSearchOptions& options) {
  const GridChainObjective stateless = ignore_chain(objective);
  BatchEvaluator evaluator(stateless, options, 1, kLanePerPoint);
  return uniform_then_coordinate_impl(lo, hi, options, evaluator);
}

GridSearchResult uniform_then_coordinate_maximize(
    const std::vector<double>& lo, const std::vector<double>& hi,
    const GridChainObjective& objective, const GridSearchOptions& options) {
  BatchEvaluator evaluator(objective, options, kChain, kLanes);
  return uniform_then_coordinate_impl(lo, hi, options, evaluator);
}

}  // namespace tapo::solver
