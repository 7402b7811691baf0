// Differential tests for the parallel grid-search path: for seeded random
// objectives — smooth, plateau-heavy (exact value ties), partially and fully
// infeasible — the GridSearchResult at threads = {2, 8} must be *exactly*
// equal to the serial threads = 1 result: same best point, same best value
// bit-for-bit, same evaluation count. This is the determinism contract the
// Stage-1 setpoint sweep relies on.
#include "solver/gridsearch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <vector>

#include "util/rng.h"

namespace tapo::solver {
namespace {

// A deterministic pseudo-random objective built once from a seed and then
// shared (read-only) across evaluation threads. Mixes shifted quadratics and
// sinusoids; optional quantization forces exact value ties; an optional
// infeasibility band on coordinate 0 exercises nullopt handling.
class RandomObjective {
 public:
  RandomObjective(std::uint64_t seed, std::size_t dims, bool quantize,
                  bool with_infeasible_band) {
    util::Rng rng(seed);
    center_.resize(dims);
    weight_.resize(dims);
    freq_.resize(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      center_[d] = rng.uniform(0.0, 10.0);
      weight_[d] = rng.uniform(0.2, 2.0);
      freq_[d] = rng.uniform(0.3, 2.0);
    }
    quantum_ = quantize ? rng.uniform(0.5, 2.0) : 0.0;
    if (with_infeasible_band) {
      band_lo_ = rng.uniform(0.0, 8.0);
      band_hi_ = band_lo_ + rng.uniform(0.5, 2.0);
    }
  }

  std::optional<double> operator()(const std::vector<double>& x) const {
    if (band_hi_ > band_lo_ && x[0] >= band_lo_ && x[0] <= band_hi_) {
      return std::nullopt;
    }
    double v = 0.0;
    for (std::size_t d = 0; d < x.size(); ++d) {
      v -= weight_[d] * (x[d] - center_[d]) * (x[d] - center_[d]);
      v += std::sin(freq_[d] * x[d]);
    }
    if (quantum_ > 0.0) v = quantum_ * std::floor(v / quantum_);
    return v;
  }

 private:
  std::vector<double> center_, weight_, freq_;
  double quantum_ = 0.0;
  double band_lo_ = 0.0, band_hi_ = -1.0;
};

void expect_identical(const GridSearchResult& serial,
                      const GridSearchResult& parallel) {
  EXPECT_EQ(serial.found, parallel.found);
  EXPECT_EQ(serial.evaluations, parallel.evaluations);
  EXPECT_EQ(serial.best_value, parallel.best_value);  // exact, not NEAR
  EXPECT_EQ(serial.best_point, parallel.best_point);
}

GridSearchOptions options_for(std::uint64_t seed, std::size_t threads) {
  GridSearchOptions opt;
  opt.coarse_samples = 3 + static_cast<std::size_t>(seed % 4);  // 3..6
  opt.refine_rounds = 1 + static_cast<std::size_t>(seed % 3);   // 1..3
  opt.min_resolution = 0.05;
  opt.threads = threads;
  return opt;
}

TEST(GridSearchParallel, FullGridMatchesSerialOnRandomObjectives) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const std::size_t dims = 1 + static_cast<std::size_t>(seed % 3);
    const RandomObjective fn(seed, dims, /*quantize=*/seed % 4 == 0,
                             /*with_infeasible_band=*/seed % 3 == 0);
    const std::vector<double> lo(dims, 0.0), hi(dims, 10.0);
    const auto serial =
        grid_search_maximize(lo, hi, std::cref(fn), options_for(seed, 1));
    for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE(testing::Message() << "seed=" << seed << " threads=" << threads);
      const auto parallel =
          grid_search_maximize(lo, hi, std::cref(fn), options_for(seed, threads));
      expect_identical(serial, parallel);
    }
  }
}

TEST(GridSearchParallel, UniformCoordinateMatchesSerialOnRandomObjectives) {
  for (std::uint64_t seed = 100; seed < 124; ++seed) {
    const std::size_t dims = 1 + static_cast<std::size_t>(seed % 4);
    const RandomObjective fn(seed, dims, /*quantize=*/seed % 5 == 0,
                             /*with_infeasible_band=*/seed % 2 == 0);
    const std::vector<double> lo(dims, 0.0), hi(dims, 10.0);
    const auto serial = uniform_then_coordinate_maximize(lo, hi, std::cref(fn),
                                                         options_for(seed, 1));
    for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE(testing::Message() << "seed=" << seed << " threads=" << threads);
      const auto parallel = uniform_then_coordinate_maximize(
          lo, hi, std::cref(fn), options_for(seed, threads));
      expect_identical(serial, parallel);
    }
  }
}

TEST(GridSearchParallel, AllInfeasibleMatchesSerial) {
  const auto never = [](const std::vector<double>&) -> std::optional<double> {
    return std::nullopt;
  };
  const std::vector<double> lo(2, 0.0), hi(2, 10.0);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    GridSearchOptions opt;
    opt.threads = threads;
    const auto full = grid_search_maximize(lo, hi, never, opt);
    EXPECT_FALSE(full.found);
    const auto uc = uniform_then_coordinate_maximize(lo, hi, never, opt);
    EXPECT_FALSE(uc.found);
    // Evaluation counts must not depend on the thread count either.
    GridSearchOptions serial_opt = opt;
    serial_opt.threads = 1;
    EXPECT_EQ(full.evaluations,
              grid_search_maximize(lo, hi, never, serial_opt).evaluations);
    EXPECT_EQ(uc.evaluations,
              uniform_then_coordinate_maximize(lo, hi, never, serial_opt).evaluations);
  }
}

TEST(GridSearchParallel, ConstantObjectivePicksLexicographicMinimum) {
  // Every point ties exactly, so the deterministic reduction must settle on
  // the lexicographically smallest candidate — the lower corner, which the
  // coarse grid contains — for every thread count.
  const auto constant = [](const std::vector<double>&) -> std::optional<double> {
    return 1.0;
  };
  const std::vector<double> lo{2.0, 3.0, 4.0}, hi{10.0, 10.0, 10.0};
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    GridSearchOptions opt;
    opt.threads = threads;
    const auto r = grid_search_maximize(lo, hi, constant, opt);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.best_point, lo);
    EXPECT_EQ(r.best_value, 1.0);
  }
}

TEST(GridSearchParallel, TieHeavyPlateauIsThreadCountInvariant) {
  // Coarse plateaus: floor() collapses whole regions to identical values, so
  // almost every comparison during the reduction is an exact tie.
  const auto plateau = [](const std::vector<double>& x) -> std::optional<double> {
    double s = 0.0;
    for (double v : x) s += v;
    return std::floor(s / 3.0);
  };
  const std::vector<double> lo(2, 0.0), hi(2, 9.0);
  GridSearchOptions serial_opt;
  serial_opt.coarse_samples = 5;
  serial_opt.refine_rounds = 3;
  serial_opt.threads = 1;
  const auto serial = grid_search_maximize(lo, hi, plateau, serial_opt);
  const auto serial_uc = uniform_then_coordinate_maximize(lo, hi, plateau, serial_opt);
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    GridSearchOptions opt = serial_opt;
    opt.threads = threads;
    expect_identical(serial, grid_search_maximize(lo, hi, plateau, opt));
    expect_identical(serial_uc,
                     uniform_then_coordinate_maximize(lo, hi, plateau, opt));
  }
}

// Per-lane state of LaneProbe: how many points the lane has evaluated, and
// whether a call is running on it right now.
struct LaneState {
  std::size_t points = 0;
  std::atomic<bool> busy{false};
};

// A chained objective that audits the lane contract: it counts lane heads
// (calls with a null state), flags any two calls overlapping on one lane,
// and folds the lane's running point count into the value, so a result only
// repeats across thread counts if every lane sees the same points in the
// same order.
class LaneProbe {
 public:
  explicit LaneProbe(std::optional<double> (*fn)(const std::vector<double>&))
      : fn_(fn) {}

  std::optional<double> operator()(const std::vector<double>& x,
                                   std::shared_ptr<void>& state) {
    if (!state) {
      heads_.fetch_add(1);
      state = std::make_shared<LaneState>();
    }
    auto& lane = *static_cast<LaneState*>(state.get());
    if (lane.busy.exchange(true)) overlaps_.fetch_add(1);
    const std::size_t seen = lane.points++;
    const std::optional<double> v = fn_(x);
    lane.busy.store(false);
    if (!v) return v;
    return *v + 1e-6 * static_cast<double>(seen);
  }

  std::size_t heads() const { return heads_.load(); }
  std::size_t overlaps() const { return overlaps_.load(); }

 private:
  std::optional<double> (*fn_)(const std::vector<double>&);
  std::atomic<std::size_t> heads_{0};
  std::atomic<std::size_t> overlaps_{0};
};

std::optional<double> bowl(const std::vector<double>& x) {
  double v = 0.0;
  for (std::size_t d = 0; d < x.size(); ++d) {
    const double c = 3.0 + static_cast<double>(d);
    v -= (x[d] - c) * (x[d] - c);
  }
  return v;
}

// Infeasible wherever all coordinates agree, so every uniform point fails
// and the uniform driver must fall back to the full grid.
std::optional<double> off_diagonal_bowl(const std::vector<double>& x) {
  for (double v : x) {
    if (v != x[0]) return bowl(x);
  }
  return std::nullopt;
}

TEST(GridSearchParallel, ChainedObjectiveKeepsAtMostFourLanesPerSearch) {
  struct Case {
    const char* name;
    bool full_grid;
    std::size_t dims;
    std::optional<double> (*fn)(const std::vector<double>&);
  };
  const Case cases[] = {
      {"full grid", true, 3, bowl},  // 64-point coarse batch: 8 chains
      {"uniform then coordinate", false, 3, bowl},
      {"all-uniform-infeasible fallback", false, 3, off_diagonal_bowl},
  };
  for (const Case& c : cases) {
    const std::vector<double> lo(c.dims, 0.0), hi(c.dims, 10.0);
    GridSearchResult reference;
    for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE(testing::Message() << c.name << " threads=" << threads);
      LaneProbe probe(c.fn);
      const GridChainObjective objective =
          [&probe](const std::vector<double>& x, std::shared_ptr<void>& state) {
            return probe(x, state);
          };
      GridSearchOptions opt;
      opt.threads = threads;
      const GridSearchResult r =
          c.full_grid ? grid_search_maximize(lo, hi, objective, opt)
                      : uniform_then_coordinate_maximize(lo, hi, objective, opt);
      ASSERT_TRUE(r.found);
      EXPECT_GT(r.evaluations, 8u);
      EXPECT_GE(probe.heads(), 1u);
      EXPECT_LE(probe.heads(), 4u);
      EXPECT_EQ(probe.overlaps(), 0u);
      if (threads == 1) {
        reference = r;
      } else {
        expect_identical(reference, r);
      }
    }
  }
}

}  // namespace
}  // namespace tapo::solver
