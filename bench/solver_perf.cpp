// Substrate microbenchmarks (google-benchmark): LP simplex, LU, heat-flow
// solve/offsets, cross-interference generation, the serial-vs-parallel
// Stage-1 CRAC setpoint sweep, and the end-to-end assignment techniques at
// several data-center sizes.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_common.h"
#include "core/assigner.h"
#include "core/baseline.h"
#include "core/stage1.h"
#include "core/stage3.h"
#include "scenario/generator.h"
#include "solver/lp.h"
#include "solver/lu.h"
#include "solver/session.h"
#include "thermal/crossinterference.h"
#include "thermal/heatflow.h"
#include "util/rng.h"
#include "util/telemetry.h"

namespace {

using namespace tapo;

void BM_LuFactorSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  solver::Matrix a(n, n);
  std::vector<double> b(n);
  for (std::size_t r = 0; r < n; ++r) {
    b[r] = rng.uniform(-1, 1);
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1, 1);
    a(r, r) += static_cast<double>(n);
  }
  for (auto _ : state) {
    solver::LuFactorization lu(a);
    benchmark::DoNotOptimize(lu.solve(b));
  }
}
BENCHMARK(BM_LuFactorSolve)->Arg(50)->Arg(150)->Arg(300);

void BM_SimplexTransportation(benchmark::State& state) {
  const auto sources = static_cast<std::size_t>(state.range(0));
  const std::size_t sinks = 8;
  util::Rng rng(2);
  solver::LpProblem lp;
  std::vector<std::vector<std::size_t>> vars(sources,
                                             std::vector<std::size_t>(sinks));
  for (std::size_t s = 0; s < sources; ++s) {
    for (std::size_t t = 0; t < sinks; ++t) {
      vars[s][t] =
          lp.add_variable(0.0, solver::kLpInfinity, rng.uniform(0.5, 2.0));
    }
  }
  for (std::size_t s = 0; s < sources; ++s) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t t = 0; t < sinks; ++t) terms.emplace_back(vars[s][t], 1.0);
    lp.add_constraint(std::move(terms), solver::Relation::LessEq, 1.0);
  }
  for (std::size_t t = 0; t < sinks; ++t) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t s = 0; s < sources; ++s) terms.emplace_back(vars[s][t], 1.0);
    lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                      0.3 * static_cast<double>(sources));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver::solve_lp(lp));
  }
}
BENCHMARK(BM_SimplexTransportation)->Arg(50)->Arg(150)->Arg(400);

// CRAC count for a bench layout of `nodes` nodes. The generator splits the
// total node airflow evenly across CRACs, so a flat CRAC count starves
// 500+-node hot/cold-aisle layouts — each unit would have to move 10x its
// paper-scale airflow and the feasible setpoint region collapses. One CRAC
// per ~50 nodes keeps the historical sizes unchanged (150 -> 3) and scales
// to production layouts (500 -> 10, 1000 -> 20, 1500 -> 30).
// ScenarioGenerator.FeasibleAtBenchSizes pins generation feasibility at
// every bench size.
std::size_t bench_cracs(std::size_t nodes) {
  return nodes >= 100 ? std::max<std::size_t>(3, nodes / 50) : 2;
}

scenario::Scenario make_scenario(std::size_t nodes) {
  scenario::ScenarioConfig config;
  config.num_nodes = nodes;
  config.num_cracs = bench_cracs(nodes);
  config.seed = 12;
  auto scenario = scenario::generate_scenario(config);
  if (!scenario) std::abort();
  return std::move(*scenario);
}

void BM_HeatFlowSolve(benchmark::State& state) {
  const auto scenario = make_scenario(static_cast<std::size_t>(state.range(0)));
  const thermal::HeatFlowModel model(scenario.dc);
  std::vector<double> crac_out(scenario.dc.num_cracs(), 16.0);
  std::vector<double> power(scenario.dc.num_nodes(), 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.solve(crac_out, power));
  }
}
BENCHMARK(BM_HeatFlowSolve)->Arg(50)->Arg(150);

void BM_HeatFlowOffsets(benchmark::State& state) {
  const auto scenario = make_scenario(static_cast<std::size_t>(state.range(0)));
  const thermal::HeatFlowModel model(scenario.dc);
  std::vector<double> crac_out(scenario.dc.num_cracs(), 16.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.offsets(crac_out));
  }
}
BENCHMARK(BM_HeatFlowOffsets)->Arg(50)->Arg(150);

void BM_CrossInterference(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const auto layout = dc::make_hot_cold_aisle_layout(nodes, 3);
  std::vector<double> flows(3, 0.07 * static_cast<double>(nodes) / 3.0);
  flows.insert(flows.end(), nodes, 0.07);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    util::Rng rng(seed++);
    benchmark::DoNotOptimize(
        thermal::generate_cross_interference(layout, flows, rng));
  }
}
BENCHMARK(BM_CrossInterference)->Arg(50)->Arg(150);

// Stage-1 setpoint sweep at a given thread count (0 = all hardware threads).
// Every grid point is one LP, batched per sweep round; the result is
// bit-identical across thread counts, so rows differ only in wall clock —
// divide the threads:1 time by a threads:N time for the speedup, and read
// LP throughput off the lp_solves/s counter. The full Cartesian grid (the
// paper's generic multi-step search) has the widest rounds and is the
// headline scaling case; the uniform+coordinate default has narrower rounds
// and bounds what batching can buy there.
void run_stage1_sweep(benchmark::State& state, bool full_grid) {
  scenario::ScenarioConfig config;
  config.num_nodes = 40;
  config.num_cracs = 3;  // 3 search dimensions -> 64-point coarse rounds
  config.seed = 12;
  const auto scenario = scenario::generate_scenario(config);
  if (!scenario) std::abort();
  const thermal::HeatFlowModel model(scenario->dc);
  const core::Stage1Solver solver(scenario->dc, model);
  core::Stage1Options options;
  options.full_grid = full_grid;
  options.threads = static_cast<std::size_t>(state.range(0));
  std::size_t lp_solves = 0;
  for (auto _ : state) {
    const auto result = solver.solve(options);
    if (!result.feasible) std::abort();
    lp_solves += result.lp_solves;
    benchmark::DoNotOptimize(result.objective);
  }
  state.counters["lp_solves"] = benchmark::Counter(
      static_cast<double>(lp_solves) / static_cast<double>(state.iterations()));
  state.counters["lp_solves/s"] = benchmark::Counter(
      static_cast<double>(lp_solves), benchmark::Counter::kIsRate);
}

void BM_Stage1FullGridSweep(benchmark::State& state) {
  run_stage1_sweep(state, /*full_grid=*/true);
}
BENCHMARK(BM_Stage1FullGridSweep)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_Stage1UniformSweep(benchmark::State& state) {
  run_stage1_sweep(state, /*full_grid=*/false);
}
BENCHMARK(BM_Stage1UniformSweep)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Stage-1 sweep with a fixed thread count, varying the LP engine — the
// headline comparison for the revised engine: dense tableau (every point
// built from scratch) vs revised on resident per-lane sessions. Both select
// the bit-identical plan; only iterations and wall clock differ. Counters report LP effort per sweep
// (iterations per solve, warm-start hit rate, per-solve iteration
// histogram); with TAPO_TELEMETRY_OUT set, the same lp.* counters land in
// the telemetry JSON.
void run_stage1_engine_sweep(benchmark::State& state, solver::LpEngine engine,
                             bool full_grid = true) {
  scenario::ScenarioConfig config;
  config.num_nodes = static_cast<std::size_t>(state.range(0));
  // 3 search dimensions at the historical sizes (unchanged baselines). At
  // 500+ the two grid shapes diverge: the full Cartesian sweep is 4^cracs
  // points per round, so it caps at 4 dimensions to stay bounded, while the
  // coarse-to-fine search scales per-coordinate and runs the realistic
  // bench_cracs() layout (500 -> 10, 1000 -> 20, 1500 -> 30) — the regime
  // where the revised session overtakes the dense tableau (docs/SOLVER.md
  // §6 has the measured crossover).
  config.num_cracs = config.num_nodes >= 500
                         ? (full_grid ? 4 : bench_cracs(config.num_nodes))
                         : 3;
  config.seed = 12;
  const auto scenario = scenario::generate_scenario(config);
  if (!scenario) std::abort();
  const thermal::HeatFlowModel model(scenario->dc);
  const core::Stage1Solver solver(scenario->dc, model);

  util::telemetry::Registry* const sink = bench::telemetry_sink();
  util::telemetry::Registry local;
  util::telemetry::Registry* const reg = sink ? sink : &local;
  static const char* const kBuckets[] = {"lp.iters.le_4", "lp.iters.le_16",
                                         "lp.iters.le_64", "lp.iters.le_256",
                                         "lp.iters.gt_256"};
  // Per-solve fixed-cost accounting: the phase timers split every solve's
  // wall clock into LP build, standardization, basis factorization, and the
  // per-iteration pricing / FTRAN / basis-update laps — the split that
  // showed pivots were never the dense engine's problem (docs/SOLVER.md §6)
  // and where partial pricing's scan cost actually lands.
  static const char* const kPhases[] = {
      "lp.phase.build", "lp.phase.standardize", "lp.phase.factorize",
      "lp.phase.price", "lp.phase.ftran",       "lp.phase.update"};
  static const char* const kSession[] = {
      "lp.session.patches",          "lp.session.ft_updates",
      "lp.session.refactorizations", "lp.session.fallbacks",
      "lp.session.resident_resumes", "lp.session.ft_budget_exhausted"};
  // Forrest–Tomlin factor-update health (docs/OBSERVABILITY.md): in-place
  // updates applied, stability rejections and fill-triggered rebuilds.
  static const char* const kFt[] = {"lp.ft.updates", "lp.ft.stability_rejects",
                                    "lp.ft.fill_refactorizations"};
  // Partial-Devex internals (docs/OBSERVABILITY.md): candidate-window
  // rotations, Devex reference resets, certified full-rotation fallbacks.
  static const char* const kPricing[] = {"lp.pricing.window_refreshes",
                                         "lp.pricing.devex_resets",
                                         "lp.pricing.full_scan_fallbacks"};
  const std::uint64_t solves0 = reg->counter_value("lp.solves");
  const std::uint64_t iters0 = reg->counter_value("lp.iterations");
  const std::uint64_t warm0 = reg->counter_value("lp.warm_starts");
  std::uint64_t buckets0[5];
  for (int i = 0; i < 5; ++i) buckets0[i] = reg->counter_value(kBuckets[i]);
  double phases0[6];
  for (int i = 0; i < 6; ++i) {
    phases0[i] = reg->timer_stats(kPhases[i]).total_seconds;
  }
  std::uint64_t session0[6];
  for (int i = 0; i < 6; ++i) session0[i] = reg->counter_value(kSession[i]);
  std::uint64_t ft0[3];
  for (int i = 0; i < 3; ++i) ft0[i] = reg->counter_value(kFt[i]);
  std::uint64_t pricing0[3];
  for (int i = 0; i < 3; ++i) pricing0[i] = reg->counter_value(kPricing[i]);

  core::Stage1Options options;
  options.full_grid = full_grid;
  options.threads = 1;
  options.lp.engine = engine;
  options.telemetry = reg;
  double objective = 0.0;
  for (auto _ : state) {
    const auto result = solver.solve(options);
    if (!result.feasible) std::abort();
    objective = result.objective;
    benchmark::DoNotOptimize(result.objective);
  }
  const double solves =
      static_cast<double>(reg->counter_value("lp.solves") - solves0);
  const double iters =
      static_cast<double>(reg->counter_value("lp.iterations") - iters0);
  const double warm =
      static_cast<double>(reg->counter_value("lp.warm_starts") - warm0);
  state.counters["objective"] = objective;
  const double iterations = static_cast<double>(state.iterations());
  for (int i = 0; i < 6; ++i) {
    const double seconds = reg->timer_stats(kPhases[i]).total_seconds - phases0[i];
    // Per-sweep milliseconds: e.g. "phase_factorize_ms" is the total time a
    // sweep spends (re)factorizing bases across all of its LP solves.
    state.counters[std::string("phase_") + (kPhases[i] + 9) + "_ms"] =
        1e3 * seconds / iterations;
  }
  // The sweep runs on sessions exactly on the revised engine.
  if (engine == solver::LpEngine::Revised) {
    for (int i = 0; i < 6; ++i) {
      state.counters[kSession[i] + 3] = static_cast<double>(
          reg->counter_value(kSession[i]) - session0[i]) / iterations;
    }
    for (int i = 0; i < 3; ++i) {
      state.counters[kFt[i] + 3] = static_cast<double>(
          reg->counter_value(kFt[i]) - ft0[i]) / iterations;
    }
    for (int i = 0; i < 3; ++i) {
      state.counters[kPricing[i] + 3] = static_cast<double>(
          reg->counter_value(kPricing[i]) - pricing0[i]) / iterations;
    }
  }
  if (solves > 0.0) {
    state.counters["lp_iters_per_solve"] = iters / solves;
    state.counters["warm_hit_rate"] = warm / solves;
    for (int i = 0; i < 5; ++i) {
      state.counters[kBuckets[i]] = static_cast<double>(
          reg->counter_value(kBuckets[i]) - buckets0[i]);
    }
  }
}

// Node sizes per sweep variant. 40 nodes (m ~ 47 rows) and 120 nodes
// (m ~ 127 rows, the paper's data-center scale) always run; 500 (m ~ 508,
// production scale) runs in the default perf-smoke slice; 1000/1500 are
// nightly-only — TAPO_BENCH_MAX_NODES caps the registered sizes (500 by
// default; the nightly job sets 1500). Full-grid variants stop at 500:
// a 4-dimension Cartesian round is already ~256 LPs per round and the
// coarse-to-fine search is the production path at scale, so the 1000/1500
// rows measure that path only (dense and session).
void apply_sweep_sizes(benchmark::internal::Benchmark* b, bool full_grid) {
  const std::size_t max_nodes = bench::env_size("TAPO_BENCH_MAX_NODES", 500);
  b->ArgName("nodes")->Arg(40)->Arg(120);
  if (max_nodes >= 500) b->Arg(500);
  if (!full_grid) {
    if (max_nodes >= 1000) b->Arg(1000);
    if (max_nodes >= 1500) b->Arg(1500);
  }
  b->Unit(benchmark::kMillisecond)->UseRealTime();
}
void apply_full_grid_sizes(benchmark::internal::Benchmark* b) {
  apply_sweep_sizes(b, /*full_grid=*/true);
}
void apply_c2f_sizes(benchmark::internal::Benchmark* b) {
  apply_sweep_sizes(b, /*full_grid=*/false);
}

// Warm starts cut iterations per solve by 5-16x at a ~0.9 hit rate (the
// attached counters show it). The dense tableau still wins the full grid
// through 500 nodes — the thermal rows make every LP column dense, so a
// full pricing scan touches as many entries as the tableau does without
// its vectorization: the column-class dedup already collapses the scan to
// one dot per distinct column, and the session sweep's pricing time is
// dominated by the dual ratio scans of patch-and-resume repair. Partial
// Devex pricing wins the coarse-to-fine rows, by a margin that grows with
// scale (docs/SOLVER.md §6b/§8 keep the measured numbers).
void BM_Stage1SweepDense(benchmark::State& state) {
  run_stage1_engine_sweep(state, solver::LpEngine::Dense);
}
BENCHMARK(BM_Stage1SweepDense)->Apply(apply_full_grid_sizes);

// Persistent-session sweep (solver/session.h): one resident LP per
// grid-search lane for the whole search, patched between grid points and
// maintained with in-place Forrest–Tomlin column-replacement updates
// instead of per-point rebuild + import refactorization.
void BM_Stage1SweepRevisedSession(benchmark::State& state) {
  run_stage1_engine_sweep(state, solver::LpEngine::Revised);
}
BENCHMARK(BM_Stage1SweepRevisedSession)->Apply(apply_full_grid_sizes);

// Same comparison on the coarse-to-fine search (the paper's production
// path): refinement rounds evaluate tightly clustered setpoints, so warm
// re-solves converge in a handful of dual pivots (8 iterations per solve
// at 40 nodes vs 47 cold). Every batch fits in one chain, so the whole
// search runs on lane 0's single resident LP. The engine wall-clock
// trade-off above applies here too.
void BM_Stage1CoarseToFineDense(benchmark::State& state) {
  run_stage1_engine_sweep(state, solver::LpEngine::Dense,
                          /*full_grid=*/false);
}
BENCHMARK(BM_Stage1CoarseToFineDense)->Apply(apply_c2f_sizes);

void BM_Stage1CoarseToFineRevisedSession(benchmark::State& state) {
  run_stage1_engine_sweep(state, solver::LpEngine::Revised,
                          /*full_grid=*/false);
}
BENCHMARK(BM_Stage1CoarseToFineRevisedSession)->Apply(apply_c2f_sizes);

// RHS re-solve latency, the recovery/grid-neighbor pattern in isolation: a
// transportation LP is solved once, then each perturbed-capacity rebuild is
// solved cold by solve_lp (arg 0) or by a fresh LpSession seeded with the
// unperturbed optimal basis (arg 1). The counter reports simplex
// iterations per re-solve.
void BM_LpRhsResolve(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  const std::size_t sources = 120, sinks = 8;
  util::Rng rng(7);
  std::vector<std::vector<double>> obj(sources, std::vector<double>(sinks));
  for (auto& row : obj)
    for (double& c : row) c = rng.uniform(0.5, 2.0);

  const auto build = [&](double sink_scale) {
    solver::LpProblem lp;
    for (std::size_t s = 0; s < sources; ++s)
      for (std::size_t t = 0; t < sinks; ++t)
        lp.add_variable(0.0, solver::kLpInfinity, obj[s][t]);
    for (std::size_t s = 0; s < sources; ++s) {
      std::vector<std::pair<std::size_t, double>> terms;
      for (std::size_t t = 0; t < sinks; ++t)
        terms.emplace_back(s * sinks + t, 1.0);
      lp.add_constraint(std::move(terms), solver::Relation::LessEq, 1.0);
    }
    for (std::size_t t = 0; t < sinks; ++t) {
      std::vector<std::pair<std::size_t, double>> terms;
      for (std::size_t s = 0; s < sources; ++s)
        terms.emplace_back(s * sinks + t, 1.0);
      lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                        sink_scale * 0.3 * static_cast<double>(sources));
    }
    return lp;
  };

  const solver::LpSolution base = solver::solve_lp(build(1.0));
  if (!base.optimal()) std::abort();
  const double scales[] = {0.9, 0.95, 1.05, 1.1};
  std::size_t pick = 0, iterations = 0, resolves = 0;
  for (auto _ : state) {
    const solver::LpProblem lp = build(scales[pick]);
    pick = (pick + 1) % 4;
    const solver::LpSolution sol =
        warm ? solver::LpSession(lp, {}).solve(&base.basis)
             : solver::solve_lp(lp);
    if (!sol.optimal()) std::abort();
    iterations += sol.iterations;
    ++resolves;
    benchmark::DoNotOptimize(sol.objective);
  }
  state.counters["lp_iters_per_resolve"] =
      static_cast<double>(iterations) / static_cast<double>(resolves);
}
BENCHMARK(BM_LpRhsResolve)->ArgName("warm")->Arg(0)->Arg(1);

void BM_Stage3Aggregated(benchmark::State& state) {
  const auto scenario = make_scenario(static_cast<std::size_t>(state.range(0)));
  std::vector<std::size_t> pstates(scenario.dc.total_cores());
  for (std::size_t k = 0; k < pstates.size(); ++k) pstates[k] = k % 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_stage3(scenario.dc, pstates));
  }
}
BENCHMARK(BM_Stage3Aggregated)->Arg(50)->Arg(150);

void BM_ThreeStageAssign(benchmark::State& state) {
  const auto scenario = make_scenario(static_cast<std::size_t>(state.range(0)));
  const thermal::HeatFlowModel model(scenario.dc);
  const core::ThreeStageAssigner assigner(scenario.dc, model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(assigner.assign());
  }
}
BENCHMARK(BM_ThreeStageAssign)->Arg(20)->Arg(50)->Arg(150)->Unit(benchmark::kMillisecond);

void BM_BaselineAssign(benchmark::State& state) {
  const auto scenario = make_scenario(static_cast<std::size_t>(state.range(0)));
  const thermal::HeatFlowModel model(scenario.dc);
  const core::BaselineAssigner assigner(scenario.dc, model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(assigner.assign());
  }
}
BENCHMARK(BM_BaselineAssign)->Arg(20)->Arg(50)->Arg(150)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main instead of benchmark_main: after the benchmarks run, flush the
// shared telemetry sink (lp.* counters, iteration histograms) to
// $TAPO_TELEMETRY_OUT like the table/figure harnesses do.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  tapo::bench::write_telemetry();
  return 0;
}
