#include "core/stage1.h"

#include <gtest/gtest.h>

#include <numeric>

#include "testutil.h"
#include "thermal/heatflow.h"
#include "util/telemetry.h"

namespace tapo::core {
namespace {

TEST(Stage1, FeasibleOnGeneratedScenario) {
  const auto scenario = test::make_small_scenario(31, 10, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);
  const Stage1Result result = solver.solve();
  ASSERT_TRUE(result.feasible);
  EXPECT_GT(result.objective, 0.0);
  EXPECT_GT(result.lp_solves, 0u);
  EXPECT_EQ(result.node_core_power_kw.size(), scenario.dc.num_nodes());
}

TEST(Stage1, RespectsPowerBudget) {
  const auto scenario = test::make_small_scenario(32, 10, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);
  const Stage1Result result = solver.solve();
  ASSERT_TRUE(result.feasible);
  EXPECT_LE(result.compute_power_kw + result.crac_power_kw,
            scenario.dc.p_const_kw + 1e-6);
}

TEST(Stage1, NodePowersWithinPhysicalRange) {
  const auto scenario = test::make_small_scenario(33, 8, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);
  const Stage1Result result = solver.solve();
  ASSERT_TRUE(result.feasible);
  for (std::size_t j = 0; j < scenario.dc.num_nodes(); ++j) {
    const auto& spec = scenario.dc.node_type(j);
    EXPECT_GE(result.node_core_power_kw[j], -1e-9);
    EXPECT_LE(result.node_core_power_kw[j],
              spec.cores_per_node() * spec.core_power_kw(0) + 1e-9);
  }
}

TEST(Stage1, ThermallyFeasibleAtSolution) {
  const auto scenario = test::make_small_scenario(34, 10, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);
  const Stage1Result result = solver.solve();
  ASSERT_TRUE(result.feasible);
  // Reconstruct total node powers and check the actual steady state.
  std::vector<double> node_power = result.node_core_power_kw;
  for (std::size_t j = 0; j < node_power.size(); ++j) {
    node_power[j] += scenario.dc.node_type(j).base_power_kw();
  }
  EXPECT_TRUE(model.within_redlines(model.solve(result.crac_out_c, node_power)));
}

TEST(Stage1, InfeasibleWhenBudgetBelowBasePower) {
  auto scenario = test::make_small_scenario(35, 6, 1);
  scenario.dc.p_const_kw = scenario.dc.total_base_power_kw() * 0.5;
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);
  EXPECT_FALSE(solver.solve().feasible);
}

TEST(Stage1, LargerBudgetNeverHurts) {
  auto scenario = test::make_small_scenario(36, 8, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);
  const Stage1Result tight = solver.solve();
  scenario.dc.p_const_kw *= 1.2;
  const Stage1Result loose = solver.solve();
  ASSERT_TRUE(tight.feasible && loose.feasible);
  EXPECT_GE(loose.objective, tight.objective - 1e-6);
}

TEST(Stage1, SolveAtMatchesSearchBest) {
  const auto scenario = test::make_small_scenario(37, 6, 1);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);
  Stage1Options options;
  const Stage1Result result = solver.solve(options);
  ASSERT_TRUE(result.feasible);
  const auto at = solver.solve_at(result.crac_out_c, options.psi);
  ASSERT_TRUE(at.feasible);
  EXPECT_NEAR(at.objective, result.objective, 1e-9);
}

TEST(Stage1, ObjectiveBudgetSaturation) {
  // An oversubscribed data center leaves no slack in the budget: the LP
  // should use (almost) all of Pconst.
  const auto scenario = test::make_small_scenario(38, 10, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);
  const Stage1Result result = solver.solve();
  ASSERT_TRUE(result.feasible);
  EXPECT_GT(result.compute_power_kw + result.crac_power_kw,
            0.98 * scenario.dc.p_const_kw);
}

TEST(Stage1, FullGridAgreesWithDefaultSearchApproximately) {
  const auto scenario = test::make_small_scenario(39, 6, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);
  Stage1Options fast;
  Stage1Options grid;
  grid.full_grid = true;
  const auto a = solver.solve(fast);
  const auto b = solver.solve(grid);
  ASSERT_TRUE(a.feasible && b.feasible);
  // Both are heuristic searches over the same LP family; they must land
  // within a few percent of each other.
  EXPECT_NEAR(a.objective, b.objective, 0.05 * std::max(a.objective, b.objective));
}

TEST(Stage1, TelemetryDoesNotChangeTheSolution) {
  // Telemetry is a pure observer: attaching a registry must leave every
  // output bit-identical, and the registry's counters must agree with the
  // result's own bookkeeping.
  const auto scenario = test::make_small_scenario(41, 10, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);

  Stage1Options plain;
  const Stage1Result without = solver.solve(plain);

  util::telemetry::Registry registry;
  Stage1Options observed;
  observed.telemetry = &registry;
  const Stage1Result with = solver.solve(observed);

  ASSERT_TRUE(without.feasible && with.feasible);
  EXPECT_EQ(with.objective, without.objective);  // bit-identical, not NEAR
  EXPECT_EQ(with.crac_out_c, without.crac_out_c);
  EXPECT_EQ(with.compute_power_kw, without.compute_power_kw);
  EXPECT_EQ(with.crac_power_kw, without.crac_power_kw);
  EXPECT_EQ(with.lp_solves, without.lp_solves);
  EXPECT_EQ(with.node_core_power_kw, without.node_core_power_kw);

  EXPECT_EQ(registry.counter_value("stage1.solves"), 1u);
  EXPECT_EQ(registry.counter_value("stage1.lp_solves"), with.lp_solves);
  EXPECT_EQ(registry.gauge_value("stage1.best_objective"), with.objective);
  EXPECT_EQ(registry.timer_stats("stage1.solve").count, 1u);
  EXPECT_EQ(registry.timer_stats("stage1.polish").count, 1u);
  EXPECT_GT(registry.counter_value("stage1.sweep_rounds"), 0u);
  // One best-objective point per sweep round.
  EXPECT_EQ(registry.series_values("stage1.best_objective_by_round").size(),
            registry.counter_value("stage1.sweep_rounds"));
}

TEST(Stage1, IterationCapReportsResourceExhausted) {
  // With a 1-iteration LP cap every sweep solve hits IterLimit; the result
  // must say "resources ran out", not masquerade as thermal infeasibility.
  const auto scenario = test::make_small_scenario(42, 8, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);
  Stage1Options capped;
  capped.lp.max_iterations = 1;
  const Stage1Result result = solver.solve(capped);
  EXPECT_FALSE(result.feasible);
  EXPECT_EQ(result.status.code(), util::StatusCode::kResourceExhausted);
}

TEST(Stage1, EngineAndThreadCountDoNotChangeThePlan) {
  // The published plan must be bit-identical across LP engines (the Dense
  // engine solves every point from scratch, the revised one resumes
  // resident lane sessions) and sweep thread counts: the sweep only
  // *selects* a setpoint, and the final re-solve always runs the Dense
  // oracle cold.
  const auto scenario = test::make_small_scenario(43, 10, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);

  const Stage1Result reference = solver.solve();
  ASSERT_TRUE(reference.feasible);

  std::vector<Stage1Options> variants(3);
  variants[0].lp.engine = solver::LpEngine::Dense;
  variants[1].threads = 1;
  variants[2].threads = 4;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const Stage1Result got = solver.solve(variants[i]);
    ASSERT_TRUE(got.feasible) << "variant " << i;
    EXPECT_EQ(got.objective, reference.objective) << "variant " << i;
    EXPECT_EQ(got.crac_out_c, reference.crac_out_c) << "variant " << i;
    EXPECT_EQ(got.node_core_power_kw, reference.node_core_power_kw)
        << "variant " << i;
    EXPECT_EQ(got.compute_power_kw, reference.compute_power_kw) << "variant " << i;
  }
}

TEST(Stage1, SessionSweepIsBitIdenticalAcrossThreadCounts) {
  // The persistent-session sweep (the default) holds one resident LP per
  // grid-search lane. Lanes are a pure function of the point sequence, so
  // the published plan must stay bit-identical for any worker count, and
  // must match the session-free Dense-engine sweep.
  const auto scenario = test::make_small_scenario(45, 12, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);

  Stage1Options dense;
  dense.lp.engine = solver::LpEngine::Dense;
  const Stage1Result reference = solver.solve(dense);
  ASSERT_TRUE(reference.feasible);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    Stage1Options with_session;
    with_session.threads = threads;
    const Stage1Result got = solver.solve(with_session);
    ASSERT_TRUE(got.feasible);
    EXPECT_EQ(got.objective, reference.objective);
    EXPECT_EQ(got.crac_out_c, reference.crac_out_c);
    EXPECT_EQ(got.node_core_power_kw, reference.node_core_power_kw);
    EXPECT_EQ(got.compute_power_kw, reference.compute_power_kw);
    EXPECT_EQ(got.crac_power_kw, reference.crac_power_kw);
  }
}

TEST(Stage1, CoarseToFineSweepBuildsOneResidentLp) {
  // Every batch of the default coarse-to-fine search fits in one chain, so
  // the whole sweep runs on lane 0: one session build, then patch-and-resume
  // at every later point, across rounds, at any worker count.
  const auto scenario = test::make_small_scenario(45, 12, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    util::telemetry::Registry registry;
    Stage1Options options;
    options.threads = threads;
    options.telemetry = &registry;
    const Stage1Result result = solver.solve(options);
    ASSERT_TRUE(result.feasible);
    EXPECT_EQ(registry.timer_stats("lp.session.build").count, 1u);
    EXPECT_EQ(registry.counter_value("lp.session.solves"), result.lp_solves);
  }
}

TEST(Stage1, WarmSeedDoesNotChangeThePlan) {
  const auto scenario = test::make_small_scenario(44, 10, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);

  const Stage1Result cold = solver.solve();
  ASSERT_TRUE(cold.feasible);
  ASSERT_FALSE(cold.basis.empty());

  Stage1Options seeded;
  seeded.warm_seed = &cold.basis;
  const Stage1Result warm = solver.solve(seeded);
  ASSERT_TRUE(warm.feasible);
  EXPECT_EQ(warm.objective, cold.objective);
  EXPECT_EQ(warm.crac_out_c, cold.crac_out_c);
  EXPECT_EQ(warm.node_core_power_kw, cold.node_core_power_kw);
}

// Published Stage-1 plans pinned bit for bit, so a change to the sweep's
// LP machinery (engine internals, pricing, sessions) that moves any plan is
// caught across commits, not only across configurations of one build. Every
// park is solved with the default revised sweep and with the Dense engine,
// serially and on two workers; all four must publish the pinned plan.
struct PinnedStage1Plan {
  const char* name;
  std::uint64_t seed;
  std::size_t nodes, cracs;
  double derated_crac0_min_c;  // 0 = healthy
  std::vector<double> crac_out_c;
  double objective, compute_power_kw, crac_power_kw;
  std::uint64_t node_core_power_hash;  // test::bit_hash(node_core_power_kw)
};

TEST(Stage1, PublishedPlansPinned) {
  const PinnedStage1Plan pins[] = {
      {"seed 43", 43, 10, 2, 0.0,
       {19.107142857142858, 16.428571428571434}, 223.3733893876736,
       6.8264779319505164, 2.4516511842479574, 0xd8c10eda14d059f5ULL},
      {"seed 45", 45, 12, 2, 0.0,
       {18.839285714285712, 17.767857142857142}, 252.26059184456707,
       8.0060371625954048, 2.8381195066167519, 0xa1a531ce2b7265c7ULL},
      {"seed 46", 46, 11, 2, 0.0,
       {19.107142857142854, 16.964285714285715}, 250.88263337942141,
       7.7214287049560699, 2.7534750981653771, 0x05e07b6ab4e7a655ULL},
      {"seed 52, 3 CRACs", 52, 16, 3, 0.0,
       {18.303571428571431, 17.232142857142861, 16.964285714285719},
       315.56354342151837, 10.496488037712716, 4.0360583679125464,
       0x9b7aadd0d1362cceULL},
      {"seed 7, 40 nodes", 7, 40, 3, 0.0,
       {16.428571428571431, 16.160714285714288, 16.964285714285715},
       874.75312599548886, 27.141334720380055, 11.716249863243846,
       0x99bb9d9f3e7a074aULL},
      {"seed 47, CRAC 0 derated to 18 C", 47, 12, 2, 18.0, {18.0, 16.5},
       269.32079068457256, 8.0363383466001164, 3.1190282694895548,
       0x0ccd22410f0274e7ULL},
  };
  for (const PinnedStage1Plan& pin : pins) {
    auto scenario = test::make_small_scenario(pin.seed, pin.nodes, pin.cracs);
    if (pin.derated_crac0_min_c > 0.0) {
      scenario.dc.set_crac_min_outlet(0, pin.derated_crac0_min_c);
    }
    const thermal::HeatFlowModel model(scenario.dc);
    const Stage1Solver solver(scenario.dc, model);
    for (const solver::LpEngine engine :
         {solver::LpEngine::Revised, solver::LpEngine::Dense}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
        SCOPED_TRACE(testing::Message()
                     << pin.name << " dense=" << (engine == solver::LpEngine::Dense)
                     << " threads=" << threads);
        Stage1Options options;
        options.lp.engine = engine;
        options.threads = threads;
        const Stage1Result got = solver.solve(options);
        ASSERT_TRUE(got.feasible);
        EXPECT_EQ(got.crac_out_c, pin.crac_out_c);
        EXPECT_EQ(got.objective, pin.objective);
        EXPECT_EQ(got.compute_power_kw, pin.compute_power_kw);
        EXPECT_EQ(got.crac_power_kw, pin.crac_power_kw);
        EXPECT_EQ(test::bit_hash(got.node_core_power_kw),
                  pin.node_core_power_hash);
      }
    }
  }
}

TEST(Stage1, PsiChangesSelection) {
  const auto scenario = test::make_small_scenario(40, 8, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);
  Stage1Options p25;
  p25.psi = 25.0;
  Stage1Options p50;
  p50.psi = 50.0;
  const auto a = solver.solve(p25);
  const auto b = solver.solve(p50);
  ASSERT_TRUE(a.feasible && b.feasible);
  // The relaxed objectives are averages over different task-type subsets:
  // psi=25 uses only the most efficient types, so its relaxed bound is at
  // least as high.
  EXPECT_GE(a.objective, b.objective - 1e-6);
}

}  // namespace
}  // namespace tapo::core
