#include "core/powermin.h"

#include <gtest/gtest.h>

#include "core/assigner.h"
#include "testutil.h"
#include "util/telemetry.h"

namespace tapo::core {
namespace {

TEST(PowerMin, MeetsRewardTarget) {
  const auto scenario = test::make_small_scenario(121, 8, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  // Ask for half of what the power-constrained assignment achieved.
  const ThreeStageAssigner assigner(scenario.dc, model);
  const Assignment reference = assigner.assign();
  ASSERT_TRUE(reference.feasible);
  const double target = 0.5 * reference.reward_rate;

  const PowerMinResult result =
      minimize_power_for_reward(scenario.dc, model, target);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(result.met_target);
  EXPECT_GE(result.reward_rate, target * 0.999);
}

TEST(PowerMin, UsesLessPowerForSmallerTargets) {
  const auto scenario = test::make_small_scenario(122, 8, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const ThreeStageAssigner assigner(scenario.dc, model);
  const Assignment reference = assigner.assign();
  ASSERT_TRUE(reference.feasible);

  const PowerMinResult small =
      minimize_power_for_reward(scenario.dc, model, 0.25 * reference.reward_rate);
  const PowerMinResult large =
      minimize_power_for_reward(scenario.dc, model, 0.75 * reference.reward_rate);
  ASSERT_TRUE(small.feasible && large.feasible);
  EXPECT_LT(small.total_power_kw, large.total_power_kw);
}

TEST(PowerMin, PowerBelowConstrainedRunForSameReward) {
  // Minimizing power for the reward a budget-constrained run achieved should
  // not need more power than that run used (modulo rounding retries).
  const auto scenario = test::make_small_scenario(123, 8, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const ThreeStageAssigner assigner(scenario.dc, model);
  const Assignment reference = assigner.assign();
  ASSERT_TRUE(reference.feasible);

  const PowerMinResult result = minimize_power_for_reward(
      scenario.dc, model, 0.9 * reference.reward_rate);
  ASSERT_TRUE(result.feasible);
  if (result.met_target) {
    EXPECT_LE(result.total_power_kw, reference.total_power_kw() * 1.1);
  }
}

TEST(PowerMin, UnreachableTargetReportsInfeasible) {
  const auto scenario = test::make_small_scenario(124, 6, 1);
  const thermal::HeatFlowModel model(scenario.dc);
  // Ask for more reward than the arrival rates can ever provide.
  double max_possible = 0.0;
  for (const auto& t : scenario.dc.task_types) {
    max_possible += t.reward * t.arrival_rate;
  }
  const PowerMinResult result =
      minimize_power_for_reward(scenario.dc, model, max_possible * 100.0);
  EXPECT_FALSE(result.feasible);
}

TEST(PowerMin, AssignmentSatisfiesThermalConstraints) {
  const auto scenario = test::make_small_scenario(125, 8, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const ThreeStageAssigner assigner(scenario.dc, model);
  const Assignment reference = assigner.assign();
  ASSERT_TRUE(reference.feasible);
  const PowerMinResult result = minimize_power_for_reward(
      scenario.dc, model, 0.5 * reference.reward_rate);
  ASSERT_TRUE(result.feasible);
  const auto temps = model.solve(
      result.assignment.crac_out_c,
      scenario.dc.node_power_from_pstates(result.assignment.core_pstate));
  EXPECT_TRUE(model.within_redlines(temps));
}

TEST(PowerMin, ZeroTargetCostsRoughlyPmin) {
  const auto scenario = test::make_small_scenario(126, 6, 1);
  const thermal::HeatFlowModel model(scenario.dc);
  const PowerMinResult result = minimize_power_for_reward(scenario.dc, model, 0.0);
  ASSERT_TRUE(result.feasible);
  // With no reward requirement the optimum is (close to) the all-off bound.
  EXPECT_LT(result.total_power_kw, scenario.bounds.pmin_kw * 1.1 + 1e-9);
}

TEST(PowerMin, TelemetryAttributesSweepAndPolish) {
  // One attempt, one coarse-to-fine sweep on lane 0's single resident LP,
  // one Dense polish at the winner — at any worker count — and telemetry
  // never changes the plan.
  const auto scenario = test::make_small_scenario(43, 10, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const double target = 201.03605044890625;
  const PowerMinResult plain =
      minimize_power_for_reward(scenario.dc, model, target);
  ASSERT_TRUE(plain.feasible);
  ASSERT_EQ(plain.attempts, 1u);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    util::telemetry::Registry reg;
    PowerMinOptions options;
    options.stage1.threads = threads;
    options.stage1.telemetry = &reg;
    const PowerMinResult got =
        minimize_power_for_reward(scenario.dc, model, target, options);
    ASSERT_TRUE(got.feasible);
    EXPECT_EQ(got.assignment.crac_out_c, plain.assignment.crac_out_c);
    EXPECT_EQ(got.total_power_kw, plain.total_power_kw);
    EXPECT_EQ(got.reward_rate, plain.reward_rate);
    EXPECT_EQ(reg.timer_stats("powermin.solve").count, 1u);
    EXPECT_EQ(reg.timer_stats("powermin.polish").count, 1u);
    EXPECT_EQ(reg.timer_stats("lp.session.build").count, 1u);
    EXPECT_EQ(reg.counter_value("lp.session.solves"),
              reg.counter_value("powermin.lp_solves"));
  }
}

// Published power-minimization plans pinned bit for bit across commits, in
// the style of Stage1.PublishedPlansPinned: default revised sweep and Dense
// engine, one and two workers, all publishing the pinned plan. The targets
// are 90% of each park's Stage-1 objective (97% on the derated park, which
// needs a second, floor-inflated attempt — the path that re-seeds the sweep
// from the previous attempt's basis).
struct PinnedPowerMinPlan {
  const char* name;
  std::uint64_t seed;
  std::size_t nodes, cracs;
  double derated_crac0_min_c;  // 0 = healthy
  double target_reward_rate;
  std::vector<double> crac_out_c;
  double total_power_kw, reward_rate;
  std::size_t attempts;
  std::uint64_t core_pstate_hash;  // test::bit_hash(assignment.core_pstate)
};

TEST(PowerMin, PublishedPlansPinned) {
  const PinnedPowerMinPlan pins[] = {
      {"seed 43", 43, 10, 2, 0.0, 201.03605044890625,
       {19.107142857142854, 16.964285714285715}, 8.7288334037079132,
       203.7759760472637, 1, 0x4c873b7db34620c7ULL},
      {"seed 45", 45, 12, 2, 0.0, 227.03453266011036,
       {19.107142857142854, 18.571428571428569}, 10.164939487252127,
       227.01283572061041, 1, 0x023e9d64b071ef03ULL},
      {"seed 46", 46, 11, 2, 0.0, 225.79437004147928,
       {19.642857142857139, 17.5}, 9.86746202001315, 238.74008807157477, 1,
       0xcfa64ba9c29d7625ULL},
      {"seed 52, 3 CRACs", 52, 16, 3, 0.0, 284.00718907936653,
       {18.839285714285708, 17.767857142857139, 17.232142857142854},
       13.668100303151681, 293.74525069133961, 1, 0x5c790df8ad3cf667ULL},
      {"seed 7, 40 nodes", 7, 40, 3, 0.0, 787.27781339594003,
       {16.964285714285715, 16.696428571428573, 17.767857142857142},
       36.28233298490008, 805.96867736741808, 1, 0x2c2ab6f451e4d0c3ULL},
      {"seed 47, CRAC 0 derated to 18 C", 47, 12, 2, 18.0, 261.24116696403536,
       {18.0, 16.5}, 11.279358177970476, 276.7303191759766, 2,
       0xcfdd805ef30e2ce2ULL},
  };
  for (const PinnedPowerMinPlan& pin : pins) {
    auto scenario = test::make_small_scenario(pin.seed, pin.nodes, pin.cracs);
    if (pin.derated_crac0_min_c > 0.0) {
      scenario.dc.set_crac_min_outlet(0, pin.derated_crac0_min_c);
    }
    const thermal::HeatFlowModel model(scenario.dc);
    for (const solver::LpEngine engine :
         {solver::LpEngine::Revised, solver::LpEngine::Dense}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
        SCOPED_TRACE(testing::Message()
                     << pin.name << " dense=" << (engine == solver::LpEngine::Dense)
                     << " threads=" << threads);
        PowerMinOptions options;
        options.stage1.lp.engine = engine;
        options.stage1.threads = threads;
        const PowerMinResult got = minimize_power_for_reward(
            scenario.dc, model, pin.target_reward_rate, options);
        ASSERT_TRUE(got.feasible);
        EXPECT_TRUE(got.met_target);
        EXPECT_EQ(got.attempts, pin.attempts);
        EXPECT_EQ(got.assignment.crac_out_c, pin.crac_out_c);
        EXPECT_EQ(got.total_power_kw, pin.total_power_kw);
        EXPECT_EQ(got.reward_rate, pin.reward_rate);
        EXPECT_EQ(test::bit_hash(got.assignment.core_pstate),
                  pin.core_pstate_hash);
      }
    }
  }
}

}  // namespace
}  // namespace tapo::core
