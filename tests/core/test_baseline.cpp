#include "core/baseline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "testutil.h"
#include "util/telemetry.h"

namespace tapo::core {
namespace {

TEST(Baseline, ProducesVerifiedAssignment) {
  const auto scenario = test::make_small_scenario(91, 10, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const BaselineAssigner assigner(scenario.dc, model);
  const Assignment a = assigner.assign();
  ASSERT_TRUE(a.feasible);
  EXPECT_GT(a.reward_rate, 0.0);
  const AssignmentCheck check = verify_assignment(scenario.dc, model, a);
  EXPECT_TRUE(check.power_ok);
  EXPECT_TRUE(check.thermal_ok);
  EXPECT_TRUE(check.rates_ok);
}

TEST(Baseline, OnlyUsesP0OrOff) {
  const auto scenario = test::make_small_scenario(92, 10, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const BaselineAssigner assigner(scenario.dc, model);
  const Assignment a = assigner.assign();
  ASSERT_TRUE(a.feasible);
  for (std::size_t k = 0; k < scenario.dc.total_cores(); ++k) {
    const auto& spec = scenario.dc.node_types[scenario.dc.core_type(k)];
    EXPECT_TRUE(a.core_pstate[k] == 0 || a.core_pstate[k] == spec.off_state());
  }
}

TEST(Baseline, RoundingProducesIntegerCoreCounts) {
  const auto scenario = test::make_small_scenario(93, 8, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const BaselineAssigner assigner(scenario.dc, model);
  const Assignment a = assigner.assign();
  ASSERT_TRUE(a.feasible);
  // By construction the on-cores are a prefix of each node's core range; the
  // realized per-node utilization sum equals the on-core count.
  for (std::size_t j = 0; j < scenario.dc.num_nodes(); ++j) {
    const auto& spec = scenario.dc.node_type(j);
    std::size_t on = 0;
    for (std::size_t c = 0; c < spec.cores_per_node(); ++c) {
      if (a.core_pstate[scenario.dc.core_offset(j) + c] == 0) ++on;
    }
    double used = 0.0;
    for (std::size_t i = 0; i < scenario.dc.num_task_types(); ++i) {
      for (std::size_t c = 0; c < spec.cores_per_node(); ++c) {
        const std::size_t core = scenario.dc.core_offset(j) + c;
        if (a.tc(i, core) > 0.0) {
          used += a.tc(i, core) *
                  scenario.dc.ecs.etc_seconds(i, scenario.dc.nodes[j].type, 0);
        }
      }
    }
    EXPECT_LE(used, static_cast<double>(on) + 1e-6);
  }
}

TEST(Baseline, RoundingOnlyReducesObjective) {
  const auto scenario = test::make_small_scenario(94, 8, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const BaselineAssigner assigner(scenario.dc, model);
  const Assignment a = assigner.assign();
  ASSERT_TRUE(a.feasible);
  EXPECT_LE(a.reward_rate, a.stage1_objective + 1e-9);
  // Rounding discards less than one core's worth of work per node; the loss
  // should be a modest fraction on a multi-node system.
  EXPECT_GT(a.reward_rate, 0.5 * a.stage1_objective);
}

TEST(Baseline, InfeasibleBudgetReported) {
  auto scenario = test::make_small_scenario(95, 6, 1);
  scenario.dc.p_const_kw = scenario.dc.total_base_power_kw() * 0.3;
  const thermal::HeatFlowModel model(scenario.dc);
  const BaselineAssigner assigner(scenario.dc, model);
  EXPECT_FALSE(assigner.assign().feasible);
}

TEST(Baseline, SolveAtRespectsArrivalRates) {
  const auto scenario = test::make_small_scenario(96, 8, 2);
  const auto& dc = scenario.dc;
  const thermal::HeatFlowModel model(dc);
  const BaselineAssigner assigner(dc, model);
  const auto outcome = assigner.solve_at(
      std::vector<double>(dc.num_cracs(), 16.0));
  ASSERT_TRUE(outcome.feasible);
  for (std::size_t i = 0; i < dc.num_task_types(); ++i) {
    double rate = 0.0;
    for (std::size_t j = 0; j < dc.num_nodes(); ++j) {
      rate += outcome.frac(i, j) * dc.node_type(j).cores_per_node() *
              dc.ecs.ecs(i, dc.nodes[j].type, 0);
    }
    EXPECT_LE(rate, dc.task_types[i].arrival_rate + 1e-6);
  }
}

TEST(Baseline, SolveAtRespectsFractionBudget) {
  const auto scenario = test::make_small_scenario(97, 8, 2);
  const auto& dc = scenario.dc;
  const thermal::HeatFlowModel model(dc);
  const BaselineAssigner assigner(dc, model);
  const auto outcome =
      assigner.solve_at(std::vector<double>(dc.num_cracs(), 16.0));
  ASSERT_TRUE(outcome.feasible);
  for (std::size_t j = 0; j < dc.num_nodes(); ++j) {
    double sum = 0.0;
    for (std::size_t i = 0; i < dc.num_task_types(); ++i) {
      EXPECT_GE(outcome.frac(i, j), -1e-9);
      sum += outcome.frac(i, j);
    }
    EXPECT_LE(sum, 1.0 + 1e-7);
  }
}

TEST(Baseline, ThreeStageBeatsOrMatchesBaselineOnAverage) {
  // The paper's central claim, at test scale: averaged over a few scenarios
  // the three-stage technique should not lose to the baseline.
  double total_three = 0.0, total_base = 0.0;
  int feasible_runs = 0;
  for (std::uint64_t seed : {101, 102, 103, 104}) {
    const auto scenario = test::make_small_scenario(seed, 10, 2);
    const thermal::HeatFlowModel model(scenario.dc);
    ThreeStageOptions o25, o50;
    o25.stage1.psi = 25.0;
    o50.stage1.psi = 50.0;
    const ThreeStageAssigner three(scenario.dc, model);
    const Assignment best =
        best_of({three.assign(o25), three.assign(o50)});
    const BaselineAssigner base(scenario.dc, model);
    const Assignment b = base.assign();
    if (!best.feasible || !b.feasible) continue;
    ++feasible_runs;
    total_three += best.reward_rate;
    total_base += b.reward_rate;
  }
  ASSERT_GE(feasible_runs, 3);
  EXPECT_GE(total_three, 0.98 * total_base);
}

// Node 0's type meets no task type's deadline, so every node of that type
// gets no FRAC variable (and no load variable in the sweep LP).
scenario::Scenario deadline_starved_scenario() {
  auto scenario = test::make_small_scenario(111, 10, 2);
  dc::DataCenter& dc = scenario.dc;
  const std::size_t starved = dc.nodes[0].type;
  for (std::size_t i = 0; i < dc.num_task_types(); ++i) {
    dc.task_types[i].relative_deadline =
        0.999 * dc.ecs.etc_seconds(i, starved, 0);
  }
  return scenario;
}

// The power budget cut to a quarter of its dynamic headroom: the baseline
// is infeasible below ~0.246 on this park, so only the warmest setpoints
// leave room for any work.
scenario::Scenario tight_budget_scenario() {
  auto scenario = test::make_small_scenario(112, 10, 2);
  dc::DataCenter& dc = scenario.dc;
  const double base = dc.total_base_power_kw();
  dc.p_const_kw = base + 0.25 * (dc.p_const_kw - base);
  return scenario;
}

// Every 2-CRAC setpoint pair on a 2.5 degC grid over [10, 25].
std::vector<std::vector<double>> setpoint_grid() {
  std::vector<std::vector<double>> points;
  for (double a = 10.0; a <= 25.0; a += 2.5) {
    for (double b = 10.0; b <= 25.0; b += 2.5) points.push_back({a, b});
  }
  return points;
}

void expect_sweep_matches_solve_at(const dc::DataCenter& dc) {
  const thermal::HeatFlowModel model(dc);
  const BaselineAssigner assigner(dc, model);
  const auto points = setpoint_grid();
  // One chain over the whole grid (patched moves through feasible and
  // infeasible stretches) and a fresh LP per point.
  const auto chained = assigner.sweep_objectives(points);
  ASSERT_EQ(chained.size(), points.size());
  std::size_t feasible = 0, infeasible = 0;
  for (std::size_t k = 0; k < points.size(); ++k) {
    const auto reference = assigner.solve_at(points[k]);
    const auto cold = assigner.sweep_objectives({points[k]});
    for (const std::optional<double>& value : {chained[k], cold[0]}) {
      ASSERT_EQ(value.has_value(), reference.feasible)
          << "setpoints " << points[k][0] << ", " << points[k][1];
      if (!value) continue;
      EXPECT_NEAR(*value, reference.objective,
                  1e-9 * std::max(1.0, std::fabs(reference.objective)))
          << "setpoints " << points[k][0] << ", " << points[k][1];
    }
    ++(reference.feasible ? feasible : infeasible);
  }
  // The grid must exercise both verdicts.
  EXPECT_GT(feasible, 0u);
  EXPECT_GT(infeasible, 0u);
}

TEST(BaselineSweepLp, MatchesSolveAtOverSetpointGrid) {
  expect_sweep_matches_solve_at(test::make_small_scenario(91, 10, 2).dc);
}

TEST(BaselineSweepLp, MatchesSolveAtWithDeadlineStarvedNodes) {
  expect_sweep_matches_solve_at(deadline_starved_scenario().dc);
}

TEST(BaselineSweepLp, MatchesSolveAtUnderNearInfeasibleBudget) {
  expect_sweep_matches_solve_at(tight_budget_scenario().dc);
}

TEST(Baseline, AssignIdenticalForAnyThreadCountAndGrid) {
  for (const bool full_grid : {false, true}) {
    for (std::uint64_t seed : {91, 101}) {
      const auto scenario = test::make_small_scenario(seed, 10, 2);
      const thermal::HeatFlowModel model(scenario.dc);
      const BaselineAssigner assigner(scenario.dc, model);
      BaselineOptions options;
      options.full_grid = full_grid;
      const Assignment serial = assigner.assign(options);
      ASSERT_TRUE(serial.feasible);
      for (const std::size_t threads : {2u, 8u}) {
        options.grid.threads = threads;
        const Assignment a = assigner.assign(options);
        ASSERT_TRUE(a.feasible);
        EXPECT_EQ(a.crac_out_c, serial.crac_out_c);
        EXPECT_EQ(a.reward_rate, serial.reward_rate);
        EXPECT_EQ(a.core_pstate, serial.core_pstate);
        ASSERT_EQ(a.tc.rows(), serial.tc.rows());
        ASSERT_EQ(a.tc.cols(), serial.tc.cols());
        for (std::size_t i = 0; i < a.tc.rows(); ++i) {
          for (std::size_t k = 0; k < a.tc.cols(); ++k) {
            EXPECT_EQ(a.tc(i, k), serial.tc(i, k));
          }
        }
      }
    }
  }
}

// Published baseline plans pinned to the values of the per-point Eq. 21
// sweep that the sweep LP replaced: the setpoint search must pick the same
// point, and the Dense re-solve and rounding must publish the same reward.
struct PinnedPlan {
  const char* name;
  scenario::Scenario (*make)();
  bool full_grid;
  std::vector<double> crac_out_c;
  double reward_rate;
};

TEST(Baseline, PublishedPlansPinned) {
  const PinnedPlan pins[] = {
      {"seed 91", [] { return test::make_small_scenario(91, 10, 2); }, false,
       {18.035714285714288, 16.964285714285719}, 228.18070421586145},
      {"seed 101 full grid",
       [] { return test::make_small_scenario(101, 10, 2); }, true,
       {20.0, 15.0}, 216.06242169068324},
      {"seed 7, 40 nodes",
       [] { return test::make_small_scenario(7, 40, 3); }, false,
       {16.964285714285715, 15.892857142857144, 16.964285714285715},
       866.97621568528791},
      {"deadline-starved nodes", deadline_starved_scenario, false,
       {18.035714285714288, 17.767857142857146}, 220.56706757357264},
      {"near-infeasible budget", tight_budget_scenario, false,
       {19.910714285714285, 19.642857142857142}, 9.1863355352871778},
  };
  for (const PinnedPlan& pin : pins) {
    const auto scenario = pin.make();
    const thermal::HeatFlowModel model(scenario.dc);
    BaselineOptions options;
    options.full_grid = pin.full_grid;
    const Assignment a = BaselineAssigner(scenario.dc, model).assign(options);
    ASSERT_TRUE(a.feasible) << pin.name;
    EXPECT_EQ(a.crac_out_c, pin.crac_out_c) << pin.name;
    EXPECT_NEAR(a.reward_rate, pin.reward_rate, 1e-12 * pin.reward_rate)
        << pin.name;
  }
}

TEST(Baseline, TelemetryAttributesSweepAndPolish) {
  const auto scenario = test::make_small_scenario(91, 10, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  util::telemetry::Registry reg;
  BaselineOptions options;
  options.lp.telemetry = &reg;
  const Assignment a = BaselineAssigner(scenario.dc, model).assign(options);
  ASSERT_TRUE(a.feasible);
  EXPECT_EQ(reg.timer_stats("baseline.sweep").count, 1u);
  EXPECT_EQ(reg.timer_stats("baseline.polish").count, 1u);
  EXPECT_EQ(reg.counter_value("baseline.lp_solves"), a.lp_solves);
  EXPECT_GT(a.lp_solves, 0u);
}

TEST(Baseline, CoarseToFineSweepBuildsOneResidentLp) {
  // Every batch of the default coarse-to-fine search fits in one chain, so
  // the whole sweep runs on lane 0's single resident LP at any worker count.
  const auto scenario = test::make_small_scenario(91, 10, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    util::telemetry::Registry reg;
    BaselineOptions options;
    options.grid.threads = threads;
    options.lp.telemetry = &reg;
    const Assignment a = BaselineAssigner(scenario.dc, model).assign(options);
    ASSERT_TRUE(a.feasible);
    EXPECT_EQ(reg.timer_stats("lp.session.build").count, 1u);
    EXPECT_EQ(reg.counter_value("lp.session.solves"), a.lp_solves);
  }
}

}  // namespace
}  // namespace tapo::core
