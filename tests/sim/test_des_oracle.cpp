// Pinned DES outcomes and accounting invariants. Every entry point of the
// online simulation — simulate (serial and component-sharded),
// simulate_with_faults (both in-flight policies, with and without the
// rolling re-planner) and trace replay (Poisson and MMPP) — must reproduce
// these SimResult fields and per-fault kill/requeue counts bit for bit. They
// were recorded from the event-calendar implementation (one completion event
// per admitted task); the per-core FIFO accounting that replaced it must not
// move a single bit.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "core/assigner.h"
#include "core/recovery.h"
#include "sim/arrivals.h"
#include "sim/des.h"
#include "sim/faults.h"
#include "sim/trace.h"
#include "testutil.h"
#include "thermal/heatflow.h"

namespace tapo::sim {
namespace {

// arrived, assigned, dropped, completed_in_time, completed_late
using TypeCounts = std::array<std::size_t, 5>;
// tasks_killed, tasks_requeued
using FaultCounts = std::array<std::size_t, 2>;

struct Observed {
  double total_reward = 0.0;
  double reward_rate = 0.0;
  double mean_tracking_error = 0.0;
  double energy_kwh = 0.0;
  std::vector<TypeCounts> per_type;
  std::vector<FaultCounts> faults;
};

Observed observe(const SimResult& r) {
  Observed o{r.total_reward, r.reward_rate, r.mean_tracking_error,
             r.energy_kwh, {}, {}};
  for (const PerTypeMetrics& m : r.per_type) {
    o.per_type.push_back({m.arrived, m.assigned, m.dropped,
                          m.completed_in_time, m.completed_late});
  }
  return o;
}

Observed observe(const FaultSimResult& r) {
  Observed o = observe(r.sim);
  for (const FaultRecord& f : r.faults) {
    o.faults.push_back({f.tasks_killed, f.tasks_requeued});
  }
  return o;
}

void expect_pinned(const Observed& got, const Observed& want,
                   const char* name) {
  EXPECT_EQ(got.total_reward, want.total_reward) << name;
  EXPECT_EQ(got.reward_rate, want.reward_rate) << name;
  EXPECT_EQ(got.mean_tracking_error, want.mean_tracking_error) << name;
  EXPECT_EQ(got.energy_kwh, want.energy_kwh) << name;
  EXPECT_EQ(got.per_type, want.per_type) << name;
  EXPECT_EQ(got.faults, want.faults) << name;
}

// Recorded outcomes, one per run of the matrix below.
const Observed kSimulate = {
    8920.6716487818085, 118.94228865042412,
    0.1086793829158413, 0.15567656529964263,
    {{21, 21, 0, 0, 0},
     {27, 27, 0, 0, 0},
     {54, 48, 6, 32, 0},
     {164, 0, 164, 0, 0},
     {301, 301, 0, 260, 0},
     {561, 363, 198, 361, 0},
     {1157, 1129, 28, 1056, 0},
     {2384, 562, 1822, 535, 0}},
    {}};
const Observed kEarliestUnchecked = {
    8454.1055954835338, 112.72140793978045,
    0.70357530751333841, 0.15567656529964263,
    {{19, 19, 0, 0, 0},
     {24, 24, 0, 3, 0},
     {38, 38, 0, 16, 0},
     {161, 161, 0, 95, 0},
     {283, 283, 0, 200, 0},
     {612, 612, 0, 353, 99},
     {1198, 1198, 0, 502, 350},
     {2440, 2440, 0, 577, 1163}},
    {}};
const Observed kRateTrace = {
    8524.7294090822579, 113.66305878776343,
    0.17160251419192757, 0.15567656529964263,
    {{34, 26, 8, 0, 0},
     {41, 41, 0, 0, 0},
     {78, 46, 32, 32, 0},
     {255, 0, 255, 0, 0},
     {459, 284, 175, 236, 0},
     {844, 363, 481, 361, 0},
     {1823, 1029, 794, 1007, 0},
     {3668, 519, 3149, 503, 0}},
    {}};
const Observed kFaultDrop = {
    7851.8148597330455, 104.69086479644061,
    0.38113679147863327, 0.14497661850531926,
    {{21, 14, 7, 0, 0},
     {27, 27, 0, 0, 0},
     {54, 54, 0, 21, 0},
     {164, 53, 111, 39, 0},
     {301, 278, 23, 169, 0},
     {561, 467, 94, 448, 0},
     {1157, 313, 844, 322, 0},
     {2384, 1226, 1158, 1200, 0}},
    {{85, 0}, {0, 0}, {33, 0}, {0, 0}, {0, 0}}};
const Observed kFaultRequeue = {
    7877.9718500361796, 105.03962466714906,
    0.39272214938691474, 0.14497661850531926,
    {{21, 18, 3, 0, 0},
     {27, 27, 0, 0, 0},
     {54, 54, 0, 21, 0},
     {164, 53, 111, 39, 0},
     {301, 290, 11, 182, 0},
     {561, 466, 95, 446, 2},
     {1157, 313, 844, 309, 10},
     {2384, 1205, 1179, 1148, 31}},
    {{85, 85}, {0, 0}, {33, 33}, {0, 0}, {0, 0}}};
const Observed kFaultDropReplan = {
    7493.7317812159563, 99.916423749546084,
    1.0, 0.14497661850531923,
    {{21, 14, 7, 0, 0},
     {27, 27, 0, 0, 0},
     {54, 54, 0, 17, 0},
     {164, 53, 111, 37, 0},
     {301, 301, 0, 158, 0},
     {561, 489, 72, 443, 0},
     {1157, 333, 824, 337, 0},
     {2384, 1171, 1213, 1154, 0}},
    {{50, 0}, {0, 0}, {9, 0}, {0, 0}, {0, 0}}};
const Observed kFaultRequeueReplan = {
    7465.5073501120951, 99.540098001494599,
    1.0, 0.14497661850531923,
    {{21, 19, 2, 0, 0},
     {27, 27, 0, 0, 0},
     {54, 54, 0, 17, 0},
     {164, 53, 111, 37, 0},
     {301, 301, 0, 158, 0},
     {561, 486, 75, 442, 0},
     {1157, 333, 824, 335, 2},
     {2384, 1171, 1213, 1139, 15}},
    {{50, 50}, {0, 0}, {9, 9}, {0, 0}, {0, 0}}};
const Observed kPoissonReplay = {
    11843.46944089771, 131.59410489886343,
    0.11088241109163946, 0.18681187835957117,
    {{28, 27, 1, 0, 0},
     {36, 36, 0, 4, 0},
     {70, 62, 8, 51, 0},
     {180, 0, 180, 0, 0},
     {379, 362, 17, 323, 0},
     {680, 443, 237, 450, 0},
     {1438, 1327, 111, 1288, 0},
     {2833, 707, 2126, 701, 0}},
    {}};
const Observed kMmppReplay = {
    9712.6875782267944, 107.91875086918661,
    0.3152758603956905, 0.18681187835957117,
    {{11, 11, 0, 0, 0},
     {21, 21, 0, 7, 0},
     {33, 33, 0, 24, 0},
     {298, 0, 298, 0, 0},
     {666, 325, 341, 381, 0},
     {342, 342, 0, 338, 0},
     {712, 712, 0, 723, 0},
     {2976, 777, 2199, 748, 0}},
    {}};

struct OracleFixture : ::testing::Test {
  void SetUp() override {
    scenario = std::make_unique<scenario::Scenario>(
        test::make_small_scenario(131, 8, 2));
    model = std::make_unique<thermal::HeatFlowModel>(scenario->dc);
    const core::ThreeStageAssigner assigner(scenario->dc, *model);
    assignment = assigner.assign();
    ASSERT_TRUE(assignment.feasible);
  }

  static SimOptions base_options() {
    SimOptions o;
    o.duration_seconds = 80.0;
    o.warmup_seconds = 5.0;
    o.seed = 9;
    return o;
  }

  // Two node failures (one repaired), a CRAC derate and a power-cap drop.
  FaultSchedule storm() const {
    FaultSchedule s;
    s.events.push_back({20.0, FaultKind::kNodeFail, 2, 0.0});
    s.events.push_back({35.0, FaultKind::kCracDerate, 0, 0.6});
    s.events.push_back({42.0, FaultKind::kNodeFail, 5, 0.0});
    s.events.push_back(
        {50.0, FaultKind::kPowerCap, 0, 0.9 * scenario->dc.p_const_kw});
    s.events.push_back({58.0, FaultKind::kNodeRepair, 2, 0.0});
    return s;
  }

  FaultSimResult run_storm(InFlightPolicy policy, bool replan) {
    FaultSimOptions o;
    o.sim = base_options();
    o.recovery.replan_delay_s = 5.0;
    o.in_flight = policy;
    if (replan) {
      core::ReplannerOptions r;
      r.cadence_s = 15.0;
      r.tracking_error_threshold = 0.25;
      o.replan = r;
    }
    FaultSimResult out =
        simulate_with_faults(scenario->dc, *model, assignment, storm(), o);
    EXPECT_TRUE(out.status.ok()) << out.status.to_string();
    return out;
  }

  std::unique_ptr<scenario::Scenario> scenario;
  std::unique_ptr<thermal::HeatFlowModel> model;
  core::Assignment assignment;
};

TEST_F(OracleFixture, SimulatePinnedAcrossThreadCounts) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SimOptions o = base_options();
    o.threads = threads;
    const SimResult r = simulate(scenario->dc, assignment, o);
    ASSERT_TRUE(r.status.ok()) << r.status.to_string();
    expect_pinned(observe(r), kSimulate, "simulate");
  }
}

TEST_F(OracleFixture, UncheckedEarliestFinishPinnedAcrossThreadCounts) {
  // Unguarded admission queues work past the horizon and past deadlines, so
  // late completions and never-finishing tasks are both exercised.
  for (const std::size_t threads : {1u, 2u}) {
    SimOptions o = base_options();
    o.seed = 4;
    o.scheduler.policy = core::SchedulerPolicy::EarliestFinish;
    o.scheduler.deadline_check = false;
    o.threads = threads;
    const SimResult r = simulate(scenario->dc, assignment, o);
    ASSERT_TRUE(r.status.ok()) << r.status.to_string();
    expect_pinned(observe(r), kEarliestUnchecked, "earliest, unchecked");
  }
}

TEST_F(OracleFixture, RateTraceSimulatePinned) {
  RateTraceGenConfig config;
  config.kind = RateTraceGenConfig::Kind::kFlashCrowd;
  config.seed = 3;
  config.horizon_s = 80.0;
  config.start_s = 30.0;
  const RateTrace trace = generate_rate_trace(scenario->dc.task_types, config);
  SimOptions o = base_options();
  o.rate_trace = &trace;
  const SimResult r = simulate(scenario->dc, assignment, o);
  ASSERT_TRUE(r.status.ok()) << r.status.to_string();
  expect_pinned(observe(r), kRateTrace, "rate trace");
}

TEST_F(OracleFixture, FaultRunsPinned) {
  expect_pinned(observe(run_storm(InFlightPolicy::kDrop, false)),
                kFaultDrop, "faults, drop");
  expect_pinned(observe(run_storm(InFlightPolicy::kRequeue, false)),
                kFaultRequeue, "faults, requeue");
  expect_pinned(observe(run_storm(InFlightPolicy::kDrop, true)),
                kFaultDropReplan, "faults, drop, replan");
  expect_pinned(observe(run_storm(InFlightPolicy::kRequeue, true)),
                kFaultRequeueReplan, "faults, requeue, replan");
}

TEST_F(OracleFixture, TraceReplaysPinned) {
  SimOptions o = base_options();
  o.duration_seconds = 100.0;
  o.warmup_seconds = 10.0;
  const Trace poisson =
      generate_poisson_trace(scenario->dc.task_types, 100.0, util::Rng(33));
  const SimResult p = simulate_trace(scenario->dc, assignment, poisson, o);
  ASSERT_TRUE(p.status.ok()) << p.status.to_string();
  expect_pinned(observe(p), kPoissonReplay, "poisson replay");

  MmppConfig mmpp;
  mmpp.burst_multiplier = 6.0;
  mmpp.mean_phase_seconds = 15.0;
  mmpp.burst_duty = 0.2;
  const Trace bursty = generate_mmpp_trace(scenario->dc.task_types, 100.0,
                                           mmpp, util::Rng(8));
  const SimResult m = simulate_trace(scenario->dc, assignment, bursty, o);
  ASSERT_TRUE(m.status.ok()) << m.status.to_string();
  expect_pinned(observe(m), kMmppReplay, "mmpp replay");
}

TEST_F(OracleFixture, EveryEntryPointConservesAdmissions) {
  // Each arrival inside the window is admitted or dropped exactly once, and a
  // node failure's kills are reclassified (kDrop) or re-routed (kRequeue),
  // never lost. The shared end-of-run step also asserts this.
  std::vector<SimResult> runs;
  for (const std::size_t threads : {1u, 2u}) {
    SimOptions o = base_options();
    o.threads = threads;
    runs.push_back(simulate(scenario->dc, assignment, o));
  }
  const Trace trace =
      generate_poisson_trace(scenario->dc.task_types, 80.0, util::Rng(5));
  runs.push_back(simulate_trace(scenario->dc, assignment, trace,
                                base_options()));
  for (const InFlightPolicy policy :
       {InFlightPolicy::kDrop, InFlightPolicy::kRequeue}) {
    const FaultSimResult r = run_storm(policy, false);
    ASSERT_GT(r.faults.front().tasks_killed, 0u);
    runs.push_back(r.sim);
  }
  for (const SimResult& r : runs) {
    ASSERT_TRUE(r.status.ok()) << r.status.to_string();
    std::size_t arrived = 0;
    for (const PerTypeMetrics& m : r.per_type) {
      EXPECT_EQ(m.arrived, m.assigned + m.dropped);
      arrived += m.arrived;
    }
    EXPECT_GT(arrived, 0u);
  }
}

TEST_F(OracleFixture, FaultRunEnergyIntegratesTheAdoptedPlans) {
  // One node failure at t_f: the initial plan runs from the warm-up to t_f,
  // the safety throttle from t_f, and the re-plan (if adopted) from
  // t_f + replan_delay to the horizon. Recomputing the recovery on a copy of
  // the degraded data center gives each segment's power.
  const SimOptions sim = base_options();
  const double t_fail = 20.0;
  const double delay = 5.0;
  FaultSchedule schedule;
  schedule.events.push_back({t_fail, FaultKind::kNodeFail, 2, 0.0});
  FaultSimOptions o;
  o.sim = sim;
  o.recovery.replan_delay_s = delay;
  const FaultSimResult r =
      simulate_with_faults(scenario->dc, *model, assignment, schedule, o);
  ASSERT_TRUE(r.status.ok()) << r.status.to_string();

  dc::DataCenter degraded = scenario->dc;
  apply_fault(degraded, schedule.events[0], o.recovery.assign.stage1.tcrac_min_c,
              o.recovery.assign.stage1.tcrac_max_c);
  const core::RecoveryOutcome rec =
      core::RecoveryController(degraded, *model, o.recovery).recover(assignment);
  ASSERT_EQ(rec.replan_adopted, r.faults[0].replan_adopted);

  double expected = assignment.total_power_kw() *
                    (t_fail - sim.warmup_seconds) / 3600.0;
  if (rec.replan_adopted) {
    expected += rec.throttle.total_power_kw() * delay / 3600.0;
    expected += rec.plan.total_power_kw() *
                (sim.duration_seconds - t_fail - delay) / 3600.0;
  } else {
    expected += rec.throttle.total_power_kw() *
                (sim.duration_seconds - t_fail) / 3600.0;
  }
  EXPECT_DOUBLE_EQ(r.sim.energy_kwh, expected);
  EXPECT_NE(r.sim.energy_kwh, assignment.total_power_kw() *
                                  r.sim.measured_seconds / 3600.0);
}

}  // namespace
}  // namespace tapo::sim
