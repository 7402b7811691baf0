// tapo end-to-end benchmark: runs one workload for a fixed measuring time
// and prints one JSON line with its metrics.
//
//   tapo_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--holdout]
//
// A run repeats whole passes of its workload (set-up, plans, recoveries,
// DES) until --seconds have passed, and reports per-pass medians. Each pass
// builds its parks from scratch, so set-up, planning and simulation are all
// inside total_s. --seed drives the inputs that vary from run to run: DES
// arrivals and the recovery fault targets. The parks are the workload's own
// (its workload seed, or the hold-out seed with --holdout), so plan rewards
// can be checked against recorded values.
//
// With --trace 1 the run alternates untraced and traced passes. Traced
// passes attach a telemetry Registry to every call that takes one and give
// the per-layer metrics; the untraced passes give the reference for the
// tracing overhead. Every Stage-1, recovery, baseline and DES call sets its
// worker count explicitly (never 0 = all hardware threads).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/baseline.h"
#include "core/replanner.h"
#include "harness.h"
#include "scenario/profile.h"
#include "sim/arrivals.h"
#include "sim/des.h"
#include "util/telemetry.h"

namespace {

using namespace tapo;
using perfbench::Clock;
using perfbench::ScopedSpan;
using perfbench::Tracer;

// Stage-1 sweep workers on plan-500: the parallel sweep is part of what that
// workload measures, and peak RSS depends on the worker count.
constexpr std::size_t kPlan500Workers = 2;
// Set-up is sampled again after each pass until a pass holds this much
// set-up time, so setup_s never rests on a few milliseconds.
constexpr double kSetupSampleSeconds = 0.5;
// Plan sets are sampled the same way up to this much plan time per pass.
constexpr double kPlanSampleSeconds = 1.0;
constexpr std::size_t kMaxExtraSamples = 40;  // per pass
constexpr std::size_t kRecoveriesPerPass = 40;
// recover-150's fault storm and diurnal trace are part of the workload, not
// of the run seed: their shape moves the DES reward and RSS by far more than
// the arrival sampling that --seed drives.
constexpr std::uint64_t kRecoverStormSeed = 9;

// The committed scenarios/route-storm-300.tapo profile, frozen here so that
// editing the scenario library never changes the benchmark. The DES horizon
// is lengthened below so that routing dominates the pass.
constexpr const char* kRouteStormProfile =
    "tapo-scenarios v1\n"
    "name route-storm-300\n"
    "nodes 300\n"
    "cracs 6\n"
    "arrival scale 2\n"
    "sim 240 24 5 64\n"
    "end\n";
constexpr double kRouteStormHorizonS = 1200.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool holdout = false;
};

struct PassResult {
  bool traced = false;
  Tracer tracer;
  double total_s = 0.0;
  double plan_s = 0.0;
  double stage1_cpu_s = 0.0;
  double sim_s = 0.0;
  double sim_arrivals = 0.0;
  double sim_dropped = 0.0;
  double rss_growth_mb = 0.0;  // rise of peak RSS across the pass's DES runs
  std::vector<double> plan_rewards;
  std::vector<double> baseline_rewards;
  std::vector<double> recovered_rewards;
  std::vector<double> sim_rewards;
  std::vector<double> recover_ms;
  std::size_t recover_adopted = 0;
  std::size_t recover_safe = 0;
  std::size_t replans_adopted = 0;
  std::size_t horizon_steps = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> layer;  // registry-derived, traced passes only
};

// Context handed to a workload's prepare and operate steps.
struct PassContext {
  const Args& args;
  std::uint64_t park_seed;
  util::telemetry::Registry* reg;  // null in untraced passes
  PassResult& out;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Percentile by linear interpolation between order statistics.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// Host-speed probe: a fixed floating-point loop owned by the benchmark. It
// only shows which host phase a run met; no metric is rescaled by it.
double host_probe_seconds() {
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<double> buf(1 << 15, 1.0);
    const Clock::time_point start = Clock::now();
    double acc = 0.0;
    for (int round = 0; round < 400; ++round) {
      for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = buf[i] * 0.999 + std::sqrt(static_cast<double>(i + round));
        acc += buf[i];
      }
    }
    samples.push_back(perfbench::seconds_between(start, Clock::now()));
    if (acc == 0.0) std::fputs("", stderr);  // keeps the loop observable
  }
  return median(samples);
}

// Verifies a plan against the park it was made for; a plan that does not
// verify is a failed operation.
void check_plan(PassResult& out, const char* what, const dc::DataCenter& dc,
                const thermal::HeatFlowModel& model,
                const core::Assignment& plan) {
  ++out.attempted;
  bool ok = plan.feasible && plan.status.ok();
  if (ok) {
    const ScopedSpan span(out.tracer, "core.verify");
    ok = core::verify_assignment(dc, model, plan).ok();
  }
  if (!ok) {
    ++out.failed;
    out.errors.push_back(std::string(what) + " failed: " +
                         (plan.status.ok() ? "plan does not verify"
                                           : plan.status.to_string()));
  }
}

void record_sim(PassResult& out, const char* what, const sim::SimResult& result,
                double seconds) {
  ++out.attempted;
  if (!result.status.ok()) {
    ++out.failed;
    out.errors.push_back(std::string(what) + " failed: " + result.status.to_string());
    return;
  }
  out.sim_s += seconds;
  for (const sim::PerTypeMetrics& type : result.per_type) {
    out.sim_arrivals += static_cast<double>(type.arrived);
    out.sim_dropped += static_cast<double>(type.dropped);
  }
  out.sim_rewards.push_back(result.reward_rate);
}

core::ThreeStageOptions plan_options(double psi, std::size_t workers,
                                     util::telemetry::Registry* reg) {
  core::ThreeStageOptions options;
  options.stage1.psi = psi;
  options.stage1.threads = workers;
  options.stage1.telemetry = reg;
  return options;
}

core::Assignment timed_plan(PassContext& ctx, const perfbench::Park& park,
                            const core::ThreeStageOptions& options) {
  const Clock::time_point start = Clock::now();
  core::Assignment plan = perfbench::staged_plan(
      park.scenario.dc, park.model, options, ctx.out.tracer, &ctx.out.stage1_cpu_s);
  ctx.out.plan_s += perfbench::seconds_between(start, Clock::now());
  check_plan(ctx.out, "plan", park.scenario.dc, park.model, plan);
  ctx.out.plan_rewards.push_back(plan.reward_rate);
  return plan;
}

sim::SimResult timed_simulate(PassContext& ctx, const dc::DataCenter& dc,
                              const core::Assignment& plan,
                              sim::SimOptions options) {
  options.threads = 1;
  options.telemetry = ctx.reg;
  const double rss_before = peak_rss_mb();
  const int span = ctx.out.tracer.open("sim.run");
  const Clock::time_point start = Clock::now();
  sim::SimResult result = sim::simulate(dc, plan, options);
  const double seconds = perfbench::seconds_between(start, Clock::now());
  ctx.out.tracer.close(span);
  ctx.out.rss_growth_mb += peak_rss_mb() - rss_before;
  record_sim(ctx.out, "simulate", result, seconds);
  return result;
}

// ---- Workloads -----------------------------------------------------------
//
// A pass is prepare (build every park, then make the pass's plan set) and
// operate (everything after the plans). Extra set-up and plan samples re-run
// prepare alone.

// The parks of a pass and the plan set made on them.
struct Prepared {
  std::vector<std::unique_ptr<perfbench::Park>> parks;
  std::vector<core::Assignment> plans;
};

struct Workload {
  const char* name;
  // Workload seed of the parks, and the hold-out seed kept for re-checking a
  // performance claim on a park not used while making it.
  std::uint64_t park_seed;
  std::uint64_t holdout_seed;
  // Builds every park of a pass; with `plan`, also makes its plan set.
  std::function<Prepared(PassContext&, bool plan)> prepare;
  std::function<void(PassContext&, const Prepared&)> operate;
};

scenario::ScenarioConfig plan500_config(std::uint64_t park_seed) {
  scenario::ScenarioConfig config;
  config.num_nodes = 500;
  config.num_cracs = 10;
  config.seed = park_seed;
  return config;
}

// plan-500: one cold 500-node plan with two sweep workers, then a short DES.
Prepared prepare_plan500(PassContext& ctx, bool plan) {
  Prepared p;
  p.parks.push_back(
      perfbench::build_park(plan500_config(ctx.park_seed), 1.0, ctx.out.tracer));
  if (plan) {
    p.plans.push_back(
        timed_plan(ctx, *p.parks[0], plan_options(50.0, kPlan500Workers, ctx.reg)));
  }
  return p;
}

void operate_plan500(PassContext& ctx, const Prepared& p) {
  sim::SimOptions sim;
  sim.duration_seconds = 60.0;
  sim.warmup_seconds = 6.0;
  sim.seed = ctx.args.seed;
  timed_simulate(ctx, p.parks[0]->scenario.dc, p.plans[0], sim);
}

const scenario::ScenarioProfile& route_storm_profile() {
  static const scenario::ScenarioProfile profile = [] {
    util::StatusOr<scenario::ScenarioProfile> parsed =
        scenario::parse_profile(kRouteStormProfile);
    TAPO_CHECK_MSG(parsed.ok(), "embedded route-storm profile must parse");
    return std::move(parsed).value();
  }();
  return profile;
}

// route-storm-300: the 2x-oversubscribed 300-node park, one plan, then a
// long DES that dominates the pass.
Prepared prepare_route_storm(PassContext& ctx, bool plan) {
  const scenario::ScenarioProfile& profile = route_storm_profile();
  scenario::ScenarioConfig config = profile.to_config();
  config.seed = ctx.park_seed;
  Prepared p;
  p.parks.push_back(
      perfbench::build_park(config, profile.arrival.scale, ctx.out.tracer));
  if (plan) {
    p.plans.push_back(timed_plan(ctx, *p.parks[0], plan_options(profile.psi, 1, ctx.reg)));
  }
  return p;
}

void operate_route_storm(PassContext& ctx, const Prepared& p) {
  const scenario::ScenarioProfile& profile = route_storm_profile();
  sim::SimOptions sim;
  sim.duration_seconds = kRouteStormHorizonS;
  sim.warmup_seconds = profile.sim.warmup_s;
  sim.seed = ctx.args.seed;
  sim.telemetry_samples = profile.sim.samples;
  sim.scheduler.deadline_check = profile.deadline_check;
  timed_simulate(ctx, p.parks[0]->scenario.dc, p.plans[0], sim);
}

core::RecoveryOptions recovery_options(util::telemetry::Registry* reg) {
  core::RecoveryOptions options;
  options.assign = plan_options(50.0, 1, reg);
  options.telemetry = reg;
  return options;
}

// recover-150: a healthy plan, ~40 single faults each answered by one
// recover() on a fresh copy of the park, then one fault-injected DES with a
// fault storm, a diurnal trace and the rolling re-planner.
Prepared prepare_recover(PassContext& ctx, bool plan) {
  scenario::ScenarioConfig config;
  config.num_nodes = 150;
  config.num_cracs = 3;
  config.seed = ctx.park_seed;
  Prepared p;
  p.parks.push_back(perfbench::build_park(config, 1.0, ctx.out.tracer));
  if (plan) {
    p.plans.push_back(timed_plan(ctx, *p.parks[0], plan_options(50.0, 1, ctx.reg)));
  }
  return p;
}

void operate_recover(PassContext& ctx, const Prepared& p) {
  perfbench::Park& park = *p.parks[0];
  dc::DataCenter& dc = park.scenario.dc;
  const core::Assignment& healthy = p.plans[0];

  const core::RecoveryOptions options = recovery_options(ctx.reg);
  for (const sim::FaultEvent& event :
       perfbench::fault_sequence(dc, ctx.args.seed, kRecoveriesPerPass)) {
    const perfbench::TimedRecovery r = perfbench::timed_recover(
        dc, park.model, healthy, event, options, ctx.out.tracer);
    ctx.out.recover_ms.push_back(1e3 * r.seconds);
    if (r.outcome.replan_adopted) ++ctx.out.recover_adopted;
    // A throttle whose transition transiently overshoots a redline is not
    // "safe", yet recover() still answers with a plan (usually the adopted
    // re-plan); that is a documented model outcome, counted through
    // core.recover_safe / core.recover_adopted. The operation fails only
    // when the plan in force does not verify on the degraded park.
    ++ctx.out.attempted;
    if (r.outcome.safe) ++ctx.out.recover_safe;
    bool ok = r.outcome.plan.feasible;
    if (ok) {
      const ScopedSpan span(ctx.out.tracer, "core.verify");
      ok = core::verify_assignment(r.degraded, park.model, r.outcome.plan).ok();
    }
    if (!ok) {
      ++ctx.out.failed;
      ctx.out.errors.push_back(std::string("recover(") +
                               sim::fault_kind_name(event.kind) +
                               ") left no verified plan: " +
                               r.outcome.status.to_string());
    }
    ctx.out.recovered_rewards.push_back(r.outcome.plan.reward_rate);
  }

  // Fault-injected DES, shaped like scenarios/diurnal-crac-degrade-60.tapo
  // at 150 nodes: node failures with repairs, a CRAC derate, a power cap.
  sim::FaultInjectionConfig storm;
  storm.seed = kRecoverStormSeed;
  storm.horizon_s = 100.0;
  storm.node_failures = 4;
  storm.node_repair_after_s = 30.0;
  storm.crac_derates = 1;
  storm.crac_capacity_fraction = 0.5;
  storm.crac_repair_after_s = 60.0;
  storm.power_cap_fraction = 0.9;
  sim::FaultSimOptions fault_options;
  fault_options.sim.duration_seconds = 120.0;
  fault_options.sim.warmup_seconds = 12.0;
  fault_options.sim.seed = ctx.args.seed;
  fault_options.sim.threads = 1;
  fault_options.sim.telemetry = ctx.reg;
  fault_options.recovery = options;
  core::ReplannerOptions replan;
  replan.cadence_s = 25.0;
  replan.tracking_error_threshold = 0.4;
  replan.telemetry = ctx.reg;
  fault_options.replan = replan;
  sim::RateTraceGenConfig trace_config;
  trace_config.kind = sim::RateTraceGenConfig::Kind::kDiurnal;
  trace_config.amplitude = 0.6;
  trace_config.segments = 16;
  trace_config.seed = kRecoverStormSeed;
  trace_config.horizon_s = fault_options.sim.duration_seconds;

  const double rss_before = peak_rss_mb();
  const int span = ctx.out.tracer.open("sim.fault_run");
  const Clock::time_point start = Clock::now();
  const sim::FaultSchedule schedule = sim::generate_fault_schedule(dc, storm);
  const sim::RateTrace trace = sim::generate_rate_trace(dc.task_types, trace_config);
  fault_options.sim.rate_trace = &trace;
  const sim::FaultSimResult result =
      sim::simulate_with_faults(dc, park.model, healthy, schedule, fault_options);
  const double seconds = perfbench::seconds_between(start, Clock::now());
  ctx.out.tracer.close(span);
  ctx.out.rss_growth_mb += peak_rss_mb() - rss_before;
  if (!result.status.ok()) {
    ++ctx.out.attempted;
    ++ctx.out.failed;
    ctx.out.errors.push_back("simulate_with_faults failed: " +
                             result.status.to_string());
    return;
  }
  record_sim(ctx.out, "simulate_with_faults", result.sim, seconds);
  ctx.out.replans_adopted += result.replans_adopted;
  ctx.out.horizon_steps += result.horizon_steps;
}

// The three Figure-6 simulation sets (static power share, Vprop).
struct Fig6Set {
  double static_fraction;
  double v_prop;
};
constexpr Fig6Set kFig6Sets[] = {{0.30, 0.1}, {0.30, 0.3}, {0.20, 0.3}};

// fig6-150: per set, one park planned at psi=25 and psi=50 plus the Eq. 21
// baseline, and a short DES of the better three-stage plan.
Prepared prepare_fig6(PassContext& ctx, bool plan) {
  Prepared p;
  for (std::size_t set = 0; set < std::size(kFig6Sets); ++set) {
    scenario::ScenarioConfig config;
    config.num_nodes = 150;
    config.num_cracs = 3;
    config.static_fraction = kFig6Sets[set].static_fraction;
    config.v_prop = kFig6Sets[set].v_prop;
    // bench/fig6_improvement.cpp's seed family: set s, run r -> 1000s + r.
    config.seed = 1000 * (set + 1) + ctx.park_seed;
    p.parks.push_back(perfbench::build_park(config, 1.0, ctx.out.tracer));
  }
  if (plan) {
    for (const auto& park : p.parks) {  // plans[2s] psi=25, plans[2s+1] psi=50
      for (const double psi : {25.0, 50.0}) {
        p.plans.push_back(timed_plan(ctx, *park, plan_options(psi, 1, ctx.reg)));
      }
    }
  }
  return p;
}

void operate_fig6(PassContext& ctx, const Prepared& p) {
  for (std::size_t set = 0; set < p.parks.size(); ++set) {
    const perfbench::Park& park = *p.parks[set];
    core::BaselineOptions baseline_options;
    baseline_options.grid.threads = 1;
    core::Assignment baseline;
    {
      const ScopedSpan span(ctx.out.tracer, "core.baseline");
      baseline = core::BaselineAssigner(park.scenario.dc, park.model)
                     .assign(baseline_options);
    }
    check_plan(ctx.out, "baseline", park.scenario.dc, park.model, baseline);
    ctx.out.baseline_rewards.push_back(baseline.reward_rate);

    const core::Assignment& a25 = p.plans[2 * set];
    const core::Assignment& a50 = p.plans[2 * set + 1];
    sim::SimOptions sim;
    sim.duration_seconds = 60.0;
    sim.warmup_seconds = 6.0;
    sim.seed = ctx.args.seed + set;
    timed_simulate(ctx, park.scenario.dc,
                   a50.reward_rate >= a25.reward_rate ? a50 : a25, sim);
  }
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"plan-500", 1, 2, prepare_plan500, operate_plan500},
      {"route-storm-300", 1, 3, prepare_route_storm, operate_route_storm},
      {"recover-150", 1, 4, prepare_recover, operate_recover},
      {"fig6-150", 0, 5, prepare_fig6, operate_fig6},
  };
  return all;
}

double setup_seconds(const Tracer& tracer) {
  return tracer.total("scenario.generate") + tracer.total("thermal.heatflow");
}

// Per-layer metrics read from a traced pass's Registry.
void read_registry(const util::telemetry::Registry& reg, PassResult& out) {
  const auto timer = [&reg](const char* name) { return reg.timer_stats(name); };
  const auto counter = [&reg](const char* name) {
    return static_cast<double>(reg.counter_value(name));
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  auto& m = out.layer;
  m["solver.factorize_s"] = timer("lp.phase.factorize").total_seconds;
  m["solver.refactorizations"] = static_cast<double>(timer("lp.phase.factorize").count);
  m["solver.price_s"] = timer("lp.phase.price").total_seconds;
  m["solver.ftran_s"] = timer("lp.phase.ftran").total_seconds;
  m["solver.update_s"] = timer("lp.phase.update").total_seconds;
  m["solver.dual_iterations"] = counter("lp.dual_iterations");
  // Session builds run standardize inside them; count it once.
  const util::telemetry::TimerStats session = timer("lp.session.build");
  const util::telemetry::TimerStats standardize = timer("lp.phase.standardize");
  const double outside_sessions =
      standardize.count > session.count
          ? standardize.total_seconds *
                static_cast<double>(standardize.count - session.count) /
                static_cast<double>(standardize.count)
          : 0.0;
  m["solver.build_s"] =
      timer("lp.phase.build").total_seconds + session.total_seconds + outside_sessions;
  m["solver.session_builds"] = static_cast<double>(session.count);
  m["solver.lp_solves"] = counter("lp.solves");
  m["solver.lp_iterations"] = counter("lp.iterations");
  m["solver.warm_hit_ratio"] = ratio(counter("lp.warm_starts"), counter("lp.solves"));
  m["solver.resident_resume_ratio"] =
      ratio(counter("lp.session.resident_resumes"), counter("lp.session.solves"));
  m["core.throttle_s"] = timer("recovery.throttle").total_seconds;
  m["core.replan_s"] = timer("recovery.replan").total_seconds;
  const double routes =
      counter("scheduler.routes_indexed") + counter("scheduler.routes_scan");
  m["sim.routes"] = routes;
  m["sim.index_pops_per_route"] = ratio(counter("scheduler.index_pops"), routes);
  m["solver.phase_sum_s"] = m["solver.factorize_s"] + m["solver.price_s"] +
                            m["solver.ftran_s"] + m["solver.update_s"] +
                            m["solver.build_s"];
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--holdout") {
      args.holdout = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !value.empty() && value[0] != '-';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end && *end == '\0' && args.seconds > 0.0 && args.seconds <= 600.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || !have_seed || !have_seconds) return std::nullopt;
  return args;
}

void put(std::string& json, const std::string& name, double value,
         const char* unit) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  if (json.back() != '{') json += ",";
  json += "\"" + name + "\":{\"value\":" + buf + ",\"unit\":\"" + unit + "\"}";
}

// Every value of `v` equals the first bit for bit.
bool all_equal(const std::vector<std::vector<double>>& runs) {
  for (const auto& r : runs) {
    if (r != runs.front()) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = parse_args(argc, argv);
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: tapo_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--holdout]\n");
    return 2;
  }
  const Args& args = *parsed;
  const Workload* workload = nullptr;
  for (const Workload& w : workloads()) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::uint64_t park_seed =
      args.holdout ? workload->holdout_seed : workload->park_seed;

  const double probe_start = host_probe_seconds();
  std::vector<PassResult> passes;
  std::vector<PassResult> extras;  // extra set-up / plan samples (untraced)
  std::vector<double> setup_samples;
  std::vector<double> plan_samples;
  double rss_growth_mb = 0.0;  // first pass only: later passes reuse its heap
  const Clock::time_point run_start = Clock::now();
  // At least two passes, so every deterministic output is seen twice.
  while (passes.size() < 2 ||
         perfbench::seconds_between(run_start, Clock::now()) < args.seconds) {
    passes.emplace_back();
    PassResult& pass = passes.back();
    pass.traced = args.trace && passes.size() % 2 == 0;
    std::optional<util::telemetry::Registry> reg;
    if (pass.traced) reg.emplace();
    PassContext ctx{args, park_seed, reg ? &*reg : nullptr, pass};
    const Clock::time_point start = Clock::now();
    workload->operate(ctx, workload->prepare(ctx, true));
    pass.total_s = perfbench::seconds_between(start, Clock::now());
    if (passes.size() == 1) rss_growth_mb = pass.rss_growth_mb;
    std::fprintf(stderr, "pass %zu%s: total %.4f s, plan %.4f s, sim %.4f s\n",
                 passes.size(), pass.traced ? " (traced)" : "", pass.total_s,
                 pass.plan_s, pass.sim_s);
    if (reg) read_registry(*reg, pass);
    if (args.trace) continue;  // traced runs report no set-up or plan time

    // More set-up and plan samples, outside the pass's total_s, until the
    // pass holds enough of each that neither rests on a few milliseconds.
    setup_samples.push_back(setup_seconds(pass.tracer));
    plan_samples.push_back(pass.plan_s);
    double setup_sampled = setup_samples.back();
    double plan_sampled = plan_samples.back();
    while ((setup_sampled < kSetupSampleSeconds || plan_sampled < kPlanSampleSeconds) &&
           extras.size() < kMaxExtraSamples * passes.size()) {
      extras.emplace_back();
      PassResult& extra = extras.back();
      PassContext extra_ctx{args, park_seed, nullptr, extra};
      const bool plan = plan_sampled < kPlanSampleSeconds;
      workload->prepare(extra_ctx, plan);
      setup_samples.push_back(setup_seconds(extra.tracer));
      setup_sampled += setup_samples.back();
      if (plan) {
        plan_samples.push_back(extra.plan_s);
        plan_sampled += extra.plan_s;
      }
    }
  }
  const double probe_end = host_probe_seconds();

  // ---- Correctness: every operation ok, deterministic outputs repeat.
  bool correct = true;
  std::size_t attempted = 0, failed = 0;
  for (const auto* set : {&passes, &extras}) {
    for (const PassResult& pass : *set) {
      attempted += pass.attempted;
      failed += pass.failed;
      for (const std::string& e : pass.errors) std::fprintf(stderr, "error: %s\n", e.c_str());
    }
  }
  const auto collect = [&passes](std::vector<double> PassResult::*field) {
    std::vector<std::vector<double>> runs;
    for (const PassResult& pass : passes) runs.push_back(pass.*field);
    return runs;
  };
  std::vector<std::vector<double>> plan_rewards = collect(&PassResult::plan_rewards);
  for (const PassResult& extra : extras) {
    if (!extra.plan_rewards.empty()) plan_rewards.push_back(extra.plan_rewards);
  }
  if (!all_equal(plan_rewards) || !all_equal(collect(&PassResult::baseline_rewards)) ||
      !all_equal(collect(&PassResult::recovered_rewards)) ||
      !all_equal(collect(&PassResult::sim_rewards))) {
    std::fprintf(stderr, "error: a deterministic reward differs between passes\n");
    correct = false;
  }
  if (failed > 0) correct = false;

  const PassResult& first = passes.front();
  std::vector<const PassResult*> measured;  // untraced passes
  std::vector<const PassResult*> traced;
  for (const PassResult& pass : passes) {
    (pass.traced ? traced : measured).push_back(&pass);
  }
  const auto med = [](const std::vector<const PassResult*>& set,
                      const std::function<double(const PassResult&)>& f) {
    std::vector<double> v;
    for (const PassResult* p : set) v.push_back(f(*p));
    return median(v);
  };

  std::string metrics = "{";
  if (!args.trace) {
    put(metrics, "setup_s", median(setup_samples), "s");
    put(metrics, "plan_s", median(plan_samples), "s");
    put(metrics, "total_s", med(measured, [](const PassResult& p) { return p.total_s; }), "s");
    put(metrics, "plan_reward_rate", mean(first.plan_rewards), "reward/s");
    put(metrics, "sim_reward_rate", mean(first.sim_rewards), "reward/s");
    put(metrics, "peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    const auto tmed = [&](const std::function<double(const PassResult&)>& f) {
      return med(traced, f);
    };
    const auto span = [&](const char* name) {
      return tmed([name](const PassResult& p) { return p.tracer.total(name); });
    };
    put(metrics, "scenario.generate_s", span("scenario.generate"), "s");
    put(metrics, "thermal.heatflow_s", span("thermal.heatflow"), "s");
    put(metrics, "core.stage1_s", span("core.stage1"), "s");
    put(metrics, "core.stage1_cpu_s",
        tmed([](const PassResult& p) { return p.stage1_cpu_s; }), "s");
    put(metrics, "core.stage1_parallelism",
        tmed([](const PassResult& p) {
          const double wall = p.tracer.total("core.stage1");
          return wall > 0.0 ? p.stage1_cpu_s / wall : 0.0;
        }),
        "ratio");
    put(metrics, "core.stage2_s", span("core.stage2"), "s");
    put(metrics, "core.stage3_s", span("core.stage3"), "s");
    put(metrics, "core.finalize_s", span("core.finalize"), "s");
    put(metrics, "core.verify_s", span("core.verify"), "s");
    put(metrics, "core.baseline_s", span("core.baseline"), "s");
    // Registry-derived layers: name and unit.
    const std::pair<const char*, const char*> registry_layers[] = {
        {"solver.factorize_s", "s"},        {"solver.refactorizations", "count"},
        {"solver.price_s", "s"},            {"solver.ftran_s", "s"},
        {"solver.update_s", "s"},           {"solver.dual_iterations", "count"},
        {"solver.build_s", "s"},            {"solver.session_builds", "count"},
        {"solver.lp_solves", "count"},      {"solver.lp_iterations", "count"},
        {"solver.warm_hit_ratio", "ratio"}, {"solver.resident_resume_ratio", "ratio"},
        {"core.throttle_s", "s"},           {"core.replan_s", "s"},
        {"sim.routes", "count"},            {"sim.index_pops_per_route", "ratio"},
    };
    for (const auto& [name, unit] : registry_layers) {
      const std::string key = name;
      put(metrics, key, tmed([&key](const PassResult& p) { return p.layer.at(key); }),
          unit);
    }
    std::vector<double> recover_ms;
    for (const PassResult* p : traced) {
      recover_ms.insert(recover_ms.end(), p->recover_ms.begin(), p->recover_ms.end());
    }
    put(metrics, "core.recover_ms", median(recover_ms), "ms");
    put(metrics, "core.recover_p75_ms", percentile(recover_ms, 0.75), "ms");
    put(metrics, "core.recover_adopted",
        tmed([](const PassResult& p) { return static_cast<double>(p.recover_adopted); }),
        "count");
    put(metrics, "core.recover_safe",
        tmed([](const PassResult& p) { return static_cast<double>(p.recover_safe); }),
        "count");
    put(metrics, "core.recovered_reward_rate", mean(first.recovered_rewards), "reward/s");
    put(metrics, "core.baseline_reward_rate", mean(first.baseline_rewards), "reward/s");
    put(metrics, "sim.run_s", span("sim.run"), "s");
    put(metrics, "sim.fault_run_s", span("sim.fault_run"), "s");
    put(metrics, "sim.arrivals", tmed([](const PassResult& p) { return p.sim_arrivals; }),
        "count");
    put(metrics, "sim.arrivals_per_s",
        tmed([](const PassResult& p) {
          return p.sim_s > 0.0 ? p.sim_arrivals / p.sim_s : 0.0;
        }),
        "arrivals/s");
    put(metrics, "sim.rss_growth_mb", rss_growth_mb, "MB");
    put(metrics, "sim.drop_fraction",
        tmed([](const PassResult& p) {
          return p.sim_arrivals > 0.0 ? p.sim_dropped / p.sim_arrivals : 0.0;
        }),
        "ratio");
    put(metrics, "sim.replans_adopted",
        tmed([](const PassResult& p) { return static_cast<double>(p.replans_adopted); }),
        "count");
    put(metrics, "sim.horizon_steps",
        tmed([](const PassResult& p) { return static_cast<double>(p.horizon_steps); }),
        "count");
    put(metrics, "host.probe_s", 0.5 * (probe_start + probe_end), "s");
    const double traced_total = tmed([](const PassResult& p) { return p.total_s; });
    const double untraced_total = med(measured, [](const PassResult& p) { return p.total_s; });
    put(metrics, "trace.overhead_s", traced_total - untraced_total, "s");
    const double coverage = tmed([](const PassResult& p) {
      return p.tracer.top_level_total() / p.total_s;
    });
    put(metrics, "trace.coverage", coverage, "ratio");
    if (coverage < 0.95) {
      std::fprintf(stderr, "error: top-level spans cover %.3f of total_s (< 0.95)\n",
                   coverage);
      correct = false;
    }
    // The LP phase timers also run in the solves stage1.lp does not wrap
    // (cross-round reseeds, recovery and Stage-3 LPs), so their share is
    // taken of Stage-1 CPU time: both are summed over sweep workers.
    const double lp_coverage = tmed([](const PassResult& p) {
      return p.stage1_cpu_s > 0.0 ? p.layer.at("solver.phase_sum_s") / p.stage1_cpu_s
                                  : 0.0;
    });
    put(metrics, "trace.lp_coverage", lp_coverage, "ratio");
    if (args.workload == "plan-500" && lp_coverage < 0.90) {
      std::fprintf(stderr,
                   "error: LP phase timers cover %.3f of Stage-1 CPU time (< 0.90)\n",
                   lp_coverage);
      correct = false;
    }
  }
  metrics += "}";

  std::fprintf(stderr,
               "%s seed=%llu passes=%zu host.probe start=%.4fs end=%.4fs\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               passes.size(), probe_start, probe_end);
  char head[256];
  std::snprintf(head, sizeof head,
                "{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,"
                "\"park_seed\":%llu,\"checks\":{\"plan_reward_rate\":%.17g,"
                "\"baseline_reward_rate\":%.17g},\"metrics\":",
                correct ? "true" : "false", attempted, failed,
                static_cast<unsigned long long>(park_seed),
                mean(first.plan_rewards), mean(first.baseline_rewards));
  std::printf("%s%s}\n", head, metrics.c_str());
  return 0;
}
