// Plan-path fidelity: the benchmark's timed call sequences must produce what
// the library's own entry points produce, so the per-layer spans measure the
// program users run.
//
//   * staged_plan (Stage 1 -> 2 -> 3 -> finalize, with the benchmark's
//     explicit worker counts and a telemetry Registry attached) must return
//     an Assignment bit-identical to ThreeStageAssigner::assign with default
//     options;
//   * timed_recover (fresh park copy, apply_fault, recover() with the
//     benchmark's options) must match RecoveryController::recover with
//     default options on the same fault: same safety and adoption outcome,
//     same status code, bit-identical throttle and plan.
//
// Exits 0 when every check holds and 1 when any diverges.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/assigner.h"
#include "core/recovery.h"
#include "harness.h"
#include "sim/faults.h"
#include "util/telemetry.h"

namespace {

using namespace tapo;

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_bits(const solver::Matrix& a, const solver::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    if (std::memcmp(a.row(r), b.row(r), a.cols() * sizeof(double)) != 0) return false;
  }
  return true;
}

// Bitwise equality of every published field, including the Stage-1 basis;
// `why` names the first field that differs.
bool same_assignment(const core::Assignment& a, const core::Assignment& b,
                     std::string* why) {
  const auto differ = [why](const char* field) {
    if (why) *why = field;
    return false;
  };
  if (a.feasible != b.feasible) return differ("feasible");
  if (a.status.code() != b.status.code()) return differ("status");
  if (a.technique != b.technique) return differ("technique");
  if (!same_bits(a.crac_out_c, b.crac_out_c)) return differ("crac_out_c");
  if (a.core_pstate != b.core_pstate) return differ("core_pstate");
  if (!same_bits(a.tc, b.tc)) return differ("tc");
  if (!same_bits(a.reward_rate, b.reward_rate)) return differ("reward_rate");
  if (!same_bits(a.compute_power_kw, b.compute_power_kw)) return differ("compute_power_kw");
  if (!same_bits(a.crac_power_kw, b.crac_power_kw)) return differ("crac_power_kw");
  if (!same_bits(a.temps.crac_in, b.temps.crac_in) ||
      !same_bits(a.temps.crac_out, b.temps.crac_out) ||
      !same_bits(a.temps.node_in, b.temps.node_in) ||
      !same_bits(a.temps.node_out, b.temps.node_out)) {
    return differ("temps");
  }
  if (!same_bits(a.stage1_objective, b.stage1_objective)) return differ("stage1_objective");
  if (a.lp_solves != b.lp_solves) return differ("lp_solves");
  if (a.stage1_basis.status != b.stage1_basis.status) return differ("stage1_basis");
  return true;
}

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "fidelity: %s\n", what.c_str());
  }
}

void check_plan_path(const perfbench::Park& park, double psi, std::size_t workers) {
  const dc::DataCenter& dc = park.scenario.dc;
  core::ThreeStageOptions reference_options;
  reference_options.stage1.psi = psi;
  const core::Assignment reference =
      core::ThreeStageAssigner(dc, park.model).assign(reference_options);

  for (const bool traced : {false, true}) {
    util::telemetry::Registry reg;
    core::ThreeStageOptions options;
    options.stage1.psi = psi;
    options.stage1.threads = workers;
    options.stage1.telemetry = traced ? &reg : nullptr;
    perfbench::Tracer tracer;
    const core::Assignment staged =
        perfbench::staged_plan(dc, park.model, options, tracer);
    std::string why;
    expect(same_assignment(staged, reference, &why),
           "staged plan (psi=" + std::to_string(psi) + ", workers=" +
               std::to_string(workers) + (traced ? ", traced" : "") +
               ") differs from ThreeStageAssigner::assign in " + why);
    expect(tracer.total("core.stage1") > 0.0 && tracer.total("core.finalize") > 0.0,
           "staged plan recorded no stage spans");
  }
  expect(reference.feasible, "reference plan is infeasible");
}

void check_recovery_path(const perfbench::Park& park) {
  const dc::DataCenter& dc = park.scenario.dc;
  const core::Assignment healthy = core::ThreeStageAssigner(dc, park.model).assign();
  expect(healthy.feasible, "healthy plan is infeasible");

  util::telemetry::Registry reg;
  core::RecoveryOptions bench_options;
  bench_options.assign.stage1.threads = 1;
  bench_options.assign.stage1.telemetry = &reg;
  bench_options.telemetry = &reg;
  const core::RecoveryOptions reference_options;

  // One fault of each kind, as the recover-150 sequence cycles them.
  for (const sim::FaultEvent& event : perfbench::fault_sequence(dc, 11, 3)) {
    perfbench::Tracer tracer;
    const perfbench::TimedRecovery timed = perfbench::timed_recover(
        dc, park.model, healthy, event, bench_options, tracer);

    dc::DataCenter degraded = dc;
    sim::apply_fault(degraded, event, reference_options.assign.stage1.tcrac_min_c,
                     reference_options.assign.stage1.tcrac_max_c);
    const core::RecoveryOutcome reference =
        core::RecoveryController(degraded, park.model, reference_options)
            .recover(healthy);

    const std::string kind = sim::fault_kind_name(event.kind);
    const core::RecoveryOutcome& got = timed.outcome;
    expect(got.safe == reference.safe, kind + ": safe differs");
    expect(got.replan_adopted == reference.replan_adopted,
           kind + ": replan_adopted differs");
    expect(got.status.code() == reference.status.code(), kind + ": status differs");
    std::string why;
    expect(same_assignment(got.throttle, reference.throttle, &why),
           kind + ": throttle differs in " + why);
    expect(same_assignment(got.plan, reference.plan, &why),
           kind + ": plan differs in " + why);
    expect(timed.seconds > 0.0 && tracer.total("core.recover") == timed.seconds,
           kind + ": recovery span does not match the reported latency");
  }
}

}  // namespace

int main() {
  scenario::ScenarioConfig config;
  config.num_nodes = 40;
  config.num_cracs = 2;
  config.seed = 7;
  perfbench::Tracer setup;
  const auto park = perfbench::build_park(config, 1.0, setup);

  check_plan_path(*park, 50.0, 2);
  check_plan_path(*park, 25.0, 1);
  check_recovery_path(*park);

  if (failures > 0) {
    std::fprintf(stderr, "fidelity: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("fidelity: staged plan and recovery paths match the library\n");
  return 0;
}
