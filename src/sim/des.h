// End-to-end online simulation: Poisson arrivals -> dynamic scheduler ->
// per-core FIFO execution -> reward accounting.
//
// This realizes the paper's second-step loop (Figure 2): tasks stream into
// the data center; the dynamic scheduler routes each to a core (or drops
// it); cores execute their queue in order at the speed set by their P-state;
// a task completing by its deadline earns its type's reward. The collected
// reward rate is the measurable counterpart of the first step's predicted
// steady-state reward rate.
//
// Arrivals are admitted in batches: a per-type next-arrival calendar drains
// every arrival strictly before the next calendar event (sampler, fault,
// re-plan) in one tight loop. Completions never touch the calendar: a task's
// finish time is fixed at admission, so it waits on its core's FIFO and is
// booked once the clock passes it. simulate, its shards, simulate_with_faults
// and simulate_trace (sim/trace.h) share this one admission path.
// SimOptions::threads additionally shards the whole simulation by connected
// components of the candidate structure. docs/SCHEDULER.md describes both
// and the determinism contract they keep.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/assigner.h"
#include "core/recovery.h"
#include "core/replanner.h"
#include "core/scheduler.h"
#include "dc/datacenter.h"
#include "sim/arrivals.h"
#include "sim/engine.h"
#include "sim/faults.h"
#include "util/rng.h"
#include "util/status.h"

namespace tapo::util::telemetry {
class Registry;
}

namespace tapo::sim {

struct SimOptions {
  double duration_seconds = 100.0;
  // Warm-up interval excluded from the reported metrics (the queue and ATC
  // state need a few deadlines' worth of time to reach steady state).
  double warmup_seconds = 0.0;
  core::SchedulerOptions scheduler;
  std::uint64_t seed = 1;
  // Worker threads for the component-sharded simulation (docs/SCHEDULER.md
  // §4): task types are partitioned into connected components of shared
  // candidate cores; each component runs as an independent sub-simulation
  // (own event calendar, own arrival substreams, own scheduler shard) and
  // the results merge deterministically. 1 (default) runs the serial
  // reference loop; 0 uses every hardware thread. SimResult is bit-identical
  // for any thread count, but mid-run telemetry series and per-decision
  // event records are only recorded by the serial loop (shards cannot
  // observe cross-shard state mid-run without synchronizing).
  std::size_t threads = 1;
  // Optional metrics sink (sim.* / scheduler.* in docs/OBSERVABILITY.md):
  // end-of-run counters (calendar events processed, drops, deadline misses)
  // plus ATC/TC tracking-error and queue-depth series sampled at
  // `telemetry_samples` evenly spaced simulated times. The sampling hooks
  // are inert observers — SimResult is identical with telemetry on or off.
  // Also forwarded to the scheduler when scheduler.telemetry is unset.
  util::telemetry::Registry* telemetry = nullptr;
  std::size_t telemetry_samples = 32;

  // Optional piecewise-constant rate trace ("tapo-traces v1", arrivals.h)
  // driving time-varying arrivals instead of the task types' stationary
  // rates. Non-owning; must outlive the run and cover exactly the data
  // center's task types. Sampling is exact per-segment rate swapping, so a
  // mid-trace rate of 0 silences the type with no stale pre-drawn arrivals.
  const RateTrace* rate_trace = nullptr;

  // Rejects degenerate configurations (non-positive or non-finite duration,
  // warm-up at or past the horizon, invalid rate trace) so simulate() can
  // report instead of aborting.
  util::Status validate() const;
};

struct PerTypeMetrics {
  // Admission-side counters (events inside the measured window).
  std::size_t arrived = 0;
  std::size_t assigned = 0;
  std::size_t dropped = 0;
  // Completion-side counters: tasks whose *finish time* falls inside the
  // measured window. Reward is booked here, at completion - so a policy
  // cannot inflate its score by admitting more queued work than the window
  // can execute.
  std::size_t completed_in_time = 0;
  std::size_t completed_late = 0;  // admitted but finished past the deadline
  double reward = 0.0;
  double desired_rate = 0.0;  // sum_k TC(i, k)
};

struct SimResult {
  // Non-ok (with every metric zero) when the options are degenerate or the
  // assignment is infeasible; simulate() never aborts on operator input.
  util::Status status;
  double measured_seconds = 0.0;
  double total_reward = 0.0;
  double reward_rate = 0.0;
  std::vector<PerTypeMetrics> per_type;
  // TC-weighted relative L1 deviation of realized from desired rates:
  // sum |ATC - TC| / sum TC over (type, core) pairs with TC > 0, sampled at
  // the end of the run. 0 = perfect tracking; roughly the drop fraction for
  // an oversubscribed system.
  double mean_tracking_error = 0.0;

  // Electrical energy over the measured window (power is P-state-determined
  // and utilization-independent in the paper's model, so this is the
  // assignment's steady-state draw integrated over time) and the reward
  // earned per kWh - the efficiency metric the EPA-report motivation implies.
  double energy_kwh = 0.0;
  double reward_per_kwh = 0.0;

  double drop_fraction() const;
};

// Runs the online simulation of an Assignment on its data center.
SimResult simulate(const dc::DataCenter& dc, const core::Assignment& assignment,
                   const SimOptions& options = {});

// --- Fault-injected simulation -------------------------------------------

// What happens to tasks running or queued on a node when it fails.
enum class InFlightPolicy {
  kDrop,     // killed tasks count as drops
  kRequeue,  // re-routed through the post-fault plan, original deadline kept
};

struct FaultSimOptions {
  SimOptions sim;
  // Two-phase recovery configuration; the throttle takes effect at the
  // fault instant, the re-plan (if adopted) recovery.replan_delay_s later.
  core::RecoveryOptions recovery;
  InFlightPolicy in_flight = InFlightPolicy::kRequeue;
  // Receding-horizon re-planning (core/replanner.h): when set, a
  // RollingPlanner re-solves the rate LP on the configured cadence and on
  // tracking-error triggers, adopting verified plans through the same
  // generation-guarded protocol as fault recovery (a fault arriving while a
  // horizon adoption is in flight supersedes it). Degraded steps walk the
  // docs/RESILIENCE.md ladder and never abort the run. Adopted horizon
  // plans take effect recovery.replan_delay_s after their trigger.
  std::optional<core::ReplannerOptions> replan;
};

// Per-injected-fault accounting.
struct FaultRecord {
  FaultEvent event;
  util::Status recovery_status;  // why a re-plan was rejected, if it was
  bool safe = false;             // throttle reached a safe operating point
  bool replan_adopted = false;
  double throttle_reward_rate = 0.0;
  double replan_reward_rate = 0.0;
  std::size_t tasks_killed = 0;    // in-flight/queued on failed cores
  std::size_t tasks_requeued = 0;  // successfully re-routed (kRequeue only)
};

struct FaultSimResult {
  // Non-ok when the schedule fails validation or the options are degenerate;
  // the run is then not performed.
  util::Status status;
  SimResult sim;
  std::vector<FaultRecord> faults;
  std::size_t replans_adopted = 0;

  // Receding-horizon accounting (zero unless FaultSimOptions::replan is
  // set). A step is one trigger firing; it either schedules an adoption or
  // degrades (held plan or safety throttle) with bounded-backoff retry.
  std::size_t horizon_steps = 0;
  std::size_t horizon_adoptions = 0;   // verified plans scheduled for adoption
  std::size_t horizon_degraded = 0;    // steps that walked the ladder
  std::size_t horizon_throttles = 0;   // degraded steps that needed the throttle
  double horizon_degraded_time_s = 0.0;  // time spent below the adopted rung
};

// Online simulation with the fault schedule injected as first-class DES
// events. At each fault: the degraded-mode state mutates, in-flight work on
// lost cores is killed (dropped or requeued per policy), the safety throttle
// becomes the active plan immediately and the phase-2 re-plan is adopted
// recovery.replan_delay_s later unless a newer fault supersedes it. Energy
// is integrated piecewise over the active plans. `dc` is mutated during the
// run (degraded-mode state, p_const_kw) and restored on return.
FaultSimResult simulate_with_faults(dc::DataCenter& dc,
                                    const thermal::HeatFlowModel& model,
                                    const core::Assignment& initial,
                                    const FaultSchedule& schedule,
                                    const FaultSimOptions& options = {});

}  // namespace tapo::sim
