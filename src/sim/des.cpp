#include "sim/des.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "sim/trace.h"
#include "util/check.h"
#include "util/telemetry.h"
#include "util/threadpool.h"

namespace tapo::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// TC-weighted relative L1 deviation of realized from desired rates (the
// SimResult::mean_tracking_error definition). `atc(i, k)` reads the realized
// rate of type i on core k from whichever scheduler (or shard) routed i.
template <typename Atc>
double tracking_error(const dc::DataCenter& dc, const core::Assignment& plan,
                      const Atc& atc) {
  double err_sum = 0.0;
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < dc.num_task_types(); ++i) {
    for (std::size_t k = 0; k < dc.total_cores(); ++k) {
      const double tc = plan.tc(i, k);
      if (tc <= 0.0) continue;
      err_sum += std::fabs(atc(i, k) - tc);
      weight_sum += tc;
    }
  }
  return weight_sum > 0.0 ? err_sum / weight_sum : 0.0;
}

// Deepest per-core backlog (seconds of admitted-but-unfinished work) at time
// `now`, normalized by the longest relative deadline in the workload. With
// the admission check on this can never exceed 1.0 — a task is only admitted
// if it finishes inside its own deadline, which caps every core's queue at
// the slowest type's deadline. Values climbing past 1.0 therefore mean
// unguarded admission is stacking work faster than the park executes it,
// which is the runaway the soak anomaly pass watches for.
double backlog_depth(const dc::DataCenter& dc,
                     const std::vector<double>& core_free_time, double now) {
  double deepest = 0.0;
  for (const double free_at : core_free_time) {
    if (free_at - now > deepest) deepest = free_at - now;
  }
  double max_deadline = 0.0;
  for (const auto& type : dc.task_types) {
    if (type.relative_deadline > max_deadline) {
      max_deadline = type.relative_deadline;
    }
  }
  return max_deadline > 0.0 ? deepest / max_deadline : 0.0;
}

// Next-arrival source for batched admission: per-type renewal streams drawn
// lazily (one interarrival per processed arrival, none past the horizon), or
// a recorded Trace replayed in stored order. peek() is an O(owned types)
// min-scan; with the paper-scale handful of task types that beats a heap.
class ArrivalPump {
 public:
  ArrivalPump(const std::vector<dc::TaskType>& task_types, util::Rng rng,
              double horizon, const std::vector<std::size_t>* types = nullptr,
              const RateTrace* trace = nullptr)
      : arrivals_(std::in_place, task_types, std::move(rng), trace),
        horizon_(horizon) {
    next_.assign(task_types.size(), kInf);
    if (types) {
      owned_ = *types;
    } else {
      owned_.resize(task_types.size());
      std::iota(owned_.begin(), owned_.end(), 0);
    }
    for (std::size_t i : owned_) {
      const double t = arrivals_->next_arrival_after(i, 0.0);
      if (t <= horizon_) next_[i] = t;
    }
  }

  // Replay: the pump stops at the first event past the horizon.
  ArrivalPump(const Trace& replay, double horizon)
      : replay_(&replay), horizon_(horizon) {}

  // Earliest pending arrival; false when every stream is drained. Exact-time
  // ties resolve to the lowest task type id (live) or trace order (replay).
  bool peek(double& time, std::size_t& type) const {
    if (replay_) {
      if (cursor_ == replay_->size()) return false;
      time = (*replay_)[cursor_].time;
      type = (*replay_)[cursor_].task_type;
      return time <= horizon_;
    }
    time = kInf;
    for (std::size_t i : owned_) {
      if (next_[i] < time) {
        time = next_[i];
        type = i;
      }
    }
    return time <= horizon_;
  }

  // Consumes the arrival of `type` at time `now` and draws its successor.
  void advance(std::size_t type, double now) {
    if (replay_) {
      ++cursor_;
      return;
    }
    const double t = arrivals_->next_arrival_after(type, now);
    next_[type] = t <= horizon_ ? t : kInf;
  }

 private:
  std::optional<ArrivalProcess> arrivals_;  // live runs
  const Trace* replay_ = nullptr;           // replays
  std::size_t cursor_ = 0;
  std::vector<double> next_;
  std::vector<std::size_t> owned_;
  double horizon_;
};

// Run-wide counters published as sim.* / scheduler.* telemetry at end of run.
struct RunStats {
  core::RoutingStats routing;
  std::size_t events = 0;  // calendar events executed

  void add(const RunStats& o) {
    routing.indexed_routes += o.routing.indexed_routes;
    routing.scan_routes += o.routing.scan_routes;
    routing.index_pops += o.routing.index_pops;
    routing.index_deferred += o.routing.index_deferred;
    routing.index_stale_pops += o.routing.index_stale_pops;
    events += o.events;
  }
};

// The end-of-run step every entry point shares: SimResult, the conservation
// check and the end-of-run telemetry. `counter` counts the entry point's
// invocations (sim.runs, sim.fault_runs, sim.replays).
SimResult finalize(const SimOptions& options,
                   std::vector<PerTypeMetrics> per_type, double tracking_err,
                   double energy_kwh, const RunStats& stats,
                   util::telemetry::Registry* reg, const char* counter) {
  SimResult result;
  result.per_type = std::move(per_type);
  result.measured_seconds = options.duration_seconds - options.warmup_seconds;
  for (const PerTypeMetrics& m : result.per_type) {
    // A killed admission is reclassified as a drop, never lost.
    TAPO_CHECK(m.arrived == m.assigned + m.dropped);
    result.total_reward += m.reward;
  }
  result.reward_rate = result.total_reward / result.measured_seconds;
  result.mean_tracking_error = tracking_err;
  result.energy_kwh = energy_kwh;
  result.reward_per_kwh =
      result.energy_kwh > 0.0 ? result.total_reward / result.energy_kwh : 0.0;

  if (reg) {
    reg->count(counter);
    reg->count("sim.events_processed", stats.events);
    std::size_t arrived = 0, assigned = 0, dropped = 0, in_time = 0, late = 0;
    for (const PerTypeMetrics& m : result.per_type) {
      arrived += m.arrived;
      assigned += m.assigned;
      dropped += m.dropped;
      in_time += m.completed_in_time;
      late += m.completed_late;
    }
    reg->count("sim.arrivals", arrived);
    reg->count("scheduler.assigned", assigned);
    reg->count("scheduler.dropped", dropped);
    reg->count("scheduler.completed_in_time", in_time);
    reg->count("scheduler.deadline_misses", late);
    reg->gauge_set("scheduler.final_tracking_error",
                   result.mean_tracking_error);
    reg->gauge_set("sim.reward_rate", result.reward_rate);
    reg->gauge_set("sim.drop_fraction", result.drop_fraction());
    reg->gauge_set("sim.energy_kwh", result.energy_kwh);
    reg->count("scheduler.routes_indexed", stats.routing.indexed_routes);
    reg->count("scheduler.routes_scan", stats.routing.scan_routes);
    reg->count("scheduler.index_pops", stats.routing.index_pops);
    reg->count("scheduler.index_deferred", stats.routing.index_deferred);
    reg->count("scheduler.index_stale_pops", stats.routing.index_stale_pops);
  }
  return result;
}

// An admitted task on its core's FIFO. Cores run in order and a core's free
// time is set at admission, so `finish` is fixed once the task is queued.
struct Admitted {
  std::size_t type = 0;
  double start = 0.0;
  double deadline = 0.0;
  double finish = 0.0;
  bool counted = false;  // admission counted in the measured window
};

// A core's admitted tasks in finish order; those before `head` are retired.
// Their storage is reclaimed once they fill half of it (O(1) moves a task).
// The audit fields outlive a node failure's flush: `busy_s` is the retired
// tasks' run time inside the horizon, `last_finish` the latest retired
// finish, and `in_order` stays true while every retired task started no
// earlier than its FIFO predecessor finished.
struct CoreQueue {
  std::vector<Admitted> tasks;
  std::size_t head = 0;
  double busy_s = 0.0;
  double last_finish = 0.0;
  bool in_order = true;
};

// One run of the paper's second-step loop (or one shard of it). The calendar
// carries only samplers, faults and re-plan events. An admitted task waits on
// its core's FIFO until the clock passes its finish time and is booked then:
// at the next admission to that core, a sampler tick, a node failure or the
// end of the run. Booking adds a per-type constant, so the retirement order
// cannot change a bit of the result.
class Run {
 public:
  // `types` restricts the scheduler to one shard's task types.
  Run(const dc::DataCenter& dc, const core::Assignment& plan,
      const SimOptions& options, core::SchedulerOptions scheduler_options,
      const std::vector<std::size_t>* types = nullptr)
      : dc_(dc),
        horizon_(options.duration_seconds),
        warmup_(options.warmup_seconds),
        scheduler_options_(std::move(scheduler_options)),
        types_(types),
        core_free_time_(dc.total_cores(), 0.0),
        fifo_(dc.total_cores()) {
    per_type_.assign(dc.num_task_types(), {});
    for (std::size_t i = 0; i < dc.num_task_types(); ++i) {
      for (std::size_t k = 0; k < dc.total_cores(); ++k) {
        per_type_[i].desired_rate += plan.tc(i, k);
      }
    }
    install(plan);
  }
  // Calendar callbacks hold `this`.
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  Engine& engine() { return engine_; }
  const core::DynamicScheduler& scheduler() const { return *scheduler_; }
  const std::vector<PerTypeMetrics>& per_type() const { return per_type_; }
  double energy_kwh() const { return energy_kwh_; }

  double tracking_error(double now) const {
    return sim::tracking_error(dc_, *plan_, [&](std::size_t i, std::size_t k) {
      return scheduler_->atc(i, k, now);
    });
  }

  // Makes `plan` (which must outlive the run) the one in force from `now`.
  // The scheduler is rebuilt, resetting its ATC state: realized-rate history
  // against a retired plan is meaningless for the new rate matrix.
  void adopt(const core::Assignment& plan, double now) {
    integrate_to(now);
    retired_.add({scheduler_->stats(), 0});
    install(plan);
  }

  // Routes one arrival at `now` and counts its admission.
  void admit(std::size_t type, double now) {
    PerTypeMetrics& m = per_type_[type];
    const bool counted = now >= warmup_;
    if (counted) ++m.arrived;
    if (place(type, now, now + dc_.task_types[type].relative_deadline,
              counted)) {
      if (counted) ++m.assigned;
    } else if (counted) {
      ++m.dropped;
    }
  }

  // Routes a task at `now`; returns whether it was queued on a core.
  bool place(std::size_t type, double now, double deadline, bool counted) {
    const auto decision = scheduler_->route(type, now, core_free_time_);
    if (!decision.assigned) return false;
    const double start = std::max(now, core_free_time_[decision.core]);
    const double finish = start + decision.exec_seconds;
    core_free_time_[decision.core] = finish;
    retire(decision.core, now);
    fifo_[decision.core].tasks.push_back({type, start, deadline, finish, counted});
    ++in_flight_;
    return true;
  }

  // A node failure at `now`: returns (for the caller to drop or requeue) the
  // tasks on cores [begin, end) not finished before `now` — faults precede
  // completions at the same instant — and leaves those cores idle.
  std::vector<Admitted> kill(std::size_t begin, std::size_t end, double now) {
    std::vector<Admitted> killed;
    for (std::size_t k = begin; k < end; ++k) {
      retire(k, now);
      CoreQueue& queue = fifo_[k];
      killed.insert(killed.end(), queue.tasks.begin() + queue.head,
                    queue.tasks.end());
      in_flight_ -= queue.tasks.size() - queue.head;
      queue.tasks.clear();
      queue.head = 0;
      core_free_time_[k] = now;
    }
    return killed;
  }

  // Reclassifies a killed task's counted admission as a drop.
  void unadmit(const Admitted& task) {
    if (!task.counted) return;
    --per_type_[task.type].assigned;
    ++per_type_[task.type].dropped;
  }

  // Samplers at evenly spaced simulated times. Retiring is order-independent
  // and all else is read-only, so SimResult is the same with or without.
  void sample(util::telemetry::Registry* reg, std::size_t samples) {
    if (!reg) return;
    for (std::size_t s = 0; s < samples; ++s) {
      const double t = horizon_ * static_cast<double>(s + 1) /
                       static_cast<double>(samples);
      engine_.schedule_at(t, [this, reg, t] {
        retire_all(t);
        reg->sample("scheduler.tracking_error", t, tracking_error(t));
        reg->sample("sim.queue_depth", t, static_cast<double>(in_flight_));
        reg->sample("scheduler.backlog", t,
                    backlog_depth(dc_, core_free_time_, t));
        reg->sample("sim.active_power_kw", t, power_kw_);
      });
    }
  }

  // Runs to the horizon: every arrival strictly before the next calendar
  // event routes in one batch; calendar events win exact-time ties.
  void drive(ArrivalPump& pump) {
    double ta = 0.0;
    std::size_t type = 0;
    while (true) {
      const bool have_arrival = pump.peek(ta, type);
      const double te = engine_.next_time();
      if (have_arrival && ta < te) {
        do {
          admit(type, ta);
          pump.advance(type, ta);
        } while (pump.peek(ta, type) && ta < te);
      } else if (!engine_.run_one(horizon_)) {
        break;
      }
    }
  }

  // Books what is still queued and closes the energy integral. Shared by
  // every run's end, it also audits the cores: each runs one task at a
  // time, so none can be booked busy for longer than the run.
  void close() {
    retire_all(kInf);
    integrate_to(horizon_);
    for (const CoreQueue& queue : fifo_) {
      TAPO_CHECK_MSG(queue.in_order,
                     "a task started before its FIFO predecessor finished");
      TAPO_CHECK_MSG(queue.busy_s <= horizon_ * (1.0 + 1e-9),
                     "a core was booked busy longer than the run horizon");
    }
  }

  RunStats stats() const {
    RunStats s = retired_;
    s.add({scheduler_->stats(), engine_.executed()});
    return s;
  }

  // close() plus the shared end-of-run step.
  SimResult finish(const SimOptions& options, util::telemetry::Registry* reg,
                   const char* counter) {
    close();
    return finalize(options, per_type_, tracking_error(horizon_), energy_kwh_,
                    stats(), reg, counter);
  }

 private:
  void install(const core::Assignment& plan) {
    plan_ = &plan;
    power_kw_ = plan.total_power_kw();
    if (types_) {
      scheduler_.emplace(dc_, plan, scheduler_options_, *types_);
    } else {
      scheduler_.emplace(dc_, plan, scheduler_options_);
    }
  }

  // Books the tasks on core k that finished before `t`.
  void retire(std::size_t k, double t) {
    CoreQueue& queue = fifo_[k];
    while (queue.head < queue.tasks.size() &&
           queue.tasks[queue.head].finish < t) {
      const Admitted& task = queue.tasks[queue.head++];
      if (task.start < queue.last_finish) queue.in_order = false;
      queue.last_finish = task.finish;
      queue.busy_s += std::max(0.0, std::min(task.finish, horizon_) - task.start);
      book(task);
      --in_flight_;
    }
    if (2 * queue.head >= queue.tasks.size()) {
      queue.tasks.erase(queue.tasks.begin(), queue.tasks.begin() + queue.head);
      queue.head = 0;
    }
  }

  void retire_all(double t) {
    for (std::size_t k = 0; k < fifo_.size(); ++k) retire(k, t);
  }

  // Reward is booked at completion, not admission: booking at admission
  // would credit queued work that never executes inside the measured window,
  // letting deep-queueing policies appear to beat the steady-state LP bound
  // (deadlines of slow task types span minutes).
  void book(const Admitted& task) {
    if (task.finish < warmup_ || task.finish > horizon_) return;
    PerTypeMetrics& m = per_type_[task.type];
    if (task.finish <= task.deadline + 1e-12) {
      ++m.completed_in_time;
      m.reward += dc_.task_types[task.type].reward;
    } else {
      ++m.completed_late;
    }
  }

  // Piecewise energy over the plans in force, clipped to the measured window.
  void integrate_to(double t) {
    const double a = std::max(power_since_, warmup_);
    const double b = std::min(t, horizon_);
    if (b > a) energy_kwh_ += power_kw_ * (b - a) / 3600.0;
    power_since_ = t;
  }

  const dc::DataCenter& dc_;
  const double horizon_;
  const double warmup_;
  const core::SchedulerOptions scheduler_options_;
  const std::vector<std::size_t>* const types_;

  Engine engine_;
  const core::Assignment* plan_ = nullptr;
  std::optional<core::DynamicScheduler> scheduler_;
  RunStats retired_;  // routing stats of schedulers replaced by adopt()

  std::vector<PerTypeMetrics> per_type_;
  std::vector<double> core_free_time_;
  std::vector<CoreQueue> fifo_;
  std::size_t in_flight_ = 0;  // admitted, not yet retired

  double power_kw_ = 0.0;
  double power_since_ = 0.0;
  double energy_kwh_ = 0.0;
};

// Checks every entry point makes, so none aborts on operator input.
util::Status check_run(const dc::DataCenter& dc,
                       const core::Assignment& assignment,
                       const SimOptions& options) {
  if (util::Status s = options.validate(); !s.ok()) return s;
  if (!assignment.feasible) {
    return util::Status::FailedPrecondition(
        "cannot simulate an infeasible assignment");
  }
  const RateTrace* trace = options.rate_trace;
  if (trace && trace->num_task_types() != dc.num_task_types()) {
    return util::Status::InvalidArgument(
        "rate trace covers " + std::to_string(trace->num_task_types()) +
        " task types, data center has " + std::to_string(dc.num_task_types()));
  }
  return util::Status::Ok();
}

SimResult failed(util::Status status) {
  SimResult result;
  result.status = std::move(status);
  return result;
}

// The scheduler reports to the run's registry unless given its own.
core::SchedulerOptions scheduler_options_for(const SimOptions& options) {
  core::SchedulerOptions scheduler_options = options.scheduler;
  if (!scheduler_options.telemetry) {
    scheduler_options.telemetry = options.telemetry;
  }
  return scheduler_options;
}

// Component-sharded simulation (docs/SCHEDULER.md §4). Task types that share
// a candidate core must co-shard — union-find over the candidate structure
// finds the connected components, each of which runs as a fully independent
// sub-simulation. Exactness rests on three facts: per-type arrival streams
// are independent RNG substreams, a component's routing state (ATC counts,
// index heaps, core backlog) is touched by no other component, and the ATC
// clock is pinned to the global first-arrival time in every shard.
SimResult simulate_sharded(const dc::DataCenter& dc,
                           const core::Assignment& assignment,
                           const SimOptions& options,
                           const core::SchedulerOptions& scheduler_options,
                           std::size_t threads) {
  const double horizon = options.duration_seconds;
  const std::size_t t = dc.num_task_types();

  // Candidate structure (policy-aware: the ablation policies share every
  // active core, so they collapse into one component).
  core::SchedulerOptions probe_options = scheduler_options;
  probe_options.telemetry = nullptr;
  const core::DynamicScheduler probe(dc, assignment, probe_options);

  std::vector<std::size_t> parent(t);
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&](std::size_t i) {
    while (parent[i] != i) {
      parent[i] = parent[parent[i]];
      i = parent[i];
    }
    return i;
  };
  std::vector<std::ptrdiff_t> core_owner(dc.total_cores(), -1);
  for (std::size_t i = 0; i < t; ++i) {
    for (std::size_t k : probe.candidates(i)) {
      if (core_owner[k] < 0) {
        core_owner[k] = static_cast<std::ptrdiff_t>(i);
      } else {
        const std::size_t a = find(i);
        const std::size_t b = find(static_cast<std::size_t>(core_owner[k]));
        if (a != b) parent[std::max(a, b)] = std::min(a, b);
      }
    }
  }
  // A component's root is its lowest type id, so it is met first.
  std::vector<std::vector<std::size_t>> comps;
  std::vector<std::size_t> comp_of_type(t, 0);
  for (std::size_t i = 0; i < t; ++i) {
    const std::size_t r = find(i);
    if (r == i) comps.emplace_back();
    comp_of_type[i] = r == i ? comps.size() - 1 : comp_of_type[r];
    comps[comp_of_type[i]].push_back(i);
  }

  // Global first-arrival time pins every shard's ATC clock to the value the
  // single-scheduler run would use (a throwaway pump re-draws exactly the
  // first interarrival of each substream).
  core::SchedulerOptions shard_options = scheduler_options;
  shard_options.telemetry = nullptr;  // per-decision events are serial-only
  {
    ArrivalPump probe_pump(dc.task_types, util::Rng(options.seed), horizon,
                           nullptr, options.rate_trace);
    double t0 = 0.0;
    std::size_t first_type = 0;
    if (probe_pump.peek(t0, first_type)) shard_options.start_time = t0;
  }

  std::vector<std::unique_ptr<Run>> runs(comps.size());
  util::ThreadPool pool(threads);
  pool.parallel_for(comps.size(), [&](std::size_t c) {
    runs[c] = std::make_unique<Run>(dc, assignment, options, shard_options,
                                    &comps[c]);
    ArrivalPump pump(dc.task_types, util::Rng(options.seed), horizon,
                     &comps[c], options.rate_trace);
    runs[c]->drive(pump);
    runs[c]->close();
  });

  // Deterministic merge: every aggregate is reduced in task-type order, so
  // the result is bit-identical to the serial loop's regardless of thread
  // count or component layout.
  std::vector<PerTypeMetrics> per_type(t);
  for (std::size_t i = 0; i < t; ++i) {
    per_type[i] = runs[comp_of_type[i]]->per_type()[i];
  }
  RunStats stats;
  for (const auto& run : runs) stats.add(run->stats());
  const double err =
      tracking_error(dc, assignment, [&](std::size_t i, std::size_t k) {
        return runs[comp_of_type[i]]->scheduler().atc(i, k, horizon);
      });
  // Every shard integrates the same plan over the same window.
  const double energy = runs.empty() ? 0.0 : runs.front()->energy_kwh();
  return finalize(options, std::move(per_type), err, energy, stats,
                  options.telemetry, "sim.runs");
}

}  // namespace

util::Status SimOptions::validate() const {
  if (!std::isfinite(duration_seconds) || duration_seconds <= 0.0) {
    return util::Status::InvalidArgument(
        "sim duration must be positive and finite");
  }
  if (!std::isfinite(warmup_seconds) || warmup_seconds < 0.0) {
    return util::Status::InvalidArgument(
        "sim warm-up must be non-negative and finite");
  }
  if (warmup_seconds >= duration_seconds) {
    return util::Status::InvalidArgument(
        "sim warm-up must end before the horizon (warmup " +
        std::to_string(warmup_seconds) + "s >= duration " +
        std::to_string(duration_seconds) + "s)");
  }
  if (util::Status s = scheduler.validate(); !s.ok()) {
    return s.with_context("scheduler options");
  }
  if (rate_trace != nullptr) {
    if (util::Status s = rate_trace->validate(); !s.ok()) {
      return s.with_context("rate trace");
    }
  }
  return util::Status::Ok();
}

double SimResult::drop_fraction() const {
  std::size_t arrived = 0, dropped = 0;
  for (const PerTypeMetrics& m : per_type) {
    arrived += m.arrived;
    dropped += m.dropped;
  }
  return arrived ? static_cast<double>(dropped) / static_cast<double>(arrived) : 0.0;
}

SimResult simulate(const dc::DataCenter& dc, const core::Assignment& assignment,
                   const SimOptions& options) {
  if (util::Status s = check_run(dc, assignment, options); !s.ok()) {
    return failed(std::move(s));
  }
  util::telemetry::Registry* const reg = options.telemetry;
  const util::telemetry::ScopedTimer run_timer(reg, "sim.run");

  const std::size_t threads = options.threads == 0
                                  ? util::ThreadPool::hardware_threads()
                                  : options.threads;
  if (threads > 1) {
    return simulate_sharded(dc, assignment, options,
                            scheduler_options_for(options), threads);
  }
  Run run(dc, assignment, options, scheduler_options_for(options));
  run.sample(reg, options.telemetry_samples);
  ArrivalPump pump(dc.task_types, util::Rng(options.seed),
                   options.duration_seconds, nullptr, options.rate_trace);
  run.drive(pump);
  return run.finish(options, reg, "sim.runs");
}

SimResult simulate_trace(const dc::DataCenter& dc,
                         const core::Assignment& assignment, const Trace& trace,
                         const SimOptions& options) {
  if (util::Status s = check_run(dc, assignment, options); !s.ok()) {
    return failed(std::move(s));
  }
  for (const TraceEvent& event : trace) {
    if (event.time > options.duration_seconds) break;  // never replayed
    if (event.task_type >= dc.num_task_types()) {
      return failed(util::Status::InvalidArgument(
          "trace event at t=" + std::to_string(event.time) + " has task type " +
          std::to_string(event.task_type) + ", data center has " +
          std::to_string(dc.num_task_types())));
    }
  }
  util::telemetry::Registry* const reg = options.telemetry;
  const util::telemetry::ScopedTimer run_timer(reg, "sim.replay");

  Run run(dc, assignment, options, scheduler_options_for(options));
  run.sample(reg, options.telemetry_samples);
  ArrivalPump pump(trace, options.duration_seconds);
  run.drive(pump);
  return run.finish(options, reg, "sim.replays");
}

FaultSimResult simulate_with_faults(dc::DataCenter& dc,
                                    const thermal::HeatFlowModel& model,
                                    const core::Assignment& initial,
                                    const FaultSchedule& schedule,
                                    const FaultSimOptions& options) {
  FaultSimResult out;
  if (util::Status s = check_run(dc, initial, options.sim); !s.ok()) {
    out.status = std::move(s);
    return out;
  }
  if (util::Status s = schedule.validate(dc); !s.ok()) {
    out.status = s.with_context("fault schedule");
    return out;
  }
  if (options.replan) {
    if (util::Status s = options.replan->validate(); !s.ok()) {
      out.status = s.with_context("replanner options");
      return out;
    }
  }

  util::telemetry::Registry* const reg = options.sim.telemetry;
  const util::telemetry::ScopedTimer run_timer(reg, "sim.fault_run");

  // The run mutates the degraded-mode state and the budget; restore both so
  // the caller's data center comes back exactly as passed.
  const double saved_pconst = dc.p_const_kw;
  const std::vector<std::uint8_t> saved_failed = dc.node_failed_mask;
  const std::vector<double> saved_crac_min = dc.crac_min_outlet_c;

  const double horizon = options.sim.duration_seconds;
  const double tcrac_min = options.recovery.assign.stage1.tcrac_min_c;
  const double tcrac_max = options.recovery.assign.stage1.tcrac_max_c;

  // Every adopted Assignment stays alive in a deque (the scheduler holds a
  // reference to its plan); plans.back() is the one in force.
  std::deque<core::Assignment> plans;
  plans.push_back(initial);
  Run run(dc, plans.back(), options.sim, scheduler_options_for(options.sim));
  Engine& engine = run.engine();
  const auto adopt_plan = [&](core::Assignment plan, double now) {
    plans.push_back(std::move(plan));
    run.adopt(plans.back(), now);
  };

  // A newer fault — or a newer horizon step — supersedes any pending re-plan
  // adoption: adoption events capture the generation at scheduling time and
  // fire only if it is still current.
  std::uint64_t plan_generation = 0;

  // --- Receding-horizon re-planner state (FaultSimOptions::replan) --------
  std::unique_ptr<core::RollingPlanner> planner;
  core::ReplannerOptions replan_options;
  if (options.replan) {
    replan_options = *options.replan;
    if (!replan_options.telemetry) replan_options.telemetry = reg;
    planner = std::make_unique<core::RollingPlanner>(dc, model, initial,
                                                     replan_options);
  }
  const RateTrace* const trace = options.sim.rate_trace;
  // Arrival rates the planner should track at time t: the trace's curves, or
  // the stationary rates when no trace is loaded.
  const auto lambda_at = [&](double t) {
    std::vector<double> lambda(dc.num_task_types());
    for (std::size_t i = 0; i < dc.num_task_types(); ++i) {
      lambda[i] =
          trace ? trace->rate_at(i, t) : dc.task_types[i].arrival_rate;
    }
    return lambda;
  };
  double last_plan_time = 0.0;        // last trigger fire (any rung)
  double next_attempt_allowed = 0.0;  // bounded-backoff gate
  double recovery_pending_until = -1.0;  // fault re-plan adoption in flight
  double degraded_since = -1.0;       // entering time of the degraded mode

  const auto on_fault = [&](const FaultEvent& ev) {
    const double now = engine.now();
    ++plan_generation;
    FaultRecord record;
    record.event = ev;

    apply_fault(dc, ev, tcrac_min, tcrac_max);
    if (reg) {
      reg->count("fault.events");
      switch (ev.kind) {
        case FaultKind::kNodeFail:
          reg->count("fault.node_failures");
          break;
        case FaultKind::kNodeRepair:
          reg->count("fault.node_repairs");
          break;
        case FaultKind::kCracDerate:
          reg->count("fault.crac_derates");
          break;
        case FaultKind::kCracRepair:
          reg->count("fault.crac_repairs");
          break;
        case FaultKind::kPowerCap:
          reg->count("fault.power_caps");
          break;
      }
    }
    TAPO_TELEM_EVENT(reg, "fault.inject", now,
                     {{"kind", static_cast<double>(ev.kind)},
                      {"target", static_cast<double>(ev.target)},
                      {"value", ev.value}});

    // Kill in-flight and queued work on the lost cores. A killed task whose
    // admission fell inside the measured window has that admission
    // reclassified as a drop (unless it is successfully requeued), so the
    // arrived == assigned + dropped invariant survives faults.
    std::vector<Admitted> orphans;
    if (ev.kind == FaultKind::kNodeFail) {
      const std::size_t begin = dc.core_offset(ev.target);
      orphans = run.kill(
          begin, begin + dc.node_type(ev.target).cores_per_node(), now);
      record.tasks_killed = orphans.size();
      if (options.in_flight == InFlightPolicy::kDrop) {
        for (const Admitted& task : orphans) run.unadmit(task);
        orphans.clear();
      }
    }

    // Two-phase recovery against the plan in force.
    const core::RecoveryController controller(dc, model, options.recovery);
    core::RecoveryOutcome rec = controller.recover(plans.back());
    record.safe = rec.safe;
    record.replan_adopted = rec.replan_adopted;
    record.recovery_status = rec.status;
    record.throttle_reward_rate = rec.throttle_reward_rate;
    record.replan_reward_rate = rec.replan_reward_rate;

    // The safety throttle takes effect at the fault instant. The hardware
    // (and with it the Stage-3 class structure) changed, so the rolling
    // planner — if one is running — must re-anchor on the throttle plan.
    adopt_plan(std::move(rec.throttle), now);
    if (planner) {
      planner->rebind(plans.back());
      last_plan_time = now;
    }

    // Orphans re-route through the throttle plan, original deadlines kept
    // (they may well complete late); unplaceable ones count as drops.
    for (const Admitted& task : orphans) {
      if (run.place(task.type, now, task.deadline, task.counted)) {
        ++record.tasks_requeued;
      } else {
        run.unadmit(task);
      }
    }
    if (reg) {
      reg->count("fault.tasks_killed", record.tasks_killed);
      reg->count("fault.tasks_requeued", record.tasks_requeued);
    }

    // The re-plan (computed now, deterministic) activates after the
    // configured delay unless a newer fault supersedes it.
    if (rec.replan_adopted) {
      ++out.replans_adopted;
      const std::uint64_t gen = plan_generation;
      recovery_pending_until = now + options.recovery.replan_delay_s;
      engine.schedule_at(
          now + options.recovery.replan_delay_s,
          [&, gen, replan = std::move(rec.plan)]() mutable {
            if (gen != plan_generation) return;
            adopt_plan(std::move(replan), engine.now());
            recovery_pending_until = -1.0;
            // The recovery plan's P-states replace the throttle's: rebuild
            // the rolling planner's resident LP around them.
            if (planner) {
              planner->rebind(plans.back());
              last_plan_time = engine.now();
            }
            if (reg) reg->count("recovery.replans_activated");
          });
    }
    out.faults.push_back(std::move(record));
  };

  // Faults go on the calendar first, so at any shared instant they run
  // before the re-plan checks and samplers scheduled below.
  for (const FaultEvent& ev : schedule.events) {
    if (ev.time_s > horizon) continue;  // never fires; not recorded
    engine.schedule_at(ev.time_s, [&on_fault, ev] { on_fault(ev); });
  }

  // Receding-horizon check chain: a self-rescheduling calendar event every
  // sensor_period_s reads the tracking-error sensor and fires a horizon
  // step on the cadence or on a sensor breach — unless gated by the bounded
  // backoff after a degraded step or by a fault re-plan adoption in flight
  // (the full three-stage recovery plan outranks a rates-only patch).
  std::function<void()> replan_check;
  if (planner) {
    replan_check = [&] {
      const double now = engine.now();
      const bool gated =
          now + 1e-9 < next_attempt_allowed ||
          (recovery_pending_until >= 0.0 && now < recovery_pending_until);
      bool cadence_fire = false;
      bool tracking_fire = false;
      if (!gated) {
        if (now - last_plan_time >= replan_options.cadence_s - 1e-9) {
          cadence_fire = true;
        } else if (replan_options.tracking_error_threshold > 0.0 &&
                   run.tracking_error(now) >
                       replan_options.tracking_error_threshold) {
          tracking_fire = true;
        }
      }
      if (cadence_fire || tracking_fire) {
        if (reg) {
          reg->count(cadence_fire ? "replan.triggers_cadence"
                                  : "replan.triggers_tracking");
        }
        last_plan_time = now;
        core::HorizonStep step = planner->step(lambda_at(now));
        ++out.horizon_steps;
        if (reg) {
          reg->sample("replan.step_times", now,
                      static_cast<double>(out.horizon_steps));
        }
        if (step.adopted()) {
          ++out.horizon_adoptions;
          if (degraded_since >= 0.0) {
            out.horizon_degraded_time_s += now - degraded_since;
            degraded_since = -1.0;
          }
          // Generation-guarded adoption, exactly like fault recovery: a
          // fault (or a newer step) between now and the actuation instant
          // supersedes this plan.
          ++plan_generation;
          const std::uint64_t gen = plan_generation;
          engine.schedule_at(
              now + options.recovery.replan_delay_s,
              [&, gen, plan = std::move(step.plan)]() mutable {
                if (gen != plan_generation) return;
                adopt_plan(std::move(plan), engine.now());
                if (reg) reg->count("replan.adoptions_activated");
              });
        } else {
          ++out.horizon_degraded;
          if (degraded_since < 0.0) degraded_since = now;
          next_attempt_allowed = now + step.retry_after_s;
          if (step.rung == core::HorizonStep::Rung::kThrottled) {
            ++out.horizon_throttles;
            // The safety action is immediate and supersedes any in-flight
            // adoption — an unverified plan must never outrank it.
            ++plan_generation;
            adopt_plan(std::move(step.plan), now);
          }
        }
      }
      const double next = now + replan_options.sensor_period_s;
      if (next <= horizon) engine.schedule_at(next, [&] { replan_check(); });
    };
    if (replan_options.sensor_period_s <= horizon) {
      engine.schedule_at(replan_options.sensor_period_s,
                         [&] { replan_check(); });
    }
  }

  run.sample(reg, options.sim.telemetry_samples);
  ArrivalPump pump(dc.task_types, util::Rng(options.sim.seed), horizon,
                   nullptr, trace);
  run.drive(pump);

  if (degraded_since >= 0.0) {
    out.horizon_degraded_time_s += horizon - degraded_since;
  }
  if (reg) {
    reg->count("recovery.replans_adopted_total", out.replans_adopted);
    if (planner) {
      reg->gauge_set("replan.degraded_time_s", out.horizon_degraded_time_s);
    }
  }
  out.sim = run.finish(options.sim, reg, "sim.fault_runs");

  dc.p_const_kw = saved_pconst;
  dc.node_failed_mask = saved_failed;
  dc.crac_min_outlet_c = saved_crac_min;
  return out;
}

}  // namespace tapo::sim
