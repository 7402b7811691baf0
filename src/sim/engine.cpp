#include "sim/engine.h"

#include <limits>

#include "util/check.h"

namespace tapo::sim {

void Engine::schedule_at(double when, Callback cb) {
  TAPO_CHECK_MSG(when >= now_ - 1e-12, "cannot schedule in the past");
  queue_.push(Event{when, next_seq_++, std::move(cb)});
}

void Engine::schedule_in(double delay, Callback cb) {
  TAPO_CHECK(delay >= 0.0);
  schedule_at(now_ + delay, std::move(cb));
}

double Engine::next_time() const {
  return queue_.empty() ? std::numeric_limits<double>::infinity()
                        : queue_.top().time;
}

bool Engine::run_one(double horizon) {
  if (queue_.empty() || queue_.top().time > horizon) return false;
  Event ev = queue_.top();
  queue_.pop();
  now_ = ev.time;
  ev.cb();
  ++executed_;
  return true;
}

std::size_t Engine::run_until(double horizon) {
  std::size_t executed = 0;
  while (!queue_.empty() && queue_.top().time <= horizon) {
    // priority_queue::top returns const&; move the callback out via a copy of
    // the event (callbacks are small).
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    ev.cb();
    ++executed;
    ++executed_;
  }
  if (now_ < horizon) now_ = horizon;
  return executed;
}

}  // namespace tapo::sim
