#include "sim/scheduler.h"

namespace cmtos::sim {

Scheduler::Scheduler()
    : exec_(std::make_unique<Executor>()), control_(&exec_->add_shard()) {}

Time Scheduler::now() const {
  // Inside an event, "now" is the executing shard's clock — node-local
  // components read a consistent time even while other shards are mid-round.
  NodeRuntime* cur = Executor::current();
  if (cur != nullptr && &cur->executor() == exec_.get()) return cur->now();
  return control_->now();
}

EventHandle Scheduler::at(Time t, EventFn&& fn) {
  return control_->at_global(t, std::move(fn));
}

EventHandle Scheduler::after(Duration d, EventFn&& fn) {
  if (d < 0) d = 0;
  return control_->at_global(now() + d, std::move(fn));
}

void Timer::after(Scheduler& sched, Duration d, EventFn&& fn) {
  h_.cancel();
  h_ = sched.after(d, std::move(fn));
}

std::size_t Scheduler::run(std::size_t limit) { return exec_->run(limit); }

std::size_t Scheduler::run_until(Time t) { return exec_->run_until(t); }

}  // namespace cmtos::sim
