#include "sim/node_runtime.h"

#include "obs/trace.h"
#include "sim/executor.h"
#include "util/contract.h"

namespace cmtos::sim {

void EventHandle::cancel() {
  if (rt_ == nullptr || slot_ >= rt_->slots_.size()) return;
  // A fired, cancelled or reused slot holds another seq (or none).
  if (rt_->slots_[slot_].seq != seq_) return;
  rt_->free_slot(slot_);
  rt_->set_live(rt_->live() - 1);
  ++rt_->dead_entries_;
  rt_->maybe_compact();
}

bool EventHandle::pending() const {
  return rt_ != nullptr && slot_ < rt_->slots_.size() && rt_->slots_[slot_].seq == seq_;
}

EventHandle NodeRuntime::schedule(Time t, EventFn&& fn, bool global) {
  NodeRuntime* cur = Executor::current();
  if (cur != nullptr && cur != this && cur->exec_ == exec_ && exec_->in_parallel_round()) {
    // Cross-shard schedule during a parallel round: buffer on the
    // *scheduling* shard; the executor applies outboxes at the barrier in
    // deterministic order.  The returned handle is inert — cross-shard
    // schedules are deliveries, which nothing cancels.
    cur->outbox_.emplace_back(cur->now(), this, t, std::move(fn), global);
    return {};
  }
  return insert_direct(t, std::move(fn), global);
}

EventHandle NodeRuntime::insert_direct(Time t, EventFn&& fn, bool global) {
  const Time n = now();
  CMTOS_ASSERT(t >= n, "sched.past_event");  // clamped below
  if (t < n) t = n;

  std::uint32_t idx;
  if (free_head_ != kNoFreeSlot) {
    idx = free_head_;
    free_head_ = slots_[idx].next_free;
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    CMTOS_ASSERT(idx < kMaxSlots, "sched.slot_limit");
    slots_.emplace_back();
  }
  const std::uint64_t seq = next_seq_++;
  CMTOS_ASSERT(seq < kMaxSeq, "sched.seq_limit");
  Slot& s = slots_[idx];
  s.fn = std::move(fn);
  s.seq = seq;
  s.global = global;

  const HeapEntry e{t, (seq << kSlotBits) | idx};
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  // The executor's lower bounds on this shard's head times only ever drop
  // here (Executor::earliest).
  Time& head_lb = exec_->head_lb_[shard_];
  if (t < head_lb) head_lb = t;
  if (global) {
    // Mirror for the earliest global event; it holds a subset of heap_.
    global_heap_.push_back(e);
    std::push_heap(global_heap_.begin(), global_heap_.end(), Later{});
    Time& global_lb = exec_->global_lb_[shard_];
    if (t < global_lb) global_lb = t;
  }
  set_live(live() + 1);
  return EventHandle(this, idx, seq);
}

Time NodeRuntime::global_head_time() {
  while (!global_heap_.empty()) {
    if (is_live(global_heap_.front())) return global_heap_.front().time;
    std::pop_heap(global_heap_.begin(), global_heap_.end(), Later{});
    global_heap_.pop_back();
  }
  return kTimeNever;
}

void NodeRuntime::execute_head() {
  CMTOS_DCHECK(!heap_.empty() && is_live(heap_.front()));
  const HeapEntry e = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();

  Slot& s = slots_[e.slot()];
  EventFn fn = std::move(s.fn);
  const bool was_global = s.global;
  free_slot(e.slot());
  set_live(live() - 1);
  // A fired global event is by definition the earliest global event, i.e.
  // the top of global_heap_; reap it (and any dead run behind it) now so
  // all-global workloads don't grow the heap unboundedly between the
  // executor's global_head_time() probes.
  if (was_global) (void)global_head_time();

  // Event ordering: each shard hands out events in non-decreasing time
  // order — simulated time never runs backwards.
  CMTOS_INVARIANT(e.time >= now(), "sched.ordering");
  set_now(e.time);

  // Tracing: events emitted while `fn` runs are stamped with simulated
  // time, not wall time.  Tracing forces serial rounds, so this global
  // write is single-threaded.
  auto& tracer = obs::Tracer::global();
  if (tracer.enabled()) tracer.set_sim_time(e.time);

  NodeRuntime* prev = Executor::current_;
  Executor::current_ = this;
  fn();
  Executor::current_ = prev;
}

void NodeRuntime::free_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.fn.reset();
  s.seq = kFreeSeq;  // kills the slot's heap entries and handles
  s.next_free = free_head_;
  free_head_ = idx;
}

void NodeRuntime::maybe_compact() {
  // Lazy reap: once dead entries dominate the heap, rebuild it.  Keeps
  // cancel O(1) while bounding storage at 2x the live events plus 64, so
  // hot arm/cancel cycles (keepalive, retransmit) stop paying O(dead) churn.
  if (dead_entries_ < 64 || dead_entries_ * 2 < heap_.size()) return;
  const auto dead = [this](const HeapEntry& e) { return !is_live(e); };
  std::erase_if(heap_, dead);
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  std::erase_if(global_heap_, dead);
  std::make_heap(global_heap_.begin(), global_heap_.end(), Later{});
  dead_entries_ = 0;
}

}  // namespace cmtos::sim
