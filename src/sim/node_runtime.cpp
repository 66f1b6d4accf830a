#include "sim/node_runtime.h"

#include <algorithm>
#include <bit>

#include "obs/trace.h"
#include "sim/executor.h"
#include "util/contract.h"

namespace cmtos::sim {

void EventHandle::cancel() {
  if (rt_ == nullptr || slot_ >= rt_->slots_.size()) return;
  NodeRuntime::Slot& s = rt_->slots_[slot_];
  if (s.gen != gen_ || !s.live) return;  // already fired, cancelled or reused
  rt_->free_slot(slot_);
  rt_->live_.fetch_sub(1, std::memory_order_relaxed);
  ++rt_->dead_entries_;
  rt_->maybe_compact();
}

bool EventHandle::pending() const {
  if (rt_ == nullptr || slot_ >= rt_->slots_.size()) return false;
  const NodeRuntime::Slot& s = rt_->slots_[slot_];
  return s.gen == gen_ && s.live;
}

EventHandle NodeRuntime::schedule(Time t, EventFn fn, bool global) {
  NodeRuntime* cur = Executor::current();
  if (cur != nullptr && cur != this && cur->exec_ == exec_ && exec_->in_parallel_round()) {
    // Cross-shard schedule during a parallel round: buffer on the
    // *scheduling* shard; the executor applies outboxes at the barrier in
    // deterministic order.  The returned handle is inert — cross-shard
    // schedules are deliveries, which nothing cancels.
    cur->push_outbox(*this, t, std::move(fn), global);
    return {};
  }
  return insert_direct(t, std::move(fn), global);
}

EventHandle NodeRuntime::insert_direct(Time t, EventFn fn, bool global) {
  const Time n = now();
  CMTOS_ASSERT(t >= n, "sched.past_event");  // clamped below
  if (t < n) t = n;

  std::uint32_t idx;
  if (free_head_ != kNoFreeSlot) {
    idx = free_head_;
    free_head_ = slots_[idx].next_free;
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[idx];
  s.fn = std::move(fn);
  s.live = true;
  s.global = global;

  const HeapEntry e{t, next_seq_++, idx, s.gen};
  enqueue_entry(e);
  // The executor's lower bounds on this shard's head times only ever drop
  // here (Executor::earliest).
  Time& head_lb = exec_->head_lb_[shard_];
  if (t < head_lb) head_lb = t;
  if (global) {
    // Exact mirror for the earliest global event, regardless of where the
    // primary entry resides (near heap, wheel bucket, or far heap).
    global_heap_.push_back(e);
    std::push_heap(global_heap_.begin(), global_heap_.end(), Later{});
    Time& global_lb = exec_->global_lb_[shard_];
    if (t < global_lb) global_lb = t;
  }
  live_.fetch_add(1, std::memory_order_relaxed);
  return EventHandle(this, idx, s.gen);
}

void NodeRuntime::enqueue_entry(const HeapEntry& e) {
  const std::int64_t tick = e.time / kWheelTick;
  if (tick <= wheel_base_tick_) {
    // At or behind the wheel base (includes barrier-drained cross-shard
    // inserts below a speculatively advanced base): near heap.
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return;
  }
  const std::int64_t delta = tick - wheel_base_tick_;
  if (delta >= kWheelSpan) {
    far_heap_.push_back(e);
    std::push_heap(far_heap_.begin(), far_heap_.end(), Later{});
    return;
  }
  std::uint32_t level = 0;
  while (delta >= (std::int64_t{1} << (kWheelBits * (level + 1)))) ++level;
  const auto slot = static_cast<std::uint32_t>(
      (tick >> (kWheelBits * level)) & (kWheelSlots - 1));
  WheelBucket& b = wheel_[level * kWheelSlots + slot];
  b.entries.push_back(e);
  if (tick < b.min_tick) b.min_tick = tick;
  if (tick < wheel_min_tick_) wheel_min_tick_ = tick;
  wheel_occupied_[level] |= std::uint64_t{1} << slot;
  ++wheel_count_;
}

void NodeRuntime::ensure_near() {
  for (;;) {
    const HeapEntry* near_top = peek(heap_);
    const Time near_time = near_top != nullptr ? near_top->time : kTimeNever;
    const HeapEntry* far_top = peek(far_heap_);
    const Time far_time = far_top != nullptr ? far_top->time : kTimeNever;
    const Time wheel_time =
        wheel_count_ > 0 ? wheel_min_tick_ * kWheelTick : kTimeNever;
    const Time bound = std::min(far_time, wheel_time);
    // Strict inequality: an equal-time wheel entry may carry a smaller seq
    // than the near top, so ties must be resolved by draining into the near
    // heap and letting the (time, seq) comparator decide.
    if (bound == kTimeNever || near_time < bound) return;
    if (far_time <= wheel_time) {
      // The far top is the earliest remaining event; promote it directly.
      const HeapEntry e = *far_top;
      std::pop_heap(far_heap_.begin(), far_heap_.end(), Later{});
      far_heap_.pop_back();
      heap_.push_back(e);
      std::push_heap(heap_.begin(), heap_.end(), Later{});
      continue;
    }
    drain_min_bucket();
  }
}

void NodeRuntime::drain_min_bucket() {
  // Locate the bucket whose cached minimum is the wheel minimum.  Fixed
  // level-major, slot-order scan keeps the choice deterministic.
  std::size_t target = wheel_.size();
  for (std::uint32_t level = 0; level < kWheelLevels && target == wheel_.size();
       ++level) {
    std::uint64_t bits = wheel_occupied_[level];
    while (bits != 0) {
      const auto slot = static_cast<std::uint32_t>(std::countr_zero(bits));
      bits &= bits - 1;
      const std::size_t i = level * kWheelSlots + slot;
      if (wheel_[i].min_tick == wheel_min_tick_) {
        target = i;
        break;
      }
    }
  }
  CMTOS_ASSERT(target != wheel_.size(), "sched.wheel_min_bucket");
  if (target == wheel_.size()) {
    recompute_wheel_min();
    return;
  }
  WheelBucket& b = wheel_[target];
  wheel_scratch_.clear();
  std::swap(wheel_scratch_, b.entries);  // swap keeps capacities circulating
  b.min_tick = kTickNever;
  wheel_occupied_[target / kWheelSlots] &=
      ~(std::uint64_t{1} << (target % kWheelSlots));
  wheel_count_ -= wheel_scratch_.size();

  // Advancing the base to the drained minimum never skips another bucket:
  // every other cached minimum is >= wheel_min_tick_ by construction.
  wheel_base_tick_ = std::max(wheel_base_tick_, wheel_min_tick_);
  for (const HeapEntry& e : wheel_scratch_) {
    const Slot& s = slots_[e.slot];
    if (!s.live || s.gen != e.gen) {
      if (dead_entries_ > 0) --dead_entries_;
      continue;  // cancelled while wheeled; drop here
    }
    // Re-route against the advanced base: tick == base goes near; a
    // near-lap entry drops at least one level; only far-lap aliases
    // (tick >> 6k differing by 64) re-wheel at the same level.
    enqueue_entry(e);
  }
  recompute_wheel_min();
}

void NodeRuntime::recompute_wheel_min() {
  wheel_min_tick_ = kTickNever;
  for (std::uint32_t level = 0; level < kWheelLevels; ++level) {
    std::uint64_t bits = wheel_occupied_[level];
    while (bits != 0) {
      const auto slot = static_cast<std::uint32_t>(std::countr_zero(bits));
      bits &= bits - 1;
      const WheelBucket& b = wheel_[level * kWheelSlots + slot];
      if (b.min_tick < wheel_min_tick_) wheel_min_tick_ = b.min_tick;
    }
  }
}

void NodeRuntime::push_outbox(NodeRuntime& target, Time t, EventFn fn, bool global) {
  Deferred d;
  d.src_time = now();
  d.src_shard = shard_;
  d.src_seq = executing_seq_;
  d.idx = static_cast<std::uint32_t>(outbox_.size());
  d.target = &target;
  d.time = t;
  d.fn = std::move(fn);
  d.global = global;
  outbox_.push_back(std::move(d));
}

const NodeRuntime::HeapEntry* NodeRuntime::peek(std::vector<HeapEntry>& heap) {
  while (!heap.empty()) {
    const HeapEntry& top = heap.front();
    const Slot& s = slots_[top.slot];
    if (s.live && s.gen == top.gen) return &top;
    std::pop_heap(heap.begin(), heap.end(), Later{});
    heap.pop_back();
    // global_heap_ entries are mirrors; dead_entries_ counts each event once
    // in its primary container (near heap, wheel bucket, or far heap).
    if (&heap != &global_heap_ && dead_entries_ > 0) --dead_entries_;
  }
  return nullptr;
}

Time NodeRuntime::global_head_time() {
  const HeapEntry* h = peek(global_heap_);
  return h != nullptr ? h->time : kTimeNever;
}

void NodeRuntime::execute_head() {
  ensure_near();
  const HeapEntry* h = peek(heap_);
  CMTOS_ASSERT(h != nullptr, "sched.empty_execute");
  if (h == nullptr) return;
  const HeapEntry e = *h;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();

  EventFn fn = std::move(slots_[e.slot].fn);
  const bool was_global = slots_[e.slot].global;
  free_slot(e.slot);
  live_.fetch_sub(1, std::memory_order_relaxed);
  // A fired global event is by definition the earliest global event, i.e.
  // the top of global_heap_; reap it (and any dead run behind it) now so
  // all-global workloads don't grow the heap unboundedly between the
  // executor's global_head_time() probes.
  if (was_global) (void)peek(global_heap_);

  // Event ordering: each shard hands out events in non-decreasing time
  // order — simulated time never runs backwards.
  CMTOS_INVARIANT(e.time >= now(), "sched.ordering");
  set_now(e.time);
  executing_seq_ = e.seq;

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
  s.live = false;
  ++s.gen;  // invalidates outstanding handles (ABA guard)
  s.next_free = free_head_;
  free_head_ = idx;
}

void NodeRuntime::maybe_compact() {
  // Lazy reap: once dead entries dominate the queue, rebuild it.  Keeps
  // cancel O(1) while bounding storage at ~2x the live events, so hot
  // arm/cancel cycles (keepalive, retransmit) stop paying O(dead) churn.
  const std::size_t total = heap_.size() + far_heap_.size() + wheel_count_;
  if (dead_entries_ < 64 || dead_entries_ * 2 < total) return;
  const auto dead = [this](const HeapEntry& e) {
    const Slot& s = slots_[e.slot];
    return !s.live || s.gen != e.gen;
  };
  std::erase_if(heap_, dead);
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  std::erase_if(global_heap_, dead);
  std::make_heap(global_heap_.begin(), global_heap_.end(), Later{});
  std::erase_if(far_heap_, dead);
  std::make_heap(far_heap_.begin(), far_heap_.end(), Later{});
  wheel_count_ = 0;
  for (std::uint32_t level = 0; level < kWheelLevels; ++level) {
    std::uint64_t bits = wheel_occupied_[level];
    while (bits != 0) {
      const auto slot = static_cast<std::uint32_t>(std::countr_zero(bits));
      bits &= bits - 1;
      WheelBucket& b = wheel_[level * kWheelSlots + slot];
      std::erase_if(b.entries, dead);
      b.min_tick = kTickNever;
      if (b.entries.empty()) {
        wheel_occupied_[level] &= ~(std::uint64_t{1} << slot);
        continue;
      }
      for (const HeapEntry& e : b.entries) {
        const std::int64_t tick = e.time / kWheelTick;
        if (tick < b.min_tick) b.min_tick = tick;
      }
      wheel_count_ += b.entries.size();
    }
  }
  recompute_wheel_min();
  dead_entries_ = 0;
}

}  // namespace cmtos::sim
