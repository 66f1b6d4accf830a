// cmtos/sim/node_runtime.h
//
// One shard of the sharded simulation runtime: the per-node event queue.
//
// Every simulated node owns exactly one NodeRuntime (shard 0 is the control
// shard behind the sim::Scheduler facade).  All state of a node — transport
// entity, LLO, media endpoints, link transmit sides — is driven by events
// on its own runtime, and cross-node interaction happens only through
// net::Network deliveries, which the Executor routes between shards at
// round barriers.  See DESIGN.md §10 for the ownership rules.
//
// Storage is pooled: each event occupies a recycled slot holding a
// small-buffer EventFn, so the hot path performs no per-event heap
// allocation.  The queue is one binary min-heap of 16-byte entries, the
// event time plus (seq << 24) | slot.  An entry is live while its slot
// still holds that seq, so a fired or cancelled event's entry is dead at
// once and a handle to a reused slot is inert.  Cancelling destroys the
// callback immediately and the heap lazily reaps dead entries, so pending()
// counts live events exactly.  Events fire in exact (time, seq) order per
// shard, which keeps --threads determinism.  See DESIGN.md §15 for why one
// heap suffices.
//
// Events are classified local or global:
//   * local  — touches only this node's state.  Eligible for parallel
//     rounds.
//   * global — may touch shared simulation state (reservations, topology,
//     node liveness, facade-side managers).  Forces the executor into a
//     serial round, where events run one at a time in (time, shard, seq)
//     order.
// The classification is part of the schedule call (at_global/after_global/
// defer_global); everything else defaults to local.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_fn.h"
#include "util/rng.h"
#include "util/time.h"

namespace cmtos::sim {

class Executor;
class NodeRuntime;
class Scheduler;

/// Handle to a scheduled event; allows cancellation.  Cheap to copy.
/// A default-constructed handle is inert.  Handles must only be used from
/// the owning shard (or while the executor is not in a parallel round).
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not yet fired.  Idempotent.  Destroys the
  /// callback immediately and removes the event from the live count.
  void cancel();

  /// True if the event is still pending (not fired, not cancelled).
  bool pending() const;

 private:
  friend class NodeRuntime;
  EventHandle(NodeRuntime* rt, std::uint32_t slot, std::uint64_t seq)
      : rt_(rt), slot_(slot), seq_(seq) {}
  NodeRuntime* rt_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t seq_ = 0;
};

class NodeRuntime {
 public:
  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  /// This shard's current simulated time (true time; node-local skewed
  /// clocks layer on top via sim::LocalClock).
  Time now() const { return now_.load(std::memory_order_relaxed); }

  /// Schedules a local event at absolute time `t` (>= now).  Callbacks
  /// travel by rvalue all the way into their slot, so each is moved once.
  EventHandle at(Time t, EventFn&& fn) { return schedule(t, std::move(fn), false); }
  /// Schedules a local event `d` after now (d < 0 is clamped to 0).
  EventHandle after(Duration d, EventFn&& fn) {
    return schedule(now() + (d < 0 ? 0 : d), std::move(fn), false);
  }

  /// Global variants: the event may touch shared cross-node state, so the
  /// executor serialises the round it runs in.
  EventHandle at_global(Time t, EventFn&& fn) { return schedule(t, std::move(fn), true); }
  EventHandle after_global(Duration d, EventFn&& fn) {
    return schedule(now() + (d < 0 ? 0 : d), std::move(fn), true);
  }

  /// Escalation hatch for a local event that discovers it must mutate
  /// shared state: runs `fn` at the current time as a global event.  In a
  /// parallel round the shard stops in front of it and the next round is
  /// serial, at every thread count alike.
  void defer_global(EventFn&& fn) { (void)schedule(now(), std::move(fn), true); }

  /// Shard index within the executor (0 = control shard).
  std::uint32_t shard() const { return shard_; }
  Executor& executor() { return *exec_; }

  /// Deterministic per-shard random stream (seeded from the executor seed
  /// and the shard index).
  Rng& rng() { return rng_; }

  /// Node-scoped unique ids (packet ids, trace correlation): no shared
  /// counter, so parallel shards stay deterministic.
  std::uint64_t next_node_unique_id() {
    return (static_cast<std::uint64_t>(shard_ + 1) << 40) | ++unique_seq_;
  }

  /// Number of live (scheduled, not fired, not cancelled) events.
  std::size_t live() const { return live_.load(std::memory_order_relaxed); }
  /// Heap entries, dead ones included.  A cancel reaps every dead entry once
  /// they are at least half the heap and 64 or more, so arm/cancel churn
  /// keeps this at most 2 x live() + 64.
  std::size_t queued() const { return heap_.size(); }

  /// Entry key layout: a shard holds at most 2^24 slots (live events) and
  /// hands out 2^40 sequence numbers (1.1e12 schedule calls).
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << (64 - kSlotBits);

 private:
  friend class EventHandle;
  friend class Executor;

  static constexpr std::uint64_t kFreeSeq = ~std::uint64_t{0};  // no entry matches

  struct Slot {
    EventFn fn;
    std::uint64_t seq = kFreeSeq;  // seq of the pending event in this slot
    std::uint32_t next_free = 0;
    bool global = false;
  };
  struct HeapEntry {
    Time time = 0;
    std::uint64_t key = 0;  // (seq << kSlotBits) | slot
    std::uint32_t slot() const { return static_cast<std::uint32_t>(key & (kMaxSlots - 1)); }
    std::uint64_t seq() const { return key >> kSlotBits; }
  };
  // Min-heap over (time, seq): seq fills the key's high bits and is unique
  // per shard, so comparing keys compares seqs.  std::*_heap with this
  // comparator keeps the earliest event on top.
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.key > b.key;
    }
  };
  /// A schedule call that targeted another shard during a parallel round;
  /// buffered on the *scheduling* shard and applied at the round barrier in
  /// (src_time, src_shard, index) order.  A shard runs its events in
  /// (time, seq) order, so its outbox index order is that order too.
  struct Deferred {
    Time src_time = 0;
    NodeRuntime* target = nullptr;
    Time time = 0;
    EventFn fn;
    bool global = false;
  };

  NodeRuntime(Executor* exec, std::uint32_t shard, std::uint64_t rng_seed)
      : exec_(exec), shard_(shard), rng_(rng_seed) {}

  EventHandle schedule(Time t, EventFn&& fn, bool global);
  EventHandle insert_direct(Time t, EventFn&& fn, bool global);

  bool is_live(const HeapEntry& e) const { return slots_[e.slot()].seq == e.seq(); }
  /// The live top of the heap, lazily popping dead (fired or cancelled)
  /// entries; nullptr when empty.
  const HeapEntry* head() {
    while (!heap_.empty()) {
      if (is_live(heap_.front())) return &heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
      --dead_entries_;
    }
    return nullptr;
  }
  /// Earliest live global event's time, or kTimeNever.
  Time global_head_time();
  /// Pops and runs the head event.  Precondition: head() just returned it.
  void execute_head();

  void free_slot(std::uint32_t idx);
  void maybe_compact();
  void set_now(Time t) { now_.store(t, std::memory_order_relaxed); }
  // Only this shard's thread writes the count, so a plain store suffices;
  // other threads may read it.
  void set_live(std::size_t n) { live_.store(n, std::memory_order_relaxed); }

  Executor* exec_;
  std::uint32_t shard_;
  std::atomic<Time> now_{0};
  std::uint64_t next_seq_ = 0;
  std::uint64_t unique_seq_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoFreeSlot;
  std::vector<HeapEntry> heap_;         // min-heap over (time, seq)
  std::vector<HeapEntry> global_heap_;  // min-heap over global events only
  std::size_t dead_entries_ = 0;        // dead entries still in heap_
  std::atomic<std::size_t> live_{0};
  std::vector<Deferred> outbox_;
  Rng rng_;

  static constexpr std::uint32_t kNoFreeSlot = 0xffffffffu;
};

/// The owning protocol timer: at most one pending event, cancelled when the
/// Timer is re-armed, move-assigned over or destroyed.  Put it in the record
/// whose lifetime it guards (a pending handshake, a peer, an endpoint), and
/// erasing the record or clearing its table cancels the timer with no extra
/// line.  Outside src/sim this is the only way to hold an event.  Like
/// EventHandle, it must only be used from the shard that armed it (or while
/// the executor is not in a parallel round), and the runtime must outlive it.
class Timer {
 public:
  Timer() = default;
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  Timer(Timer&& other) noexcept : h_(std::exchange(other.h_, EventHandle{})) {}
  Timer& operator=(Timer&& other) noexcept {
    if (this != &other) {
      h_.cancel();
      h_ = std::exchange(other.h_, EventHandle{});
    }
    return *this;
  }
  ~Timer() { h_.cancel(); }

  /// Arms a local event on `rt` at absolute time `t` / `d` from now.
  void at(NodeRuntime& rt, Time t, EventFn&& fn) {
    h_.cancel();
    h_ = rt.at(t, std::move(fn));
  }
  void after(NodeRuntime& rt, Duration d, EventFn&& fn) {
    h_.cancel();
    h_ = rt.after(d, std::move(fn));
  }
  /// Arms a global event on `rt`: its expiry may touch shared state.
  void after_global(NodeRuntime& rt, Duration d, EventFn&& fn) {
    h_.cancel();
    h_ = rt.after_global(d, std::move(fn));
  }
  /// Arms a global control-shard event through the facade (Scheduler::after).
  void after(Scheduler& sched, Duration d, EventFn&& fn);

  /// Cancels the pending event, if any.  Idempotent.
  void cancel() { h_.cancel(); }
  /// True while the armed event has neither fired nor been cancelled.
  bool pending() const { return h_.pending(); }

 private:
  EventHandle h_;
};

}  // namespace cmtos::sim
