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
// Storage is pooled: each event occupies a recycled slot (generation
// counter for ABA-safe handles) holding a small-buffer EventFn, so the hot
// path performs no per-event heap allocation.  Cancelling destroys the
// callback immediately and the queue lazily reaps dead heap entries, so
// pending() counts live events exactly.
//
// The queue itself is a hierarchical timer wheel (4 levels x 64 buckets,
// 1 ms granularity, ~4.6 h span) in front of a near binary heap and a far
// overflow heap.  Arm and cancel are O(1) regardless of how many timers are
// pending; only events about to fire pay heap discipline.  Residency (near
// heap vs wheel bucket vs far heap) is invisible: events always fire in
// exact (time, seq) order per shard, so --threads determinism is untouched.
// See DESIGN.md §15 for the level math and the base-advance invariant.
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

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
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
  EventHandle(NodeRuntime* rt, std::uint32_t slot, std::uint64_t gen)
      : rt_(rt), slot_(slot), gen_(gen) {}
  NodeRuntime* rt_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t gen_ = 0;
};

class NodeRuntime {
 public:
  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  /// This shard's current simulated time (true time; node-local skewed
  /// clocks layer on top via sim::LocalClock).
  Time now() const { return now_.load(std::memory_order_relaxed); }

  /// Schedules a local event at absolute time `t` (>= now).
  EventHandle at(Time t, EventFn fn) { return schedule(t, std::move(fn), false); }
  /// Schedules a local event `d` after now (d < 0 is clamped to 0).
  EventHandle after(Duration d, EventFn fn) {
    return schedule(now() + (d < 0 ? 0 : d), std::move(fn), false);
  }

  /// Global variants: the event may touch shared cross-node state, so the
  /// executor serialises the round it runs in.
  EventHandle at_global(Time t, EventFn fn) { return schedule(t, std::move(fn), true); }
  EventHandle after_global(Duration d, EventFn fn) {
    return schedule(now() + (d < 0 ? 0 : d), std::move(fn), true);
  }

  /// Escalation hatch for a local event that discovers it must mutate
  /// shared state: runs `fn` at the current time as a global event.  In a
  /// parallel round the shard stops in front of it and the next round is
  /// serial, at every thread count alike.
  void defer_global(EventFn fn) { (void)schedule(now(), std::move(fn), true); }

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

 private:
  friend class EventHandle;
  friend class Executor;

  struct Slot {
    EventFn fn;
    std::uint64_t gen = 0;
    std::uint32_t next_free = 0;
    bool live = false;
    bool global = false;
  };
  struct HeapEntry {
    Time time = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint64_t gen = 0;
  };
  // Min-heap over (time, seq): std::*_heap with this comparator keeps the
  // earliest event on top.
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  /// A schedule call that targeted another shard during a parallel round;
  /// buffered on the *scheduling* shard and applied at the round barrier in
  /// deterministic (src_time, src_shard, src_seq, idx) order.
  struct Deferred {
    Time src_time = 0;
    std::uint32_t src_shard = 0;
    std::uint64_t src_seq = 0;
    std::uint32_t idx = 0;
    NodeRuntime* target = nullptr;
    Time time = 0;
    EventFn fn;
    bool global = false;
  };

  NodeRuntime(Executor* exec, std::uint32_t shard, std::uint64_t rng_seed)
      : exec_(exec), shard_(shard), rng_(rng_seed) {}

  // Hierarchical timer wheel geometry: 4 levels x 64 buckets at 1 ms tick
  // granularity.  Level k buckets are indexed by (tick >> 6k) & 63 and span
  // 64^k ticks each; the whole wheel covers 64^4 ticks (~4.66 h) past the
  // base, with earlier events in the near heap and later ones in far_heap_.
  static constexpr std::uint32_t kWheelBits = 6;
  static constexpr std::uint32_t kWheelSlots = 1u << kWheelBits;
  static constexpr std::uint32_t kWheelLevels = 4;
  static constexpr std::int64_t kWheelTick = kMillisecond;
  static constexpr std::int64_t kWheelSpan =
      std::int64_t{1} << (kWheelBits * kWheelLevels);
  static constexpr std::int64_t kTickNever =
      std::numeric_limits<std::int64_t>::max();

  /// One wheel bucket: unsorted entries plus a cached minimum tick.  The
  /// cached minimum only ever under-estimates (cancelled entries may leave
  /// it stale-low), which is safe: it is used as a conservative lower bound
  /// on when the bucket must be drained.
  struct WheelBucket {
    std::vector<HeapEntry> entries;
    std::int64_t min_tick = kTickNever;
  };

  EventHandle schedule(Time t, EventFn fn, bool global);
  EventHandle insert_direct(Time t, EventFn fn, bool global);
  void push_outbox(NodeRuntime& target, Time t, EventFn fn, bool global);

  /// Routes an entry to the near heap (tick <= base), a wheel bucket, or the
  /// far heap.  Does not touch global_heap_ (that mirror is insert-only).
  void enqueue_entry(const HeapEntry& e);
  /// Moves entries out of the wheel/far heap into the near heap until the
  /// near top is strictly earlier than everything still wheeled, so the near
  /// heap top is the true (time, seq) minimum of the shard.
  void ensure_near();
  /// Drains the bucket holding wheel_min_tick_: advances the base to that
  /// tick and re-routes the bucket's live entries (near heap or a lower
  /// level; far-lap aliases re-wheel at the same level).
  void drain_min_bucket();
  /// Recomputes wheel_min_tick_ from the occupancy bitmasks.
  void recompute_wheel_min();

  /// Top live entry of `heap`, lazily dropping dead (cancelled/fired)
  /// entries; nullptr when empty.
  const HeapEntry* peek(std::vector<HeapEntry>& heap);
  const HeapEntry* head() {
    ensure_near();
    return peek(heap_);
  }
  /// Earliest live global event's time, or kTimeNever.
  Time global_head_time();
  /// Pops and runs the head event.  Precondition: head() != nullptr.
  void execute_head();

  void free_slot(std::uint32_t idx);
  void maybe_compact();
  void set_now(Time t) { now_.store(t, std::memory_order_relaxed); }

  Executor* exec_;
  std::uint32_t shard_;
  std::atomic<Time> now_{0};
  std::uint64_t next_seq_ = 0;
  std::uint64_t executing_seq_ = 0;  // seq of the event currently running
  std::uint64_t unique_seq_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoFreeSlot;
  std::vector<HeapEntry> heap_;         // near min-heap over (time, seq)
  std::vector<HeapEntry> global_heap_;  // min-heap over global events only
  std::vector<HeapEntry> far_heap_;     // min-heap, events past the wheel span
  std::array<WheelBucket, kWheelLevels * kWheelSlots> wheel_;
  std::array<std::uint64_t, kWheelLevels> wheel_occupied_{};  // bitmask/level
  std::vector<HeapEntry> wheel_scratch_;  // drain workspace (keeps capacity)
  std::int64_t wheel_base_tick_ = 0;   // wheel entries all have tick > base
  std::int64_t wheel_min_tick_ = kTickNever;  // min cached bucket min
  std::size_t wheel_count_ = 0;        // entries resident in wheel buckets
  std::size_t dead_entries_ = 0;  // dead entries still in heap_/wheel/far
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
  void at(NodeRuntime& rt, Time t, EventFn fn) {
    h_.cancel();
    h_ = rt.at(t, std::move(fn));
  }
  void after(NodeRuntime& rt, Duration d, EventFn fn) {
    h_.cancel();
    h_ = rt.after(d, std::move(fn));
  }
  /// Arms a global event on `rt`: its expiry may touch shared state.
  void after_global(NodeRuntime& rt, Duration d, EventFn fn) {
    h_.cancel();
    h_ = rt.after_global(d, std::move(fn));
  }
  /// Arms a global control-shard event through the facade (Scheduler::after).
  void after(Scheduler& sched, Duration d, EventFn fn);

  /// Cancels the pending event, if any.  Idempotent.
  void cancel() { h_.cancel(); }
  /// True while the armed event has neither fired nor been cancelled.
  bool pending() const { return h_.pending(); }

 private:
  EventHandle h_;
};

}  // namespace cmtos::sim
