// cmtos/transport/timer_set.h
//
// A keyed set of protocol timers sharing one node runtime.  The transport
// control plane (ConnectionManager handshake retransmits, the
// RenegotiationEngine's RN retries) and the LLO's operation timeouts all
// follow the same pattern: at most one live timer per (kind, key), re-armed
// or cancelled as the protocol advances, and all of them dropped together
// on a crash.  TimerSet centralises that bookkeeping so the owning engines
// do not each carry a map of raw EventHandles.
//
// Timers armed with arm_global run as global events: their expiry paths
// release shared network reservations or notify facade-side users, so the
// executor must serialise the rounds they fire in.  arm_local timers touch
// only node-owned state and stay eligible for parallel rounds.

#pragma once

#include <cstdint>
#include <utility>

#include "sim/node_runtime.h"
#include "util/slot_table.h"
#include "util/time.h"

namespace cmtos::transport {

/// Timer slots multiplexed through one TimerSet.  One live timer per
/// (kind, key); keys are VC ids for the transport and session ids for the
/// LLO.  Timers whose natural key is composite and wider than 64 bits — the
/// LLO's regulation slots and merge windows, keyed by (session, vc) or
/// (vc, interval_id) — stay as raw EventHandles in their owning structs
/// instead; packing them here would alias distinct timers.
enum class TimerKind : std::uint8_t {
  kRcrRetransmit,        // remote-connect (RCR) retransmission
  kCrRetransmit,         // connect (CR) retransmission
  kRenegRetransmit,      // RN retransmission
  kOpTimeout,            // LLO group-operation timeout
};

class TimerSet {
 public:
  explicit TimerSet(sim::NodeRuntime& rt) : rt_(rt) {}
  TimerSet(const TimerSet&) = delete;
  TimerSet& operator=(const TimerSet&) = delete;
  ~TimerSet() { cancel_all(); }

  sim::NodeRuntime& runtime() { return rt_; }

  /// Arms (kind, key) to fire `d` from now as a node-local event.  An
  /// existing timer in the slot is cancelled first.
  void arm_local(TimerKind kind, std::uint64_t key, Duration d, sim::EventFn fn) {
    slot(kind, key) = rt_.after(d, std::move(fn));
  }

  /// Arms (kind, key) as a *global* event (expiry may touch shared state).
  void arm_global(TimerKind kind, std::uint64_t key, Duration d, sim::EventFn fn) {
    slot(kind, key) = rt_.after_global(d, std::move(fn));
  }

  void cancel(TimerKind kind, std::uint64_t key) {
    auto it = timers_.find({kind, key});
    if (it == timers_.end()) return;
    it->second.cancel();
    timers_.erase(it);
  }

  /// Cancels every kind armed under `key` (VC teardown).
  void cancel_key(std::uint64_t key) {
    for (auto it = timers_.begin(); it != timers_.end();) {
      if (it->first.second == key) {
        it->second.cancel();
        it = timers_.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Cancels everything (crash: all protocol timers die with the node).
  void cancel_all() {
    for (auto& [key, handle] : timers_) handle.cancel();
    timers_.clear();
  }

  bool pending(TimerKind kind, std::uint64_t key) const {
    auto it = timers_.find({kind, key});
    return it != timers_.end() && it->second.pending();
  }

 private:
  sim::EventHandle& slot(TimerKind kind, std::uint64_t key) {
    sim::EventHandle& h = timers_[{kind, key}];
    h.cancel();
    return h;
  }

  sim::NodeRuntime& rt_;
  // Flat table: steady-state re-arm cycles (retransmit, op timeout) recycle
  // slab slots instead of allocating tree nodes per arm.
  FlatMap<std::pair<TimerKind, std::uint64_t>, sim::EventHandle> timers_;
};

}  // namespace cmtos::transport
