// cmtos/sim/scheduler.h
//
// Deterministic discrete-event scheduler — the facade over the sharded
// runtime (sim/executor.h, sim/node_runtime.h).
//
// The paper's system ran on transputer MNI units attached to a real-time
// network emulator.  We substitute a discrete-event simulation: every
// component (link, transport entity, LLO, application thread) is driven by
// events posted to its node's NodeRuntime.  The Scheduler owns the
// Executor and the *control shard* (shard 0), which hosts everything that
// is not anchored to a simulated node: test drivers, chaos engines, QoS
// managers, supervisors.  Control-shard events are global — they may touch
// any node's state, and the executor serialises the rounds they run in —
// so all pre-existing single-queue semantics are preserved at any worker
// count.
//
// Determinism rules:
//   * simulated time is integer nanoseconds (util/time.h);
//   * per-shard ties are broken by insertion order (a monotonic sequence
//     number), cross-shard ties by shard id, so two runs with the same
//     seed produce identical traces — at --threads 1 and 8 alike.

#pragma once

#include <cstdint>
#include <memory>

#include "sim/executor.h"
#include "util/time.h"

namespace cmtos::sim {

class Scheduler {
 public:
  Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time: the executing shard's clock from inside an
  /// event, the control shard's otherwise.
  Time now() const;

  /// Schedules `fn` to run at absolute time `t` (>= now) on the control
  /// shard, as a global event.
  EventHandle at(Time t, EventFn&& fn);

  /// Schedules `fn` to run `d` after now (d < 0 is clamped to 0).
  EventHandle after(Duration d, EventFn&& fn);

  /// Runs events until the queues are empty or `limit` events have fired.
  /// Returns the number of events fired.  Fully serial (used by unit
  /// tests that single-step).
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Runs events with timestamp <= t, then advances now to exactly t.
  /// This is the round-based driver: with set_threads(n > 1), rounds
  /// containing only node-local events execute across n threads.
  std::size_t run_until(Time t);

  /// Number of live scheduled events across all shards.  Cancelled events
  /// are reaped from this count immediately.
  std::size_t pending() const { return exec_->live_events(); }

  /// The sharded executor (shard management, lookahead).
  Executor& executor() { return *exec_; }
  const Executor& executor() const { return *exec_; }

  /// Worker count for parallel rounds; 1 reproduces the serial engine.
  void set_threads(unsigned n) { exec_->set_threads(n); }

 private:
  std::unique_ptr<Executor> exec_;
  NodeRuntime* control_;
};

}  // namespace cmtos::sim
