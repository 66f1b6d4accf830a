// cmtos/net/chaos.h
//
// Deterministic fault injection.  A ChaosPlan is a seeded list of timed
// fault events — node crash/restart, link down/up (partition/heal), node
// isolation, and link storms — which a ChaosEngine schedules on the
// network's Scheduler and applies straight to the Network it breaks.
// Every fault is one Network call (set_node_up, set_link_up,
// set_node_isolated) or, for a storm, a write of one or two LinkConfig
// fields on both directions of a link, undone when the storm ends.  Each
// storm kind is one row of a table in chaos.cpp, so adding an impairment
// takes one FaultKind, one builder and one row.
//
// Replayability: the engine draws every stochastic choice (per-event start
// jitter) from an Rng seeded by the plan, and records each applied fault in
// an ordered textual log.  Running the same plan against the same world
// twice yields byte-identical logs — the acceptance test for every chaos
// scenario.  Each injection also emits a `faults.injected{kind=...}`
// counter and a trace instant so soak runs can be validated from the obs
// JSON snapshot alone.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/network.h"
#include "util/rng.h"
#include "util/time.h"

namespace cmtos::net {

enum class FaultKind : std::uint8_t {
  kNodeCrash = 0,
  kNodeRestart = 1,
  kLinkDown = 2,
  kLinkUp = 3,
  kLossStorm = 4,
  kJitterStorm = 5,
  kNodeIsolate = 6,
  kNodeHeal = 7,
  // Byzantine wire impairments: windows of real byte damage rather than
  // clean loss.  Like the loss and jitter storms, each sets a link
  // impairment for `duration`, then restores the previous value.
  kCorruptStorm = 8,    // bit_error_rate: seeded bit flips in wire bytes
  kReorderStorm = 9,    // bounded-displacement reordering (extra hold delay)
  kDupStorm = 10,       // packet duplication
  kTruncStorm = 11,     // truncation to a random prefix
};

const char* to_string(FaultKind k);

/// One timed fault.  A crash, restart, isolation or node heal names
/// `node`; a cut, link heal or storm names the link `a`<->`b`.  A cut or
/// isolation with duration > 0 schedules its own heal.  A storm lasts
/// `duration` and takes its values from `loss_rate` (the loss, bit-error,
/// reorder, duplication or truncation rate) and `jitter` (the jitter, or
/// the reorder window), as its row in chaos.cpp maps them.
struct ChaosEvent {
  Time at = 0;
  FaultKind kind = FaultKind::kNodeCrash;
  std::uint32_t node = 0;
  std::uint32_t a = 0, b = 0;
  Duration duration = 0;
  double loss_rate = 0.0;
  Duration jitter = 0;
  /// Uniform random offset in [0, start_jitter] added to `at`, drawn from
  /// the plan-seeded Rng; lets a scenario decorrelate faults between seeds
  /// while staying replayable for a fixed seed.
  Duration start_jitter = 0;
};

/// A seeded fault schedule.  Builder methods append events and return the
/// plan for chaining.
struct ChaosPlan {
  std::uint64_t seed = 1;
  std::vector<ChaosEvent> events;

  ChaosPlan& crash(Time at, std::uint32_t node) {
    return add({.at = at, .kind = FaultKind::kNodeCrash, .node = node});
  }
  ChaosPlan& restart(Time at, std::uint32_t node) {
    return add({.at = at, .kind = FaultKind::kNodeRestart, .node = node});
  }
  /// Cuts both directions of a<->b; heal_after > 0 re-raises the link
  /// automatically that long after the cut.
  ChaosPlan& partition(Time at, std::uint32_t a, std::uint32_t b, Duration heal_after = 0) {
    return add({.at = at, .kind = FaultKind::kLinkDown, .a = a, .b = b, .duration = heal_after});
  }
  ChaosPlan& heal(Time at, std::uint32_t a, std::uint32_t b) {
    return add({.at = at, .kind = FaultKind::kLinkUp, .a = a, .b = b});
  }
  /// Cuts every link touching `node` in one event (node alive but
  /// unreachable — the split-brain primitive); heal_after > 0 re-raises
  /// them all that long after the cut.
  ChaosPlan& isolate(Time at, std::uint32_t node, Duration heal_after = 0) {
    return add({.at = at, .kind = FaultKind::kNodeIsolate, .node = node, .duration = heal_after});
  }
  ChaosPlan& loss_storm(Time at, std::uint32_t a, std::uint32_t b, double loss_rate,
                        Duration duration) {
    return storm(at, FaultKind::kLossStorm, a, b, loss_rate, 0, duration);
  }
  ChaosPlan& jitter_storm(Time at, std::uint32_t a, std::uint32_t b, Duration jitter,
                          Duration duration) {
    return storm(at, FaultKind::kJitterStorm, a, b, 0.0, jitter, duration);
  }
  // --- byzantine wire storms ---
  ChaosPlan& corrupt_storm(Time at, std::uint32_t a, std::uint32_t b, double bit_error_rate,
                           Duration duration) {
    return storm(at, FaultKind::kCorruptStorm, a, b, bit_error_rate, 0, duration);
  }
  ChaosPlan& reorder_storm(Time at, std::uint32_t a, std::uint32_t b, double rate,
                           Duration window, Duration duration) {
    return storm(at, FaultKind::kReorderStorm, a, b, rate, window, duration);
  }
  ChaosPlan& dup_storm(Time at, std::uint32_t a, std::uint32_t b, double rate,
                       Duration duration) {
    return storm(at, FaultKind::kDupStorm, a, b, rate, 0, duration);
  }
  ChaosPlan& truncate_storm(Time at, std::uint32_t a, std::uint32_t b, double rate,
                            Duration duration) {
    return storm(at, FaultKind::kTruncStorm, a, b, rate, 0, duration);
  }

 private:
  ChaosPlan& add(const ChaosEvent& ev) {
    events.push_back(ev);
    return *this;
  }
  ChaosPlan& storm(Time at, FaultKind kind, std::uint32_t a, std::uint32_t b, double rate,
                   Duration span, Duration duration) {
    return add({.at = at, .kind = kind, .a = a, .b = b, .duration = duration, .loss_rate = rate,
                .jitter = span});
  }
};

class ChaosEngine {
 public:
  explicit ChaosEngine(Network& net) : net_(net) {}

  /// Schedules every event of the plan (relative times are absolute sim
  /// times).  May be called once per engine.
  void arm(const ChaosPlan& plan);

  /// Ordered record of every fault applied so far; identical across runs
  /// of the same plan against the same world.
  const std::vector<std::string>& log() const { return log_; }

  /// Faults applied so far (injections only, not storm restorations).
  std::int64_t injected() const { return injected_; }

 private:
  /// A storm in progress, in start order.  While storms of one kind overlap
  /// on one link, the most recently started one still running sets the
  /// link; when the last one ends, the forward link's values from before
  /// the first of them return.
  struct RunningStorm {
    std::uint64_t id;
    ChaosEvent ev;
    double rate_before;
    Duration span_before;
  };

  void inject(const ChaosEvent& ev);
  void start_storm(const ChaosEvent& ev);
  void end_storm(const ChaosEvent& ev, std::uint64_t id);
  void record(const ChaosEvent& ev, const std::string& detail);

  Network& net_;
  Rng rng_{1};
  bool armed_ = false;
  std::int64_t injected_ = 0;
  std::vector<std::string> log_;
  std::vector<RunningStorm> storms_;
  std::uint64_t storms_started_ = 0;
};

}  // namespace cmtos::net
