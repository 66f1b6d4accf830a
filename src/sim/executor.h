// cmtos/sim/executor.h
//
// Conservative parallel discrete-event executor over node shards.
//
// Time advances in lock-stepped rounds.  Each round:
//   1. T_min  = earliest pending event time across all shards, read from
//      a per-shard array of head-time lower bounds (see earliest()).
//   2. H      = min(T_min + L, bound), where L is the lookahead — the
//      minimum in-flight link latency reported by the network.  Every
//      cross-shard delivery scheduled by an event at time t lands at
//      >= t + L >= H, so no event executed in this round can affect
//      another shard *within* the round.
//   3. Classify: if any shard holds a *global* event earlier than H (or
//      tracing is enabled), the round is serial — events across all shards
//      run one at a time in (time, shard, seq) order and may touch shared
//      state; each next event comes from the same bound array.  Otherwise
//      the round is parallel: each shard whose bound is below H
//      independently drains its own events below H in (time, seq) order,
//      stopping early if its head becomes a global event (which then
//      forces the next round serial), and stores its exact head as its
//      bound when it stops.  Shards at or past H are never touched.
//   4. Barrier: schedule calls that targeted another shard during a
//      parallel round were buffered in the outboxes of the shards that
//      ran; they are applied in deterministic (source time, source shard,
//      outbox index) order.  A shard runs its events in (time, seq) order,
//      so the index orders one shard's entries as its seqs would.
//
// The same classification and execution rules run at every worker count:
// at --threads 1 a "parallel" round simply visits the shards sequentially.
// Round structure is a pure function of queue state, so N=1 and N=8
// produce byte-identical event orders — N=1 is the determinism oracle.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "sim/node_runtime.h"
#include "util/sync.h"
#include "util/time.h"

namespace cmtos::sim {

class Executor {
 public:
  explicit Executor(std::uint64_t seed = 0x9e3779b97f4a7c15ull);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Creates the next shard (0 is the control shard, created by the
  /// Scheduler facade; the network allocates one per node).
  NodeRuntime& add_shard();
  NodeRuntime& shard(std::uint32_t i) { return *shards_[i]; }
  std::uint32_t shard_count() const { return static_cast<std::uint32_t>(shards_.size()); }

  /// Worker count for parallel rounds (1 = run everything on the calling
  /// thread).  May be called between runs, not from inside an event.
  void set_threads(unsigned n);
  unsigned threads() const { return threads_; }

  /// Lookahead: lower bound on cross-shard delivery latency.  The network
  /// keeps this equal to the minimum link propagation delay and must
  /// refresh it when links are added or retuned mid-run.  Clamped to >= 1.
  void set_lookahead(Duration l) { lookahead_ = l < 1 ? 1 : l; }
  Duration lookahead() const { return lookahead_; }

  /// Runs events in global (time, shard, seq) order until all queues are
  /// empty or `limit` events have fired.  Always serial.  Returns events
  /// fired.
  std::size_t run(std::size_t limit);

  /// Runs conservative rounds until every event with time <= t has fired,
  /// then advances every shard's clock to exactly t.  Returns events fired.
  std::size_t run_until(Time t);

  /// The runtime whose event is executing on this thread, or nullptr
  /// outside event context.  Scheduling against a different runtime during
  /// a parallel round is what routes through the outbox.
  static NodeRuntime* current() { return current_; }

  /// True while a parallel round is executing (cross-shard schedule calls
  /// must detour through the outbox instead of touching foreign heaps).
  bool in_parallel_round() const { return parallel_phase_; }

  /// Live events across all shards.
  std::size_t live_events() const;

  /// Round-classification counters since construction (observability: a
  /// workload that should scale but doesn't usually shows up here as an
  /// unexpected serial-round majority).
  std::uint64_t serial_rounds() const { return serial_rounds_; }
  std::uint64_t parallel_rounds() const { return parallel_rounds_; }
  /// Shard head reads (one per queue inspection of a shard) since
  /// construction.  A pure function of queue state, like the round counts:
  /// idle shards cost none once their bounds are exact.
  std::uint64_t head_probes() const { return head_probes_; }

 private:
  friend class NodeRuntime;

  struct Earliest {
    NodeRuntime* shard;  // nullptr when every queue is empty
    Time time;
  };
  /// The shard holding the earliest pending event — or, with `global`, the
  /// earliest global event — with ties to the lowest shard index.  Scans
  /// the bound array and refreshes only the argmin shard.  An insert only
  /// lowers a bound; a fire or a cancel may leave it stale-low until it is
  /// refreshed here or at the end of the shard's parallel round.
  Earliest earliest(bool global);
  /// Reads shard `i`'s exact head (or global head) time and counts it.
  Time probe(std::uint32_t i, bool global);
  void run_serial_round(Time horizon);
  void run_parallel_round(Time horizon);
  void drain_outboxes();

  void start_workers(unsigned n);
  void stop_workers();
  /// Executes round_shards_ (claimed via round_next_) below round_horizon_.
  void work_round();

  static thread_local NodeRuntime* current_;

  std::uint64_t seed_;
  Duration lookahead_ = 1;
  unsigned threads_ = 1;
  bool parallel_phase_ = false;
  std::size_t fired_ = 0;  // events fired in the current run_* call
  std::uint64_t serial_rounds_ = 0;
  std::uint64_t parallel_rounds_ = 0;
  std::uint64_t head_probes_ = 0;
  std::vector<std::unique_ptr<NodeRuntime>> shards_;
  // Per-shard lower bounds on the head time and the global head time
  // (kTimeNever for an empty queue).  NodeRuntime::insert_direct lowers its
  // own shard's entries; during a parallel round only the thread running a
  // shard writes that shard's entries.
  std::vector<Time> head_lb_;
  std::vector<Time> global_lb_;
  // The current parallel round's shards (bound below the horizon).
  std::vector<std::uint32_t> round_shards_;
  // drain_outboxes' sort keys: the callbacks stay in the outboxes and move
  // once, into their target's slot.  Keeps its capacity across rounds.
  struct OutboxKey {
    Time src_time;
    std::uint32_t shard;
    std::uint32_t idx;
  };
  std::vector<OutboxKey> drained_;

  // Worker pool (threads_ - 1 workers; the calling thread participates).
  // A worker joins a round by bumping the joined count in round_word_;
  // once the last shard is claimed the caller closes the round and waits
  // only for the workers that joined (DESIGN.md §10, "Round handoff").
  // The mutex only guards the park/notify edge; all round state is
  // published through the release store of a new generation.
  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_start_;
  CondVar cv_done_;
  // (generation << 32) | closed bit | workers joined.
  static constexpr std::uint64_t kRoundClosed = 1ull << 31;
  static constexpr std::uint64_t kJoinedMask = kRoundClosed - 1;
  std::atomic<std::uint64_t> round_word_{0};
  std::atomic<unsigned> round_left_{0};  // joined workers done with the round
  std::atomic<bool> shutdown_{false};
  Time round_horizon_ = 0;
  std::atomic<std::uint32_t> round_next_{0};  // round_shards_ claim cursor
  std::atomic<std::size_t> round_fired_{0};
  std::atomic<std::uint64_t> round_probes_{0};
};

}  // namespace cmtos::sim
