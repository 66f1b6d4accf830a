// cmtos/orch/failover.h
//
// Orchestrator failover: recovery from the death of the orchestrating node
// itself (the robustness companion to §5's election).
//
// The paper's HLO picks one orchestrating node and keeps it for the life of
// the session; if that node crashes, every surviving VC loses its
// regulation loop silently — targets stop arriving, sinks free-run, and the
// application never hears about it.  The FailoverSupervisor closes that
// hole:
//
//   detect   the agent misses several regulate-report windows in a row
//            (last_report_time stale), or the node is directly known dead
//   re-elect Orchestrator::choose_orchestrating_node over the *surviving*
//            streams (endpoints alive and, for a partition, not on the
//            unreachable node), falling back to the §7 no-common-node
//            extension when the survivors share no node
//   rebuild  a fresh HLO agent (new session id, *higher epoch*) at the
//            elected node, Orch.request / Orch.Prime / Orch.Start over the
//            survivors, and a purge of the stale session state the old node
//            can no longer release (Llo::release_remote).  A failed rebuild
//            is retried with capped exponential backoff before the session
//            is declared orphaned.
//   report   Orch.Delayed to every surviving endpoint with the stall
//            length, and an on_failover callback to the application
//
// Split brain: a *partitioned* orchestrator (cause "reports-missed") is not
// dead — its agent keeps free-running on the far side and will regulate
// again the moment the partition heals.  The supervisor cannot reach it, so
// fencing does the work: the replacement runs at a higher epoch, every
// endpoint adopts that epoch as its fence, and the old agent's first
// post-heal OPDU is nacked (kStaleEpoch), making it self-retire.  The
// supervisor keeps the old session object in a superseded-holding list and
// only destroys it after that protocol-level retirement is observed.
//
// The supervisor is deliberately *not* part of the protocol entities: it
// models the management plane an operator deploys beside the platform, so
// its liveness oracle (NodeAliveFn) is pluggable — tests wire it to the
// simulated node-up bit, a real deployment would wire a heartbeat service.

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "orch/orchestrator.h"
#include "sim/scheduler.h"
#include "util/slot_table.h"
#include "util/thread_annotations.h"

namespace cmtos::orch {

struct FailoverConfig {
  /// Cadence of liveness checks.
  Duration check_interval = 500 * kMillisecond;
  /// Regulate-report silence after which a running agent is presumed
  /// dead.  Should be several regulation intervals: one lost report is
  /// routine (RegMerge already degrades to a partial indication).
  Duration agent_dead_after = 2 * kSecond;
};

class CMTOS_CONTROL_PLANE FailoverSupervisor {
 public:
  using NodeAliveFn = std::function<bool(net::NodeId)>;

  FailoverSupervisor(sim::Scheduler& sched, Orchestrator& orch,
                     Orchestrator::LloResolver resolver, NodeAliveFn alive,
                     FailoverConfig cfg = {});

  FailoverSupervisor(const FailoverSupervisor&) = delete;
  FailoverSupervisor& operator=(const FailoverSupervisor&) = delete;

  /// Adopts `session` (established or still establishing) and begins
  /// watching it.  The supervisor takes ownership; after a failover,
  /// session() returns the replacement.
  void watch(std::unique_ptr<OrchSession> session);

  OrchSession* session() { return session_.get(); }
  int failovers() const { return failovers_; }
  /// True when recovery gave up: no stream survived, or every rebuild
  /// attempt (initial + kMaxRebuildRetries) failed.
  bool orphaned() const { return orphaned_; }
  /// Rebuild attempts beyond the first across all failovers.
  int rebuild_retries() const { return retries_; }
  /// Superseded-but-unretired old sessions (partitioned orchestrators whose
  /// protocol-level self-retirement has not been observed yet).
  std::size_t superseded_count() const { return superseded_.size(); }

  /// Fires when a failover completes (new_node) or is abandoned
  /// (kInvalidNode).
  void set_on_failover(std::function<void(net::NodeId old_node, net::NodeId new_node)> fn) {
    on_failover_ = std::move(fn);
  }

 private:
  friend class FailoverFleet;

  void check();
  /// One detection + maintenance pass with no self-scheduling (the fleet's
  /// externally paced mode).
  void poll();
  /// Fleet pacing: suppresses the supervisor's own check timer; the owning
  /// FailoverFleet decides when poll() runs.
  void set_external_pacing() { polled_ = true; }
  /// O(1) probe used by the fleet's sentinel sampling: true when the agent
  /// is running but its regulate-report heartbeat has gone stale.
  bool reports_stale() const {
    return session_ != nullptr && !failing_over_ && !orphaned_ &&
           session_->agent().running() &&
           sched_.now() - session_->agent().last_report_time() > cfg_.agent_dead_after;
  }
  /// Node currently orchestrating this supervisor's session (kInvalidNode
  /// while failing over or orphaned) — the fleet's index key.
  net::NodeId indexed_node() const {
    return session_ != nullptr ? session_->orchestrating_node() : net::kInvalidNode;
  }
  /// True when no deferred teardown or recovery bookkeeping is pending.
  bool quiescent() const {
    return !failing_over_ && retired_.empty() && superseded_.empty();
  }
  void set_on_reassigned(std::function<void()> fn) { on_reassigned_ = std::move(fn); }
  void notify_reassigned() {
    if (on_reassigned_) on_reassigned_();
  }

  void fail_over(const char* cause, bool node_dead);
  void attempt_rebuild();
  /// Retries a failed rebuild up to kMaxRebuildRetries times (a survivor
  /// endpoint may itself be briefly unreachable when recovery starts),
  /// backing off kRetryBackoff, doubled per retry up to kRetryBackoffMax;
  /// then declares the session orphaned.
  void retry_or_orphan();
  static constexpr int kMaxRebuildRetries = 4;
  static constexpr Duration kRetryBackoff = 500 * kMillisecond;
  static constexpr Duration kRetryBackoffMax = 4 * kSecond;

  sim::Scheduler& sched_;
  Orchestrator& orch_;
  Orchestrator::LloResolver resolve_;
  NodeAliveFn alive_;
  FailoverConfig cfg_;

  std::unique_ptr<OrchSession> session_;
  /// Sessions awaiting destruction: a failed session may be retired from
  /// inside one of its own agent's callbacks, so teardown is deferred to
  /// the next supervisor tick.
  std::vector<std::unique_ptr<OrchSession>> retired_;
  /// Partitioned (unreachable-but-alive) predecessors: kept intact until
  /// their agent reports superseded() — destroying them early would model a
  /// management plane with magical reach into the far partition.
  std::vector<std::unique_ptr<OrchSession>> superseded_;
  /// Context of the in-flight recovery, carried across rebuild retries.
  struct Recovery {
    net::NodeId old_node = net::kInvalidNode;
    OrchSessionId old_session = 0;
    std::vector<OrchVcInfo> stale_vcs;
    std::vector<OrchStreamSpec> survivors;
    OrchPolicy policy;
    Time detected_at = 0;
    int attempt = 0;  // rebuild attempts made so far
  };
  Recovery recovery_;
  OrchPolicy policy_;
  sim::Timer timer_;
  sim::Timer retry_timer_;
  std::uint32_t epoch_ = 1;  // epoch of the current incarnation
  int failovers_ = 0;
  int retries_ = 0;
  int generation_ = 0;  // invalidates callbacks from superseded recoveries
  bool orphaned_ = false;
  bool failing_over_ = false;
  bool polled_ = false;  // fleet-paced: check() never self-schedules
  std::function<void(net::NodeId, net::NodeId)> on_failover_;
  std::function<void()> on_reassigned_;  // fleet index maintenance hook
};

/// Supervises a whole fleet of orchestration sessions with detection work
/// indexed by orchestrating node, not by session count.
///
/// A lone FailoverSupervisor polls its one session every tick; naively
/// scaling that to a city means every tick walks every session (10k probes
/// to discover that three nodes are healthy).  The fleet instead buckets
/// supervisors by the node their session is orchestrated from and, per
/// tick, performs one liveness check per *distinct node* plus one rotating
/// sentinel report-staleness sample per node.  Only when a node is dead,
/// unresolvable, or its sentinel has gone silent does the fleet fan out to
/// that node's sessions — so per-tick work is O(nodes) when healthy and
/// proportional to the affected sessions when something breaks.  The
/// rotating sentinel bounds the detection delay for a single wedged agent
/// on an otherwise healthy node to (sessions-on-node) ticks.
///
/// Buckets re-index themselves through the supervisors' reassignment hook
/// as failovers move sessions between nodes; supervisors with recovery
/// bookkeeping outstanding (retries, superseded predecessors awaiting
/// protocol-level retirement) stay on a follow-up list that is polled every
/// tick until they go quiescent.  The per-tick poll count is exported as
/// the `orch.failover_poll_len` gauge.
class CMTOS_CONTROL_PLANE FailoverFleet {
 public:
  using NodeAliveFn = FailoverSupervisor::NodeAliveFn;

  FailoverFleet(sim::Scheduler& sched, Orchestrator& orch,
                Orchestrator::LloResolver resolver, NodeAliveFn alive,
                FailoverConfig cfg = {});

  FailoverFleet(const FailoverFleet&) = delete;
  FailoverFleet& operator=(const FailoverFleet&) = delete;

  /// Adopts a session into the fleet; returns its supervisor (stable for
  /// the fleet's lifetime — sessions are never evicted, only orphaned).
  FailoverSupervisor& watch(std::unique_ptr<OrchSession> session);

  std::size_t session_count() const { return entries_.size(); }
  FailoverSupervisor& supervisor(std::size_t i) { return *entries_[i].sup; }

  /// Supervisor polls performed by the most recent tick: the detection-cost
  /// regression surface (O(nodes) healthy, O(affected) during an outage).
  std::size_t last_tick_polls() const { return last_tick_polls_; }
  /// Distinct orchestrating nodes currently indexed.
  std::size_t indexed_nodes() const { return by_node_.size(); }

  /// Sum of completed failovers / orphaned sessions across the fleet.
  int failovers() const;
  int orphaned() const;

 private:
  struct Entry {
    std::unique_ptr<FailoverSupervisor> sup;
    net::NodeId node = net::kInvalidNode;
  };
  struct Bucket {
    std::vector<FailoverSupervisor*> members;
    std::uint32_t sentinel_rr = 0;  // rotating report-staleness sample
  };

  void tick();
  void reindex(std::size_t entry);

  sim::Scheduler& sched_;
  Orchestrator& orch_;
  Orchestrator::LloResolver resolve_;
  NodeAliveFn alive_;
  FailoverConfig cfg_;
  std::vector<Entry> entries_;
  FlatMap<net::NodeId, Bucket> by_node_;
  std::vector<FailoverSupervisor*> recovering_;
  std::size_t last_tick_polls_ = 0;
  sim::Timer timer_;
};

}  // namespace cmtos::orch
