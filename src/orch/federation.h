// cmtos/orch/federation.h
//
// HLO federation: the paper's orchestrating-node election (§5, Fig 5)
// applied recursively, so a city-scale deployment never funnels every
// regulation report through one agent.
//
// The paper's HLO is flat: one agent per orchestrated group processes one
// Orch.Regulate.indication per VC per interval.  At 10k VCs and 100 ms
// intervals that is 100k reports/s through a single node — the
// orchestrator becomes the bottleneck the service was designed to avoid.
// The federation splits the group into *domains* (e.g. one per campus or
// exchange): each domain gets its own HLO agent, elected exactly as in the
// paper over that domain's VCs, regulating its members against its own
// local datum.  Each domain agent then compresses its whole interval into
// a single DomainAggregate (mean media position, worst intra-domain skew,
// mean target error, reports folded in) and pushes it to the root.  The
// root therefore processes O(domains) aggregates per interval — never the
// per-VC firehose — and steers inter-domain alignment with one knob per
// domain: a rate-scale multiplier that nudges a drifted domain's targets
// up or down a few percent while preserving the intra-domain rate ratios
// that encode the synchronisation relationship.
//
// Determinism: a domain agent's aggregate callback fires on the
// orchestrating node's shard.  The root's state is cross-domain shared
// state, so ingestion is marshalled through defer_global — the aggregate
// is applied in a serial executor round, in merged deterministic order, at
// every --threads count alike.
//
// Failover composes per domain (PR 8 epoch fencing unchanged): hand the
// domain sessions to a FailoverFleet via adopt_failover() and a crashed
// domain orchestrator is re-elected within its domain; the federation
// re-wires aggregation to the replacement agent and fences out any
// aggregates the partitioned predecessor still emits (a wiring-generation
// check, mirroring the OPDU epoch fence at the transport layer).  Other
// domains never notice.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "orch/failover.h"
#include "orch/orchestrator.h"
#include "util/thread_annotations.h"

namespace cmtos::orch {

struct FederationPolicy {
  /// Policy every domain agent runs (interval, tolerance, regulation...).
  OrchPolicy domain;
};

/// A two-level orchestration tree: N domain HLO agents, one root.
///
/// Usage: orchestrate() with one stream-spec vector per domain, then
/// prime()/start() exactly like a flat OrchSession (each is a barrier over
/// all domains).  Optionally adopt_failover() to put every domain session
/// under a FailoverFleet.
class CMTOS_CONTROL_PLANE FederatedHlo {
 public:
  FederatedHlo(Orchestrator& orch, FederationPolicy policy = {});
  ~FederatedHlo();

  FederatedHlo(const FederatedHlo&) = delete;
  FederatedHlo& operator=(const FederatedHlo&) = delete;

  /// Elects and establishes one HLO agent per domain (Orch.request barrier;
  /// `established` fires once with the conjunction).  Returns false — with
  /// no sessions created — if any domain has no viable orchestrating node.
  bool orchestrate(std::vector<std::vector<OrchStreamSpec>> domains,
                   HloAgent::ResultFn established);

  /// Orch.Prime / Orch.Start / Orch.Stop barriers across all domains.
  void prime(bool flush, HloAgent::ResultFn done);
  void start(HloAgent::ResultFn done);
  void stop(HloAgent::ResultFn done);

  /// Moves every domain session under `fleet` (node-indexed detection,
  /// orch.failover_poll_len) and keeps aggregation wired across failovers.
  /// The fleet must outlive this federation.
  void adopt_failover(FailoverFleet& fleet);

  std::size_t domain_count() const { return domains_.size(); }
  /// The domain's live session (its supervisor's current incarnation once
  /// adopt_failover() ran); nullptr mid-failover.
  OrchSession* domain(std::size_t i);
  const OrchSession* domain(std::size_t i) const {
    return const_cast<FederatedHlo*>(this)->domain(i);
  }

  // --- scale-acceptance instrumentation ---
  /// Aggregates the root has ingested: its *entire* per-interval workload.
  std::uint64_t root_aggregates_processed() const { return root_aggregates_; }
  /// Per-VC reports processed *inside* domain `i` (never seen by the root).
  std::uint64_t domain_reports_processed(std::size_t i) const;
  /// Rate-scale multiplier the root currently applies to domain `i`.
  double domain_rate_scale(std::size_t i) const;
  /// Worst |domain mean position - federation mean| at the last root pass.
  double max_domain_skew_s() const { return max_domain_skew_s_; }

 private:
  struct DomainState {
    std::unique_ptr<OrchSession> owned;  // empty after adopt_failover()
    FailoverSupervisor* sup = nullptr;
    std::uint64_t gen = 0;  // wiring generation: fences stale aggregates
    bool have = false;      // an aggregate arrived since (re)wiring
    DomainAggregate last;
  };

  HloAgent* agent(std::size_t i);
  /// (Re)installs the aggregate callback on domain i's current agent.
  void wire(std::size_t i);
  /// Serial-round ingestion of one domain aggregate.
  void ingest(std::size_t i, std::uint64_t gen, const DomainAggregate& agg);
  /// The root's whole interval workload: O(domains) arithmetic.  It
  /// removes kAlignGain of each domain's inter-domain skew per interval
  /// (the outer loop's gain; the inner per-VC loop also uses 0.5), bending
  /// the domain's media rate by at most kMaxRateScaleDev so alignment is
  /// gradual and invisible.
  void root_pass();
  static constexpr double kAlignGain = 0.5;
  static constexpr double kMaxRateScaleDev = 0.05;

  Orchestrator& orch_;
  FederationPolicy policy_;
  std::vector<DomainState> domains_;
  std::uint64_t root_aggregates_ = 0;
  double max_domain_skew_s_ = 0;
  /// Deferred-event fence: globals in flight when the federation dies must
  /// not touch it.
  std::shared_ptr<bool> alive_;
};

}  // namespace cmtos::orch
