#include "orch/failover.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace cmtos::orch {

FailoverSupervisor::FailoverSupervisor(sim::Scheduler& sched, Orchestrator& orch,
                                       Orchestrator::LloResolver resolver, NodeAliveFn alive,
                                       FailoverConfig cfg)
    : sched_(sched),
      orch_(orch),
      resolve_(std::move(resolver)),
      alive_(std::move(alive)),
      cfg_(cfg) {}

void FailoverSupervisor::watch(std::unique_ptr<OrchSession> session) {
  session_ = std::move(session);
  policy_ = session_->agent().policy();
  epoch_ = session_->agent().epoch();
  orphaned_ = false;
  notify_reassigned();
  if (!timer_.pending()) check();
}

void FailoverSupervisor::check() {
  poll();
  if (!polled_) timer_.after(sched_, cfg_.check_interval, [this] { check(); });
}

void FailoverSupervisor::poll() {
  retired_.clear();  // safe here: never called from an agent callback
  // A superseded predecessor has self-retired at the protocol level (its
  // first post-heal OPDU was fenced); now its object can go too.
  for (auto it = superseded_.begin(); it != superseded_.end();) {
    if ((*it)->agent().superseded()) {
      retired_.push_back(std::move(*it));
      it = superseded_.erase(it);
    } else {
      ++it;
    }
  }
  if (session_ != nullptr && !failing_over_ && !orphaned_) {
    const net::NodeId n = session_->orchestrating_node();
    Llo* llo = resolve_(n);
    const bool node_dead = !alive_(n) || llo == nullptr || llo->down();
    // The protocol-level signal (§6.3.1.2 reports double as heartbeats): a
    // running agent that stops producing merged regulate indications has
    // lost its node or been partitioned away from every endpoint.
    const HloAgent& agent = session_->agent();
    const bool reports_missed =
        agent.running() && sched_.now() - agent.last_report_time() > cfg_.agent_dead_after;
    if (node_dead || reports_missed)
      fail_over(node_dead ? "node-down" : "reports-missed", node_dead);
  }
}

void FailoverSupervisor::fail_over(const char* cause, bool node_dead) {
  failing_over_ = true;
  recovery_ = Recovery{};
  recovery_.detected_at = sched_.now();
  recovery_.old_node = session_->orchestrating_node();
  recovery_.old_session = session_->agent().session_id();
  const std::vector<OrchStreamSpec> streams = session_->agent().streams();

  // A stream survives when both endpoints are alive and — for a partition,
  // where the old node is alive but unreachable — neither endpoint sits on
  // the old node (its VCs are unreachable from the rest of the cluster).
  for (const auto& s : streams) {
    if (!alive_(s.vc.src_node) || !alive_(s.vc.sink_node)) continue;
    if (!node_dead &&
        (s.vc.src_node == recovery_.old_node || s.vc.sink_node == recovery_.old_node))
      continue;
    recovery_.survivors.push_back(s);
  }
  for (const auto& s : streams) recovery_.stale_vcs.push_back(s.vc);

  obs::Registry::global().counter("orch.failover_attempts", {{"cause", cause}}).add();
  CMTOS_WARN("failover", "orchestrator at node %u presumed dead (%s); %zu of %zu streams survive",
             recovery_.old_node, cause, recovery_.survivors.size(), streams.size());
  if (node_dead) {
    retired_.push_back(std::move(session_));
  } else {
    // Partitioned, not dead: the old agent free-runs on the far side until
    // an epoch fence makes it self-retire.  Hold the object alive so the
    // simulation models that honestly.
    superseded_.push_back(std::move(session_));
  }

  if (recovery_.survivors.empty()) {
    orphaned_ = true;
    failing_over_ = false;
    notify_reassigned();
    if (on_failover_) on_failover_(recovery_.old_node, net::kInvalidNode);
    return;
  }

  // Re-election over the survivors.  When the old node was the common
  // node, no survivor may touch every VC — fall back to the §7 extension
  // (relative targets make regulation location-independent).
  recovery_.policy = policy_;
  if (Orchestrator::choose_orchestrating_node(recovery_.survivors,
                                              !recovery_.policy.allow_no_common_node) ==
      net::kInvalidNode) {
    recovery_.policy.allow_no_common_node = true;
  }
  attempt_rebuild();
}

void FailoverSupervisor::attempt_rebuild() {
  const int gen = ++generation_;
  ++recovery_.attempt;
  // Every attempt runs at a fresh, strictly higher epoch: endpoints adopt
  // it from the Orch.request fan-out, fencing the old incarnation out
  // before the first regulation target is even issued.
  const std::uint32_t epoch = ++epoch_;
  auto next = orch_.orchestrate(
      recovery_.survivors, recovery_.policy,
      [this, gen](bool ok, OrchReason reason) {
        if (gen != generation_ || session_ == nullptr) return;
        if (!ok) {
          CMTOS_WARN("failover", "re-established session rejected: %s", to_string(reason));
          retired_.push_back(std::move(session_));
          retry_or_orphan();
          return;
        }
        const net::NodeId new_node = session_->orchestrating_node();
        // The old orchestrator cannot (dead) or must not be trusted to
        // (partitioned) release its session; purge the survivors' stale
        // endpoint attachments from here.  kSessRel is epoch-exempt.
        if (Llo* llo = resolve_(new_node))
          llo->release_remote(recovery_.old_session, recovery_.stale_vcs);
        session_->prime(false, [this, gen, new_node](bool primed, OrchReason) {
          if (gen != generation_ || session_ == nullptr) return;
          if (!primed)
            CMTOS_WARN("failover", "re-prime incomplete; starting survivors anyway");
          session_->start([this, gen, new_node](bool started, OrchReason) {
            if (gen != generation_ || session_ == nullptr) return;
            if (!started) {
              retired_.push_back(std::move(session_));
              retry_or_orphan();
              return;
            }
            failing_over_ = false;
            ++failovers_;
            auto& reg = obs::Registry::global();
            reg.counter("orch.failovers", {}).add();
            // Recovery gap: detection of the dead orchestrator to the
            // survivors regulating again under the replacement.
            reg.set_gauge("orch.recovery_gap_s",
                          to_seconds(sched_.now() - recovery_.detected_at));
            obs::Tracer::global().instant(
                "Orch.Failover", static_cast<int>(new_node), 0,
                "{\"old_node\": " + std::to_string(recovery_.old_node) + "}");
            // Every surviving application stalled for the whole outage:
            // Orch.Delayed with the stall expressed in its own OSDUs.
            const double stall_s = to_seconds(sched_.now() - recovery_.detected_at);
            HloAgent& agent = session_->agent();
            for (const auto& s : recovery_.survivors) {
              const std::int64_t behind = std::llround(stall_s * s.osdu_rate);
              agent.llo().delayed(agent.session_id(), s.vc.vc, /*source_side=*/false, behind);
            }
            CMTOS_INFO("failover", "re-elected node %u (epoch %u) for %zu surviving stream(s)",
                       new_node, session_->agent().epoch(), recovery_.survivors.size());
            notify_reassigned();
            if (on_failover_) on_failover_(recovery_.old_node, new_node);
          });
        });
      },
      epoch);
  if (next == nullptr) {
    // No LLO at the elected node (resolver gap); it may resolve later.
    retry_or_orphan();
    notify_reassigned();
    return;
  }
  session_ = std::move(next);
  notify_reassigned();
}

void FailoverSupervisor::retry_or_orphan() {
  if (recovery_.attempt > kMaxRebuildRetries) {
    CMTOS_WARN("failover", "rebuild failed %d time(s); session orphaned", recovery_.attempt);
    orphaned_ = true;
    failing_over_ = false;
    notify_reassigned();
    if (on_failover_) on_failover_(recovery_.old_node, net::kInvalidNode);
    return;
  }
  Duration backoff = kRetryBackoff;
  for (int i = 1; i < recovery_.attempt; ++i) backoff = std::min(backoff * 2, kRetryBackoffMax);
  ++retries_;
  obs::Registry::global().counter("orch.failover_retries", {}).add();
  CMTOS_WARN("failover", "rebuild attempt %d failed; retrying in %lld us", recovery_.attempt,
             static_cast<long long>(backoff));
  retry_timer_.after(sched_, backoff, [this, gen = generation_] {
    if (gen != generation_ || !failing_over_) return;
    attempt_rebuild();
  });
}

// --- FailoverFleet ---

FailoverFleet::FailoverFleet(sim::Scheduler& sched, Orchestrator& orch,
                             Orchestrator::LloResolver resolver, NodeAliveFn alive,
                             FailoverConfig cfg)
    : sched_(sched),
      orch_(orch),
      resolve_(std::move(resolver)),
      alive_(std::move(alive)),
      cfg_(cfg) {}

FailoverSupervisor& FailoverFleet::watch(std::unique_ptr<OrchSession> session) {
  const std::size_t idx = entries_.size();
  auto sup = std::unique_ptr<FailoverSupervisor>(
      new FailoverSupervisor(sched_, orch_, resolve_, alive_, cfg_));
  sup->set_external_pacing();
  sup->set_on_reassigned([this, idx] { reindex(idx); });
  entries_.push_back(Entry{std::move(sup), net::kInvalidNode});
  entries_[idx].sup->watch(std::move(session));  // indexes via the hook
  if (!timer_.pending())
    timer_.after(sched_, cfg_.check_interval, [this] { tick(); });
  return *entries_[idx].sup;
}

void FailoverFleet::reindex(std::size_t entry) {
  Entry& e = entries_[entry];
  const net::NodeId now_at = e.sup->indexed_node();
  if (now_at == e.node) return;
  if (e.node != net::kInvalidNode) {
    if (auto it = by_node_.find(e.node); it != by_node_.end()) {
      std::erase(it->second.members, e.sup.get());
      if (it->second.members.empty()) by_node_.erase(it);
    }
  }
  if (now_at != net::kInvalidNode) by_node_[now_at].members.push_back(e.sup.get());
  e.node = now_at;
}

void FailoverFleet::tick() {
  std::size_t polls = 0;
  // One liveness probe per distinct orchestrating node.  poll() can fail a
  // session over, which reindexes buckets mid-iteration — snapshot first.
  std::vector<std::pair<net::NodeId, std::vector<FailoverSupervisor*>>> suspects;
  for (auto& [node, bucket] : by_node_) {
    Llo* llo = resolve_(node);
    bool suspect = !alive_(node) || llo == nullptr || llo->down();
    if (!suspect && !bucket.members.empty()) {
      // Rotating sentinel: one O(1) staleness sample per node per tick, so
      // a single wedged agent on a healthy node is still found within
      // |sessions-on-node| ticks without walking them all every tick.
      FailoverSupervisor* probe =
          bucket.members[bucket.sentinel_rr++ % bucket.members.size()];
      suspect = probe->reports_stale();
    }
    if (suspect) suspects.emplace_back(node, bucket.members);
  }
  for (auto& [node, members] : suspects) {
    for (FailoverSupervisor* s : members) {
      s->poll();
      ++polls;
      if (!s->quiescent() && std::ranges::find(recovering_, s) == recovering_.end())
        recovering_.push_back(s);
    }
  }
  // Supervisors with recovery bookkeeping outstanding (deferred teardown,
  // superseded predecessors) get maintenance polls until quiescent.
  std::erase_if(recovering_, [&](FailoverSupervisor* s) {
    s->poll();
    ++polls;
    return s->quiescent();
  });
  last_tick_polls_ = polls;
  obs::Registry::global().set_gauge("orch.failover_poll_len",
                                    static_cast<double>(polls));
  timer_.after(sched_, cfg_.check_interval, [this] { tick(); });
}

int FailoverFleet::failovers() const {
  int n = 0;
  for (const Entry& e : entries_) n += e.sup->failovers();
  return n;
}

int FailoverFleet::orphaned() const {
  int n = 0;
  for (const Entry& e : entries_) n += e.sup->orphaned() ? 1 : 0;
  return n;
}

}  // namespace cmtos::orch
