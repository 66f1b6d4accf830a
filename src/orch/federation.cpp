// cmtos/orch/federation.cpp

#include "orch/federation.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "sim/executor.h"
#include "sim/node_runtime.h"

namespace cmtos::orch {

namespace {

/// Fan-in gate: fires `done` once all `n` domain confirms arrived, with the
/// conjunction and the first failure reason (kOk when all succeeded).
/// Confirms fire on each domain's orchestrating shard, so under a parallel
/// round they would race on the shared count; each arrival detours through
/// a serial round instead, merged in the same order at every thread count.
HloAgent::ResultFn make_barrier(std::size_t n, HloAgent::ResultFn done) {
  struct State {
    std::size_t pending;
    HloAgent::ResultFn done;
    bool all_ok = true;
    OrchReason reason = OrchReason::kOk;
  };
  auto st = std::make_shared<State>(State{n, std::move(done)});
  return [st](bool ok, OrchReason reason) {
    auto arrive = [st, ok, reason] {
      if (!ok && st->all_ok) {
        st->all_ok = false;
        st->reason = reason;
      }
      if (--st->pending == 0 && st->done) st->done(st->all_ok, st->reason);
    };
    if (sim::NodeRuntime* rt = sim::Executor::current(); rt != nullptr) {
      rt->defer_global(std::move(arrive));
    } else {
      arrive();
    }
  };
}

}  // namespace

FederatedHlo::FederatedHlo(Orchestrator& orch, FederationPolicy policy)
    : orch_(orch), policy_(policy), alive_(std::make_shared<bool>(true)) {}

FederatedHlo::~FederatedHlo() { *alive_ = false; }

bool FederatedHlo::orchestrate(std::vector<std::vector<OrchStreamSpec>> domains,
                               HloAgent::ResultFn established) {
  domains_.clear();
  auto cb = make_barrier(domains.size(), std::move(established));
  std::vector<std::unique_ptr<OrchSession>> sessions;
  sessions.reserve(domains.size());
  for (auto& group : domains) {
    auto s = orch_.orchestrate(std::move(group), policy_.domain, cb);
    // No viable orchestrating node for this domain: unwind (the sessions
    // created so far release on destruction).
    if (s == nullptr) return false;
    sessions.push_back(std::move(s));
  }
  domains_.resize(sessions.size());
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    domains_[i].owned = std::move(sessions[i]);
    wire(i);
  }
  return true;
}

void FederatedHlo::prime(bool flush, HloAgent::ResultFn done) {
  auto cb = make_barrier(domains_.size(), std::move(done));
  for (std::size_t i = 0; i < domains_.size(); ++i) {
    if (OrchSession* s = domain(i)) {
      s->prime(flush, cb);
    } else {
      cb(false, OrchReason::kNoSession);
    }
  }
}

void FederatedHlo::start(HloAgent::ResultFn done) {
  auto cb = make_barrier(domains_.size(), std::move(done));
  for (std::size_t i = 0; i < domains_.size(); ++i) {
    if (OrchSession* s = domain(i)) {
      s->start(cb);
    } else {
      cb(false, OrchReason::kNoSession);
    }
  }
}

void FederatedHlo::stop(HloAgent::ResultFn done) {
  auto cb = make_barrier(domains_.size(), std::move(done));
  for (std::size_t i = 0; i < domains_.size(); ++i) {
    if (OrchSession* s = domain(i)) {
      s->stop(cb);
    } else {
      cb(false, OrchReason::kNoSession);
    }
  }
}

void FederatedHlo::adopt_failover(FailoverFleet& fleet) {
  auto alive = alive_;
  for (std::size_t i = 0; i < domains_.size(); ++i) {
    DomainState& d = domains_[i];
    if (d.owned == nullptr) continue;
    FailoverSupervisor& sup = fleet.watch(std::move(d.owned));
    d.sup = &sup;
    // Keep aggregation flowing across failovers: bump the wiring generation
    // (fencing any aggregate the partitioned predecessor still pushes, the
    // control-plane mirror of the OPDU epoch fence) and hook the
    // replacement agent.  The replacement rebased its domain datum, so the
    // stale position snapshot is dropped too.
    sup.set_on_failover([this, i, alive](net::NodeId, net::NodeId new_node) {
      if (!*alive) return;
      DomainState& ds = domains_[i];
      ++ds.gen;
      ds.have = false;
      if (new_node != net::kInvalidNode) wire(i);
    });
  }
}

OrchSession* FederatedHlo::domain(std::size_t i) {
  DomainState& d = domains_[i];
  return d.sup != nullptr ? d.sup->session() : d.owned.get();
}

std::uint64_t FederatedHlo::domain_reports_processed(std::size_t i) const {
  const HloAgent* a = const_cast<FederatedHlo*>(this)->agent(i);
  return a != nullptr ? a->reports_processed() : 0;
}

double FederatedHlo::domain_rate_scale(std::size_t i) const {
  const HloAgent* a = const_cast<FederatedHlo*>(this)->agent(i);
  return a != nullptr ? a->rate_scale() : 1.0;
}

HloAgent* FederatedHlo::agent(std::size_t i) {
  OrchSession* s = domain(i);
  return s != nullptr ? &s->agent() : nullptr;
}

void FederatedHlo::wire(std::size_t i) {
  HloAgent* a = agent(i);
  if (a == nullptr) return;
  const std::uint64_t gen = domains_[i].gen;
  auto alive = alive_;
  a->set_aggregate_callback([this, i, gen, alive](const DomainAggregate& agg) {
    // Fires on the domain's orchestrating shard; the root's state is
    // cross-domain shared state, so detour through a serial round.  The
    // deferred event is merged deterministically at every thread count.
    auto apply = [this, i, gen, alive, agg] {
      if (!*alive) return;
      ingest(i, gen, agg);
    };
    if (sim::NodeRuntime* rt = sim::Executor::current(); rt != nullptr) {
      rt->defer_global(std::move(apply));
    } else {
      apply();
    }
  });
}

void FederatedHlo::ingest(std::size_t i, std::uint64_t gen, const DomainAggregate& agg) {
  DomainState& d = domains_[i];
  if (gen != d.gen) return;  // fenced: a replacement agent owns this slot now
  d.have = true;
  d.last = agg;
  ++root_aggregates_;
  obs::Registry::global().counter("fed.root_aggregates").add();
  // Per-VC reports this digest compressed away: fed.domain_reports /
  // fed.root_aggregates is the fan-in the federation exists to provide.
  obs::Registry::global().counter("fed.domain_reports")
      .add(static_cast<std::int64_t>(agg.reports));
  root_pass();
}

void FederatedHlo::root_pass() {
  // The root's entire interval workload: O(domains) arithmetic over the
  // latest digests.  No per-VC state is ever touched here.
  double sum = 0;
  std::size_t n = 0;
  for (const auto& d : domains_) {
    if (d.have) {
      sum += d.last.mean_position_s;
      ++n;
    }
  }
  if (n == 0) return;
  const double mean = sum / static_cast<double>(n);
  const double interval_s = to_seconds(policy_.domain.interval);
  double worst = 0;
  for (std::size_t i = 0; i < domains_.size(); ++i) {
    DomainState& d = domains_[i];
    if (!d.have) continue;
    const double dev = mean - d.last.mean_position_s;  // + = domain behind
    worst = std::max(worst, std::abs(dev));
    if (n < 2) continue;  // nothing to align against
    HloAgent* a = agent(i);
    if (a == nullptr) continue;
    // Remove kAlignGain of the deviation over the next interval, bent at
    // most kMaxRateScaleDev so media rates never visibly warp.  A domain
    // moves in whole steps of its OSDU period, so a deviation within one
    // step is left alone: bending it could only dither.
    const double bend =
        std::abs(dev) <= d.last.osdu_period_s
            ? 0.0
            : std::clamp(kAlignGain * dev / interval_s, -kMaxRateScaleDev, kMaxRateScaleDev);
    a->set_rate_scale(1.0 + bend);
  }
  max_domain_skew_s_ = worst;
  obs::Registry::global().set_gauge("fed.max_domain_skew_s", worst);
}

}  // namespace cmtos::orch
