#include "net/chaos.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/contract.h"
#include "util/logging.h"

namespace cmtos::net {

namespace {

/// One storm kind: its name, the LinkConfig fields it sets (`rate` from
/// ChaosEvent::loss_rate, `span` from ChaosEvent::jitter; either may be
/// absent) and the labels its log lines print.  A restore line prints the
/// restored rate, or the span when the row sets no rate.
struct StormRow {
  FaultKind kind;
  const char* name;
  double LinkConfig::*rate;
  const char* rate_label;
  Duration LinkConfig::*span;
  const char* span_label;
  const char* restored_label;
};

constexpr StormRow kStorms[] = {
    {FaultKind::kLossStorm, "loss_storm", &LinkConfig::loss_rate, "loss", nullptr, nullptr,
     "loss"},
    {FaultKind::kJitterStorm, "jitter_storm", nullptr, nullptr, &LinkConfig::jitter, "jitter",
     "jitter"},
    {FaultKind::kCorruptStorm, "corrupt_storm", &LinkConfig::bit_error_rate, "ber", nullptr,
     nullptr, "ber"},
    {FaultKind::kReorderStorm, "reorder_storm", &LinkConfig::reorder_rate, "rate",
     &LinkConfig::reorder_window, "window", "reorder"},
    {FaultKind::kDupStorm, "dup_storm", &LinkConfig::dup_rate, "rate", nullptr, nullptr, "dup"},
    {FaultKind::kTruncStorm, "truncate_storm", &LinkConfig::truncate_rate, "rate", nullptr,
     nullptr, "trunc"},
};

const StormRow* storm_row(FaultKind kind) {
  for (const StormRow& row : kStorms)
    if (row.kind == kind) return &row;
  return nullptr;
}

/// Sets the row's fields on both directions of a<->b.
void write(Network& net, const StormRow& row, const ChaosEvent& ev, double rate, Duration span) {
  for (Link* l : {net.link(ev.a, ev.b), net.link(ev.b, ev.a)}) {
    if (l == nullptr) continue;
    if (row.rate != nullptr) l->mutable_config().*row.rate = rate;
    if (row.span != nullptr) l->mutable_config().*row.span = span;
  }
}

/// Matches a running storm of ev's kind on ev's link, in either direction.
auto same_storm(const ChaosEvent& ev) {
  return [&ev](const auto& s) {
    const ChaosEvent& o = s.ev;
    return o.kind == ev.kind && ((o.a == ev.a && o.b == ev.b) || (o.a == ev.b && o.b == ev.a));
  };
}

std::string link_label(const ChaosEvent& ev) {
  return "link=" + std::to_string(ev.a) + "<->" + std::to_string(ev.b);
}

}  // namespace

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kNodeCrash: return "node_crash";
    case FaultKind::kNodeRestart: return "node_restart";
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLinkUp: return "link_up";
    case FaultKind::kNodeIsolate: return "node_isolate";
    case FaultKind::kNodeHeal: return "node_heal";
    default: break;
  }
  const StormRow* row = storm_row(k);
  return row != nullptr ? row->name : "unknown";
}

void ChaosEngine::arm(const ChaosPlan& plan) {
  CMTOS_ASSERT(!armed_, "chaos.double_arm");
  armed_ = true;
  rng_.reseed(plan.seed);
  for (const ChaosEvent& ev : plan.events) {
    Time at = ev.at;
    if (ev.start_jitter > 0) at += rng_.uniform(0, ev.start_jitter);
    net_.scheduler().at(at, [this, ev] { inject(ev); });
  }
}

void ChaosEngine::record(const ChaosEvent& ev, const std::string& detail) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "t=%lld %s %s",
                static_cast<long long>(net_.scheduler().now()), to_string(ev.kind), detail.c_str());
  log_.emplace_back(buf);
  CMTOS_INFO("chaos", "%s", buf);
}

void ChaosEngine::inject(const ChaosEvent& ev) {
  obs::Registry::global().counter("faults.injected", {{"kind", to_string(ev.kind)}}).add();
  obs::Tracer::global().instant(to_string(ev.kind));
  ++injected_;

  FaultKind heal = ev.kind;
  switch (ev.kind) {
    case FaultKind::kNodeCrash:
    case FaultKind::kNodeRestart:
      record(ev, "node=" + std::to_string(ev.node));
      net_.set_node_up(ev.node, ev.kind == FaultKind::kNodeRestart);
      return;
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
      record(ev, link_label(ev));
      net_.set_link_up(ev.a, ev.b, ev.kind == FaultKind::kLinkUp);
      heal = FaultKind::kLinkUp;
      break;
    case FaultKind::kNodeIsolate:
    case FaultKind::kNodeHeal:
      record(ev, "node=" + std::to_string(ev.node));
      net_.set_node_isolated(ev.node, ev.kind == FaultKind::kNodeIsolate);
      heal = FaultKind::kNodeHeal;
      break;
    default:
      start_storm(ev);
      return;
  }
  // A cut with a duration schedules its own heal, which counts as an
  // injection of its own.
  if (ev.kind != heal && ev.duration > 0) {
    ChaosEvent healed = ev;
    healed.kind = heal;
    healed.duration = 0;
    net_.scheduler().after(ev.duration, [this, healed] { inject(healed); });
  }
}

void ChaosEngine::start_storm(const ChaosEvent& ev) {
  const StormRow* row = storm_row(ev.kind);
  CMTOS_ASSERT(row != nullptr, "chaos.storm_kind");
  if (row == nullptr) return;
  std::string detail = link_label(ev);
  if (row->rate != nullptr)
    detail += std::string(" ") + row->rate_label + "=" + std::to_string(ev.loss_rate);
  if (row->span != nullptr)
    detail += std::string(" ") + row->span_label + "=" + std::to_string(ev.jitter);
  record(ev, detail);

  RunningStorm storm{storms_started_++, ev, 0.0, 0};
  const auto overlapped = std::find_if(storms_.rbegin(), storms_.rend(), same_storm(ev));
  if (overlapped != storms_.rend()) {
    storm.rate_before = overlapped->rate_before;
    storm.span_before = overlapped->span_before;
  } else if (const Link* fwd = net_.link(ev.a, ev.b); fwd != nullptr) {
    if (row->rate != nullptr) storm.rate_before = fwd->config().*row->rate;
    if (row->span != nullptr) storm.span_before = fwd->config().*row->span;
  }
  storms_.push_back(storm);
  write(net_, *row, ev, ev.loss_rate, ev.jitter);
  if (ev.duration > 0)
    net_.scheduler().after(ev.duration, [this, ev, id = storm.id] { end_storm(ev, id); });
}

void ChaosEngine::end_storm(const ChaosEvent& ev, std::uint64_t id) {
  const StormRow& row = *storm_row(ev.kind);
  const auto ended = std::find_if(storms_.begin(), storms_.end(),
                                  [id](const RunningStorm& s) { return s.id == id; });
  double rate = ended->rate_before;
  Duration span = ended->span_before;
  storms_.erase(ended);
  const auto still = std::find_if(storms_.rbegin(), storms_.rend(), same_storm(ev));
  if (still != storms_.rend()) {
    rate = still->ev.loss_rate;
    span = still->ev.jitter;
  }
  write(net_, row, ev, rate, span);
  record(ev, link_label(ev) + " restored " + row.restored_label + "=" +
                 (row.rate != nullptr ? std::to_string(rate) : std::to_string(span)));
}

}  // namespace cmtos::net
