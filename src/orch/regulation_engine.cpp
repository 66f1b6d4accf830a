#include "orch/regulation_engine.h"

#include <algorithm>
#include <set>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "orch/llo.h"
#include "util/logging.h"

namespace cmtos::orch {

using transport::Connection;
using transport::VcId;

RegulationEngine::VcLocal* RegulationEngine::local(LocalKey key) {
  auto it = locals_.find(key);
  return it == locals_.end() ? nullptr : &it->second;
}

void RegulationEngine::crash() {
  locals_.clear();
  vc_epoch_.clear();
  vc_regulator_.clear();
}

bool RegulationEngine::epoch_fenced(const Opdu& o) {
  auto it = vc_epoch_.find(o.vc);
  const std::uint32_t cur = it == vc_epoch_.end() ? 0 : it->second;
  if (o.epoch >= cur) {
    vc_epoch_[o.vc] = o.epoch;  // adopt the newer fence
    return false;
  }
  // Stale epoch.  Track the fence even when fencing is disabled so the
  // contrast runs can *count* the targets a fence would have stopped.
  if (!fencing_) return false;
  obs::Registry::global()
      .counter("orch.stale_epoch_rejected", {{"node", std::to_string(llo_.node_)}})
      .add();
  CMTOS_WARN("llo", "node %u: fenced OPDU type %u from node %u (epoch %u < fence %u)",
             llo_.node_, static_cast<unsigned>(o.type), o.orch_node, o.epoch, cur);
  Opdu nack = Opdu::reply(OpduType::kEpochNack, o.session, o.vc, llo_.node_);
  nack.epoch = cur;  // the fence now in force
  nack.ok = 0;
  nack.reason = OrchReason::kStaleEpoch;
  llo_.send_opdu(o.orch_node, nack);
  return true;
}

void RegulationEngine::on_vc_closed(VcId vc, transport::DisconnectReason reason) {
  // Collect first: detach_endpoint mutates locals_.
  std::vector<std::pair<LocalKey, net::NodeId>> dead;
  for (const auto& [key, st] : locals_)
    if (key.second == vc) dead.emplace_back(key, st.orch_node);
  for (const auto& [key, orch_node] : dead) {
    CMTOS_WARN("llo", "node %u: vc %llu died (%s), detaching from session %llu", llo_.node_,
               static_cast<unsigned long long>(vc), to_string(reason).c_str(),
               static_cast<unsigned long long>(key.first));
    detach_endpoint(key);
    obs::Registry::global()
        .counter("orch.vc_detached", {{"node", std::to_string(llo_.node_)}})
        .add();
    Opdu o = Opdu::reply(OpduType::kVcDead, key.first, vc, llo_.node_);
    o.event_value = static_cast<std::uint64_t>(reason);
    llo_.send_opdu(orch_node, o);
  }
}

// ====================================================================
// Attachment
// ====================================================================

void RegulationEngine::attach_endpoint(OrchSessionId s, const OrchVcInfo& info,
                                       net::NodeId orch_node) {
  auto& st = locals_[{s, info.vc}];
  st.info = info;
  st.orch_node = orch_node;
  if (info.src_node == llo_.node_) st.is_source = true;
  if (info.sink_node == llo_.node_) st.is_sink = true;
  if (st.is_sink) {
    if (Connection* conn = llo_.entity_.sink(info.vc)) {
      // Attach the event matcher to the per-OSDU OPDU stream (§6.3.4): the
      // LLO matches at arrival so application code never scans OSDUs.
      const LocalKey key{s, info.vc};
      conn->set_on_osdu_arrival([this, key](const transport::Osdu& osdu) {
        VcLocal* lst = local(key);
        if (lst == nullptr || !lst->event_armed) return;
        if ((osdu.event & lst->event_mask) != lst->event_pattern) return;
        obs::Tracer::global().instant("Orch.Event", static_cast<int>(llo_.node_),
                                      static_cast<int>(key.second & 0xffffffffu),
                                      "{\"osdu_seq\": " + std::to_string(osdu.seq) + "}");
        Opdu o = Opdu::reply(OpduType::kEventInd, key.first, key.second, llo_.node_);
        o.event_value = osdu.event;
        o.osdu_seq = osdu.seq;
        o.timestamp = llo_.rt().now();
        llo_.send_opdu(lst->orch_node, o);
      });
    }
  }
}

void RegulationEngine::detach_endpoint(LocalKey key) {
  VcLocal* st = local(key);
  if (st == nullptr) return;
  if (st->is_sink) {
    if (Connection* conn = llo_.entity_.sink(key.second)) {
      conn->set_on_osdu_arrival(nullptr);
      conn->buffer().set_became_full(nullptr);
      // Leave delivery enabled: removal from a group must not freeze the VC
      // ("when VCS are removed from an orchestrated group they are not
      // disconnected and thus data may still be flowing", §6.2.4).
      conn->set_delivery_enabled(true);
    }
  }
  locals_.erase(key);
}

RegulationEngine::Addressed RegulationEngine::address(const Opdu& o, OpduType ack_type,
                                                      bool needs_attachment) {
  Addressed a{Opdu::reply(ack_type, o.session, o.vc, llo_.node_), local({o.session, o.vc})};
  a.ack.flags = o.flags;
  if (needs_attachment && a.st == nullptr) {
    refuse(o, a.ack, OrchReason::kNoSession);
    return a;
  }
  a.conn = (o.flags & kOpduFlagSourceTarget) ? llo_.entity_.source(o.vc) : llo_.entity_.sink(o.vc);
  if (a.conn == nullptr) refuse(o, a.ack, OrchReason::kNoSuchVc);
  return a;
}

void RegulationEngine::refuse(const Opdu& o, Opdu ack, OrchReason reason) {
  ack.ok = 0;
  ack.reason = reason;
  llo_.send_opdu(o.orch_node, ack);
}

void RegulationEngine::handle_sess_req(const Opdu& o) {
  if (epoch_fenced(o)) return;
  auto [ack, st, conn] = address(o, OpduType::kSessAck, /*needs_attachment=*/false);
  if (conn == nullptr) return;
  // "Table space" admission.
  std::set<OrchSessionId> distinct;
  for (const auto& [k, _] : locals_) distinct.insert(k.first);
  if (!distinct.contains(o.session) && distinct.size() >= session_limit_) {
    refuse(o, ack, OrchReason::kNoTableSpace);
    return;
  }
  if (!o.vcs.empty()) {
    attach_endpoint(o.session, o.vcs.front(), o.orch_node);
    // The attachment starts life at the establishing epoch, so reports
    // emitted before the first regulate already carry the right fence.
    if (VcLocal* joined = local({o.session, o.vcs.front().vc})) joined->epoch = o.epoch;
  }
  llo_.send_opdu(o.orch_node, ack);
}

// kSessRel is deliberately NOT fenced: a release only removes state that
// belongs to the (possibly superseded) session named in it, and partition
// reconciliation depends on the new orchestrator being able to purge the
// old session's attachments (Llo::release_remote) without knowing the old
// epoch.
void RegulationEngine::handle_sess_rel(const Opdu& o) { detach_endpoint({o.session, o.vc}); }

// Remove is idempotent and so opens without the prologue: an endpoint that
// holds no attachment (it restarted, or this is a retry after a lost ack)
// has nothing left to detach and acks all the same, so a Remove that failed
// partway can be retried to completion.  Both ends of a VC local to this
// node share one attachment, which the sink's OPDU detaches.
void RegulationEngine::handle_remove_vc(const Opdu& o) {
  if (epoch_fenced(o)) return;
  detach_endpoint({o.session, o.vc});
  Opdu ack = Opdu::reply(OpduType::kRemoveAck, o.session, o.vc, llo_.node_);
  ack.flags = o.flags;
  llo_.send_opdu(o.orch_node, ack);
}

// ====================================================================
// Group primitives at the endpoints
// ====================================================================

void RegulationEngine::apply_delivery_gate(VcLocal& st) {
  if (Connection* conn = llo_.entity_.sink(st.info.vc))
    conn->set_delivery_enabled(!(st.reg_hold || st.group_hold));
}

void RegulationEngine::handle_prime(const Opdu& o) {
  if (epoch_fenced(o)) return;
  auto [ack, st, conn] = address(o, OpduType::kPrimeAck);
  if (conn == nullptr) return;
  const bool source_target = (o.flags & kOpduFlagSourceTarget) != 0;
  if (!source_target) {
    st->group_hold = true;
    apply_delivery_gate(*st);
  }
  if (o.flags & kOpduFlagFlush) conn->flush();
  if (llo_.app_ != nullptr && !llo_.app_->orch_prime_indication(o.session, o.vc, source_target)) {
    refuse(o, ack, OrchReason::kAppDenied);  // Orch.Deny.request (§6.2.1)
    return;
  }
  if (source_target) {
    conn->pause_source(false);  // let the pipeline fill
  } else {
    st->primed_reported = false;
    const LocalKey key{o.session, o.vc};
    conn->buffer().set_became_full([this, key] { report_primed(key); });
    if (conn->buffer().full()) report_primed(key);
  }
  llo_.send_opdu(o.orch_node, ack);
}

void RegulationEngine::report_primed(LocalKey key) {
  VcLocal* st = local(key);
  if (st == nullptr || st->primed_reported) return;
  st->primed_reported = true;
  Opdu primed = Opdu::reply(OpduType::kPrimed, key.first, key.second, llo_.node_);
  primed.timestamp = llo_.rt().now();
  llo_.send_opdu(st->orch_node, primed);
}

void RegulationEngine::handle_start(const Opdu& o) {
  if (epoch_fenced(o)) return;
  auto [ack, st, conn] = address(o, OpduType::kStartAck);
  if (conn == nullptr) return;
  const bool source_target = (o.flags & kOpduFlagSourceTarget) != 0;
  if (source_target) {
    conn->pause_source(false);
  } else {
    st->group_hold = false;
    apply_delivery_gate(*st);
    // Report the position base: the OSDU the application will see first.
    const transport::Osdu* head = conn->buffer().peek();
    ack.delivered_seq = head != nullptr ? static_cast<std::int64_t>(head->seq)
                                        : conn->last_delivered_seq() + 1;
  }
  if (llo_.app_) llo_.app_->orch_start_indication(o.session, o.vc, source_target);
  llo_.send_opdu(o.orch_node, ack);
}

void RegulationEngine::handle_stop(const Opdu& o) {
  if (epoch_fenced(o)) return;
  auto [ack, st, conn] = address(o, OpduType::kStopAck);
  if (conn == nullptr) return;
  const bool source_target = (o.flags & kOpduFlagSourceTarget) != 0;
  if (source_target) {
    conn->pause_source(true);
  } else {
    st->group_hold = true;
    apply_delivery_gate(*st);
    // Cancel any in-flight regulation: a stopped VC has no rate target.
    st->slot_timer.cancel();
    st->reg_hold = false;
  }
  if (llo_.app_) llo_.app_->orch_stop_indication(o.session, o.vc, source_target);
  llo_.send_opdu(o.orch_node, ack);
}

// --------------------------------------------------------------------
// Regulation mechanism (§6.3.1)
// --------------------------------------------------------------------

void RegulationEngine::handle_regulate_sink(const Opdu& o) {
  if (epoch_fenced(o)) return;
  // Only reachable with the fence disabled: a target older than the fence
  // actually took effect.  >0 here is the split-brain oracle — two
  // orchestrators are steering the same VC.
  if (o.epoch < vc_epoch(o.vc)) {
    obs::Registry::global()
        .counter("orch.stale_target_applied", {{"node", std::to_string(llo_.node_)}})
        .add();
  }
  const LocalKey key{o.session, o.vc};
  VcLocal* st = local(key);
  if (st == nullptr) return;
  Connection* conn = llo_.entity_.sink(o.vc);
  if (conn == nullptr) return;
  vc_regulator_[o.vc] = o.orch_node;
  st->epoch = o.epoch;

  // If the previous interval is still in flight (the next request can
  // arrive in the same instant as its final slot), close it out first so
  // its report is never orphaned.
  if (st->slot_timer.pending()) {
    st->slot_timer.cancel();
    finish_sink_interval(key);
  }
  st->interval = o.interval;
  st->interval_id = o.interval_id;
  st->interval_start = llo_.rt().now();
  st->max_drop = o.max_drop;
  st->drops_requested = 0;
  st->slot = 0;
  st->start_seq = conn->last_delivered_seq();
  st->target_seq = st->start_seq + o.target_seq;
  st->drop_target = o.src_node;
  conn->buffer().reset_window(st->interval_start);

  const Duration slot_len = std::max<Duration>(1, o.interval / kSlotsPerInterval);
  st->slot_timer.after(llo_.rt(), slot_len, [this, key] { regulation_slot(key); });
}

void RegulationEngine::regulation_slot(LocalKey key) {
  VcLocal* st = local(key);
  if (st == nullptr) return;
  Connection* conn = llo_.entity_.sink(key.second);
  if (conn == nullptr) {  // VC closed under us: orchestration dissolves
    detach_endpoint(key);
    return;
  }
  ++st->slot;
  const int k = st->slot;
  const std::int64_t span = st->target_seq - st->start_seq;
  // Round-to-nearest interpolation: floor bias would read a legitimate
  // on-rate stream as "ahead" mid-interval and hold it spuriously.
  const std::int64_t expected =
      st->start_seq + (2 * span * k + kSlotsPerInterval) / (2 * kSlotsPerInterval);
  const std::int64_t cur = conn->last_delivered_seq();

  // Ahead of target by more than one OSDU: block delivery for (at least)
  // the next slot.  Behind: request drop-at-source, spread over the
  // remaining slots.  The one-OSDU slack absorbs rounding and render-phase
  // quantisation.
  if (cur > expected + 1) {
    st->reg_hold = true;
  } else {
    st->reg_hold = false;
    const std::int64_t behind = expected - cur;
    if (behind > 1 && st->drops_requested < st->max_drop) {
      const int remaining_slots = kSlotsPerInterval - k + 1;
      const std::uint32_t want = static_cast<std::uint32_t>(std::min<std::int64_t>(
          st->max_drop - st->drops_requested,
          (behind + remaining_slots - 1) / remaining_slots));
      if (want > 0) {
        Opdu drop =
            Opdu::command(OpduType::kDrop, key.first, key.second, st->orch_node, st->epoch);
        drop.drop_count = want;
        llo_.send_opdu(st->drop_target, drop);
        st->drops_requested += want;
      }
    }
  }
  apply_delivery_gate(*st);

  if (k >= kSlotsPerInterval) {
    finish_sink_interval(key);
    return;
  }
  const Duration slot_len = std::max<Duration>(1, st->interval / kSlotsPerInterval);
  st->slot_timer.after(llo_.rt(), slot_len, [this, key] { regulation_slot(key); });
}

void RegulationEngine::finish_sink_interval(LocalKey key) {
  VcLocal* st = local(key);
  if (st == nullptr) return;
  Connection* conn = llo_.entity_.sink(key.second);
  if (conn == nullptr) return;
  st->reg_hold = false;
  apply_delivery_gate(*st);

  const Time now = llo_.rt().now();
  const auto stats = conn->buffer().window_stats(now);
  Opdu o = Opdu::reply(OpduType::kRegInd, key.first, key.second, llo_.node_);
  o.epoch = st->epoch;  // echo the interval's issuing epoch
  o.interval_id = st->interval_id;
  o.delivered_seq = conn->last_delivered_seq();
  o.target_seq = st->start_seq;  // echo the interval-begin position
  // At the sink ring the *protocol* is the producer and the *application*
  // is the consumer.
  o.proto_blocked = stats.producer_blocked;
  o.app_blocked = stats.consumer_blocked;
  o.timestamp = now;
  llo_.send_opdu(st->orch_node, o);
  conn->buffer().reset_window(now);
}

void RegulationEngine::handle_regulate_src(const Opdu& o) {
  if (epoch_fenced(o)) return;
  const LocalKey key{o.session, o.vc};
  VcLocal* st = local(key);
  if (st == nullptr) return;
  Connection* conn = llo_.entity_.source(o.vc);
  if (conn == nullptr) return;
  if (st->src_timer.pending()) {
    st->src_timer.cancel();
    finish_src_interval(key);
  }
  st->epoch = o.epoch;
  st->src_budget = o.max_drop;
  st->src_dropped = 0;
  st->src_interval_id = o.interval_id;
  conn->buffer().reset_window(llo_.rt().now());
  st->src_timer.after(llo_.rt(), o.interval, [this, key] { finish_src_interval(key); });
}

void RegulationEngine::finish_src_interval(LocalKey key) {
  VcLocal* st = local(key);
  if (st == nullptr) return;
  Connection* conn = llo_.entity_.source(key.second);
  if (conn == nullptr) return;
  const Time now = llo_.rt().now();
  const auto stats = conn->buffer().window_stats(now);
  Opdu o = Opdu::reply(OpduType::kSrcStats, key.first, key.second, llo_.node_);
  o.epoch = st->epoch;  // echo the interval's issuing epoch
  o.interval_id = st->src_interval_id;
  o.dropped = st->src_dropped;
  // At the source ring the *application* is the producer and the
  // *protocol* is the consumer.
  o.app_blocked = stats.producer_blocked;
  o.proto_blocked = stats.consumer_blocked;
  o.timestamp = now;
  llo_.send_opdu(st->orch_node, o);
  conn->buffer().reset_window(now);
}

void RegulationEngine::handle_drop(const Opdu& o) {
  if (epoch_fenced(o)) return;
  const LocalKey key{o.session, o.vc};
  VcLocal* st = local(key);
  if (st == nullptr) return;
  Connection* conn = llo_.entity_.source(o.vc);
  if (conn == nullptr) return;
  const std::uint32_t allowed =
      st->src_budget > st->src_dropped ? st->src_budget - st->src_dropped : 0;
  const std::uint32_t executed = conn->drop_at_source(std::min(o.drop_count, allowed));
  st->src_dropped += executed;
  if (executed > 0) {
    obs::Registry::global()
        .counter("orch.osdus_dropped", {{"vc", std::to_string(o.vc)}})
        .add(executed);
    obs::Tracer::global().instant("Orch.Drop", static_cast<int>(llo_.node_),
                                  static_cast<int>(o.vc & 0xffffffffu),
                                  "{\"count\": " + std::to_string(executed) + "}");
  }
}

void RegulationEngine::handle_event_reg(const Opdu& o) {
  if (epoch_fenced(o)) return;
  const LocalKey key{o.session, o.vc};
  VcLocal* st = local(key);
  if (st == nullptr) return;
  st->event_armed = true;
  st->event_pattern = o.pattern;
  st->event_mask = o.mask;
}

void RegulationEngine::handle_delayed(const Opdu& o) {
  if (epoch_fenced(o)) return;
  const bool source_side = o.source_side != 0;
  obs::Tracer::global().instant("Orch.Delayed", static_cast<int>(llo_.node_),
                                static_cast<int>(o.vc & 0xffffffffu),
                                "{\"osdus_behind\": " + std::to_string(o.osdus_behind) + "}");
  const bool accepted =
      llo_.app_ == nullptr ||
      llo_.app_->orch_delayed_indication(o.session, o.vc, source_side, o.osdus_behind);
  Opdu ack = Opdu::reply(OpduType::kDelayedAck, o.session, o.vc, llo_.node_);
  ack.ok = accepted ? 1 : 0;
  ack.reason = accepted ? OrchReason::kOk : OrchReason::kAppDenied;
  llo_.send_opdu(o.orch_node, ack);
}

}  // namespace cmtos::orch
