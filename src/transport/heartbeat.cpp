#include "transport/heartbeat.h"

#include <algorithm>
#include <utility>

#include "transport/connection.h"
#include "transport/transport_entity.h"

namespace cmtos::transport {

bool HeartbeatEngine::liveness() const { return ent_.config().peer_dead_after > 0; }

HeartbeatEngine::Peer* HeartbeatEngine::find(net::NodeId node) {
  auto it = peers_.find(node);
  return it == peers_.end() ? nullptr : &it->second;
}

void HeartbeatEngine::attach(const Connection& c) {
  const net::NodeId node = c.peer_node();
  auto [it, fresh] = peers_.try_emplace(node);
  Peer& p = it->second;
  ++p.vc_count;
  p.digest ^= vc_digest(c.id());
  if (fresh) {
    const Time now = ent_.runtime().now();
    p.last_heard = now;
    if (liveness()) {
      // Timed by the local crystal like every other protocol timer (§3.6).
      p.next_keepalive = now + ent_.to_true(ent_.config().keepalive_interval);
      arm(node, p, p.next_keepalive);
    }
  }
}

void HeartbeatEngine::detach(const Connection& c) {
  auto it = peers_.find(c.peer_node());
  if (it == peers_.end()) return;
  Peer& p = it->second;
  --p.vc_count;
  p.digest ^= vc_digest(c.id());
  if (p.vc_count == 0) peers_.erase(it);
}

void HeartbeatEngine::watch(Connection& sink) {
  FeedbackReport& r = sink.feedback_report();
  if (r.watched) return;
  const net::NodeId node = sink.peer_node();
  Peer* p = find(node);
  if (p == nullptr) return;
  r.watched = true;
  p->watch.push_back(sink.id());
  arm(node, *p, ent_.runtime().now() + kFeedbackPeriod);
}

void HeartbeatEngine::heard_from(net::NodeId peer) {
  if (!liveness()) return;
  if (Peer* p = find(peer)) p->last_heard = ent_.runtime().now();
}

void HeartbeatEngine::arm(net::NodeId node, Peer& p, Time at) {
  if (p.tick.pending() && p.tick_at <= at) return;
  p.tick_at = at;
  p.tick.at(ent_.runtime(), at, [this, node] { on_tick(node); });
}

void HeartbeatEngine::on_tick(net::NodeId node) {
  if (find(node) == nullptr) return;
  collect_feedback(node);
  // The hole sweep may re-enter user code that closes the pair's last VC.
  Peer* p = find(node);
  if (p == nullptr) return;
  const Time now = ent_.runtime().now();
  const TransportConfig& cfg = ent_.config();
  std::uint8_t flags = 0;
  bool keepalive = false;
  if (liveness()) {
    if (now - p->last_heard > cfg.peer_dead_after) declare_dead(open_with(node));
    if (p->mismatch_since >= 0 && now - p->mismatch_since >= cfg.peer_dead_after) {
      flags = kHbCarriesIds | kHbWantsIds;
      p->mismatch_since = now;
    }
    keepalive = now >= p->next_keepalive;
  }
  if (!feedback_.empty() || flags != 0 || keepalive) {
    emit(node, p, feedback_, flags);
    if (liveness()) p->next_keepalive = now + ent_.to_true(cfg.keepalive_interval);
  }
  Time next = kTimeNever;
  if (!p->watch.empty()) next = now + kFeedbackPeriod;
  if (liveness()) next = std::min(next, p->next_keepalive);
  if (next != kTimeNever) arm(node, *p, next);
}

void HeartbeatEngine::collect_feedback(net::NodeId node) {
  feedback_.clear();
  Peer* p = find(node);
  sweep_.swap(p->watch);
  p->watch.clear();
  // Phase 1: hole sweep.  give_up_on_holes can deliver into the ring and
  // wake the application, which may watch() other sinks (they land on the
  // emptied list) or close VCs; swept entries keep watched = true, so they
  // are not re-added meanwhile.
  for (VcId vc : sweep_) {
    Connection* c = ent_.sink(vc);
    if (c != nullptr && c->has_holes()) c->give_up_on_holes();
  }
  p = find(node);
  if (p == nullptr) {
    sweep_.clear();
    return;
  }
  // Phase 2: compare each sink's feedback with what the peer acknowledged.
  // A changed value first rides heartbeat next_seq_ + 1, the one emit()
  // sends next.
  for (VcId vc : sweep_) {
    Connection* c = ent_.sink(vc);
    if (c == nullptr || c->state() != VcState::kOpen || c->peer_node() != node) continue;
    FeedbackReport& r = c->feedback_report();
    if (!r.acked && r.seq != 0 && p->acked >= r.seq) r.acked = true;
    const FeedbackTpdu value = c->feedback_value();
    if (r.seq == 0 || value != r.last) {
      r.last = value;
      r.seq = next_seq_ + 1;
      r.acked = false;
    }
    if (!r.acked) feedback_.push_back(value);
    if (!r.acked || c->has_holes()) {
      p->watch.push_back(vc);
    } else {
      r.watched = false;
    }
  }
  sweep_.clear();
}

void HeartbeatEngine::emit(net::NodeId node, const Peer* p, std::span<const FeedbackTpdu> feedback,
                           std::uint8_t flags, std::uint32_t ack) {
  HeartbeatTpdu& hb = tx_;
  hb.incarnation = incarnation_;
  hb.seq = ++next_seq_;
  hb.ack = p != nullptr ? p->recv_seq : ack;
  hb.vc_count = p != nullptr ? p->vc_count : 0;
  hb.digest = p != nullptr ? p->digest : 0;
  hb.flags = flags;
  hb.feedback.assign(feedback.begin(), feedback.end());
  if ((flags & kHbCarriesIds) != 0) {
    hb.ids = held_with(node);
  } else {
    hb.ids.clear();
  }
  hb.encode_into(wire_);
  ent_.send_tpdu(node, net::Proto::kTransportData, std::span<const std::uint8_t>(wire_));
}

bool HeartbeatEngine::receive(net::NodeId src, std::span<const std::uint8_t> wire,
                              WireFault* fault) {
  // Safe to reuse: a send never re-enters a receiver synchronously, so no
  // second heartbeat is decoded while on_heartbeat still reads rx_.
  if (!HeartbeatTpdu::decode_into(wire, rx_, fault)) return false;
  on_heartbeat(src, rx_);
  return true;
}

void HeartbeatEngine::on_heartbeat(net::NodeId src, const HeartbeatTpdu& hb) {
  const bool live = liveness();
  const Time now = ent_.runtime().now();
  Peer* p = find(src);
  if (p == nullptr) {
    // We hold no VC with `src`.  Answer so the sender stops repeating its
    // feedback and, with liveness on, learns our incarnation, that we hold
    // nothing, and (asked for it) the connects we still have in flight.
    const bool ids = live && (hb.flags & kHbWantsIds) != 0;
    if (!hb.feedback.empty() || (live && hb.vc_count > 0) || ids)
      emit(src, nullptr, {}, ids ? kHbCarriesIds : 0, hb.feedback.empty() ? 0 : hb.seq);
    return;
  }
  p->last_heard = now;
  // Only a heartbeat that carried feedback moves our ack.  Every such
  // heartbeat repeats all of the sender's unacked entries, so an ack >= the
  // seq that first carried a value proves a copy of that value arrived;
  // echoing the seq of an entry-less heartbeat would not.
  if (!hb.feedback.empty()) p->recv_seq = std::max(p->recv_seq, hb.seq);
  p->acked = std::max(p->acked, hb.ack);
  std::uint8_t flags = 0;
  if (live) {
    // A new incarnation means the peer restarted and lost every VC it held
    // with us; ask which ones it holds now (a connect it opened since must
    // survive) and tear down the rest when its list arrives.
    if (p->incarnation != 0 && hb.incarnation != p->incarnation)
      flags = kHbCarriesIds | kHbWantsIds;
    p->incarnation = hb.incarnation;
    if (hb.vc_count == p->vc_count && hb.digest == p->digest) {
      p->mismatch_since = -1;
    } else if (p->mismatch_since < 0) {
      p->mismatch_since = now;
    } else if (now - p->mismatch_since >= ent_.config().peer_dead_after) {
      flags = kHbCarriesIds | kHbWantsIds;
    }
    if (flags != 0) p->mismatch_since = now;
    if ((hb.flags & kHbCarriesIds) != 0) {
      std::vector<VcId> held = hb.ids;
      std::sort(held.begin(), held.end());
      std::vector<VcId> victims;
      for (VcId vc : open_with(src))
        if (!std::binary_search(held.begin(), held.end(), vc)) victims.push_back(vc);
      declare_dead(std::move(victims));
      if ((hb.flags & kHbWantsIds) != 0) flags |= kHbCarriesIds;
    }
  }
  // Feedback last: on_feedback can restart a pacer and wake the producer,
  // which may close VCs (and with the last one, this record).
  for (const FeedbackTpdu& fb : hb.feedback) {
    Connection* c = ent_.source(fb.vc);
    if (c != nullptr && c->peer_node() == src) c->on_feedback(fb);
  }
  if (hb.feedback.empty() && flags == 0) return;
  emit(src, find(src), {}, flags, hb.seq);
}

std::vector<VcId> HeartbeatEngine::open_with(net::NodeId node) const {
  std::vector<VcId> out;
  for (const auto& [vc, conn] : ent_.sources_)
    if (conn->peer_node() == node) out.push_back(vc);
  for (const auto& [vc, conn] : ent_.sinks_)  // a loopback VC is listed once
    if (conn->peer_node() == node && !ent_.sources_.contains(vc)) out.push_back(vc);
  return out;
}

std::vector<VcId> HeartbeatEngine::held_with(net::NodeId node) const {
  std::vector<VcId> out = open_with(node);
  ent_.conn_mgr_.connects_pending_with(node, out);
  return out;
}

void HeartbeatEngine::declare_dead(std::vector<VcId> victims) {
  if (victims.empty()) return;
  // Teardown releases reservations and notifies users: a global event.
  // Capture the entity and ids, never a Connection (on_peer_dead tolerates
  // a VC that a same-timestamp DR already removed).
  TransportEntity& ent = ent_;
  ent_.runtime().defer_global([&ent, victims = std::move(victims)] {
    for (VcId vc : victims) ent.on_peer_dead(vc);
  });
}

}  // namespace cmtos::transport
