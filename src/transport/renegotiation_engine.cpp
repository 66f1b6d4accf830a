#include "transport/renegotiation_engine.h"

#include <optional>

#include "transport/connection.h"
#include "transport/transport_entity.h"
#include "util/logging.h"

namespace cmtos::transport {

RenegotiationEngine::RenegotiationEngine(TransportEntity& entity) : ent_(entity) {}

// ====================================================================
// QoS renegotiation (Table 3)
// ====================================================================

void RenegotiationEngine::t_renegotiate_request(VcId vc, const QosTolerance& proposed) {
  Connection* conn = ent_.endpoint(vc);
  if (conn == nullptr) {
    CMTOS_WARN("transport", "T-Renegotiate.request for unknown vc %llu",
               static_cast<unsigned long long>(vc));
    return;
  }
  // One request per VC at a time: a second one's RNC could not be told
  // apart from the first's.  The source owns the reservation, so it admits
  // the change before the sink is asked.
  std::optional<Change> change;
  if (!requests_.contains(vc))
    change = conn->role() == VcRole::kSource ? admit_change(*conn, proposed) : Change{};
  if (!change) {
    ent_.deliver_disconnect(vc, conn->local_tsap(), DisconnectReason::kRenegotiationFailed);
    return;
  }
  ControlTpdu t;
  t.type = TpduType::kRN;
  t.vc = vc;
  t.initiator = conn->request().initiator;
  t.src = conn->request().src;
  t.dst = conn->request().dst;
  t.qos = proposed;
  t.agreed = change->agreed;  // meaningful from the source only
  requests_.emplace(vc, Request{*change, {}});
  ent_.send_handshake(
      conn->peer_node(), t.encode(), [this, vc] { return pending_handshake(requests_, vc); },
      [this, vc] { conclude(vc, false, {}); });
}

void RenegotiationEngine::handle_rnc(const ControlTpdu& t) {
  conclude(t.vc, t.accepted != 0, t.agreed);
}

void RenegotiationEngine::conclude(VcId vc, bool accepted, const QosParams& agreed) {
  auto it = requests_.find(vc);
  if (it == requests_.end()) return;  // duplicate RNC: already settled
  Change change = it->second.change;
  requests_.erase(it);
  Connection* conn = ent_.endpoint(vc);  // the requester, as at the request
  if (conn == nullptr) return;
  // A sink requester learns its new contract from the source's answer.
  if (conn->role() == VcRole::kSink) change.agreed = agreed;
  settle_change(*conn, change, accepted);
  if (!accepted) {
    // Per §4.1.3: failure is notified with T-Disconnect.indication but the
    // existing VC is *not* torn down.
    ent_.deliver_disconnect(vc, conn->local_tsap(), DisconnectReason::kRenegotiationFailed);
    return;
  }
  if (TransportUser* u = ent_.user_at(conn->local_tsap()))
    u->t_renegotiate_confirm(vc, true, change.agreed);
}

void RenegotiationEngine::handle_rn(const ControlTpdu& t) {
  // Duplicate RN (retransmission) while the local user is still deciding:
  // stay quiet, one answer is coming.
  if (asked_.contains(t.vc)) return;
  Connection* conn = responder(t.vc);
  if (conn == nullptr) return;
  Change change;
  if (conn->role() == VcRole::kSink) {
    // Only the source's RN carries a contract.  Already in force here: the
    // accepting RNC was lost, so resend the acceptance rather than
    // re-asking the user.
    if (conn->agreed_qos() == t.agreed) {
      send_rnc(conn->peer_node(), t.vc, &t.agreed);
      return;
    }
    change.agreed = t.agreed;
  } else if (auto it = accepted_.find(t.vc);
             it != accepted_.end() && it->second.proposed == t.qos &&
             it->second.agreed == conn->agreed_qos()) {
    // The sink asks again for what is already in force here: the accepting
    // RNC was lost, so resend it rather than re-asking the user.
    send_rnc(conn->peer_node(), t.vc, &it->second.agreed);
    return;
  } else if (auto admitted = admit_change(*conn, t.qos)) {
    change = *admitted;
  } else {
    send_rnc(conn->peer_node(), t.vc, nullptr, DisconnectReason::kNoResources);
    return;
  }
  asked_.emplace(t.vc, Asked{t.qos, change, conn->peer_node()});
  if (TransportUser* u = ent_.user_at(conn->local_tsap())) {
    u->t_renegotiate_indication(t.vc, t.qos);
  } else {
    renegotiate_response(t.vc, false);
  }
}

void RenegotiationEngine::renegotiate_response(VcId vc, bool accept) {
  auto it = asked_.find(vc);
  if (it == asked_.end()) {
    CMTOS_WARN("transport", "renegotiate_response for unknown vc %llu",
               static_cast<unsigned long long>(vc));
    return;
  }
  const Asked asked = it->second;
  asked_.erase(it);
  if (Connection* conn = responder(vc)) {
    settle_change(*conn, asked.change, accept);
    if (accept && conn->role() == VcRole::kSource)
      accepted_[vc] = Accepted{asked.proposed, asked.change.agreed};
  }
  send_rnc(asked.requester, vc, accept ? &asked.change.agreed : nullptr);
}

std::optional<RenegotiationEngine::Change> RenegotiationEngine::admit_change(
    Connection& source, const QosTolerance& proposed) {
  Change change;
  change.old_bps = source.agreed_qos().required_bps();
  DisconnectReason reason = DisconnectReason::kProtocolError;
  const auto cand = ent_.admit(proposed, source.request().src.node, source.request().dst.node,
                               change.old_bps, reason);
  if (!cand) return std::nullopt;
  change.agreed = *cand;
  if (cand->required_bps() > change.old_bps && source.reservation() != net::kNoReservation) {
    if (!ent_.network_.adjust_reservation(source.reservation(),
                                          cand->required_bps() + TransportEntity::kControlVcBps))
      return std::nullopt;
    change.raised = true;
  }
  return change;
}

void RenegotiationEngine::settle_change(Connection& conn, const Change& change, bool accepted) {
  if (conn.reservation() != net::kNoReservation) {
    if (accepted && !change.raised) {  // a shrink always fits
      ent_.network_.adjust_reservation(
          conn.reservation(), change.agreed.required_bps() + TransportEntity::kControlVcBps);
    } else if (!accepted && change.raised) {  // roll the pre-raise back
      ent_.network_.adjust_reservation(conn.reservation(),
                                       change.old_bps + TransportEntity::kControlVcBps);
    }
  }
  if (accepted) conn.apply_new_qos(change.agreed);
}

Connection* RenegotiationEngine::responder(VcId vc) {
  if (Connection* conn = ent_.sink(vc)) return conn;
  return ent_.source(vc);
}

void RenegotiationEngine::send_rnc(net::NodeId to, VcId vc, const QosParams* agreed,
                                   DisconnectReason refusal) {
  ControlTpdu reply;
  reply.type = TpduType::kRNC;
  reply.vc = vc;
  if (agreed != nullptr) {
    reply.accepted = 1;
    reply.agreed = *agreed;
  } else {
    reply.reason = refusal;
  }
  ent_.send_tpdu(to, net::Proto::kTransportControl, reply.encode());
}

// ====================================================================
// QoS degradation notification (Table 2)
// ====================================================================

void RenegotiationEngine::on_qos_violation(Connection& conn, const QosReport& report) {
  // Local (sink) user first.
  if (TransportUser* u = ent_.user_at(conn.request().dst.tsap))
    u->t_qos_indication(conn.id(), report);
  // An initiator co-located with the sink (a Stream managing from the
  // receiving workstation) is notified directly.
  const net::NetAddress& init = conn.request().initiator;
  if (init.node == ent_.node_ && init != conn.request().dst) {
    if (TransportUser* u = ent_.user_at(init.tsap)) u->t_qos_indication(conn.id(), report);
  }

  // Relay to the source user, and to a distinct initiator (§4.1.2 lists
  // the initiator address in the primitive).
  ControlTpdu t;
  t.type = TpduType::kQI;
  t.vc = conn.id();
  t.initiator = conn.request().initiator;
  t.src = conn.request().src;
  t.dst = conn.request().dst;
  t.report = report;
  ent_.send_tpdu(conn.request().src.node, net::Proto::kTransportControl, t.encode());
  if (t.initiator.node != t.src.node && t.initiator.node != t.dst.node)
    ent_.send_tpdu(t.initiator.node, net::Proto::kTransportControl, t.encode());
}

void RenegotiationEngine::handle_qi(const ControlTpdu& t) {
  if (t.src.node == ent_.node_) {
    if (TransportUser* u = ent_.user_at(t.src.tsap)) u->t_qos_indication(t.vc, t.report);
  }
  if (t.initiator.node == ent_.node_ && t.initiator != t.src) {
    if (TransportUser* u = ent_.user_at(t.initiator.tsap)) u->t_qos_indication(t.vc, t.report);
  }
}

void RenegotiationEngine::on_close(VcId vc) {
  requests_.erase(vc);
  asked_.erase(vc);
  accepted_.erase(vc);
}

}  // namespace cmtos::transport
