#include "orch/llo.h"

#include "obs/wire_stats.h"
#include "util/contract.h"
#include "util/logging.h"

namespace cmtos::orch {

using transport::VcId;

const char* to_string(OrchReason r) {
  switch (r) {
    case OrchReason::kOk: return "ok";
    case OrchReason::kNoSuchVc: return "no-such-vc";
    case OrchReason::kNoTableSpace: return "no-table-space";
    case OrchReason::kAppDenied: return "app-denied";
    case OrchReason::kNoSession: return "no-session";
    case OrchReason::kTimeout: return "timeout";
    case OrchReason::kNoControlBandwidth: return "no-control-bandwidth";
    case OrchReason::kNoCommonNode: return "no-common-node";
    case OrchReason::kNotEstablished: return "not-established";
    case OrchReason::kOpInProgress: return "op-in-progress";
    case OrchReason::kIllegalTransition: return "illegal-transition";
    case OrchReason::kStaleEpoch: return "stale-epoch";
  }
  return "?";
}

bool orch_transition_legal(SessionPhase from, SessionPhase to) {
  switch (from) {
    case SessionPhase::kEstablishing:
      return to == SessionPhase::kIdle;
    case SessionPhase::kIdle:
      // Start without a prior prime is legal: priming only pre-fills the
      // sink buffers so playout begins glitch-free; an unprimed start just
      // releases delivery as data trickles in.
      return to == SessionPhase::kPriming || to == SessionPhase::kStarting;
    case SessionPhase::kPriming:
      // Success, or revert to wherever the prime was issued from.
      return to == SessionPhase::kPrimed || to == SessionPhase::kIdle ||
             to == SessionPhase::kStopped;
    case SessionPhase::kPrimed:
      return to == SessionPhase::kStarting || to == SessionPhase::kStopping ||
             to == SessionPhase::kPriming;
    case SessionPhase::kStarting:
      return to == SessionPhase::kRunning || to == SessionPhase::kPrimed ||
             to == SessionPhase::kStopped || to == SessionPhase::kIdle;
    case SessionPhase::kRunning:
      return to == SessionPhase::kStopping;
    case SessionPhase::kStopping:
      return to == SessionPhase::kStopped || to == SessionPhase::kPrimed ||
             to == SessionPhase::kRunning;
    case SessionPhase::kStopped:
      return to == SessionPhase::kPriming || to == SessionPhase::kStarting;
  }
  return false;
}

const char* to_string(SessionPhase s) {
  switch (s) {
    case SessionPhase::kEstablishing: return "establishing";
    case SessionPhase::kIdle: return "idle";
    case SessionPhase::kPriming: return "priming";
    case SessionPhase::kPrimed: return "primed";
    case SessionPhase::kStarting: return "starting";
    case SessionPhase::kRunning: return "running";
    case SessionPhase::kStopping: return "stopping";
    case SessionPhase::kStopped: return "stopped";
  }
  return "?";
}

Llo::Llo(net::Network& network, net::NodeId node, transport::TransportEntity& entity)
    : network_(network),
      node_(node),
      entity_(entity),
      table_(*this),
      reg_(*this) {
  network_.node(node_).set_handler(net::Proto::kOrch,
                                   [this](net::Packet&& p) { on_opdu_packet(std::move(p)); });
  // A VC dying under an orchestration group must not strand the group: the
  // LLO hears about every endpoint teardown and detaches/reports.
  entity_.set_on_vc_closed([this](VcId vc, transport::DisconnectReason reason) {
    if (down_) return;
    reg_.on_vc_closed(vc, reason);
  });
}

void Llo::send_opdu(net::NodeId dst, const Opdu& o) {
  net::Packet pkt;
  pkt.src = node_;
  pkt.dst = dst;
  pkt.proto = net::Proto::kOrch;
  pkt.priority = net::Priority::kControl;  // the reserved control VC band
  pkt.payload = o.encode();
  network_.send(std::move(pkt));
}

void Llo::crash() {
  table_.crash();
  reg_.crash();
  clock_probes_.clear();
  down_ = true;
  CMTOS_WARN("llo", "node %u: LLO crashed, all orchestration state dropped", node_);
}

void Llo::restart() {
  down_ = false;
  CMTOS_INFO("llo", "node %u: LLO restarted", node_);
}

// ====================================================================
// Clock-offset estimation (§5 footnote / §7)
// ====================================================================

void Llo::estimate_clock_offset(net::NodeId peer, int probes,
                                std::function<void(const ClockEstimate&)> done) {
  auto session = std::make_shared<ClockSyncSession>(peer, probes, std::move(done));
  std::vector<std::uint32_t> ids;
  for (int i = 0; i < probes; ++i) {
    const std::uint32_t id = next_probe_id_++;
    ids.push_back(id);
    clock_probes_[id] = session;
    session->on_probe_sent(id, entity_.local_now());
    Opdu o;
    o.type = OpduType::kTimeReq;
    o.orch_node = node_;
    o.probe_id = id;
    o.t_origin = entity_.local_now();
    send_opdu(peer, o);
  }
  // Unanswered probes are abandoned after a generous deadline.  The event
  // is deliberately unowned: a crash must not cancel it, so the caller's
  // estimate still completes (with the probes it got) even after the node
  // drops its orchestration state.
  rt().after_global(2 * kSecond, [this, session, ids] {
    session->finish();
    for (auto id : ids) clock_probes_.erase(id);
  });
}

void Llo::handle_time_req(const Opdu& o) {
  Opdu resp;
  resp.type = OpduType::kTimeResp;
  resp.probe_id = o.probe_id;
  resp.t_origin = o.t_origin;          // echoed
  resp.t_peer = entity_.local_now();   // my local clock
  send_opdu(o.orch_node, resp);
}

void Llo::handle_time_resp(const Opdu& o) {
  auto it = clock_probes_.find(o.probe_id);
  if (it == clock_probes_.end()) return;
  auto session = it->second;
  clock_probes_.erase(it);
  (void)session->on_response(o.probe_id, o.t_origin, o.t_peer, entity_.local_now());
}

// ====================================================================
// OPDU dispatch
// ====================================================================

void Llo::on_opdu_packet(net::Packet&& pkt) {
  if (down_) return;  // crashed LLO: protocol state is gone
  if (table_.peer_quarantined(pkt.src)) return;
  WireFault fault = WireFault::kNone;
  auto o = Opdu::decode(pkt.payload, &fault);
  if (!o) {
    obs::wire_decode_failed("opdu", fault);
    // Checksum refusals are line damage; a structural refusal with a valid
    // CRC counts toward the sender's quarantine.
    if (fault != WireFault::kChecksum) table_.note_malformed_opdu(pkt.src);
    return;
  }
  // Exhaustive and without a default, so -Wswitch names a new type that
  // has no route.
  switch (o->type) {
    // Endpoint role.
    case OpduType::kSessReq:
    case OpduType::kAdd: reg_.handle_sess_req(*o); break;
    case OpduType::kSessRel: reg_.handle_sess_rel(*o); break;
    case OpduType::kPrime: reg_.handle_prime(*o); break;
    case OpduType::kStart: reg_.handle_start(*o); break;
    case OpduType::kStop: reg_.handle_stop(*o); break;
    case OpduType::kRemove: reg_.handle_remove_vc(*o); break;
    case OpduType::kRegulateSink: reg_.handle_regulate_sink(*o); break;
    case OpduType::kRegulateSrc: reg_.handle_regulate_src(*o); break;
    case OpduType::kDrop: reg_.handle_drop(*o); break;
    case OpduType::kEventReg: reg_.handle_event_reg(*o); break;
    case OpduType::kDelayed: reg_.handle_delayed(*o); break;
    // Orchestrating role.
    case OpduType::kSessAck:
    case OpduType::kPrimeAck:
    case OpduType::kStartAck:
    case OpduType::kStopAck:
    case OpduType::kRemoveAck: table_.op_ack(*o); break;
    case OpduType::kPrimed: table_.handle_primed(*o); break;
    case OpduType::kRegInd: table_.handle_reg_ind(*o); break;
    case OpduType::kSrcStats: table_.handle_src_stats(*o); break;
    case OpduType::kEventInd: table_.handle_event_ind(*o); break;
    case OpduType::kVcDead: table_.handle_vc_dead(*o); break;
    case OpduType::kEpochNack: table_.handle_epoch_nack(*o); break;
    case OpduType::kDelayedAck: break;  // informational
    // Clock sync.
    case OpduType::kTimeReq: handle_time_req(*o); break;
    case OpduType::kTimeResp: handle_time_resp(*o); break;
  }
}

}  // namespace cmtos::orch
