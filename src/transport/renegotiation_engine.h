// cmtos/transport/renegotiation_engine.h
//
// QoS renegotiation (Table 3) and degradation notification (Table 2),
// split out of TransportEntity: the RN/RNC handshake for raising or
// lowering a live VC's contract, and the QI relay that tells source and
// initiator users about a sink-side QoS violation.
//
// Owns the in-flight renegotiation state — requester-side PendingReneg
// (with the pre-raised reservation bookkeeping) and responder-side
// PendingRenegPeer plus the tentative contract a retransmitted RN carries.
// Established endpoints, reservations and wire I/O stay on the
// TransportEntity.
//
// Each requester-side record owns its RN retransmission timer, armed
// *global*: exhaustion rolls back reservations and notifies users.  All
// state of a VC is dropped when the VC closes (on_close), so a closed VC
// retransmits nothing.

#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "net/network.h"
#include "sim/node_runtime.h"
#include "transport/service.h"
#include "transport/tpdu.h"
#include "util/thread_annotations.h"

namespace cmtos::transport {

class Connection;
class TransportEntity;

class CMTOS_SHARD_AFFINE RenegotiationEngine {
 public:
  explicit RenegotiationEngine(TransportEntity& entity);
  RenegotiationEngine(const RenegotiationEngine&) = delete;
  RenegotiationEngine& operator=(const RenegotiationEngine&) = delete;

  // --- Table 3 primitives (forwarded from the entity's public API) ---
  void t_renegotiate_request(VcId vc, const QosTolerance& proposed);
  void renegotiate_response(VcId vc, bool accept);

  // --- control-TPDU handlers (rows of the entity's dispatch table) ---
  void handle_rn(const ControlTpdu& t);
  void handle_rnc(const ControlTpdu& t);
  void handle_qi(const ControlTpdu& t);

  /// Table 2: the sink-side monitor detected a contract violation on
  /// `conn`.  Notifies local users and relays QI to source/initiator.
  void on_qos_violation(Connection& conn, const QosReport& report);

  /// A local endpoint of `vc` closed: drops the VC's in-flight
  /// renegotiation on either side, cancelling its RN retransmissions.
  void on_close(VcId vc);

 private:
  struct PendingReneg {  // requester side: RN sent, waiting for RNC
    QosTolerance proposed;
    QosParams tentative_agreed;  // what we offered (source-initiated)
    std::int64_t old_bps = 0;
    bool at_source = false;
    bool raised = false;  // reservation pre-raised, roll back on reject
    std::vector<std::uint8_t> rn_wire;  // for retransmission
    net::NodeId peer = net::kInvalidNode;
    int retries_left = kHandshakeRetries;
    sim::Timer retransmit;
  };
  struct PendingRenegPeer {  // responder side: user asked
    QosTolerance proposed;
    net::NodeId requester_node = net::kInvalidNode;
  };

  /// Self-rearming RN retransmission timer; exhaustion fails the
  /// renegotiation but leaves the VC alive under its old contract.
  void arm_rn_timer(VcId vc);

  TransportEntity& ent_;

  // One entry per in-flight renegotiation handshake (rare, short-lived).
  std::map<VcId, PendingReneg> pending_reneg_;  // cmtos-analyze: allow(hot-path-map)
  std::map<VcId, PendingRenegPeer> pending_reneg_peer_;  // cmtos-analyze: allow(hot-path-map)
  // Tentative contract carried by a source-initiated RN, held until the
  // sink user answers (and consulted to recognise retransmitted RNs).
  std::map<VcId, QosParams> peer_tentative_;  // cmtos-analyze: allow(hot-path-map)
};

}  // namespace cmtos::transport
