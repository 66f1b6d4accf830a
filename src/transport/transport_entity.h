// cmtos/transport/transport_entity.h
//
// The per-node transport entity: the control plane of the CM transport
// service (§4).
//
// It owns every VC endpoint on its node and fronts the Table 1/2/3 service
// primitives, delegating the handshake machinery to two engines that share
// its state:
//
//   ConnectionManager    — CR/CC/RCR/RCC establishment (incl. the §3.5
//                          three-party remote connect), DR/DC/RDR release,
//                          liveness teardown, preemptive displacement;
//   RenegotiationEngine  — RN/RNC contract renegotiation and the QI
//                          degradation relay;
//   HeartbeatEngine      — one heartbeat per peer node: batched rate
//                          feedback, NAK retry / hole skipping and peer
//                          liveness for every VC with that node.
//
// The entity keeps what the engines (and the data plane) need: TSAP
// bindings, the sources_/sinks_ endpoint maps with the one endpoint
// teardown (detach), the one admission check (admit), the one handshake
// retransmit (send_handshake, for RCR, CR and RN), timing config, wire
// I/O and the crash/restart fault model.  Protocol timers are sim::Timers
// inside the records they guard (a pending handshake, a peer, an
// endpoint), so dropping a record cancels its timers.  Incoming control
// TPDUs are demultiplexed through a dispatch table indexed by TPDU type.
//
// The entity also publishes its endpoints' metrics.  It is the registry's
// collector for the per-VC `transport.*`, `buffer.shed` ({vc,node,role})
// and `qos.*` ({vc}) series, read from each open endpoint's VcStats and
// QosMonitor at snapshot time, and it folds a closing endpoint's counters
// into per-node totals, so the series count follows the live VCs.

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "net/network.h"
#include "obs/metrics.h"
#include "transport/connection.h"
#include "transport/connection_manager.h"
#include "transport/handshake.h"
#include "transport/heartbeat.h"
#include "transport/renegotiation_engine.h"
#include "transport/service.h"
#include "transport/tpdu.h"
#include "util/rng.h"
#include "util/slot_table.h"
#include "util/thread_annotations.h"

namespace cmtos::transport {

/// Peer-liveness policy; the soak and failover worlds tighten it.
struct TransportConfig {
  /// Cadence of the per-peer heartbeat while liveness is on: each entity
  /// sends one heartbeat per peer node it holds VCs with, however many.
  Duration keepalive_interval = 250 * kMillisecond;
  /// Silence threshold after which a peer entity is declared dead and every
  /// VC with it is torn down with kPeerDead; also how long a VC-set digest
  /// mismatch may last before the peers exchange VC id lists.  0 disables
  /// liveness detection (and keepalive heartbeats) entirely.
  Duration peer_dead_after = 0;
};

class CMTOS_SHARD_AFFINE TransportEntity {
 public:
  TransportEntity(net::Network& network, net::NodeId node);

  net::Network& network() { return network_; }
  sim::Scheduler& scheduler() { return network_.scheduler(); }
  /// This node's shard runtime: every timer and local event of the entity
  /// runs here, never on another node's shard.
  sim::NodeRuntime& runtime() { return network_.node(node_).runtime(); }
  net::NodeId node_id() const { return node_; }
  /// This node's local (skewed) clock reading, now or at true time `t`.
  Time local_now() const;
  Time local_time(Time t) const;
  /// Converts a locally-timed duration (e.g. a pacing interval measured by
  /// this node's crystal) into true simulation time.  Protocol timers run
  /// off the node's hardware clock, so its drift distorts them — the §3.6
  /// "discrepancies between remote clock rates" the orchestrator corrects.
  Duration to_true(Duration local) const;

  // ------------------------------------------------------------------
  // TSAP binding
  // ------------------------------------------------------------------
  void bind(net::Tsap tsap, TransportUser* user);
  void unbind(net::Tsap tsap);
  TransportUser* user_at(net::Tsap tsap) const;

  // ------------------------------------------------------------------
  // Table 1: T-Connect / T-Disconnect
  // ------------------------------------------------------------------

  /// T-Connect.request.  For a conventional connect set req.initiator ==
  /// req.src (and call this on the source node's entity); for a remote
  /// connect (§3.5) call it on the initiator's node with distinct
  /// initiator/src/dst.  Returns the allocated vc-id; the outcome arrives
  /// via t_connect_confirm / t_disconnect_indication on the initiator's
  /// user (and, for remote connects, also on the source user).
  VcId t_connect_request(const ConnectRequest& req) { return conn_mgr_.t_connect_request(req); }

  /// T-Connect.response / rejection, issued by a user that received
  /// t_connect_indication.  `accept=false` maps to T-Disconnect.request
  /// with reason kRejectedByUser.  A destination user may narrow the
  /// offered QoS by passing `narrowed` (must be within the offered
  /// tolerance; checked).
  void connect_response(VcId vc, bool accept,
                        std::optional<QosParams> narrowed = std::nullopt) {
    conn_mgr_.connect_response(vc, accept, std::move(narrowed));
  }

  /// T-Disconnect.request for a VC with a local endpoint.
  void t_disconnect_request(VcId vc) { conn_mgr_.t_disconnect_request(vc); }

  /// Remote release (§4.1.1): ask the entity at `endpoint` to put a
  /// T-Disconnect.indication to the application attached there, which may
  /// then release the VC.  Usable by the initiator of a remote connect.
  void t_remote_disconnect_request(VcId vc, const net::NetAddress& endpoint) {
    conn_mgr_.t_remote_disconnect_request(vc, endpoint);
  }

  // ------------------------------------------------------------------
  // Table 3: T-Renegotiate
  // ------------------------------------------------------------------

  /// T-Renegotiate.request from the user of a local endpoint of `vc`.
  /// Fully confirmed: the peer user sees t_renegotiate_indication and must
  /// call renegotiate_response; the requester then gets
  /// t_renegotiate_confirm, or (per the paper) t_disconnect_indication
  /// with kRenegotiationFailed — in which case the VC itself survives.
  void t_renegotiate_request(VcId vc, const QosTolerance& proposed) {
    reneg_.t_renegotiate_request(vc, proposed);
  }

  /// T-Renegotiate.response from the peer user.
  void renegotiate_response(VcId vc, bool accept) { reneg_.renegotiate_response(vc, accept); }

  // ------------------------------------------------------------------
  // Endpoint access
  // ------------------------------------------------------------------
  Connection* source(VcId vc);
  Connection* sink(VcId vc);
  /// The local endpoint of `vc`, preferring the source when both exist
  /// (loopback VCs).
  Connection* endpoint(VcId vc);

  // ------------------------------------------------------------------
  // Internal plumbing (used by Connection and the engines)
  // ------------------------------------------------------------------
  /// Sends an encoded TPDU.  Control TPDUs (and the data plane's small
  /// AK/NAK/FB/HB) ride the high-priority band; DT carries media priority.
  /// Control TPDUs are marked for *global* delivery: their handlers touch
  /// shared state (reservations, facade users), so the executor serialises
  /// the rounds they complete in.
  void send_tpdu(net::NodeId dst, net::Proto proto, std::vector<std::uint8_t> payload,
                 net::Priority priority = net::Priority::kControl);
  /// Same, copying the bytes (inline in the packet when they fit), for a
  /// sender that encodes through a reused buffer.
  void send_tpdu(net::NodeId dst, net::Proto proto, std::span<const std::uint8_t> payload,
                 net::Priority priority = net::Priority::kControl);

  /// The one retransmitted handshake (RCR, CR, RN): stores the encoded TPDU
  /// `wire` in the Handshake that `find()` returns, sends it to `peer` and
  /// resends it every handshake_delay() up to kHandshakeRetries times; when
  /// no answer has erased the record by then, `give_up()` runs.  `find`
  /// looks the record up again at each expiry (the pending tables relocate
  /// their records) and returns null once it is gone.
  template <class Find, class GiveUp>
  void send_handshake(net::NodeId peer, std::vector<std::uint8_t> wire, Find find,
                      GiveUp give_up);

  /// Sends a data TPDU on the zero-copy path: the header is serialized
  /// into the packet, the fragment rides as a refcounted frame view
  /// (DataTpdu::encode_onto), media priority, shard-local delivery.
  void send_dt(net::NodeId dst, const DataTpdu& dt);

  /// Stages a data TPDU as a network packet without injecting it, for
  /// burst pacing: the connection collects one packet per fragment and
  /// hands the whole burst to send_dt_burst, costing one injection event.
  net::Packet make_dt_packet(net::NodeId dst, const DataTpdu& dt) const;
  void send_dt_burst(std::vector<net::Packet>&& burst);
  void on_qos_violation(Connection& conn, const QosReport& report) {
    reneg_.on_qos_violation(conn, report);
  }

  /// The per-peer heartbeat: connections join it on open/close and ask it
  /// to report their feedback (see transport/heartbeat.h).
  HeartbeatEngine& heartbeat() { return heartbeat_; }

  /// An open endpoint closes (Connection::close or its destruction): it
  /// leaves its peer's heartbeat record and drops its VC's in-flight
  /// renegotiation.
  void endpoint_closed(const Connection& conn) {
    heartbeat_.detach(conn);
    reneg_.on_close(conn.id());
  }

  /// Adds a closing endpoint's counters to this node's totals of closed
  /// endpoints ({node,role} labels; {node} for qos.violation_periods).
  /// ~Connection calls it: the one point where an endpoint's stats leave
  /// the live series.
  void retire_metrics(const Connection& conn);

  /// Liveness teardown decided by the heartbeat: the peer entity of `vc`
  /// went silent, restarted, or no longer holds the VC.  Tears the local
  /// endpoint down, frees its resources and delivers kPeerDead.
  void on_peer_dead(VcId vc) { conn_mgr_.on_peer_dead(vc); }

  /// Records a decoder refusal from `peer`: bumps the
  /// wire.decode_failed{pdu,reason} taxonomy counter and, for CRC-valid
  /// structural refusals, the peer's malformed-PDU quarantine count.
  /// Called by the dispatch paths here and by Connection for DT refusals.
  void note_wire_refusal(net::NodeId peer, const char* pdu, WireFault fault);

  // ------------------------------------------------------------------
  // Timing policy
  // ------------------------------------------------------------------
  const TransportConfig& config() const { return config_; }
  void set_config(const TransportConfig& c) { config_ = c; }

  // ------------------------------------------------------------------
  // Fault model
  // ------------------------------------------------------------------

  /// Node crash: drops every per-node transport state — open VCs (closed
  /// without DR handshakes; reservations released, renegotiations dropped)
  /// and pending connects, with their timers — and ignores all traffic until
  /// restart().  TSAP bindings and the VC-id counter survive: applications
  /// outlive the protocol stack, and VC ids must never collide across
  /// incarnations.
  void crash();
  void restart();
  bool down() const { return down_; }

  /// Observer invoked whenever an established VC endpoint is torn down
  /// (local release, peer release, or liveness timeout) — the LLO uses it
  /// to detach dead VCs from orchestration groups.  Not invoked on crash():
  /// the co-located observer died with the node.
  void set_on_vc_closed(std::function<void(VcId, DisconnectReason)> fn) {
    on_vc_closed_ = std::move(fn);
  }

  /// Bandwidth set aside per VC for its internal control channel (the
  /// [Shepherd,91] "special internal control VC associated with each
  /// transport connection" which also carries orchestrator PDUs, §5).
  /// Reserved forward on top of the data rate and as a trickle on the
  /// reverse path (feedback / OPDU replies).
  static constexpr std::int64_t kControlVcBps = 64'000;

 private:
  friend class ConnectionManager;
  friend class HeartbeatEngine;
  friend class RenegotiationEngine;

  /// A TPDU packet to `dst` with its header fields set and no payload yet.
  net::Packet tpdu_packet(net::NodeId dst, net::Proto proto, net::Priority priority) const;
  void on_control_packet(net::Packet&& pkt);
  void on_data_packet(net::Packet&& pkt);
  /// The registry collector: every live endpoint's per-VC series.
  void collect_metrics(obs::Emitter& out) const;

  void deliver_disconnect(VcId vc, net::Tsap tsap, DisconnectReason reason);

  /// The one endpoint teardown: removes the local endpoint of `vc` (the
  /// source when both halves are local), returns its reservations and
  /// closes it.  The closed endpoint is handed back so the caller can read
  /// its peer, TSAP and request, and so it outlives the caller's own DR/DC
  /// and indications; null when no endpoint of `vc` is local.
  std::unique_ptr<Connection> detach(VcId vc);
  /// Returns a VC's forward and reverse reservations to the network.
  void release_reservations(const VcReservations& resv);

  /// The one admission check, at connect and at renegotiation: the contract
  /// to offer for `tolerance` on the src->dst path, degraded to the path's
  /// free bandwidth plus `headroom_bps` (-kControlVcBps at connect, the
  /// rate the VC already holds at renegotiation), with the delay bound
  /// weakened toward what the path can meet.  Node-local VCs and a
  /// substrate without admission control get the preference.  nullopt =>
  /// `reason` holds why.
  std::optional<QosParams> admit(const QosTolerance& tolerance, net::NodeId src,
                                 net::NodeId dst, std::int64_t headroom_bps,
                                 DisconnectReason& reason);
  /// Jittered handshake retransmission delay (see kHandshakeRetransmit).
  Duration handshake_delay();
  template <class Find, class GiveUp>
  void arm_handshake(Handshake& hs, Find find, GiveUp give_up);
  VcId alloc_vc();

  net::Network& network_;
  net::NodeId node_;
  TransportConfig config_;
  bool down_ = false;
  /// Deterministic per-entity stream for handshake retransmission jitter.
  Rng rng_;
  std::function<void(VcId, DisconnectReason)> on_vc_closed_;
  std::uint32_t next_vc_ = 1;

  ConnectionManager conn_mgr_;
  /// Declared before the endpoint maps: ~Connection leaves its peer record
  /// and drops its renegotiation, so both engines outlive sources_/sinks_.
  RenegotiationEngine reneg_;
  HeartbeatEngine heartbeat_;
  /// Handles of the closed-endpoint totals, indexed by role, resolved on
  /// the first close; like the heartbeat, ~Connection needs them.
  std::array<std::vector<obs::Counter*>, 2> closed_totals_;
  obs::Counter* closed_violation_periods_ = nullptr;

  // Flat tables on the per-packet hot path: every DT/AK/NAK/FB lookup is one
  // O(1) probe, and VC churn at a stable population recycles slab slots
  // instead of allocating tree nodes.
  FlatMap<net::Tsap, TransportUser*> users_;
  FlatMap<VcId, std::unique_ptr<Connection>> sources_;
  FlatMap<VcId, std::unique_ptr<Connection>> sinks_;
  /// Declared after the endpoint maps, so the collector is detached before
  /// the endpoints go.
  obs::Registry::Attachment metrics_;

  /// Control-TPDU dispatch: indexed by TpduType (control types are 1..10),
  /// routing each row to the owning engine.  Replaces the historical
  /// switch so adding a TPDU type is a table entry, not a code path.
  using ControlHandler = void (TransportEntity::*)(const ControlTpdu&);
  void dispatch_rcr(const ControlTpdu& t) { conn_mgr_.handle_rcr(t); }
  void dispatch_cr(const ControlTpdu& t) { conn_mgr_.handle_cr(t); }
  void dispatch_cc(const ControlTpdu& t) { conn_mgr_.handle_cc(t); }
  void dispatch_rcc(const ControlTpdu& t) { conn_mgr_.handle_rcc(t); }
  void dispatch_dr(const ControlTpdu& t) { conn_mgr_.handle_dr(t); }
  void dispatch_dc(const ControlTpdu& t) { conn_mgr_.handle_dc(t); }
  void dispatch_rdr(const ControlTpdu& t) { conn_mgr_.handle_rdr(t); }
  void dispatch_rn(const ControlTpdu& t) { reneg_.handle_rn(t); }
  void dispatch_rnc(const ControlTpdu& t) { reneg_.handle_rnc(t); }
  void dispatch_qi(const ControlTpdu& t) { reneg_.handle_qi(t); }
  static const std::array<ControlHandler, 11>& control_dispatch();
};

template <class Find, class GiveUp>
void TransportEntity::send_handshake(net::NodeId peer, std::vector<std::uint8_t> wire, Find find,
                                     GiveUp give_up) {
  Handshake& hs = *find();
  hs.wire = std::move(wire);
  hs.peer = peer;
  hs.retries_left = kHandshakeRetries;
  send_tpdu(peer, net::Proto::kTransportControl, hs.wire);
  arm_handshake(hs, find, give_up);
}

template <class Find, class GiveUp>
void TransportEntity::arm_handshake(Handshake& hs, Find find, GiveUp give_up) {
  // Global: giving up releases reservations and notifies (possibly
  // facade-side) users.
  hs.retransmit.after_global(runtime(), handshake_delay(), [this, find, give_up] {
    Handshake* rec = find();
    if (rec == nullptr) return;
    if (rec->retries_left-- == 0) {
      give_up();
      return;
    }
    send_tpdu(rec->peer, net::Proto::kTransportControl, rec->wire);
    arm_handshake(*rec, find, give_up);
  });
}

}  // namespace cmtos::transport
