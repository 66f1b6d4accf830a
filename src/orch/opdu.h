// cmtos/orch/opdu.h
//
// Orchestrator PDUs (§5): "the multiple LLO instances interact with each
// other via Orchestrator PDUs (OPDUs), on out of band connections" with
// guaranteed bandwidth.  One discriminated struct covers the whole LLO
// protocol: session setup/release, the group primitives (prime / start /
// stop / add / remove), per-interval regulation and its reports, event
// registration/indication, and Orch.Delayed.
//
// (The *per-OSDU* OPDU — sequence number + event fields — is carried in the
// data TPDU header; see transport/tpdu.h.)

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "net/address.h"
#include "transport/service.h"
#include "util/byte_io.h"
#include "util/time.h"
#include "util/wire_codec.h"

namespace cmtos::orch {

/// Orchestration session identifier, supplied by the HLO (§6.1).
using OrchSessionId = std::uint64_t;

/// Endpoint geometry of one orchestrated VC, known to the HLO from the
/// Stream services it was handed.
struct OrchVcInfo {
  transport::VcId vc = transport::kInvalidVc;
  net::NodeId src_node = net::kInvalidNode;
  net::NodeId sink_node = net::kInvalidNode;

  /// Fields in wire order (util/wire_codec.h).
  static constexpr auto wire_fields() {
    return std::tuple{&OrchVcInfo::vc, &OrchVcInfo::src_node, &OrchVcInfo::sink_node};
  }

  friend bool operator==(const OrchVcInfo&, const OrchVcInfo&) = default;
};

enum class OpduType : std::uint8_t {
  // Session management (Table 4).
  kSessReq = 1,     // orchestrating LLO -> endpoint LLO: join session
  kSessAck = 2,     // endpoint -> orchestrating: ok / reason
  kSessRel = 3,     // orchestrating -> endpoint: release

  // Group 1 primitives (Table 5).
  kPrime = 10,      // orchestrating -> endpoint (both roles)
  kPrimeAck = 11,   // endpoint -> orchestrating: app accepted / denied
  kPrimed = 12,     // sink -> orchestrating: receive buffers full
  kStart = 13,
  kStartAck = 14,   // carries the sink's next deliverable OSDU seq
  kStop = 15,
  kStopAck = 16,
  kAdd = 17,       // answered with kSessAck: joining is session setup
  kRemove = 19,
  kRemoveAck = 20,

  // Group 2 primitives (Table 6).
  kRegulateSink = 30,  // orchestrating -> sink: interval target
  kRegulateSrc = 31,   // orchestrating -> source: interval drop budget
  kDrop = 32,          // sink -> source: discard n OSDUs now
  kRegInd = 33,        // sink -> orchestrating: end-of-interval report
  kSrcStats = 34,      // source -> orchestrating: end-of-interval report
  kEventReg = 35,      // orchestrating -> sink: register event pattern
  kEventInd = 36,      // sink -> orchestrating: pattern matched
  kDelayed = 37,       // orchestrating -> endpoint: Orch.Delayed.indication
  kDelayedAck = 38,    // endpoint -> orchestrating: app response (deny?)
  kVcDead = 39,        // endpoint -> orchestrating: a group VC's endpoint was
                       // torn down (peer death, release); detach it

  // Clock synchronisation (§5 footnote / §7 future work: "a general
  // purpose clock synchronisation function (e.g. NTP) within the
  // orchestrator protocols" lifts the common-node restriction).
  kTimeReq = 40,       // requester -> peer: carries requester's local send time
  kTimeResp = 41,      // peer -> requester: echoes it + peer's local time

  // Epoch fencing (failover split-brain protection).
  kEpochNack = 42,     // endpoint -> stale orchestrating node: your epoch is
                       // superseded; `epoch` carries the fence now in force
};

/// Every OpduType: the decoder's range check, the fuzz family and the
/// totality sweep all read this one list.
inline constexpr OpduType kOpduTypes[] = {
    OpduType::kSessReq,   OpduType::kSessAck,      OpduType::kSessRel,     OpduType::kPrime,
    OpduType::kPrimeAck,  OpduType::kPrimed,       OpduType::kStart,       OpduType::kStartAck,
    OpduType::kStop,      OpduType::kStopAck,      OpduType::kAdd,         OpduType::kRemove,
    OpduType::kRemoveAck, OpduType::kRegulateSink, OpduType::kRegulateSrc, OpduType::kDrop,
    OpduType::kRegInd,    OpduType::kSrcStats,     OpduType::kEventReg,    OpduType::kEventInd,
    OpduType::kDelayed,   OpduType::kDelayedAck,   OpduType::kVcDead,      OpduType::kTimeReq,
    OpduType::kTimeResp,  OpduType::kEpochNack};
constexpr std::span<const OpduType> wire_values(OpduType) { return kOpduTypes; }

/// Reasons carried in negative acks.
enum class OrchReason : std::uint8_t {
  kOk = 0,
  kNoSuchVc = 1,        // "one or more of the specified VCS do not exist"
  kNoTableSpace = 2,    // "some LLO instance has no table space available"
  kAppDenied = 3,       // application thread replied Orch.Deny
  kNoSession = 4,
  kTimeout = 5,
  kNoControlBandwidth = 6,  // could not reserve the out-of-band control VC
  kNoCommonNode = 7,        // a VC has no endpoint at the orchestrating node
  kNotEstablished = 8,      // group primitive before Orch.request completed
  kOpInProgress = 9,        // a group primitive is still collecting acks
  kIllegalTransition = 10,  // primitive not legal in the session's phase
  kStaleEpoch = 11,         // OPDU carries an epoch older than the fence
};
constexpr auto wire_values(OrchReason) { return wire::upto<OrchReason::kStaleEpoch>(); }

const char* to_string(OrchReason r);

struct Opdu {
  OpduType type = OpduType::kSessReq;
  OrchSessionId session = 0;
  transport::VcId vc = transport::kInvalidVc;
  net::NodeId orch_node = net::kInvalidNode;  // reply address

  /// Session epoch (fencing token): bumped on every re-election, stamped by
  /// the orchestrating side on every session-scoped OPDU.  Endpoint LLOs
  /// track the highest epoch seen per VC and nack anything older with
  /// kEpochNack/kStaleEpoch, so a partitioned-then-healed orchestrator can
  /// never regulate alongside its replacement.  kSessRel is exempt (a stale
  /// release only removes already-superseded state; reconciliation depends
  /// on it working).  In kEpochNack itself this field carries the fence
  /// currently in force at the rejecting endpoint.
  std::uint32_t epoch = 1;

  // kSessReq / kAdd: VC geometry this node must track.
  std::vector<OrchVcInfo> vcs;

  std::uint8_t flags = 0;  // kOpduFlagFlush, kOpduFlagSourceTarget
  std::uint8_t ok = 1;
  OrchReason reason = OrchReason::kOk;

  // Regulation (kRegulateSink/kRegulateSrc/kDrop).  kRegulateSink's
  // target_seq is a delta from the sink's position at receipt, the paper's
  // "(target-OSDU# - current-OSDU#) / interval-length" taken against the
  // sink's own position, so the HLO agent's slightly stale view of
  // positions does not matter; kRegInd echoes the interval-begin position.
  std::int64_t target_seq = 0;
  std::uint32_t max_drop = 0;
  Duration interval = 0;
  std::uint32_t interval_id = 0;
  net::NodeId src_node = net::kInvalidNode;  // where the sink sends kDrop
  std::uint32_t drop_count = 0;

  // Reports (kRegInd/kSrcStats/kStartAck).
  std::int64_t delivered_seq = -1;
  std::uint32_t dropped = 0;
  Duration app_blocked = 0;
  Duration proto_blocked = 0;

  // Events (kEventReg/kEventInd).
  std::uint64_t pattern = 0;
  std::uint64_t mask = ~0ull;
  std::uint64_t event_value = 0;
  std::uint32_t osdu_seq = 0;

  // Orch.Delayed.
  std::uint8_t source_side = 0;
  std::int64_t osdus_behind = 0;

  /// True simulation time stamped by the sender (instrumentation for
  /// latency benches; protocol logic must not read it).
  Time timestamp = 0;

  // Clock sync (kTimeReq/kTimeResp): *local* clock readings — these are
  // legitimate protocol fields, unlike `timestamp`.
  Time t_origin = 0;  // requester's local clock at send
  Time t_peer = 0;    // peer's local clock when answering
  std::uint32_t probe_id = 0;

  /// Fields in wire order (util/wire_codec.h).  Every type writes every
  /// field: 161 bytes with the CRC trailer, plus 16 per `vcs` entry.
  static constexpr auto wire_fields() {
    return std::tuple{&Opdu::type,          &Opdu::session,      &Opdu::vc,
                      &Opdu::orch_node,     &Opdu::epoch,        &Opdu::vcs,
                      &Opdu::flags,         &Opdu::ok,           &Opdu::reason,
                      &Opdu::target_seq,    &Opdu::max_drop,     &Opdu::interval,
                      &Opdu::interval_id,   &Opdu::src_node,     &Opdu::drop_count,
                      &Opdu::delivered_seq, &Opdu::dropped,      &Opdu::app_blocked,
                      &Opdu::proto_blocked, &Opdu::pattern,      &Opdu::mask,
                      &Opdu::event_value,   &Opdu::osdu_seq,     &Opdu::source_side,
                      &Opdu::osdus_behind,  &Opdu::timestamp,    &Opdu::t_origin,
                      &Opdu::t_peer,        &Opdu::probe_id};
  }

  /// An OPDU from the orchestrating node `orch_node` to an endpoint,
  /// stamped with the session's fencing `epoch`.  A sink's kDrop is one
  /// too: it acts for the orchestrating node, so it carries that node's
  /// address and epoch and a fence nacks the right node.
  static Opdu command(OpduType type, OrchSessionId session, transport::VcId vc,
                      net::NodeId orch_node, std::uint32_t epoch);
  /// An endpoint's reply or report about `vc` to the orchestrating node,
  /// sent by `from` (its reply address).
  static Opdu reply(OpduType type, OrchSessionId session, transport::VcId vc,
                    net::NodeId from);

  /// Encoding ends with a CRC-32 trailer (adversarial wire model: links
  /// flip real bytes, every control-plane PDU carries its own checksum).
  std::vector<std::uint8_t> encode() const;
  /// Total over arbitrary bytes: CRC-verified, type/reason range-checked,
  /// vcs length guarded before reserve.  On refusal `fault` (when non-null)
  /// carries the taxonomy entry for wire.decode_failed{pdu,reason}.
  static std::optional<Opdu> decode(std::span<const std::uint8_t> wire,
                                    WireFault* fault = nullptr);
};

inline constexpr std::uint8_t kOpduFlagFlush = 1;
inline constexpr std::uint8_t kOpduFlagSourceTarget = 2;

}  // namespace cmtos::orch
