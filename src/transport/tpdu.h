// cmtos/transport/tpdu.h
//
// Transport protocol data units and their wire encodings.
//
// Control TPDUs implement the Table 1-3 primitives (including the
// three-party remote connect of Fig 3); data TPDUs carry OSDU fragments
// with the per-OSDU OPDU fields (sequence number + event, §5) and a CRC for
// the §3.4 error-detection classes; AK/NAK/FB implement window-based and
// rate-based flow control respectively.  HB is the per-peer-node heartbeat:
// one per node pair carries the feedback of every VC whose state changed,
// and, when liveness is on, proves the peer entity alive for all of them.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "net/address.h"
#include "net/packet.h"
#include "transport/qos.h"
#include "transport/service.h"
#include "util/byte_io.h"
#include "util/frame_pool.h"
#include "util/time.h"

namespace cmtos::transport {

enum class TpduType : std::uint8_t {
  kCR = 1,    // connect request        (source entity -> dest entity)
  kCC = 2,    // connect confirm        (dest -> source)
  kDR = 3,    // disconnect request
  kDC = 4,    // disconnect confirm
  kRCR = 5,   // remote connect request (initiator -> source entity, §3.5)
  kRCC = 6,   // remote connect outcome (source -> initiator)
  kRDR = 7,   // remote disconnect request (initiator -> src or dst)
  kRN = 8,    // renegotiate request
  kRNC = 9,   // renegotiate confirm / reject
  kQI = 10,   // QoS degradation report relay (sink entity -> source user)
  kDT = 16,   // data (OSDU fragment)
  kAK = 17,   // cumulative acknowledgement (window profile)
  kNAK = 18,  // selective retransmission request (rate profile, correction)
  kFB = 19,   // receiver rate feedback (rate profile)
  kHB = 22,   // per-peer heartbeat: batched feedback + liveness (no VC id)
};

/// The types a ControlTpdu carries: the validity list of its `type` field,
/// the only TpduType field (the other TPDUs carry a fixed tag).
inline constexpr TpduType kControlTpduTypes[] = {
    TpduType::kCR,  TpduType::kCC,  TpduType::kDR, TpduType::kDC, TpduType::kRCR,
    TpduType::kRCC, TpduType::kRDR, TpduType::kRN, TpduType::kRNC, TpduType::kQI};
constexpr std::span<const TpduType> wire_values(TpduType) { return kControlTpduTypes; }

/// Handshake (RCR/CR/RN) retransmission: each pending handshake TPDU is
/// resent every kHandshakeRetransmit, stretched by a uniform draw of up to
/// kHandshakeJitter of it, and given up on after kHandshakeRetries resends.
/// A connect or renegotiation that hears nothing therefore fails after
/// 1 + kHandshakeRetries sends, 2.0 to 2.4 s after the first.  The stretch
/// desynchronises the retry storms that otherwise form when many
/// connects race a healed partition.
inline constexpr Duration kHandshakeRetransmit = 500 * kMillisecond;
inline constexpr int kHandshakeRetries = 3;
inline constexpr double kHandshakeJitter = 0.2;

/// Connection-management TPDU.  One struct covers CR/CC/DR/DC/RCR/RCC/RDR/
/// RN/RNC/QI; every type writes every field (308 bytes with the CRC
/// trailer), and unused fields are ignored for a given type.
struct ControlTpdu {
  TpduType type = TpduType::kCR;
  VcId vc = kInvalidVc;
  net::NetAddress initiator;
  net::NetAddress src;
  net::NetAddress dst;
  ServiceClass service_class;
  QosTolerance qos;             // CR/RCR/RN: proposed tolerance
  QosParams agreed;             // CC/RNC: final contract
  Duration sample_period = 0;
  std::uint32_t buffer_osdus = 0;
  std::uint8_t importance = 1;  // CR/RCR: preemptive-admission class
  std::uint8_t shed_watermark_pct = 0;  // CR/RCR: sink load-shedding watermark
  std::uint16_t pacing_burst = 1;       // CR/RCR: source pacing granularity
  DisconnectReason reason = DisconnectReason::kUserInitiated;  // DR/DC/RCC(reject)
  std::uint8_t accepted = 0;    // CC/RCC/RNC: 1 = accepted
  QosReport report;             // QI payload

  /// Fields in wire order (util/wire_codec.h).
  static constexpr auto wire_fields() {
    return std::tuple{&ControlTpdu::type,         &ControlTpdu::vc,
                      &ControlTpdu::initiator,    &ControlTpdu::src,
                      &ControlTpdu::dst,          &ControlTpdu::service_class,
                      &ControlTpdu::qos,          &ControlTpdu::agreed,
                      &ControlTpdu::sample_period, &ControlTpdu::buffer_osdus,
                      &ControlTpdu::importance,   &ControlTpdu::shed_watermark_pct,
                      &ControlTpdu::pacing_burst, &ControlTpdu::reason,
                      &ControlTpdu::accepted,     &ControlTpdu::report};
  }

  /// Encoding ends with a CRC-32 trailer: links flip real wire bytes now,
  /// so every control-plane PDU carries its own checksum.
  std::vector<std::uint8_t> encode() const;
  /// Total over arbitrary bytes: verifies the CRC trailer, range-checks
  /// every enum field, and never reads past the span.  On refusal, `fault`
  /// (when non-null) carries the taxonomy entry for the receive path's
  /// `wire.decode_failed{pdu,reason}` counter.
  static std::optional<ControlTpdu> decode(std::span<const std::uint8_t> wire,
                                           WireFault* fault = nullptr);
};

/// Flags on a data TPDU.
enum DtFlags : std::uint8_t {
  kDtRetransmission = 1 << 0,
};

/// Bytes DataTpdu::encode_onto writes into pkt.payload: the DT header
/// fields (46), the payload length (4), the frame-body CRC (4) and the
/// header CRC trailer (4).  It fits the packet's inline byte area, so the
/// encoder writes it in place and a DT header costs no allocation.
inline constexpr std::size_t kDtPacketHeaderBytes = 58;
static_assert(kDtPacketHeaderBytes <= net::PacketBytes::kInlineBytes);

/// Data TPDU: one fragment of one OSDU.
struct DataTpdu {
  VcId vc = kInvalidVc;
  std::uint32_t tpdu_seq = 0;    // per-VC TPDU sequence number
  std::uint32_t osdu_seq = 0;    // OPDU: OSDU sequence number (§5)
  std::uint64_t event = 0;       // OPDU: event field (§6.3.4)
  std::uint16_t frag_index = 0;  // fragment position within the OSDU
  std::uint16_t frag_count = 1;  // total fragments of this OSDU
  std::uint8_t flags = 0;
  Time src_timestamp = 0;        // source-local submission time
  /// True simulation time of OSDU submission.  Instrumentation only: real
  /// hardware has no access to a global clock; protocol logic must never
  /// read this, it exists so benches can report ground-truth delay.
  Time true_submit = 0;
  /// OSDU fragment: a refcounted slice of the source's frame.  Copying a
  /// DataTpdu (retain map, retransmission) bumps a refcount; the media
  /// bytes themselves are written exactly once.
  PayloadView payload;

  /// Zero-copy packet encoding (two-world split): the serialized header
  /// (fields + payload length + frame-body CRC + CRC over the header) is
  /// written into pkt.payload's inline area; the fragment rides as
  /// pkt.frame, a refcounted view — no media byte is copied and nothing is
  /// allocated.
  void encode_onto(net::Packet& pkt) const;

  /// Inverse of encode_onto: verifies the header CRC, the payload length
  /// against the frame actually attached, and the frame-body CRC over the
  /// attached bytes, then takes a reference to the packet's frame.  Header
  /// bit flips, frame truncation and frame-body flips are all refused.
  /// Total over arbitrary header bytes and frames.
  static std::optional<DataTpdu> decode_packet(const net::Packet& pkt,
                                               WireFault* fault = nullptr);
};

/// Window-profile cumulative acknowledgement.
struct AckTpdu {
  VcId vc = kInvalidVc;
  std::uint32_t cumulative_ack = 0;  // all TPDUs with seq < this received
  std::uint32_t window = 0;          // receiver-granted credit in TPDUs

  static constexpr TpduType kWireTag = TpduType::kAK;
  static constexpr auto wire_fields() {
    return std::tuple{&AckTpdu::vc, &AckTpdu::cumulative_ack, &AckTpdu::window};
  }

  std::vector<std::uint8_t> encode() const;
  static std::optional<AckTpdu> decode(std::span<const std::uint8_t> wire,
                                       WireFault* fault = nullptr);
};

/// Rate-profile selective retransmission request.
struct NakTpdu {
  VcId vc = kInvalidVc;
  std::vector<std::uint32_t> missing;  // TPDU seqs to retransmit

  static constexpr TpduType kWireTag = TpduType::kNAK;
  static constexpr auto wire_fields() { return std::tuple{&NakTpdu::vc, &NakTpdu::missing}; }

  std::vector<std::uint8_t> encode() const;
  static std::optional<NakTpdu> decode(std::span<const std::uint8_t> wire,
                                       WireFault* fault = nullptr);
};

/// Rate-profile receiver feedback: the state of the receive buffer, from
/// which the source modulates its sending rate (decoupled from error
/// control, as the paper requires of rate-based schemes).  A sink sends one
/// as its own TPDU only from the space-available callback and on flush (the
/// low-latency path that unstalls a source); every other report rides a
/// HeartbeatTpdu entry with the same fields.
struct FeedbackTpdu {
  VcId vc = kInvalidVc;
  std::uint32_t free_slots = 0;      // receive ring free OSDU slots
  std::uint32_t capacity = 0;
  std::uint32_t highest_osdu = 0;    // highest completed OSDU seq
  std::uint8_t paused = 0;           // 1 = source must stop sending

  /// A heartbeat entry is these fields without the tag.
  static constexpr TpduType kWireTag = TpduType::kFB;
  static constexpr auto wire_fields() {
    return std::tuple{&FeedbackTpdu::vc, &FeedbackTpdu::free_slots, &FeedbackTpdu::capacity,
                      &FeedbackTpdu::highest_osdu, &FeedbackTpdu::paused};
  }

  friend bool operator==(const FeedbackTpdu&, const FeedbackTpdu&) = default;

  std::vector<std::uint8_t> encode() const;
  static std::optional<FeedbackTpdu> decode(std::span<const std::uint8_t> wire,
                                            WireFault* fault = nullptr);
};

/// HeartbeatTpdu flag bits.
enum HbFlags : std::uint8_t {
  kHbCarriesIds = 1 << 0,  // `ids` lists every VC the sender holds with the receiver
  kHbWantsIds = 1 << 1,    // receiver, answer with your own id list
};

/// Per-peer-node heartbeat (one per node pair, not per VC).  It carries the
/// feedback of the sink VCs whose state differs from what the source last
/// acknowledged, an ack of the peer's heartbeats (so those entries stop
/// repeating), and — for liveness — the sender's incarnation plus an
/// order-independent digest of the VC ids it holds with the receiver.  An
/// idle, acknowledged VC appears in no heartbeat at all.
struct HeartbeatTpdu {
  std::uint32_t incarnation = 0;  // bumped when the sending entity restarts
  std::uint32_t seq = 0;          // sender's heartbeat sequence number
  std::uint32_t ack = 0;          // highest feedback-carrying seq received from the receiver
  std::uint32_t vc_count = 0;     // VCs the sender holds with the receiver
  std::uint64_t digest = 0;       // XOR of vc_digest() over those VCs
  std::uint8_t flags = 0;         // HbFlags
  std::vector<FeedbackTpdu> feedback;
  std::vector<VcId> ids;          // present only with kHbCarriesIds

  std::vector<std::uint8_t> encode() const;
  /// encode() into `out`, replacing its contents and keeping its capacity.
  void encode_into(std::vector<std::uint8_t>& out) const;
  /// Total: refuses unknown flag bits, entry or id counts the remaining
  /// bytes cannot hold, and a bad CRC trailer.
  static std::optional<HeartbeatTpdu> decode(std::span<const std::uint8_t> wire,
                                             WireFault* fault = nullptr);
  /// decode() into `out`, reusing its vectors' capacity; false on refusal
  /// (`out` is then unspecified).
  static bool decode_into(std::span<const std::uint8_t> wire, HeartbeatTpdu& out,
                          WireFault* fault = nullptr);
};

/// One VC's contribution to HeartbeatTpdu::digest (a splitmix64 finalizer,
/// so XOR over a set is order-independent and updates in O(1)).
std::uint64_t vc_digest(VcId vc);

/// Reads the type tag of an encoded TPDU without full decode.
std::optional<TpduType> peek_type(std::span<const std::uint8_t> wire);

/// Reads the VC id of an encoded data-plane TPDU (DT/AK/NAK/FB).  A
/// heartbeat carries no VC id: dispatch on peek_type first.
std::optional<VcId> peek_vc(std::span<const std::uint8_t> wire);

}  // namespace cmtos::transport
