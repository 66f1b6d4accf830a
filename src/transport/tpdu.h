// cmtos/transport/tpdu.h
//
// Transport protocol data units and their wire encodings.
//
// Control TPDUs implement the Table 1-3 primitives (including the
// three-party remote connect of Fig 3); data TPDUs carry OSDU fragments
// with the per-OSDU OPDU fields (sequence number + event, §5) and a CRC for
// the §3.4 error-detection classes; AK/NAK/FB implement window-based and
// rate-based flow control respectively.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
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
  kDG = 20,   // best-effort datagram (T-Unitdata)
  kKA = 21,   // keepalive (per-VC liveness probe on the internal control VC)
};

/// Connection-management TPDU.  One struct covers CR/CC/DR/DC/RCR/RCC/RDR/
/// RN/RNC/QI; unused fields are ignored for a given type.
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
  std::uint8_t reason = 0;      // DR/DC/RCC(reject): DisconnectReason
  std::uint8_t accepted = 0;    // CC/RCC/RNC: 1 = accepted
  QosReport report;             // QI payload

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
/// header CRC trailer (4).  The encoder reserves exactly this much, so each
/// DT header costs one allocation instead of a doubling sequence.
inline constexpr std::size_t kDtPacketHeaderBytes = 58;

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
  /// (fields + payload length + frame-body CRC + CRC over the header) goes
  /// into pkt.payload; the fragment rides as pkt.frame, a refcounted view —
  /// no media byte is copied.
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

  std::vector<std::uint8_t> encode() const;
  static std::optional<AckTpdu> decode(std::span<const std::uint8_t> wire,
                                       WireFault* fault = nullptr);
};

/// Rate-profile selective retransmission request.
struct NakTpdu {
  VcId vc = kInvalidVc;
  std::vector<std::uint32_t> missing;  // TPDU seqs to retransmit

  std::vector<std::uint8_t> encode() const;
  static std::optional<NakTpdu> decode(std::span<const std::uint8_t> wire,
                                       WireFault* fault = nullptr);
};

/// Encoded size of a FeedbackTpdu (fields 22 + CRC trailer 4); the encoder
/// reserves exactly this much.
inline constexpr std::size_t kFeedbackWireBytes = 26;

/// Rate-profile receiver feedback: the state of the receive buffer, from
/// which the source modulates its sending rate (decoupled from error
/// control, as the paper requires of rate-based schemes).
struct FeedbackTpdu {
  VcId vc = kInvalidVc;
  std::uint32_t free_slots = 0;      // receive ring free OSDU slots
  std::uint32_t capacity = 0;
  std::uint32_t highest_osdu = 0;    // highest completed OSDU seq
  std::uint8_t paused = 0;           // 1 = source must stop sending

  std::vector<std::uint8_t> encode() const;
  static std::optional<FeedbackTpdu> decode(std::span<const std::uint8_t> wire,
                                            WireFault* fault = nullptr);
};

/// Per-VC keepalive probe.  Each endpoint of an established VC emits one
/// every keepalive interval on the data proto (control priority, riding the
/// internal control VC's allowance); any data-plane TPDU for the VC counts
/// as peer activity, so keepalives only matter on otherwise-idle paths.
struct KeepaliveTpdu {
  VcId vc = kInvalidVc;

  std::vector<std::uint8_t> encode() const;
  static std::optional<KeepaliveTpdu> decode(std::span<const std::uint8_t> wire,
                                             WireFault* fault = nullptr);
};

/// Best-effort datagram (T-Unitdata): connectionless, no recovery, lowest
/// link priority.
struct DatagramTpdu {
  net::NetAddress src;        // originating endpoint
  net::Tsap dst_tsap = 0;     // destination TSAP (node from the packet)
  std::vector<std::uint8_t> payload;

  std::vector<std::uint8_t> encode() const;
  static std::optional<DatagramTpdu> decode(std::span<const std::uint8_t> wire,
                                            WireFault* fault = nullptr);
};

/// Reads the type tag of an encoded TPDU without full decode.
std::optional<TpduType> peek_type(std::span<const std::uint8_t> wire);

/// Reads the VC id of an encoded data-plane TPDU (DT/AK/NAK/FB).
std::optional<VcId> peek_vc(std::span<const std::uint8_t> wire);

}  // namespace cmtos::transport
