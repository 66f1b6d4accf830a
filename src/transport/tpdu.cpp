#include "transport/tpdu.h"

#include "util/byte_io.h"
#include "util/checksum.h"
#include "util/wire_codec.h"

namespace cmtos::transport {

std::vector<std::uint8_t> ControlTpdu::encode() const { return wire::encode(*this); }

std::optional<ControlTpdu> ControlTpdu::decode(std::span<const std::uint8_t> in,
                                               WireFault* fault) {
  return wire::decode<ControlTpdu>(in, fault);
}

void DataTpdu::encode_onto(net::Packet& pkt) const {
  // The header is fixed-size, so it is written in place into the packet's
  // inline area: no allocation, no per-byte append.  The field order and
  // widths are decode_packet's, little-endian.
  const std::span<std::uint8_t> out = pkt.payload.overwrite_inline(kDtPacketHeaderBytes);
  std::uint8_t* p = out.data();
  const auto put = [&p](std::uint64_t v, std::size_t n) {
    // Byte extraction, truncation intended.  cmtos-lint: allow(narrowing-in-codec)
    for (std::size_t i = 0; i < n; ++i) *p++ = static_cast<std::uint8_t>(v >> (8 * i));
  };
  put(wire_enum(TpduType::kDT), 1);
  put(vc, 8);
  put(tpdu_seq, 4);
  put(osdu_seq, 4);
  put(event, 8);
  put(frag_index, 2);
  put(frag_count, 2);
  put(flags, 1);
  put(static_cast<std::uint64_t>(src_timestamp), 8);
  put(static_cast<std::uint64_t>(true_submit), 8);
  // Payload length and the frame-body CRC ride in the header; the bytes
  // themselves ride as a refcounted view.  The trailing CRC covers the
  // header (including the frame CRC field), so header bit flips, frame
  // truncation (length mismatch) and frame-body flips are all caught
  // without ever copying the frame into the wire image.
  put(narrow<std::uint32_t>(payload.size()), 4);
  put(crc32(std::span<const std::uint8_t>(payload.data(), payload.size())), 4);
  put(crc32(out.first(kDtPacketHeaderBytes - 4)), 4);
  CMTOS_DCHECK(p == out.data() + out.size());
  pkt.frame = payload;
}

std::optional<DataTpdu> DataTpdu::decode_packet(const net::Packet& pkt,
                                                WireFault* fault) {
  DataTpdu t;
  const bool ok = wire::decode_checked(pkt.payload, fault, [&](ByteReader& r) {
    if (r.u8() != wire_enum(TpduType::kDT)) return WireFault::kBadType;
    t.vc = r.u64();
    t.tpdu_seq = r.u32();
    t.osdu_seq = r.u32();
    t.event = r.u64();
    t.frag_index = r.u16();
    t.frag_count = r.u16();
    t.flags = r.u8();
    t.src_timestamp = r.i64();
    t.true_submit = r.i64();
    const std::uint32_t len = r.u32();
    const std::uint32_t frame_crc = r.u32();
    if (cmtos::wire::hardening()) {
      if (t.frag_count == 0 || t.frag_index >= t.frag_count) {
        // The header CRC held, so the peer built a fragment no OSDU can
        // have; the sink could never complete its reassembly slot.
        return WireFault::kBadType;
      }
      if (len != pkt.frame.size()) {
        // Header/frame mismatch: the link truncated (or duplicated bytes
        // of) the frame in flight.
        return WireFault::kBadLength;
      }
      if (frame_crc !=
          crc32(std::span<const std::uint8_t>(pkt.frame.data(), pkt.frame.size()))) {
        // Header intact but the frame body took bit flips in flight.
        return WireFault::kChecksum;
      }
    }
    t.payload = pkt.frame;
    return WireFault::kNone;
  });
  if (!ok) return std::nullopt;
  return t;
}

std::vector<std::uint8_t> AckTpdu::encode() const { return wire::encode(*this); }

std::optional<AckTpdu> AckTpdu::decode(std::span<const std::uint8_t> in, WireFault* fault) {
  return wire::decode<AckTpdu>(in, fault);
}

std::vector<std::uint8_t> NakTpdu::encode() const { return wire::encode(*this); }

std::optional<NakTpdu> NakTpdu::decode(std::span<const std::uint8_t> in, WireFault* fault) {
  return wire::decode<NakTpdu>(in, fault);
}

std::vector<std::uint8_t> FeedbackTpdu::encode() const { return wire::encode(*this); }

std::optional<FeedbackTpdu> FeedbackTpdu::decode(std::span<const std::uint8_t> in,
                                                 WireFault* fault) {
  return wire::decode<FeedbackTpdu>(in, fault);
}

std::uint64_t vc_digest(VcId vc) {
  std::uint64_t z = vc + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<std::uint8_t> HeartbeatTpdu::encode() const {
  std::vector<std::uint8_t> out;
  encode_into(out);
  return out;
}

void HeartbeatTpdu::encode_into(std::vector<std::uint8_t>& out) const {
  out.clear();
  const bool with_ids = (flags & kHbCarriesIds) != 0;
  // Tag, fixed fields and flags (26), the lists, the CRC trailer (4).
  out.reserve(30 + wire::value_size(feedback) + (with_ids ? wire::value_size(ids) : 0));
  ByteWriter w(out);
  w.u8(wire_enum(TpduType::kHB));
  w.u32(incarnation);
  w.u32(seq);
  w.u32(ack);
  w.u32(vc_count);
  w.u64(digest);
  w.u8(flags);
  // The entries are FeedbackTpdu's table without its tag.
  wire::write_value(w, feedback);
  if (with_ids) wire::write_value(w, ids);
  append_crc32(out);
}

std::optional<HeartbeatTpdu> HeartbeatTpdu::decode(std::span<const std::uint8_t> in,
                                                   WireFault* fault) {
  HeartbeatTpdu t;
  if (!decode_into(in, t, fault)) return std::nullopt;
  return t;
}

bool HeartbeatTpdu::decode_into(std::span<const std::uint8_t> in, HeartbeatTpdu& t,
                                WireFault* fault) {
  return wire::decode_checked(in, fault, [&t](ByteReader& r) {
    if (r.u8() != wire_enum(TpduType::kHB)) return WireFault::kBadType;
    t.incarnation = r.u32();
    t.seq = r.u32();
    t.ack = r.u32();
    t.vc_count = r.u32();
    t.digest = r.u64();
    t.flags = r.u8();
    if ((t.flags & ~(kHbCarriesIds | kHbWantsIds)) != 0) return WireFault::kBadType;
    // Both lists keep their capacity; their counts are range-checked
    // before anything is reserved.
    const WireFault f = wire::read_value(r, t.feedback);
    t.ids.clear();
    if (f != WireFault::kNone || (t.flags & kHbCarriesIds) == 0) return f;
    return wire::read_value(r, t.ids);
  });
}

std::optional<TpduType> peek_type(std::span<const std::uint8_t> wire) {
  if (wire.empty()) return std::nullopt;
  return static_cast<TpduType>(wire[0]);
}

std::optional<VcId> peek_vc(std::span<const std::uint8_t> wire) {
  if (wire.size() < 9) return std::nullopt;
  ByteReader r(wire.subspan(1));
  return r.u64();
}

std::string to_string(DisconnectReason r) {
  switch (r) {
    case DisconnectReason::kUserInitiated: return "user-initiated";
    case DisconnectReason::kRejectedByUser: return "rejected-by-user";
    case DisconnectReason::kNoResources: return "no-resources";
    case DisconnectReason::kUnreachable: return "unreachable";
    case DisconnectReason::kQosUnachievable: return "qos-unachievable";
    case DisconnectReason::kRenegotiationFailed: return "renegotiation-failed";
    case DisconnectReason::kProtocolError: return "protocol-error";
    case DisconnectReason::kNoSuchTsap: return "no-such-tsap";
    case DisconnectReason::kPeerDead: return "peer-dead";
    case DisconnectReason::kEntityFailure: return "entity-failure";
    case DisconnectReason::kPreempted: return "preempted";
    case DisconnectReason::kPeerMisbehaving: return "peer-misbehaving";
  }
  return "unknown";
}

}  // namespace cmtos::transport
