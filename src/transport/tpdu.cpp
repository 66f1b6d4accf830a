#include "transport/tpdu.h"

#include "util/byte_io.h"
#include "util/checksum.h"
#include "util/wire_hardening.h"

namespace cmtos::transport {
namespace {

void set_fault(WireFault* fault, WireFault f) {
  if (fault != nullptr) *fault = f;
}

// Verifies and strips the CRC-32 trailer every control-plane TPDU carries.
// With hardening off (the byzantine_storm_unhardened soak) the full span is
// returned unverified — decoders ignore trailing bytes, so the 4-byte
// trailer parses as garbage tolerance, exactly the pre-hardening stack.
std::optional<std::span<const std::uint8_t>> checked_body(
    std::span<const std::uint8_t> wire, WireFault* fault) {
  if (!cmtos::wire::hardening()) return wire;
  auto body = strip_crc32(wire);
  if (!body) set_fault(fault, WireFault::kChecksum);
  return body;
}

void write_address(ByteWriter& w, const net::NetAddress& a) {
  w.u32(a.node);
  w.u16(a.tsap);
}

net::NetAddress read_address(ByteReader& r) {
  net::NetAddress a;
  a.node = r.u32();
  a.tsap = r.u16();
  return a;
}

void write_qos_params(ByteWriter& w, const QosParams& p) {
  w.f64(p.osdu_rate);
  w.i64(p.max_osdu_bytes);
  w.i64(p.end_to_end_delay);
  w.i64(p.delay_jitter);
  w.f64(p.packet_error_rate);
  w.f64(p.bit_error_rate);
}

QosParams read_qos_params(ByteReader& r) {
  QosParams p;
  p.osdu_rate = r.f64();
  p.max_osdu_bytes = r.i64();
  p.end_to_end_delay = r.i64();
  p.delay_jitter = r.i64();
  p.packet_error_rate = r.f64();
  p.bit_error_rate = r.f64();
  return p;
}

void write_report(ByteWriter& w, const QosReport& rep) {
  w.u64(rep.vc);
  w.i64(rep.sample_period);
  write_qos_params(w, rep.agreed);
  w.f64(rep.measured_osdu_rate);
  w.i64(rep.measured_mean_delay);
  w.i64(rep.measured_jitter);
  w.f64(rep.measured_packet_error_rate);
  w.f64(rep.measured_bit_error_rate);
  std::uint8_t v = 0;
  v |= rep.violations.throughput ? 1 : 0;
  v |= rep.violations.delay ? 2 : 0;
  v |= rep.violations.jitter ? 4 : 0;
  v |= rep.violations.packet_errors ? 8 : 0;
  v |= rep.violations.bit_errors ? 16 : 0;
  w.u8(v);
  w.u32(rep.consecutive_violation_periods);
  w.u32(rep.coalesced_periods);
}

QosReport read_report(ByteReader& r) {
  QosReport rep;
  rep.vc = r.u64();
  rep.sample_period = r.i64();
  rep.agreed = read_qos_params(r);
  rep.measured_osdu_rate = r.f64();
  rep.measured_mean_delay = r.i64();
  rep.measured_jitter = r.i64();
  rep.measured_packet_error_rate = r.f64();
  rep.measured_bit_error_rate = r.f64();
  const std::uint8_t v = r.u8();
  rep.violations.throughput = v & 1;
  rep.violations.delay = v & 2;
  rep.violations.jitter = v & 4;
  rep.violations.packet_errors = v & 8;
  rep.violations.bit_errors = v & 16;
  rep.consecutive_violation_periods = r.u32();
  rep.coalesced_periods = r.u32();
  return rep;
}

}  // namespace

std::vector<std::uint8_t> ControlTpdu::encode() const {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u8(wire_enum(type));
  w.u64(vc);
  write_address(w, initiator);
  write_address(w, src);
  write_address(w, dst);
  w.u8(wire_enum(service_class.profile));
  w.u8(wire_enum(service_class.error_control));
  write_qos_params(w, qos.preferred);
  write_qos_params(w, qos.worst);
  write_qos_params(w, agreed);
  w.i64(sample_period);
  w.u32(buffer_osdus);
  w.u8(importance);
  w.u8(shed_watermark_pct);
  w.u16(pacing_burst);
  w.u8(reason);
  w.u8(accepted);
  write_report(w, report);
  append_crc32(out);
  return out;
}

std::optional<ControlTpdu> ControlTpdu::decode(std::span<const std::uint8_t> wire,
                                               WireFault* fault) {
  set_fault(fault, WireFault::kNone);
  const auto body = checked_body(wire, fault);
  if (!body) return std::nullopt;
  try {
    ByteReader r(*body);
    ControlTpdu t;
    const std::uint8_t type = r.u8();
    if (type < wire_enum(TpduType::kCR) ||
        type > wire_enum(TpduType::kQI)) {
      set_fault(fault, WireFault::kBadType);
      return std::nullopt;
    }
    t.type = static_cast<TpduType>(type);
    t.vc = r.u64();
    t.initiator = read_address(r);
    t.src = read_address(r);
    t.dst = read_address(r);
    const std::uint8_t profile = r.u8();
    const std::uint8_t error_control = r.u8();
    if (profile > wire_enum(ProtocolProfile::kWindowBased) ||
        error_control > wire_enum(ErrorControl::kCorrectAndIndicate)) {
      set_fault(fault, WireFault::kBadType);
      return std::nullopt;
    }
    t.service_class.profile = static_cast<ProtocolProfile>(profile);
    t.service_class.error_control = static_cast<ErrorControl>(error_control);
    t.qos.preferred = read_qos_params(r);
    t.qos.worst = read_qos_params(r);
    t.agreed = read_qos_params(r);
    t.sample_period = r.i64();
    t.buffer_osdus = r.u32();
    t.importance = r.u8();
    t.shed_watermark_pct = r.u8();
    t.pacing_burst = r.u16();
    t.reason = r.u8();
    if (t.reason > wire_enum(DisconnectReason::kPeerMisbehaving)) {
      set_fault(fault, WireFault::kBadType);
      return std::nullopt;
    }
    t.accepted = r.u8();
    t.report = read_report(r);
    return t;
  } catch (const DecodeError&) {
    set_fault(fault, WireFault::kTruncated);
    return std::nullopt;
  }
}

namespace {

// DataTpdu header fields, in wire order.
void write_dt_header(ByteWriter& w, const DataTpdu& t) {
  w.u8(wire_enum(TpduType::kDT));
  w.u64(t.vc);
  w.u32(t.tpdu_seq);
  w.u32(t.osdu_seq);
  w.u64(t.event);
  w.u16(t.frag_index);
  w.u16(t.frag_count);
  w.u8(t.flags);
  w.i64(t.src_timestamp);
  w.i64(t.true_submit);
}

bool read_dt_header(ByteReader& r, DataTpdu& t) {
  if (static_cast<TpduType>(r.u8()) != TpduType::kDT) return false;
  t.vc = r.u64();
  t.tpdu_seq = r.u32();
  t.osdu_seq = r.u32();
  t.event = r.u64();
  t.frag_index = r.u16();
  t.frag_count = r.u16();
  t.flags = r.u8();
  t.src_timestamp = r.i64();
  t.true_submit = r.i64();
  return true;
}

}  // namespace

void DataTpdu::encode_onto(net::Packet& pkt) const {
  pkt.payload.clear();
  pkt.payload.reserve(kDtPacketHeaderBytes);
  ByteWriter w(pkt.payload);
  write_dt_header(w, *this);
  // Payload length and the frame-body CRC ride in the header; the bytes
  // themselves ride as a refcounted view.  The trailing CRC covers the
  // header (including the frame CRC field), so header bit flips, frame
  // truncation (length mismatch) and frame-body flips are all caught
  // without ever copying the frame into the wire image.
  w.u32(narrow<std::uint32_t>(payload.size()));
  w.u32(crc32(std::span<const std::uint8_t>(payload.data(), payload.size())));
  w.u32(crc32(pkt.payload));
  pkt.frame = payload;
}

std::optional<DataTpdu> DataTpdu::decode_packet(const net::Packet& pkt,
                                                WireFault* fault) {
  set_fault(fault, WireFault::kNone);
  try {
    const std::span<const std::uint8_t> wire(pkt.payload);
    if (cmtos::wire::hardening()) {
      if (wire.size() < 4) {
        set_fault(fault, WireFault::kChecksum);
        return std::nullopt;
      }
      const auto body = wire.subspan(0, wire.size() - 4);
      ByteReader crc_r(wire.subspan(wire.size() - 4));
      if (crc32(body) != crc_r.u32()) {
        set_fault(fault, WireFault::kChecksum);
        return std::nullopt;
      }
    }
    ByteReader r(wire);
    DataTpdu t;
    if (!read_dt_header(r, t)) {
      set_fault(fault, WireFault::kBadType);
      return std::nullopt;
    }
    const std::uint32_t len = r.u32();
    const std::uint32_t frame_crc = r.u32();
    if (cmtos::wire::hardening()) {
      if (len != pkt.frame.size()) {
        // Header/frame mismatch: the link truncated (or duplicated bytes
        // of) the frame in flight.
        set_fault(fault, WireFault::kBadLength);
        return std::nullopt;
      }
      if (frame_crc !=
          crc32(std::span<const std::uint8_t>(pkt.frame.data(), pkt.frame.size()))) {
        // Header intact but the frame body took bit flips in flight.
        set_fault(fault, WireFault::kChecksum);
        return std::nullopt;
      }
    }
    t.payload = pkt.frame;
    return t;
  } catch (const DecodeError&) {
    set_fault(fault, WireFault::kTruncated);
    return std::nullopt;
  }
}

std::vector<std::uint8_t> AckTpdu::encode() const {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u8(wire_enum(TpduType::kAK));
  w.u64(vc);
  w.u32(cumulative_ack);
  w.u32(window);
  append_crc32(out);
  return out;
}

std::optional<AckTpdu> AckTpdu::decode(std::span<const std::uint8_t> wire,
                                       WireFault* fault) {
  set_fault(fault, WireFault::kNone);
  const auto body = checked_body(wire, fault);
  if (!body) return std::nullopt;
  try {
    ByteReader r(*body);
    if (static_cast<TpduType>(r.u8()) != TpduType::kAK) {
      set_fault(fault, WireFault::kBadType);
      return std::nullopt;
    }
    AckTpdu t;
    t.vc = r.u64();
    t.cumulative_ack = r.u32();
    t.window = r.u32();
    return t;
  } catch (const DecodeError&) {
    set_fault(fault, WireFault::kTruncated);
    return std::nullopt;
  }
}

std::vector<std::uint8_t> NakTpdu::encode() const {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u8(wire_enum(TpduType::kNAK));
  w.u64(vc);
  w.u32(narrow<std::uint32_t>(missing.size()));
  for (auto s : missing) w.u32(s);
  append_crc32(out);
  return out;
}

std::optional<NakTpdu> NakTpdu::decode(std::span<const std::uint8_t> wire,
                                       WireFault* fault) {
  set_fault(fault, WireFault::kNone);
  const auto body = checked_body(wire, fault);
  if (!body) return std::nullopt;
  try {
    ByteReader r(*body);
    if (static_cast<TpduType>(r.u8()) != TpduType::kNAK) {
      set_fault(fault, WireFault::kBadType);
      return std::nullopt;
    }
    NakTpdu t;
    t.vc = r.u64();
    // Range-check the length field against the bytes actually present
    // before reserving: a stomped length must not drive the allocation.
    const std::uint32_t n = r.u32();
    if (n > r.remaining() / 4) {
      set_fault(fault, WireFault::kBadLength);
      return std::nullopt;
    }
    t.missing.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) t.missing.push_back(r.u32());
    return t;
  } catch (const DecodeError&) {
    set_fault(fault, WireFault::kTruncated);
    return std::nullopt;
  }
}

std::vector<std::uint8_t> FeedbackTpdu::encode() const {
  std::vector<std::uint8_t> out;
  out.reserve(kFeedbackWireBytes);
  ByteWriter w(out);
  w.u8(wire_enum(TpduType::kFB));
  w.u64(vc);
  w.u32(free_slots);
  w.u32(capacity);
  w.u32(highest_osdu);
  w.u8(paused);
  append_crc32(out);
  return out;
}

std::optional<FeedbackTpdu> FeedbackTpdu::decode(std::span<const std::uint8_t> wire,
                                                 WireFault* fault) {
  set_fault(fault, WireFault::kNone);
  const auto body = checked_body(wire, fault);
  if (!body) return std::nullopt;
  try {
    ByteReader r(*body);
    if (static_cast<TpduType>(r.u8()) != TpduType::kFB) {
      set_fault(fault, WireFault::kBadType);
      return std::nullopt;
    }
    FeedbackTpdu t;
    t.vc = r.u64();
    t.free_slots = r.u32();
    t.capacity = r.u32();
    t.highest_osdu = r.u32();
    t.paused = r.u8();
    return t;
  } catch (const DecodeError&) {
    set_fault(fault, WireFault::kTruncated);
    return std::nullopt;
  }
}

std::vector<std::uint8_t> KeepaliveTpdu::encode() const {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u8(wire_enum(TpduType::kKA));
  w.u64(vc);
  append_crc32(out);
  return out;
}

std::optional<KeepaliveTpdu> KeepaliveTpdu::decode(std::span<const std::uint8_t> wire,
                                                   WireFault* fault) {
  set_fault(fault, WireFault::kNone);
  const auto body = checked_body(wire, fault);
  if (!body) return std::nullopt;
  try {
    ByteReader r(*body);
    if (static_cast<TpduType>(r.u8()) != TpduType::kKA) {
      set_fault(fault, WireFault::kBadType);
      return std::nullopt;
    }
    KeepaliveTpdu t;
    t.vc = r.u64();
    return t;
  } catch (const DecodeError&) {
    set_fault(fault, WireFault::kTruncated);
    return std::nullopt;
  }
}

std::vector<std::uint8_t> DatagramTpdu::encode() const {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u8(wire_enum(TpduType::kDG));
  w.u64(0);  // vc slot kept so peek_vc stays uniform across data-plane TPDUs
  write_address(w, src);
  w.u16(dst_tsap);
  w.blob(payload);
  append_crc32(out);
  return out;
}

std::optional<DatagramTpdu> DatagramTpdu::decode(std::span<const std::uint8_t> wire,
                                                 WireFault* fault) {
  set_fault(fault, WireFault::kNone);
  const auto body = checked_body(wire, fault);
  if (!body) return std::nullopt;
  try {
    ByteReader r(*body);
    if (static_cast<TpduType>(r.u8()) != TpduType::kDG) {
      set_fault(fault, WireFault::kBadType);
      return std::nullopt;
    }
    (void)r.u64();
    DatagramTpdu t;
    t.src = read_address(r);
    t.dst_tsap = r.u16();
    t.payload = r.blob();
    return t;
  } catch (const DecodeError&) {
    set_fault(fault, WireFault::kTruncated);
    return std::nullopt;
  }
}

std::optional<TpduType> peek_type(std::span<const std::uint8_t> wire) {
  if (wire.empty()) return std::nullopt;
  return static_cast<TpduType>(wire[0]);
}

std::optional<VcId> peek_vc(std::span<const std::uint8_t> wire) {
  try {
    ByteReader r(wire);
    (void)r.u8();
    return r.u64();
  } catch (const DecodeError&) {
    return std::nullopt;
  }
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
