#include "orch/opdu.h"

#include "util/byte_io.h"
#include "util/checksum.h"
#include "util/wire_hardening.h"

namespace cmtos::orch {

namespace {

void set_fault(WireFault* fault, WireFault f) {
  if (fault != nullptr) *fault = f;
}

/// Sparse validity check over the OpduType space (1..42 with gaps).
bool valid_opdu_type(std::uint8_t t) {
  switch (static_cast<OpduType>(t)) {
    case OpduType::kSessReq:
    case OpduType::kSessAck:
    case OpduType::kSessRel:
    case OpduType::kPrime:
    case OpduType::kPrimeAck:
    case OpduType::kPrimed:
    case OpduType::kStart:
    case OpduType::kStartAck:
    case OpduType::kStop:
    case OpduType::kStopAck:
    case OpduType::kAdd:
    case OpduType::kRemove:
    case OpduType::kRemoveAck:
    case OpduType::kRegulateSink:
    case OpduType::kRegulateSrc:
    case OpduType::kDrop:
    case OpduType::kRegInd:
    case OpduType::kSrcStats:
    case OpduType::kEventReg:
    case OpduType::kEventInd:
    case OpduType::kDelayed:
    case OpduType::kDelayedAck:
    case OpduType::kVcDead:
    case OpduType::kTimeReq:
    case OpduType::kTimeResp:
    case OpduType::kEpochNack:
      return true;
  }
  return false;
}

}  // namespace

Opdu Opdu::command(OpduType type, OrchSessionId session, transport::VcId vc,
                   net::NodeId orch_node, std::uint32_t epoch) {
  Opdu o = reply(type, session, vc, orch_node);
  o.epoch = epoch;
  return o;
}

Opdu Opdu::reply(OpduType type, OrchSessionId session, transport::VcId vc, net::NodeId from) {
  Opdu o;
  o.type = type;
  o.session = session;
  o.vc = vc;
  o.orch_node = from;
  return o;
}

std::vector<std::uint8_t> Opdu::encode() const {
  std::vector<std::uint8_t> out;
  out.reserve(kOpduWireBytes + kOpduVcEntryBytes * vcs.size());
  ByteWriter w(out);
  w.u8(wire_enum(type));
  w.u64(session);
  w.u64(vc);
  w.u32(orch_node);
  w.u32(epoch);
  w.u32(narrow<std::uint32_t>(vcs.size()));
  for (const auto& i : vcs) {
    w.u64(i.vc);
    w.u32(i.src_node);
    w.u32(i.sink_node);
  }
  w.u8(flags);
  w.u8(ok);
  w.u8(wire_enum(reason));
  w.i64(target_seq);
  w.u32(max_drop);
  w.i64(interval);
  w.u32(interval_id);
  w.u32(src_node);
  w.u32(drop_count);
  w.i64(delivered_seq);
  w.u32(dropped);
  w.i64(app_blocked);
  w.i64(proto_blocked);
  w.u64(pattern);
  w.u64(mask);
  w.u64(event_value);
  w.u32(osdu_seq);
  w.u8(source_side);
  w.i64(osdus_behind);
  w.i64(timestamp);
  w.i64(t_origin);
  w.i64(t_peer);
  w.u32(probe_id);
  append_crc32(out);
  return out;
}

std::optional<Opdu> Opdu::decode(std::span<const std::uint8_t> wire, WireFault* fault) {
  if (cmtos::wire::hardening()) {
    auto body = strip_crc32(wire);
    if (!body) {
      set_fault(fault, WireFault::kChecksum);
      return std::nullopt;
    }
    wire = *body;
  }
  try {
    ByteReader r(wire);
    Opdu o;
    const std::uint8_t raw_type = r.u8();
    if (!valid_opdu_type(raw_type)) {
      set_fault(fault, WireFault::kBadType);
      return std::nullopt;
    }
    o.type = static_cast<OpduType>(raw_type);
    o.session = r.u64();
    o.vc = r.u64();
    o.orch_node = r.u32();
    o.epoch = r.u32();
    const std::uint32_t n = r.u32();
    if (n > r.remaining() / 16) {  // garbage length field: refuse pre-reserve
      set_fault(fault, WireFault::kBadLength);
      return std::nullopt;
    }
    o.vcs.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      OrchVcInfo info;
      info.vc = r.u64();
      info.src_node = r.u32();
      info.sink_node = r.u32();
      o.vcs.push_back(info);
    }
    o.flags = r.u8();
    o.ok = r.u8();
    const std::uint8_t raw_reason = r.u8();
    if (raw_reason > wire_enum(OrchReason::kStaleEpoch)) {
      set_fault(fault, WireFault::kBadType);
      return std::nullopt;
    }
    o.reason = static_cast<OrchReason>(raw_reason);
    o.target_seq = r.i64();
    o.max_drop = r.u32();
    o.interval = r.i64();
    o.interval_id = r.u32();
    o.src_node = r.u32();
    o.drop_count = r.u32();
    o.delivered_seq = r.i64();
    o.dropped = r.u32();
    o.app_blocked = r.i64();
    o.proto_blocked = r.i64();
    o.pattern = r.u64();
    o.mask = r.u64();
    o.event_value = r.u64();
    o.osdu_seq = r.u32();
    o.source_side = r.u8();
    o.osdus_behind = r.i64();
    o.timestamp = r.i64();
    o.t_origin = r.i64();
    o.t_peer = r.i64();
    o.probe_id = r.u32();
    return o;
  } catch (const DecodeError&) {
    set_fault(fault, WireFault::kTruncated);
    return std::nullopt;
  }
}

}  // namespace cmtos::orch
