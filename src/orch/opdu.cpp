#include "orch/opdu.h"

#include "util/wire_codec.h"

namespace cmtos::orch {

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

std::vector<std::uint8_t> Opdu::encode() const { return wire::encode(*this); }

std::optional<Opdu> Opdu::decode(std::span<const std::uint8_t> in, WireFault* fault) {
  return wire::decode<Opdu>(in, fault);
}

}  // namespace cmtos::orch
