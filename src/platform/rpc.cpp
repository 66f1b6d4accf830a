#include "platform/rpc.h"

#include "obs/wire_stats.h"
#include "util/byte_io.h"
#include "util/checksum.h"
#include "util/logging.h"
#include "util/wire_hardening.h"

namespace cmtos::platform {

namespace {

enum class MsgKind : std::uint8_t { kRequest = 1, kReply = 2 };

void set_fault(WireFault* fault, WireFault f) {
  if (fault != nullptr) *fault = f;
}

struct RpcMsg {
  MsgKind kind = MsgKind::kRequest;
  std::uint64_t call_id = 0;
  net::NodeId caller = net::kInvalidNode;
  RpcOutcome outcome = RpcOutcome::kOk;
  std::string interface;
  std::string op;
  std::vector<std::uint8_t> body;

  std::vector<std::uint8_t> encode() const {
    std::vector<std::uint8_t> out;
    ByteWriter w(out);
    w.u8(wire_enum(kind));
    w.u64(call_id);
    w.u32(caller);
    w.u8(wire_enum(outcome));
    w.str(interface);
    w.str(op);
    w.blob(body);
    append_crc32(out);  // adversarial wire model: links flip real bytes
    return out;
  }
  /// Total over arbitrary bytes: CRC-verified, enum fields range-checked.
  static std::optional<RpcMsg> decode(std::span<const std::uint8_t> wire,
                                      WireFault* fault = nullptr) {
    if (cmtos::wire::hardening()) {
      auto body_span = strip_crc32(wire);
      if (!body_span) {
        set_fault(fault, WireFault::kChecksum);
        return std::nullopt;
      }
      wire = *body_span;
    }
    try {
      ByteReader r(wire);
      RpcMsg m;
      const std::uint8_t raw_kind = r.u8();
      if (raw_kind != wire_enum(MsgKind::kRequest) &&
          raw_kind != wire_enum(MsgKind::kReply)) {
        set_fault(fault, WireFault::kBadType);
        return std::nullopt;
      }
      m.kind = static_cast<MsgKind>(raw_kind);
      m.call_id = r.u64();
      m.caller = r.u32();
      const std::uint8_t raw_outcome = r.u8();
      if (raw_outcome > wire_enum(RpcOutcome::kAppError)) {
        set_fault(fault, WireFault::kBadType);
        return std::nullopt;
      }
      m.outcome = static_cast<RpcOutcome>(raw_outcome);
      m.interface = r.str();
      m.op = r.str();
      m.body = r.blob();
      return m;
    } catch (const DecodeError&) {
      set_fault(fault, WireFault::kTruncated);
      return std::nullopt;
    }
  }
};

}  // namespace

std::string to_string(RpcOutcome o) {
  switch (o) {
    case RpcOutcome::kOk: return "ok";
    case RpcOutcome::kTimeout: return "timeout";
    case RpcOutcome::kNoSuchInterface: return "no-such-interface";
    case RpcOutcome::kNoSuchOperation: return "no-such-operation";
    case RpcOutcome::kAppError: return "app-error";
  }
  return "?";
}

RpcRuntime::RpcRuntime(net::Network& network, net::NodeId node)
    : network_(network), node_(node) {
  network_.node(node_).set_handler(net::Proto::kRpc,
                                   [this](net::Packet&& p) { on_packet(std::move(p)); });
}

void RpcRuntime::crash() {
  pending_.clear();
  down_ = true;
  CMTOS_WARN("rpc", "node %u: RPC runtime crashed, pending calls dropped", node_);
}

void RpcRuntime::restart() { down_ = false; }

void RpcRuntime::register_op(const std::string& interface, const std::string& op,
                             OpHandler handler) {
  interfaces_[interface][op] = std::move(handler);
}

void RpcRuntime::unregister_interface(const std::string& interface) {
  interfaces_.erase(interface);
}

void RpcRuntime::invoke(net::NodeId node, const std::string& interface, const std::string& op,
                        std::vector<std::uint8_t> args, Duration delay_bound, ReplyFn reply) {
  RpcMsg m;
  m.kind = MsgKind::kRequest;
  m.call_id = next_call_++;
  m.caller = node_;
  m.interface = interface;
  m.op = op;
  m.body = std::move(args);

  net::Packet pkt;
  pkt.src = node_;
  pkt.dst = node;
  pkt.proto = net::Proto::kRpc;
  pkt.priority = net::Priority::kControl;
  // RPC handlers are registered by facade-side services (orchestrator
  // registry, failover control): deliver globally so those rounds serialise.
  pkt.global_delivery = true;
  pkt.payload = m.encode();
  network_.send(std::move(pkt));

  const std::uint64_t call_id = m.call_id;
  PendingCall& pend = pending_[call_id];
  pend.reply = std::move(reply);
  if (delay_bound == kTimeNever) return;
  // Call timeouts run on the caller node's shard but as global events: the
  // reply callback may touch facade-side state.
  pend.timeout.after_global(network_.node(node_).runtime(), delay_bound, [this, call_id] {
    auto it = pending_.find(call_id);
    if (it == pending_.end()) return;
    ReplyFn fn = std::move(it->second.reply);
    pending_.erase(it);
    if (fn) fn(RpcOutcome::kTimeout, {});
  });
}

void RpcRuntime::on_packet(net::Packet&& pkt) {
  if (down_) return;  // crashed node: no server, no caller
  WireFault fault = WireFault::kNone;
  auto m = RpcMsg::decode(pkt.payload, &fault);
  if (!m) {
    obs::wire_decode_failed("rpc", fault);
    return;
  }
  if (m->kind == MsgKind::kRequest) {
    RpcMsg reply;
    reply.kind = MsgKind::kReply;
    reply.call_id = m->call_id;
    reply.caller = m->caller;
    auto ifc = interfaces_.find(m->interface);
    if (ifc == interfaces_.end()) {
      reply.outcome = RpcOutcome::kNoSuchInterface;
    } else {
      auto op = ifc->second.find(m->op);
      if (op == ifc->second.end()) {
        reply.outcome = RpcOutcome::kNoSuchOperation;
      } else {
        auto result = op->second(m->body);
        if (result) {
          reply.outcome = RpcOutcome::kOk;
          reply.body = std::move(*result);
        } else {
          reply.outcome = RpcOutcome::kAppError;
        }
      }
    }
    net::Packet out;
    out.src = node_;
    out.dst = m->caller;
    out.proto = net::Proto::kRpc;
    out.priority = net::Priority::kControl;
    out.global_delivery = true;
    out.payload = reply.encode();
    network_.send(std::move(out));
    return;
  }
  // Reply.
  auto it = pending_.find(m->call_id);
  if (it == pending_.end()) return;  // late reply after timeout: dropped
  ReplyFn fn = std::move(it->second.reply);
  pending_.erase(it);
  if (fn) fn(m->outcome, m->body);
}

}  // namespace cmtos::platform
