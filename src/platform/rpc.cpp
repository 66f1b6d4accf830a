#include "platform/rpc.h"

#include "obs/wire_stats.h"
#include "util/logging.h"

namespace cmtos::platform {

std::vector<std::uint8_t> RpcMsg::encode() const { return wire::encode(*this); }

std::optional<RpcMsg> RpcMsg::decode(std::span<const std::uint8_t> in, WireFault* fault) {
  return wire::decode<RpcMsg>(in, fault);
}

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
  m.kind = RpcKind::kRequest;
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
  if (m->kind == RpcKind::kRequest) {
    RpcMsg reply;
    reply.kind = RpcKind::kReply;
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
