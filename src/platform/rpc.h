// cmtos/platform/rpc.h
//
// REX-like invocation (§2.2): "remote interaction is modelled as the
// invocation of named operations in abstract data type (ADT) interfaces
// which are accessed in a location independent fashion.  Invocation is
// implemented by means of an RPC protocol known as REX extended to provide
// the delay bounded communication required for the real-time control of
// multimedia applications."
//
// The runtime registers named interfaces (each a map of operation name ->
// handler) and invokes remote operations with an optional delay bound: if
// the reply has not arrived by the deadline the caller gets a timeout
// outcome instead of blocking indefinitely — control operations on
// continuous media must fail fast.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "net/network.h"
#include "sim/scheduler.h"
#include "util/time.h"
#include "util/wire_codec.h"

namespace cmtos::platform {

enum class RpcOutcome : std::uint8_t {
  kOk = 0,
  kTimeout = 1,        // delay bound exceeded
  kNoSuchInterface = 2,
  kNoSuchOperation = 3,
  kAppError = 4,       // handler reported failure
};
constexpr auto wire_values(RpcOutcome) { return wire::upto<RpcOutcome::kAppError>(); }

std::string to_string(RpcOutcome o);

enum class RpcKind : std::uint8_t { kRequest = 1, kReply = 2 };
inline constexpr RpcKind kRpcKinds[] = {RpcKind::kRequest, RpcKind::kReply};
constexpr std::span<const RpcKind> wire_values(RpcKind) { return kRpcKinds; }

/// One REX message on the wire: an invocation or its reply.
struct RpcMsg {
  RpcKind kind = RpcKind::kRequest;
  std::uint64_t call_id = 0;
  net::NodeId caller = net::kInvalidNode;
  RpcOutcome outcome = RpcOutcome::kOk;
  std::string interface;
  std::string op;
  std::vector<std::uint8_t> body;

  /// Fields in wire order (util/wire_codec.h).
  static constexpr auto wire_fields() {
    return std::tuple{&RpcMsg::kind,      &RpcMsg::call_id, &RpcMsg::caller, &RpcMsg::outcome,
                      &RpcMsg::interface, &RpcMsg::op,      &RpcMsg::body};
  }

  /// Encoding ends with a CRC-32 trailer (links flip real bytes).
  std::vector<std::uint8_t> encode() const;
  /// Total over arbitrary bytes: CRC-verified, enum fields range-checked.
  static std::optional<RpcMsg> decode(std::span<const std::uint8_t> wire,
                                      WireFault* fault = nullptr);
};

/// Handler for one operation: request bytes in, reply bytes out; returning
/// nullopt maps to kAppError.
using OpHandler =
    std::function<std::optional<std::vector<std::uint8_t>>(std::span<const std::uint8_t>)>;

/// Reply callback at the invoker.
using ReplyFn = std::function<void(RpcOutcome, std::span<const std::uint8_t> reply)>;

class RpcRuntime {
 public:
  RpcRuntime(net::Network& network, net::NodeId node);

  net::NodeId node_id() const { return node_; }

  /// Exports `interface`.`op` at this node.
  void register_op(const std::string& interface, const std::string& op, OpHandler handler);
  void unregister_interface(const std::string& interface);

  /// Invokes `interface`.`op` at `node` with a delay bound.  The reply
  /// callback fires exactly once: with the reply, or with kTimeout when
  /// the bound expires first (a late reply is then dropped).
  void invoke(net::NodeId node, const std::string& interface, const std::string& op,
              std::vector<std::uint8_t> args, Duration delay_bound, ReplyFn reply);

  /// Invocation without a delay bound (control paths that may wait).
  void invoke(net::NodeId node, const std::string& interface, const std::string& op,
              std::vector<std::uint8_t> args, ReplyFn reply) {
    invoke(node, interface, op, std::move(args), kTimeNever, std::move(reply));
  }

  /// Node crash: every pending call is dropped (no reply callback will
  /// fire — the caller's process died with the node) and traffic is
  /// ignored until restart().  Registered interfaces survive, like TSAP
  /// bindings: they belong to the applications.
  void crash();
  void restart();
  bool down() const { return down_; }

 private:
  struct PendingCall {
    ReplyFn reply;
    sim::Timer timeout;
  };

  void on_packet(net::Packet&& pkt);

  net::Network& network_;
  net::NodeId node_;
  std::uint64_t next_call_ = 1;
  bool down_ = false;
  std::map<std::string, std::map<std::string, OpHandler>> interfaces_;
  std::map<std::uint64_t, PendingCall> pending_;
};

}  // namespace cmtos::platform
