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
#include <vector>

#include "net/network.h"
#include "sim/scheduler.h"
#include "util/rng.h"
#include "util/time.h"

namespace cmtos::platform {

enum class RpcOutcome : std::uint8_t {
  kOk = 0,
  kTimeout = 1,        // delay bound exceeded
  kNoSuchInterface = 2,
  kNoSuchOperation = 3,
  kAppError = 4,       // handler reported failure
};

std::string to_string(RpcOutcome o);

/// Handler for one operation: request bytes in, reply bytes out; returning
/// nullopt maps to kAppError.
using OpHandler =
    std::function<std::optional<std::vector<std::uint8_t>>(std::span<const std::uint8_t>)>;

/// Reply callback at the invoker.
using ReplyFn = std::function<void(RpcOutcome, std::span<const std::uint8_t> reply)>;

/// Retry policy for control-path invocations.  REX operations are
/// idempotent control calls, so a timed-out attempt may be retried with
/// capped exponential backoff: transient partitions then heal transparently
/// while hard failures still surface kTimeout after the last attempt.  The
/// call id is reused across attempts, so a late reply to an earlier attempt
/// completes the call (and cancels the pending retry).
struct RpcRetryPolicy {
  /// Total send attempts (1 = no retry, the historical behaviour).
  int max_attempts = 1;
  /// Backoff before the first retry; doubles each further attempt.
  Duration base = 100 * kMillisecond;
  double multiplier = 2.0;
  /// Ceiling on any single backoff.
  Duration cap = 2 * kSecond;
  /// Uniform random extension of each backoff, as a fraction of it:
  /// delay = backoff * (1 + U[0, jitter_frac]).  Desynchronises retry
  /// storms after a heal.
  double jitter_frac = 0.2;
};

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

  /// Retry policy applied to every bounded invoke from this runtime.  The
  /// delay bound is per attempt.
  void set_retry_policy(const RpcRetryPolicy& p) { retry_ = p; }
  const RpcRetryPolicy& retry_policy() const { return retry_; }

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
    // Retry state: the encoded request is kept for retransmission.
    net::NodeId dst = net::kInvalidNode;
    std::vector<std::uint8_t> wire;
    Duration delay_bound = kTimeNever;
    int attempts_left = 0;
  };

  void on_packet(net::Packet&& pkt);
  void send_attempt(std::uint64_t call_id);
  void arm_timeout(std::uint64_t call_id);

  net::Network& network_;
  net::NodeId node_;
  std::uint64_t next_call_ = 1;
  RpcRetryPolicy retry_;
  bool down_ = false;
  /// Deterministic per-runtime stream for retry-backoff jitter.
  Rng rng_;
  std::map<std::string, std::map<std::string, OpHandler>> interfaces_;
  std::map<std::uint64_t, PendingCall> pending_;
};

}  // namespace cmtos::platform
