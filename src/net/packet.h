// cmtos/net/packet.h
//
// The network-layer packet.  Payload bytes are the wire encoding of the
// layer above (transport TPDU, OPDU, RPC message); the remaining fields are
// the network header plus simulation-only metadata.

#pragma once

#include <cstdint>
#include <vector>

#include "net/address.h"
#include "util/frame_pool.h"
#include "util/time.h"

namespace cmtos::net {

/// Fixed network + link header overhead charged per packet, in bytes.
inline constexpr std::size_t kPacketHeaderBytes = 32;

/// Link-level scheduling class: lower value is served first.
enum class Priority : std::uint8_t {
  kControl = 0,  // connection management, OPDUs, RPC, acks/feedback
  kMedia = 1,    // CM data TPDUs
};
inline constexpr int kPriorityBands = 2;

struct Packet {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Proto proto = Proto::kTransportData;
  Priority priority = Priority::kMedia;
  /// Wire bytes of the layer above.  An impaired link mutates these in
  /// flight (bit flips, truncation) — receivers detect damage through their
  /// own PDU checksums, never through simulation metadata.
  std::vector<std::uint8_t> payload;
  /// Zero-copy media payload body (two-world data plane): data TPDUs carry
  /// their serialized header in `payload` and the OSDU fragment here as a
  /// refcounted view into the source's frame, so link transit never copies
  /// media bytes.  Control-plane packets leave this empty.  Charged to the
  /// wire image by wire_size() exactly like inline payload bytes.
  PayloadView frame;

  // --- simulation metadata (not part of the wire image) ---
  /// True simulation time the packet entered the network at the source.
  Time injected_at = 0;
  /// Hop count so far, for diagnostics and TTL-style loop protection.
  int hops = 0;
  /// Unique id assigned at injection, for tracing.  Node-scoped (top bits
  /// carry the injecting shard) so parallel shards never share a counter.
  std::uint64_t id = 0;
  /// Set by the sending layer when the *terminal* delivery handler may
  /// touch shared cross-node state (control TPDUs walk reservations, RPC
  /// reaches orchestration state).  The executor then runs the delivery in
  /// a serial round.  Media/data traffic leaves this false and stays
  /// parallel.
  bool global_delivery = false;

  std::size_t wire_size() const {
    return payload.size() + frame.size() + kPacketHeaderBytes;
  }
};

}  // namespace cmtos::net
