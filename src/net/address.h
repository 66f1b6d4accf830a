// cmtos/net/address.h
//
// Addressing, per §4.1.1 of the paper: "The addresses contain a network
// address to identify the end-system, and a TSAP to identify a unique
// endpoint within the addressed end-system."

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <tuple>

namespace cmtos::net {

/// Identifies an end-system (host) on the simulated network.
using NodeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = 0xffffffffu;

/// Transport service access point within an end-system.
using Tsap = std::uint16_t;

/// Full transport address: end-system + TSAP.
struct NetAddress {
  NodeId node = kInvalidNode;
  Tsap tsap = 0;

  /// Fields in wire order (util/wire_codec.h).
  static constexpr auto wire_fields() { return std::tuple{&NetAddress::node, &NetAddress::tsap}; }

  friend bool operator==(const NetAddress&, const NetAddress&) = default;
  friend auto operator<=>(const NetAddress&, const NetAddress&) = default;
};

/// Protocol discriminator carried in every packet header; the node
/// demultiplexes incoming packets on this field.
enum class Proto : std::uint8_t {
  kTransportControl = 1,  // connection management TPDUs
  kTransportData = 2,     // data TPDUs
  kOrch = 3,              // out-of-band orchestrator PDUs
  kRpc = 4,               // platform invocation (REX-like)
};

std::string to_string(const NetAddress& a);

}  // namespace cmtos::net

template <>
struct std::hash<cmtos::net::NetAddress> {
  std::size_t operator()(const cmtos::net::NetAddress& a) const noexcept {
    return std::hash<std::uint64_t>{}((static_cast<std::uint64_t>(a.node) << 16) | a.tsap);
  }
};
