// cmtos/transport/handshake.h
//
// The retransmitted handshake: RCR, CR and RN are the control TPDUs that
// wait for an answer, and the control path has no other reliability.  Each
// pending record of one of them (a remote connect awaiting RCC, a connect
// awaiting CC, a renegotiation awaiting RNC) holds one Handshake, which
// TransportEntity::send_handshake fills, sends and resends.  Erasing the
// record cancels its retransmission.

#pragma once

#include <cstdint>
#include <vector>

#include "net/address.h"
#include "sim/node_runtime.h"
#include "transport/service.h"

namespace cmtos::transport {

struct Handshake {
  std::vector<std::uint8_t> wire;  // the TPDU, encoded once
  net::NodeId peer = net::kInvalidNode;
  int retries_left = 0;
  sim::Timer retransmit;
};

/// The handshake of `vc`'s record in a table of pending records (each with
/// a `handshake` member), or null once the record is gone.
template <class Table>
Handshake* pending_handshake(Table& table, VcId vc) {
  auto it = table.find(vc);
  return it == table.end() ? nullptr : &it->second.handshake;
}

}  // namespace cmtos::transport
