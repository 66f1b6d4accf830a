// cmtos/tests/fuzz_pdu_libfuzzer.cpp
//
// Coverage-guided companion to fuzz_pdu.cpp: the same total-decoder
// surface exposed as a libFuzzer entry point.  Built only when
// -DCMTOS_BUILD_FUZZERS=ON under Clang (libFuzzer ships with it); the
// deterministic harness remains the tier-1 gate, this target is for
// longer exploratory runs:
//
//   ./fuzz_pdu_libfuzzer tests/fuzz_corpus -max_len=512
//
// Crashing inputs found here get committed to tests/fuzz_corpus/ so the
// deterministic replay keeps them fixed.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/packet.h"
#include "orch/opdu.h"
#include "transport/tpdu.h"
#include "util/frame_pool.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::span<const std::uint8_t> wire(data, size);
  // Every family sees every input: the decoders are total, so none may
  // crash, over-read, or allocate unboundedly on any byte string.
  (void)cmtos::transport::ControlTpdu::decode(wire);
  // A DT travels as header bytes plus a detached frame: the first
  // kDtPacketHeaderBytes of the input are the header, the rest the frame.
  const std::size_t cut = std::min(size, cmtos::transport::kDtPacketHeaderBytes);
  cmtos::net::Packet dt;
  dt.payload.assign(data, data + cut);
  dt.frame = cmtos::PayloadView::adopt(std::vector<std::uint8_t>(data + cut, data + size));
  (void)cmtos::transport::DataTpdu::decode_packet(dt);
  (void)cmtos::transport::AckTpdu::decode(wire);
  (void)cmtos::transport::NakTpdu::decode(wire);
  (void)cmtos::transport::FeedbackTpdu::decode(wire);
  (void)cmtos::transport::KeepaliveTpdu::decode(wire);
  (void)cmtos::transport::DatagramTpdu::decode(wire);
  (void)cmtos::orch::Opdu::decode(wire);
  (void)cmtos::transport::peek_type(wire);
  (void)cmtos::transport::peek_vc(wire);
  return 0;
}
