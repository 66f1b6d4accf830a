// cmtos/tests/test_wire_totality.cpp
//
// Decoder totality sweep (DESIGN.md §14): every PDU family's decoder is fed
// every proper prefix of a valid encoding, [0, wire_size).  Each one must
// return nullopt with a classified fault — never crash, never over-read
// (ASan/UBSan builds enforce the latter).  A CRC-trailing encoding can
// never survive truncation: either the trailer is gone (kChecksum /
// kTruncated) or what remains fails a structural check.

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "orch/opdu.h"
#include "transport/tpdu.h"
#include "util/frame_pool.h"

namespace cmtos {
namespace {

using orch::Opdu;
using orch::OpduType;
using transport::AckTpdu;
using transport::ControlTpdu;
using transport::DataTpdu;
using transport::DatagramTpdu;
using transport::FeedbackTpdu;
using transport::KeepaliveTpdu;
using transport::NakTpdu;
using transport::TpduType;

template <typename Pdu>
void sweep(const std::vector<std::uint8_t>& wire, const char* family) {
  ASSERT_TRUE(Pdu::decode(wire).has_value()) << family << ": seed encoding must decode";
  for (std::size_t len = 0; len < wire.size(); ++len) {
    WireFault fault = WireFault::kNone;
    const std::span<const std::uint8_t> prefix(wire.data(), len);
    const auto got = Pdu::decode(prefix, &fault);
    EXPECT_FALSE(got.has_value()) << family << ": prefix of length " << len << " accepted";
    EXPECT_NE(fault, WireFault::kNone)
        << family << ": refusal at length " << len << " left fault unclassified";
  }
}

// A DT travels as a packet: header bytes plus a detached frame.  Every
// proper prefix of the header (frame intact) and every proper prefix of
// the frame (header intact) must be refused with a classified fault.
void sweep_dt(const DataTpdu& t) {
  net::Packet pkt;
  t.encode_onto(pkt);
  ASSERT_TRUE(DataTpdu::decode_packet(pkt).has_value()) << "seed encoding must decode";
  for (std::size_t len = 0; len < pkt.payload.size(); ++len) {
    net::Packet cut = pkt;
    cut.payload.resize(len);
    WireFault fault = WireFault::kNone;
    EXPECT_FALSE(DataTpdu::decode_packet(cut, &fault).has_value())
        << "header prefix of length " << len << " accepted";
    EXPECT_NE(fault, WireFault::kNone);
  }
  for (std::size_t len = 0; len < pkt.frame.size(); ++len) {
    net::Packet cut = pkt;
    cut.frame = pkt.frame.subview(0, len);
    WireFault fault = WireFault::kNone;
    EXPECT_FALSE(DataTpdu::decode_packet(cut, &fault).has_value())
        << "frame prefix of length " << len << " accepted";
    EXPECT_EQ(fault, WireFault::kBadLength);
  }
}

TEST(WireTotality, ControlTpduEveryType) {
  for (int type = 1; type <= 10; ++type) {
    ControlTpdu t;
    t.type = static_cast<TpduType>(type);
    t.vc = 7;
    t.src = {1, 10};
    t.dst = {2, 20};
    t.buffer_osdus = 16;
    sweep<ControlTpdu>(t.encode(), "control_tpdu");
  }
}

TEST(WireTotality, DataTpdu) {
  DataTpdu t;
  t.vc = 3;
  t.tpdu_seq = 41;
  t.osdu_seq = 9;
  t.frag_index = 1;
  t.frag_count = 2;
  t.payload = PayloadView::adopt({1, 2, 3, 4, 5, 6, 7, 8});
  sweep_dt(t);
}

TEST(WireTotality, DataTpduEmptyPayload) {
  DataTpdu t;
  t.vc = 3;
  sweep_dt(t);
}

TEST(WireTotality, AckTpdu) {
  AckTpdu t;
  t.vc = 5;
  t.cumulative_ack = 100;
  t.window = 32;
  sweep<AckTpdu>(t.encode(), "ack_tpdu");
}

TEST(WireTotality, NakTpdu) {
  NakTpdu t;
  t.vc = 5;
  t.missing = {3, 4, 9};
  sweep<NakTpdu>(t.encode(), "nak_tpdu");
}

TEST(WireTotality, FeedbackTpdu) {
  FeedbackTpdu t;
  t.vc = 5;
  t.free_slots = 3;
  t.capacity = 32;
  t.highest_osdu = 88;
  sweep<FeedbackTpdu>(t.encode(), "fb_tpdu");
}

TEST(WireTotality, KeepaliveTpdu) {
  KeepaliveTpdu t;
  t.vc = 9;
  sweep<KeepaliveTpdu>(t.encode(), "ka_tpdu");
}

TEST(WireTotality, DatagramTpdu) {
  DatagramTpdu t;
  t.src = {1, 10};
  t.dst_tsap = 20;
  t.payload = {9, 8, 7};
  sweep<DatagramTpdu>(t.encode(), "dg_tpdu");
}

TEST(WireTotality, OpduEveryType) {
  static constexpr OpduType kTypes[] = {
      OpduType::kSessReq, OpduType::kSessAck, OpduType::kSessRel, OpduType::kPrime,
      OpduType::kPrimeAck, OpduType::kPrimed, OpduType::kStart, OpduType::kStartAck,
      OpduType::kStop, OpduType::kStopAck, OpduType::kAdd, OpduType::kAddAck,
      OpduType::kRemove, OpduType::kRemoveAck, OpduType::kRegulateSink,
      OpduType::kRegulateSrc, OpduType::kDrop, OpduType::kRegInd, OpduType::kSrcStats,
      OpduType::kEventReg, OpduType::kEventInd, OpduType::kDelayed, OpduType::kDelayedAck,
      OpduType::kVcDead, OpduType::kTimeReq, OpduType::kTimeResp, OpduType::kEpochNack};
  for (const auto type : kTypes) {
    Opdu o;
    o.type = type;
    o.session = 0x1122334455667788ull;
    o.vc = 12;
    o.orch_node = 1;
    o.vcs = {{12, 1, 2}};
    sweep<Opdu>(o.encode(), "opdu");
  }
}

}  // namespace
}  // namespace cmtos
