// cmtos/tests/test_wire_totality.cpp
//
// Decoder totality sweep (DESIGN.md §14): every PDU family's decoder is fed
// every proper prefix of a valid encoding, [0, wire_size).  Each one must
// return nullopt with a classified fault — never crash, never over-read
// (ASan/UBSan builds enforce the latter).  A CRC-trailing encoding can
// never survive truncation: either the trailer is gone (kChecksum /
// kTruncated) or what remains fails a structural check.
//
// Golden wire images (WireGolden): the exact bytes, as hex, of one fully
// populated instance of every control-plane PDU (ControlTpdu, AckTpdu,
// NakTpdu, FeedbackTpdu, Opdu, RpcMsg) and of the hand-written DT header
// and heartbeat.  Round trips cannot see two fields swapped the same way in
// the encoder and the decoder; these can.  Fields hold distinct byte
// patterns, so a moved, widened or dropped field changes the image.  Every
// TpduType and OpduType tag is pinned too: each control and OPDU type
// re-encodes to the golden image with its own tag in byte 0.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "orch/opdu.h"
#include "platform/rpc.h"
#include "transport/tpdu.h"
#include "util/checksum.h"
#include "util/frame_pool.h"
#include "util/wire_hardening.h"

namespace cmtos {
namespace {

using orch::Opdu;
using orch::OpduType;
using transport::AckTpdu;
using transport::ControlTpdu;
using transport::DataTpdu;
using transport::DisconnectReason;
using transport::ErrorControl;
using transport::FeedbackTpdu;
using transport::HeartbeatTpdu;
using transport::NakTpdu;
using transport::ProtocolProfile;
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

std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const auto x : bytes) out += {kDigits[x >> 4], kDigits[x & 15]};
  return out;
}

// `golden` with its type tag (byte 0) replaced by `tag` and the CRC-32
// trailer resealed.
std::string retagged(const std::string& golden, std::uint8_t tag) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i + 8 < golden.size(); i += 2)
    bytes.push_back(narrow<std::uint8_t>(std::stoul(golden.substr(i, 2), nullptr, 16)));
  bytes[0] = tag;
  append_crc32(bytes);
  return hex(bytes);
}

// One fully populated instance of every PDU: the golden images below pin
// their bytes, and the sweeps feed their prefixes to the decoders.  Field
// values are distinct byte patterns.
transport::QosParams params(double base) {
  transport::QosParams p;
  p.osdu_rate = base + 0.5;
  p.max_osdu_bytes = 1000 + static_cast<std::int64_t>(base);
  p.end_to_end_delay = 2000000 + static_cast<std::int64_t>(base);
  p.delay_jitter = 300000 + static_cast<std::int64_t>(base);
  p.packet_error_rate = 0.001 * base;
  p.bit_error_rate = 1e-9 * base;
  return p;
}

ControlTpdu control() {
  ControlTpdu c;
  c.type = TpduType::kRN;
  c.vc = 0x0102030405060708ull;
  c.initiator = {0x11121314u, 0x1516};
  c.src = {0x21222324u, 0x2526};
  c.dst = {0x31323334u, 0x3536};
  c.service_class = {ProtocolProfile::kWindowBased, ErrorControl::kCorrectAndIndicate};
  c.qos = {params(1), params(2)};
  c.agreed = params(3);
  c.sample_period = 0x4142434445464748ll;
  c.buffer_osdus = 0x51525354u;
  c.importance = 0x61;
  c.shed_watermark_pct = 0x62;
  c.pacing_burst = 0x6364;
  c.reason = DisconnectReason::kPreempted;
  c.accepted = 1;
  c.report.vc = 0x7172737475767778ull;
  c.report.sample_period = 0x0a0b0c0d;
  c.report.agreed = params(4);
  c.report.measured_osdu_rate = 23.25;
  c.report.measured_mean_delay = 0x0e0f1011;
  c.report.measured_jitter = 0x12131415;
  c.report.measured_packet_error_rate = 0.0625;
  c.report.measured_bit_error_rate = 0.125;
  c.report.violations = {true, false, true, true, false};
  c.report.warmup = true;  // local only: not on the wire
  c.report.consecutive_violation_periods = 0x81828384u;
  c.report.coalesced_periods = 0x91929394u;
  return c;
}

Opdu opdu() {
  Opdu o;
  o.type = OpduType::kRegInd;
  o.session = 0x0102030405060708ull;
  o.vc = 0x1112131415161718ull;
  o.orch_node = 0x21222324u;
  o.epoch = 0x31323334u;
  o.vcs = {{0x4142434445464748ull, 0x51525354u, 0x61626364u},
           {0x7172737475767778ull, 0x81828384u, 0x91929394u}};
  o.flags = 3;
  o.ok = 0;
  o.reason = orch::OrchReason::kStaleEpoch;
  o.target_seq = -5;
  o.max_drop = 0xa1a2a3a4u;
  o.interval = 0x0b0c0d0e0f101112ll;
  o.interval_id = 0xb1b2b3b4u;
  o.src_node = 0xc1c2c3c4u;
  o.drop_count = 0xd1d2d3d4u;
  o.delivered_seq = 0x1314151617181920ll;
  o.dropped = 0xe1e2e3e4u;
  o.app_blocked = 0x2122232425262728ll;
  o.proto_blocked = 0x3132333435363738ll;
  o.pattern = 0x4142434445464748ull;
  o.mask = 0x5152535455565758ull;
  o.event_value = 0x6162636465666768ull;
  o.osdu_seq = 0xf1f2f3f4u;
  o.source_side = 1;
  o.osdus_behind = -77;
  o.timestamp = 0x7172737475767778ll;
  o.t_origin = 0x0818283848586878ll;
  o.t_peer = 0x0919293949596979ll;
  o.probe_id = 0x0a1a2a3au;
  return o;
}

AckTpdu ack() { return {0x0102030405060708ull, 0x11121314u, 0x21222324u}; }

NakTpdu nak() { return {0x0102030405060708ull, {0x11121314u, 0x21222324u, 0x31323334u}}; }

FeedbackTpdu feedback() {
  return {0x0102030405060708ull, 0x11121314u, 0x21222324u, 0x31323334u, 1};
}

DataTpdu data() {
  DataTpdu d;
  d.vc = 0x0102030405060708ull;
  d.tpdu_seq = 0x11121314u;
  d.osdu_seq = 0x21222324u;
  d.event = 0x3132333435363738ull;
  d.frag_index = 0x0102;
  d.frag_count = 0x0203;
  d.flags = transport::kDtRetransmission;
  d.src_timestamp = 0x4142434445464748ll;
  d.true_submit = 0x5152535455565758ll;
  d.payload = PayloadView::adopt({9, 8, 7, 6, 5});
  return d;
}

HeartbeatTpdu heartbeat() {
  HeartbeatTpdu h;
  h.incarnation = 0x01020304u;
  h.seq = 0x11121314u;
  h.ack = 0x21222324u;
  h.vc_count = 2;
  h.digest = 0x3132333435363738ull;
  h.flags = transport::kHbCarriesIds | transport::kHbWantsIds;
  h.feedback = {{0x4142434445464748ull, 1, 2, 3, 0}, {0x5152535455565758ull, 4, 5, 6, 1}};
  h.ids = {0x6162636465666768ull, 0x7172737475767778ull};
  return h;
}

platform::RpcMsg rpc() {
  platform::RpcMsg m;
  m.kind = platform::RpcKind::kReply;
  m.call_id = 0x0102030405060708ull;
  m.caller = 0x11121314u;
  m.outcome = platform::RpcOutcome::kNoSuchOperation;
  m.interface = "trader";
  m.op = "lookup";
  m.body = {0xde, 0xad, 0xbe, 0xef};
  return m;
}

TEST(WireTotality, ControlTpduEveryType) {
  for (const TpduType type : transport::kControlTpduTypes) {
    auto t = control();
    t.type = type;
    sweep<ControlTpdu>(t.encode(), "control_tpdu");
  }
}

TEST(WireTotality, ControlTpduUnderrunIsTruncated) {
  // With the CRC trailer unchecked (hardening off) nothing stops a proper
  // prefix of the body before the ByteReader does: the underrun in the
  // u8, u16, u32 or u64 field the cut lands in must surface as kTruncated.
  ControlTpdu t;
  t.type = TpduType::kCR;
  t.vc = 7;
  const auto wire = t.encode();
  cmtos::wire::set_hardening(false);
  for (std::size_t len = 0; len + 4 < wire.size(); ++len) {
    WireFault fault = WireFault::kNone;
    EXPECT_FALSE(ControlTpdu::decode(std::span(wire).first(len), &fault).has_value())
        << "body prefix of length " << len << " accepted";
    EXPECT_EQ(fault, WireFault::kTruncated) << "body prefix of length " << len;
  }
  cmtos::wire::set_hardening(true);
}

TEST(WireTotality, DataTpdu) { sweep_dt(data()); }

TEST(WireTotality, DataTpduEmptyPayload) {
  DataTpdu t;
  t.vc = 3;
  sweep_dt(t);
}

TEST(WireTotality, AckTpdu) { sweep<AckTpdu>(ack().encode(), "ack_tpdu"); }

TEST(WireTotality, NakTpdu) { sweep<NakTpdu>(nak().encode(), "nak_tpdu"); }

TEST(WireTotality, FeedbackTpdu) { sweep<FeedbackTpdu>(feedback().encode(), "fb_tpdu"); }

TEST(WireTotality, HeartbeatTpdu) {
  HeartbeatTpdu t;
  t.incarnation = 2;
  t.seq = 77;
  t.ack = 41;
  t.vc_count = 2;
  t.digest = transport::vc_digest(5) ^ transport::vc_digest(9);
  t.feedback.push_back({5, 3, 32, 88, 0});
  t.feedback.push_back({9, 0, 16, 4, 1});
  sweep<HeartbeatTpdu>(t.encode(), "hb_tpdu");
}

TEST(WireTotality, HeartbeatTpduWithIdList) {
  sweep<HeartbeatTpdu>(heartbeat().encode(), "hb_tpdu");
}

TEST(WireTotality, HeartbeatTpduRefusesCountsTheBytesCannotHold) {
  HeartbeatTpdu t;
  t.feedback.push_back({5, 3, 32, 88, 0});
  auto wire = t.encode();
  // The entry count sits after the fixed fields (type 1 + 4 x u32 + u64 +
  // flags 1 = 26 bytes); stomp it and re-seal the CRC.
  wire.erase(wire.end() - 4, wire.end());
  wire[26] = 0xff;
  wire[27] = 0xff;
  append_crc32(wire);
  WireFault fault = WireFault::kNone;
  EXPECT_FALSE(HeartbeatTpdu::decode(wire, &fault).has_value());
  EXPECT_EQ(fault, WireFault::kBadLength);

  // Unknown flag bits are refused, and so is any single flipped bit (CRC).
  t.flags = 0x80;
  EXPECT_FALSE(HeartbeatTpdu::decode(t.encode(), &fault).has_value());
  EXPECT_EQ(fault, WireFault::kBadType);
  t.flags = 0;
  auto flipped = t.encode();
  flipped[10] ^= 0x04;
  EXPECT_FALSE(HeartbeatTpdu::decode(flipped, &fault).has_value());
  EXPECT_EQ(fault, WireFault::kChecksum);
}

TEST(WireTotality, OpduEveryType) {
  for (const OpduType type : orch::kOpduTypes) {
    auto o = opdu();
    o.type = type;
    sweep<Opdu>(o.encode(), "opdu");
  }
}

TEST(WireTotality, RpcMsg) { sweep<platform::RpcMsg>(rpc().encode(), "rpc"); }

// ---------------------------------------------------------------- golden

const std::string kControl =
    "0808070605040302011413121116152423222126253433323136350103000000"
    "000000f83fe90300000000000081841e0000000000e193040000000000fca9f1"
    "d24d62503f95d626e80b2e113e0000000000000440ea0300000000000082841e"
    "0000000000e293040000000000fca9f1d24d62603f95d626e80b2e213e000000"
    "0000000c40eb0300000000000083841e0000000000e393040000000000fa7e6a"
    "bc7493683fe0413adc11c5293e484746454443424154535251616264630a0178"
    "777675747372710d0c0b0a000000000000000000001240ec0300000000000084"
    "841e0000000000e493040000000000fca9f1d24d62703f95d626e80b2e313e00"
    "0000000040374011100f0e000000001514131200000000000000000000b03f00"
    "0000000000c03f0d84838281949392914a99b2a7";
const std::string kOpdu =
    "2108070605040302011817161514131211242322213433323102000000484746"
    "454443424154535251646362617877767574737271848382819493929103000b"
    "fbffffffffffffffa4a3a2a11211100f0e0d0c0bb4b3b2b1c4c3c2c1d4d3d2d1"
    "2019181716151413e4e3e2e12827262524232221383736353433323148474645"
    "4443424158575655545352516867666564636261f4f3f2f101b3ffffffffffff"
    "ff7877767574737271786858483828180879695949392919093a2a1a0aea75df"
    "76";

TEST(WireGolden, ControlTpdu) {
  EXPECT_EQ(hex(control().encode()), kControl);
  for (const TpduType type : transport::kControlTpduTypes) {
    auto c = control();
    c.type = type;
    EXPECT_EQ(hex(c.encode()), retagged(kControl, wire_enum(type))) << int(wire_enum(type));
  }
}

TEST(WireGolden, AckNakFeedbackTpdu) {
  EXPECT_EQ(hex(ack().encode()),
            "1108070605040302011413121124232221fd60549e");
  EXPECT_EQ(hex(nak().encode()),
            "1208070605040302010300000014131211242322213433323135f1554c");
  EXPECT_EQ(hex(feedback().encode()),
            "1308070605040302011413121124232221343332310159330dc7");
}

TEST(WireGolden, DataTpduHeader) {
  net::Packet pkt;
  data().encode_onto(pkt);
  EXPECT_EQ(hex(std::span<const std::uint8_t>(pkt.payload)),
            "1008070605040302011413121124232221383736353433323102010302014847"
            "4645444342415857565554535251050000000ff8f92d1a633346");
}

TEST(WireGolden, HeartbeatTpdu) {
  EXPECT_EQ(hex(heartbeat().encode()),
            "1604030201141312112423222102000000383736353433323103020000004847"
            "4645444342410100000002000000030000000058575655545352510400000005"
            "00000006000000010200000068676665646362617877767574737271ef6465d7");
}

TEST(WireGolden, Opdu) {
  EXPECT_EQ(hex(opdu().encode()), kOpdu);
  for (const OpduType type : orch::kOpduTypes) {
    auto o = opdu();
    o.type = type;
    EXPECT_EQ(hex(o.encode()), retagged(kOpdu, wire_enum(type))) << int(wire_enum(type));
  }
}

TEST(WireGolden, RpcMsg) {
  EXPECT_EQ(hex(rpc().encode()),
            "020807060504030201141312110306000000747261646572060000006c6f6f6b"
            "757004000000deadbeef5ec9213b");
}

}  // namespace
}  // namespace cmtos
