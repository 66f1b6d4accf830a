// Byzantine wire-model regressions (DESIGN.md §14): duplication storms
// against the GBN window profile and the rate profile's reassembly, OSDU
// accounting when checksum failures drop fragments mid-OSDU, and the
// malformed-PDU quarantine escalating to a kPeerMisbehaving teardown.

#include <gtest/gtest.h>

#include <algorithm>

#include "fixtures.h"
#include "obs/metrics.h"
#include "transport/tpdu.h"
#include "util/checksum.h"

namespace cmtos::test {
namespace {

using transport::Connection;
using transport::DisconnectReason;
using transport::ErrorControl;
using transport::Osdu;
using transport::ProtocolProfile;
using transport::VcId;

struct Wire {
  Wire(PairPlatform& w, transport::ConnectRequest req)
      : src_user(w.a->entity), dst_user(w.b->entity) {
    w.a->entity.bind(req.src.tsap, &src_user);
    w.b->entity.bind(req.dst.tsap, &dst_user);
    vc = w.a->entity.t_connect_request(req);
    w.platform.run_until(200 * kMillisecond);
    source = w.a->entity.source(vc);
    sink = w.b->entity.sink(vc);
  }
  ScriptedUser src_user, dst_user;
  VcId vc = transport::kInvalidVc;
  Connection* source = nullptr;
  Connection* sink = nullptr;
};

std::vector<std::uint8_t> payload(std::size_t n, std::uint8_t fill) {
  return std::vector<std::uint8_t>(n, fill);
}

std::vector<Osdu> drain(Connection& sink) {
  std::vector<Osdu> out;
  while (auto o = sink.receive()) out.push_back(std::move(*o));
  return out;
}

// A duplication storm against the window (GBN) profile: every duplicate DT
// is detected by serial arithmetic against the expected sequence, counted,
// and never delivered twice.
TEST(Byzantine, DuplicationStormWindowProfileNoDoubleDelivery) {
  net::LinkConfig noisy = lan_link();
  noisy.dup_rate = 0.4;
  PairPlatform w(noisy, 21);
  auto req = basic_request({w.a->id, 1}, {w.b->id, 2}, 50.0, 1024);
  req.service_class.profile = ProtocolProfile::kWindowBased;
  req.buffer_osdus = 32;
  Wire wire(w, req);
  ASSERT_NE(wire.source, nullptr);

  constexpr int kCount = 100;
  int submitted = 0;
  std::vector<Osdu> got;
  for (int burst = 0; burst < kCount / 10; ++burst) {
    w.platform.run_until(w.platform.scheduler().now() + 200 * kMillisecond);
    for (int i = 0; i < 10; ++i) submitted += wire.source->submit(payload(300, 1));
    for (auto& o : drain(*wire.sink)) got.push_back(std::move(o));
  }
  w.platform.run_until(w.platform.scheduler().now() + 5 * kSecond);
  for (auto& o : drain(*wire.sink)) got.push_back(std::move(o));

  EXPECT_EQ(submitted, kCount);
  EXPECT_EQ(got.size(), static_cast<std::size_t>(kCount));  // never twice
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].seq, static_cast<std::int64_t>(i));
    for (auto b : got[i].data) EXPECT_EQ(b, 1);
  }
  EXPECT_GT(wire.sink->stats().tpdus_dup_dropped, 0);
}

// The same storm against the rate profile: duplicates of completed or
// already-buffered fragments are discarded by the reassembly guards.
TEST(Byzantine, DuplicationStormRateProfileNoDoubleDelivery) {
  net::LinkConfig noisy = lan_link();
  noisy.dup_rate = 0.4;
  PairPlatform w(noisy, 22);
  auto req = basic_request({w.a->id, 1}, {w.b->id, 2}, 50.0, 1024);
  req.buffer_osdus = 32;
  Wire wire(w, req);
  ASSERT_NE(wire.source, nullptr);

  constexpr int kCount = 100;
  int submitted = 0;
  std::vector<Osdu> got;
  for (int burst = 0; burst < kCount / 10; ++burst) {
    w.platform.run_until(w.platform.scheduler().now() + 200 * kMillisecond);
    for (int i = 0; i < 10; ++i) submitted += wire.source->submit(payload(300, 1));
    for (auto& o : drain(*wire.sink)) got.push_back(std::move(o));
  }
  w.platform.run_until(w.platform.scheduler().now() + 5 * kSecond);
  for (auto& o : drain(*wire.sink)) got.push_back(std::move(o));

  EXPECT_EQ(submitted, kCount);
  EXPECT_EQ(got.size(), static_cast<std::size_t>(kCount));
  for (std::size_t i = 1; i < got.size(); ++i) EXPECT_GT(got[i].seq, got[i - 1].seq);
  EXPECT_GT(wire.sink->stats().tpdus_dup_dropped, 0);
}

// Checksum-dropped fragments mid-OSDU: the damaged OSDU is eventually
// skipped (kIndicate never retransmits), its partial frame released, and
// the delivered + skipped accounting covers every submitted OSDU.  Run
// under ASan in CI, a leaked partial would also fail the leak check.
TEST(Byzantine, ChecksumDroppedFragmentAccounting) {
  net::LinkConfig noisy = lan_link();
  noisy.bit_error_rate = 4e-5;
  PairPlatform w(noisy, 23);
  auto req = basic_request({w.a->id, 1}, {w.b->id, 2}, 25.0, 4096);
  req.service_class.error_control = ErrorControl::kIndicate;
  req.buffer_osdus = 32;
  Wire wire(w, req);
  ASSERT_NE(wire.source, nullptr);

  constexpr int kCount = 120;
  int submitted = 0;
  std::vector<Osdu> got;
  for (int burst = 0; burst < kCount / 10; ++burst) {
    w.platform.run_until(w.platform.scheduler().now() + 400 * kMillisecond);
    // 3000-byte OSDUs split into 3 fragments: a single checksum-dropped
    // fragment strands the other two in the reassembly buffer.
    for (int i = 0; i < 10; ++i) submitted += wire.source->submit(payload(3000, 5));
    for (auto& o : drain(*wire.sink)) got.push_back(std::move(o));
  }
  w.platform.run_until(w.platform.scheduler().now() + 10 * kSecond);
  for (auto& o : drain(*wire.sink)) got.push_back(std::move(o));

  EXPECT_EQ(submitted, kCount);
  const auto& st = wire.sink->stats();
  EXPECT_GT(st.tpdus_corrupt, 0);  // the storm actually hit fragments
  EXPECT_GT(st.osdus_skipped, 0);  // damaged OSDUs were given up on
  // Conservation: every OSDU the sink accounted for was either delivered
  // whole or skipped — nothing delivered twice, nothing silently lost.
  // Damaged OSDUs at the very tail of the stream may still sit in
  // reassembly when the run ends (a hole is only given up on when later
  // data needs to get past it), so allow that bounded straggler window.
  EXPECT_LE(st.osdus_delivered + st.osdus_skipped, static_cast<std::int64_t>(kCount));
  EXPECT_GE(st.osdus_delivered + st.osdus_skipped, static_cast<std::int64_t>(kCount) - 8);
  EXPECT_EQ(got.size(), static_cast<std::size_t>(st.osdus_delivered));
  for (const auto& o : got)
    for (auto b : o.data) EXPECT_EQ(b, 5);  // delivered bytes always intact
}

// A CRC-valid DT naming a fragment no OSDU can have (frag_count 0) is
// refused at decode.  Accepted, it left a reassembly slot that can never
// complete inside a deliberate source-drop gap, and the OSDUs after the gap
// waited for the hole timeout instead of being delivered at once.
TEST(Byzantine, ImpossibleFragmentFieldsAreRefusedAtDecode) {
  PairPlatform w;
  auto req = basic_request({w.a->id, 1}, {w.b->id, 2}, 50.0, 1024);
  req.buffer_osdus = 16;
  Wire wire(w, req);
  ASSERT_NE(wire.source, nullptr);
  auto& bad_type = obs::Registry::global().counter("wire.decode_failed",
                                                   {{"pdu", "dt"}, {"reason", "bad_type"}});
  const auto refused_before = bad_type.value();

  // Seqs 0-5 queue at the source, one every 20 ms; the three newest (3-5)
  // never leave it.
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(wire.source->submit(payload(200, 3)));
  ASSERT_EQ(wire.source->drop_at_source(3), 3u);
  const Time t0 = w.platform.scheduler().now();
  w.platform.run_until(t0 + 30 * kMillisecond);  // OSDUs 0 and 1 are in
  // A stale TPDU seq, so only the fragment fields are out of line.
  inject_dt(w, wire.vc, /*tpdu_seq=*/0, /*osdu_seq=*/4, /*frag_index=*/0, /*frag_count=*/0);
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(wire.source->submit(payload(200, 3)));  // 6, 7

  // OSDU 7 is in by t0 + 81 ms.  Behind a never-completing slot at 4, OSDU
  // 6 would wait for the 100 ms hole timeout (twice the 50 ms jitter).
  w.platform.run_until(t0 + 120 * kMillisecond);
  const auto got = drain(*wire.sink);
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[3].seq, 6u);
  EXPECT_EQ(got[4].seq, 7u);
  EXPECT_EQ(wire.sink->stats().osdus_skipped, 3);
  EXPECT_EQ(bad_type.value() - refused_before, 1);
}

// Sixteen CRC-valid but structurally-invalid control TPDUs from one peer
// escalate the quarantine: the victim tears down that peer's VCs with
// kPeerMisbehaving and drops its traffic pre-decode from then on.
TEST(Byzantine, QuarantineEscalatesToPeerMisbehavingTeardown) {
  PairPlatform w;
  auto req = basic_request({w.a->id, 1}, {w.b->id, 2}, 25.0, 1024);
  Wire wire(w, req);
  ASSERT_NE(wire.source, nullptr);
  ASSERT_TRUE(wire.src_user.disconnects.empty());

  // Structural garbage with a valid CRC trailer: an unknown type tag.
  // Checksum-valid refusals are the only ones that count against a peer.
  auto garbage = [&](std::uint8_t tag) {
    net::Packet pkt;
    pkt.src = w.b->id;
    pkt.dst = w.a->id;
    pkt.proto = net::Proto::kTransportControl;
    pkt.priority = net::Priority::kControl;
    std::vector<std::uint8_t> body{tag, 0xde, 0xad, 0xbe, 0xef};
    append_crc32(body);
    pkt.payload = std::move(body);
    return pkt;
  };
  for (int i = 0; i < 20; ++i) w.platform.network().send(garbage(99));
  w.platform.run_until(w.platform.scheduler().now() + kSecond);

  // Escalation fired exactly once despite 20 offences (drop-pre-decode
  // afterwards), and the source-side VC heard kPeerMisbehaving.
  const auto quarantined =
      obs::Registry::global()
          .counter("wire.peer_quarantined", {{"node", std::to_string(w.a->id)}})
          .value();
  EXPECT_EQ(quarantined, 1);
  ASSERT_FALSE(wire.src_user.disconnects.empty());
  EXPECT_EQ(wire.src_user.disconnects[0].first, wire.vc);
  EXPECT_EQ(wire.src_user.disconnects[0].second, DisconnectReason::kPeerMisbehaving);
  EXPECT_EQ(w.a->entity.source(wire.vc), nullptr);  // endpoint truly gone
}

// Below the escalation threshold nothing is torn down: a handful of
// malformed PDUs only warns.
TEST(Byzantine, FewMalformedPdusDoNotEscalate) {
  PairPlatform w;
  auto req = basic_request({w.a->id, 1}, {w.b->id, 2}, 25.0, 1024);
  Wire wire(w, req);
  ASSERT_NE(wire.source, nullptr);

  auto garbage = [&] {
    net::Packet pkt;
    pkt.src = w.b->id;
    pkt.dst = w.a->id;
    pkt.proto = net::Proto::kTransportControl;
    pkt.priority = net::Priority::kControl;
    std::vector<std::uint8_t> body{99, 1, 2, 3};
    append_crc32(body);
    pkt.payload = std::move(body);
    return pkt;
  };
  for (int i = 0; i < 5; ++i) w.platform.network().send(garbage());
  w.platform.run_until(w.platform.scheduler().now() + kSecond);

  EXPECT_TRUE(wire.src_user.disconnects.empty());
  EXPECT_NE(w.a->entity.source(wire.vc), nullptr);
}

// Checksum failures are line noise, not peer misbehaviour: even a flood of
// them never quarantines anybody.
TEST(Byzantine, ChecksumFailuresNeverQuarantine) {
  PairPlatform w;
  auto req = basic_request({w.a->id, 1}, {w.b->id, 2}, 25.0, 1024);
  Wire wire(w, req);
  ASSERT_NE(wire.source, nullptr);

  auto bad_crc = [&] {
    net::Packet pkt;
    pkt.src = w.b->id;
    pkt.dst = w.a->id;
    pkt.proto = net::Proto::kTransportControl;
    pkt.priority = net::Priority::kControl;
    pkt.payload = {99, 1, 2, 3, 0, 0, 0, 0};  // trailer never matches
    return pkt;
  };
  for (int i = 0; i < 64; ++i) w.platform.network().send(bad_crc());
  w.platform.run_until(w.platform.scheduler().now() + kSecond);

  EXPECT_TRUE(wire.src_user.disconnects.empty());
  EXPECT_NE(w.a->entity.source(wire.vc), nullptr);
  EXPECT_GT(obs::Registry::global()
                .counter("wire.checksum_failed", {{"pdu", "control"}})
                .value(),
            0);
}

// One flipped bit in any 16-byte lane of a full-size fragment — each lane
// is one folding step of the CRC kernel — must be refused on the real
// packet path as a checksum fault, never accepted or misclassified.
TEST(Byzantine, SingleBitFlipInEveryFrameLaneIsRefused) {
  constexpr std::size_t kFragment = 1400;
  std::vector<std::uint8_t> bytes(kFragment);
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<std::uint8_t>(i * 7 + 3);

  transport::DataTpdu dt;
  dt.vc = 42;
  dt.tpdu_seq = 9;
  dt.osdu_seq = 3;
  dt.frag_count = 47;
  dt.payload = PayloadView::adopt(std::vector<std::uint8_t>(bytes));
  net::Packet good;
  dt.encode_onto(good);
  ASSERT_TRUE(transport::DataTpdu::decode_packet(good).has_value());

  for (std::size_t lane = 0; lane * 16 < kFragment; ++lane) {
    auto damaged = bytes;
    const std::size_t at = std::min(lane * 16 + lane % 16, kFragment - 1);
    damaged[at] ^= static_cast<std::uint8_t>(1u << (lane % 8));
    net::Packet pkt;
    pkt.payload = good.payload;
    pkt.frame = PayloadView::adopt(std::move(damaged));
    WireFault fault = WireFault::kNone;
    EXPECT_FALSE(transport::DataTpdu::decode_packet(pkt, &fault).has_value())
        << "flip at byte " << at << " accepted";
    EXPECT_EQ(fault, WireFault::kChecksum) << "flip at byte " << at;
  }
}

// The DT header lives in the packet's inline byte area; the link's bit
// flips and truncations must reach those bytes exactly as they reach a
// heap-held control PDU, and the receiver must refuse every damaged one.
struct DtLink {
  explicit DtLink(const net::LinkConfig& cfg) {
    a = net.add_node("a");
    b = net.add_node("b");
    net.add_link(a, b, cfg);
    net.finalize_routes();
    net.node(b).set_handler(net::Proto::kTransportData,
                            [this](net::Packet&& p) { got.push_back(std::move(p)); });
  }
  net::Packet packet(std::uint32_t seq, std::size_t frame_bytes) const {
    transport::DataTpdu dt;
    dt.vc = 42;
    dt.tpdu_seq = seq;
    dt.osdu_seq = seq;
    dt.payload = PayloadView::adopt(std::vector<std::uint8_t>(frame_bytes, 0x5a));
    net::Packet pkt;
    pkt.src = a;
    pkt.dst = b;
    dt.encode_onto(pkt);
    return pkt;
  }
  sim::Scheduler sched;
  net::Network net{sched, Rng(5)};
  net::NodeId a = net::kInvalidNode, b = net::kInvalidNode;
  std::vector<net::Packet> got;
};

TEST(Byzantine, BitFlipsInAnInlineDtHeaderAreRefused) {
  net::LinkConfig cfg;
  cfg.bit_error_rate = 2e-3;  // a 90-byte wire image: about 3 in 4 packets damaged
  cfg.queue_limit_packets = 1000;
  DtLink w(cfg);
  // No frame: every flip lands in the 58 header bytes.
  for (std::uint32_t i = 0; i < 400; ++i) w.net.send(w.packet(i, 0));
  w.sched.run();
  ASSERT_EQ(w.got.size(), 400u);
  std::int64_t refused = 0;
  for (const auto& p : w.got) {
    ASSERT_EQ(p.payload.size(), transport::kDtPacketHeaderBytes);
    WireFault fault = WireFault::kNone;
    if (!transport::DataTpdu::decode_packet(p, &fault)) {
      EXPECT_EQ(fault, WireFault::kChecksum);
      ++refused;
    }
  }
  EXPECT_GT(refused, 0);
  EXPECT_EQ(refused, w.net.link(w.a, w.b)->stats().corrupted);
}

TEST(Byzantine, TruncatedInlineDtHeaderOrFrameIsRefused) {
  net::LinkConfig cfg;
  cfg.truncate_rate = 1.0;
  cfg.queue_limit_packets = 1000;
  DtLink w(cfg);
  for (std::uint32_t i = 0; i < 400; ++i) w.net.send(w.packet(i, 100));
  w.sched.run();
  ASSERT_EQ(w.got.size(), 400u);
  int header_cuts = 0, frame_cuts = 0;
  for (const auto& p : w.got) {
    WireFault fault = WireFault::kNone;
    EXPECT_FALSE(transport::DataTpdu::decode_packet(p, &fault).has_value());
    if (p.payload.size() < transport::kDtPacketHeaderBytes) {
      // Cut inside the header: the header CRC no longer matches.
      EXPECT_EQ(fault, WireFault::kChecksum);
      ++header_cuts;
    } else {
      // Header intact, frame shorter than its length field says.
      EXPECT_EQ(fault, WireFault::kBadLength);
      ++frame_cuts;
    }
  }
  EXPECT_GT(header_cuts, 0);
  EXPECT_GT(frame_cuts, 0);
}

TEST(Byzantine, DuplicatedDtHeaderIsIndependentOfTheOriginal) {
  net::LinkConfig cfg;
  cfg.dup_rate = 1.0;
  DtLink w(cfg);
  w.net.send(w.packet(7, 100));
  w.sched.run();
  ASSERT_EQ(w.got.size(), 2u);
  // Flip one header byte of each copy in turn: the other still decodes.
  for (std::size_t damaged : {0u, 1u}) {
    net::Packet& hit = w.got[damaged];
    hit.payload[5] ^= 0x10;
    WireFault fault = WireFault::kNone;
    EXPECT_FALSE(transport::DataTpdu::decode_packet(hit, &fault).has_value());
    EXPECT_EQ(fault, WireFault::kChecksum);
    const auto other = transport::DataTpdu::decode_packet(w.got[1 - damaged]);
    ASSERT_TRUE(other.has_value());
    EXPECT_EQ(other->tpdu_seq, 7u);
    hit.payload[5] ^= 0x10;  // mend it before damaging the other copy
  }
}

}  // namespace
}  // namespace cmtos::test
