// Unit tests for QoS parameters, tolerance negotiation helpers and TPDU
// wire formats.

#include <gtest/gtest.h>

#include "transport/qos.h"
#include "transport/tpdu.h"

namespace cmtos::transport {
namespace {

QosParams params(double rate, std::int64_t size) {
  QosParams p;
  p.osdu_rate = rate;
  p.max_osdu_bytes = size;
  return p;
}

TEST(Qos, RequiredBpsScalesWithRateAndSize) {
  const auto p1 = params(25, 4096);
  const auto p2 = params(50, 4096);
  const auto p3 = params(25, 8192);
  EXPECT_NEAR(static_cast<double>(p2.required_bps()),
              2.0 * static_cast<double>(p1.required_bps()),
              static_cast<double>(p1.required_bps()) * 0.01);
  EXPECT_GT(p3.required_bps(), p1.required_bps());
  // Overhead: more than raw payload bits.
  EXPECT_GT(p1.required_bps(), static_cast<std::int64_t>(25 * 4096 * 8));
}

TEST(Qos, RequiredBpsChargesPerFragment) {
  // 1400-byte payload fits one fragment; 1401 needs two, so overhead jumps.
  const auto one = params(100, 1400);
  const auto two = params(100, 1401);
  EXPECT_GT(two.required_bps() - one.required_bps(), 100 * 8 * 90);  // ~ header bytes * rate
}

TEST(Qos, AcceptableChecksEveryAxisDirectionally) {
  QosTolerance tol;
  tol.preferred = params(25, 4096);
  tol.worst = params(10, 2048);
  tol.worst.end_to_end_delay = 500 * kMillisecond;
  tol.worst.delay_jitter = 100 * kMillisecond;
  tol.worst.packet_error_rate = 0.1;
  tol.worst.bit_error_rate = 1e-4;

  QosParams offer = params(15, 3000);
  offer.end_to_end_delay = 300 * kMillisecond;
  offer.delay_jitter = 50 * kMillisecond;
  offer.packet_error_rate = 0.05;
  offer.bit_error_rate = 1e-5;
  EXPECT_TRUE(tol.acceptable(offer));

  auto low_rate = offer;
  low_rate.osdu_rate = 5;
  EXPECT_FALSE(tol.acceptable(low_rate));
  auto small_osdu = offer;
  small_osdu.max_osdu_bytes = 100;
  EXPECT_FALSE(tol.acceptable(small_osdu));
  auto slow = offer;
  slow.end_to_end_delay = kSecond;
  EXPECT_FALSE(tol.acceptable(slow));
  auto jittery = offer;
  jittery.delay_jitter = 200 * kMillisecond;
  EXPECT_FALSE(tol.acceptable(jittery));
  auto lossy = offer;
  lossy.packet_error_rate = 0.5;
  EXPECT_FALSE(tol.acceptable(lossy));
  auto noisy = offer;
  noisy.bit_error_rate = 1e-2;
  EXPECT_FALSE(tol.acceptable(noisy));
}

TEST(Qos, DegradePrefersPreferredWhenItFits) {
  QosTolerance tol;
  tol.preferred = params(25, 4096);
  tol.worst = params(5, 4096);
  const auto got = degrade_to_bandwidth(tol, tol.preferred.required_bps() + 1000);
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->osdu_rate, 25);
}

TEST(Qos, DegradeScalesRateDownWithinTolerance) {
  QosTolerance tol;
  tol.preferred = params(25, 4096);
  tol.worst = params(5, 4096);
  const auto half = degrade_to_bandwidth(tol, tol.preferred.required_bps() / 2);
  ASSERT_TRUE(half.has_value());
  EXPECT_LT(half->osdu_rate, 25);
  EXPECT_GE(half->osdu_rate, 5);
  EXPECT_LE(half->required_bps(), tol.preferred.required_bps() / 2);
}

TEST(Qos, DegradeFailsBelowWorst) {
  QosTolerance tol;
  tol.preferred = params(25, 4096);
  tol.worst = params(20, 4096);
  EXPECT_FALSE(degrade_to_bandwidth(tol, tol.preferred.required_bps() / 10).has_value());
}

TEST(Qos, ViolationToString) {
  QosViolation v;
  EXPECT_FALSE(v.any());
  EXPECT_EQ(v.to_string(), "");
  v.throughput = true;
  v.jitter = true;
  EXPECT_TRUE(v.any());
  EXPECT_EQ(v.to_string(), "throughput jitter");
}

// --- TPDU wire formats ---

TEST(Tpdu, ControlRoundTrip) {
  ControlTpdu t;
  t.type = TpduType::kCR;
  t.vc = 0x1122334455667788ull;
  t.initiator = {3, 42};
  t.src = {1, 7};
  t.dst = {2, 9};
  t.service_class = {ProtocolProfile::kWindowBased, ErrorControl::kCorrectAndIndicate};
  t.qos.preferred = params(30, 9000);
  t.qos.worst = params(10, 1000);
  t.agreed = params(20, 5000);
  t.sample_period = 250 * kMillisecond;
  t.buffer_osdus = 32;
  t.reason = DisconnectReason::kQosUnachievable;
  t.accepted = 1;

  const auto wire = t.encode();
  const auto back = ControlTpdu::decode(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, t.type);
  EXPECT_EQ(back->vc, t.vc);
  EXPECT_EQ(back->initiator, t.initiator);
  EXPECT_EQ(back->src, t.src);
  EXPECT_EQ(back->dst, t.dst);
  EXPECT_EQ(back->service_class.profile, t.service_class.profile);
  EXPECT_EQ(back->service_class.error_control, t.service_class.error_control);
  EXPECT_DOUBLE_EQ(back->qos.preferred.osdu_rate, 30);
  EXPECT_EQ(back->qos.worst.max_osdu_bytes, 1000);
  EXPECT_DOUBLE_EQ(back->agreed.osdu_rate, 20);
  EXPECT_EQ(back->sample_period, t.sample_period);
  EXPECT_EQ(back->buffer_osdus, 32u);
  EXPECT_EQ(back->reason, DisconnectReason::kQosUnachievable);
  EXPECT_EQ(back->accepted, 1);
}

TEST(Tpdu, DataRoundTripWithCrc) {
  DataTpdu dt;
  dt.vc = 99;
  dt.tpdu_seq = 1234;
  dt.osdu_seq = 55;
  dt.event = 0xfeedface;
  dt.frag_index = 2;
  dt.frag_count = 5;
  dt.src_timestamp = 123456789;
  dt.true_submit = 111;
  dt.payload = PayloadView::adopt({1, 2, 3, 4, 5});

  net::Packet pkt;
  dt.encode_onto(pkt);
  const auto back = DataTpdu::decode_packet(pkt);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->vc, 99u);
  EXPECT_EQ(back->tpdu_seq, 1234u);
  EXPECT_EQ(back->osdu_seq, 55u);
  EXPECT_EQ(back->event, 0xfeedfaceull);
  EXPECT_EQ(back->frag_index, 2);
  EXPECT_EQ(back->frag_count, 5);
  EXPECT_EQ(back->src_timestamp, 123456789);
  EXPECT_EQ(back->true_submit, 111);
  EXPECT_EQ(back->payload, dt.payload);
}

TEST(Tpdu, DataCrcDetectsCorruption) {
  DataTpdu dt;
  dt.vc = 1;
  dt.payload = PayloadView::adopt({9, 9, 9});
  net::Packet pkt;
  dt.encode_onto(pkt);
  pkt.payload[pkt.payload.size() / 2] ^= 0x01;
  WireFault fault = WireFault::kNone;
  EXPECT_FALSE(DataTpdu::decode_packet(pkt, &fault).has_value());
  EXPECT_EQ(fault, WireFault::kChecksum);
}

TEST(Tpdu, DecodeFaultTaxonomyOnTruncation) {
  DataTpdu dt;
  dt.vc = 1;
  dt.payload = PayloadView::adopt({1});
  net::Packet pkt;
  dt.encode_onto(pkt);
  EXPECT_TRUE(DataTpdu::decode_packet(pkt).has_value());
  WireFault fault = WireFault::kNone;
  pkt.payload.resize(pkt.payload.size() / 2);
  EXPECT_FALSE(DataTpdu::decode_packet(pkt, &fault).has_value());
  EXPECT_NE(fault, WireFault::kNone);
}

TEST(Tpdu, PacketSplitRoundTripIsZeroCopy) {
  DataTpdu dt;
  dt.vc = 7;
  dt.tpdu_seq = 42;
  dt.osdu_seq = 9;
  dt.frag_index = 1;
  dt.frag_count = 3;
  dt.payload = PayloadView::adopt({10, 20, 30, 40});

  net::Packet pkt;
  dt.encode_onto(pkt);
  // The header carries the fields and CRCs; the fragment rides detached.
  EXPECT_EQ(pkt.payload.size(), kDtPacketHeaderBytes);
  EXPECT_EQ(pkt.frame.size(), dt.payload.size());

  const auto back = DataTpdu::decode_packet(pkt);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->vc, 7u);
  EXPECT_EQ(back->tpdu_seq, 42u);
  EXPECT_EQ(back->osdu_seq, 9u);
  EXPECT_EQ(back->frag_index, 1);
  EXPECT_EQ(back->frag_count, 3);
  EXPECT_EQ(back->payload, dt.payload);
  // Zero copy: the decoded payload aliases the very bytes the source wrote.
  EXPECT_EQ(back->payload.data(), dt.payload.data());
}

TEST(Tpdu, PacketSplitDecodeRejectsDamage) {
  DataTpdu dt;
  dt.vc = 7;
  dt.payload = PayloadView::adopt({1, 2, 3});
  net::Packet pkt;
  dt.encode_onto(pkt);

  // Links flip real wire bytes now; damage is caught by the header CRC.
  net::Packet header_damage = pkt;
  header_damage.payload[3] ^= 0x01;
  WireFault fault = WireFault::kNone;
  EXPECT_FALSE(DataTpdu::decode_packet(header_damage, &fault).has_value());
  EXPECT_EQ(fault, WireFault::kChecksum);

  net::Packet length_mismatch = pkt;
  length_mismatch.frame = dt.payload.subview(0, 2);
  fault = WireFault::kNone;
  EXPECT_FALSE(DataTpdu::decode_packet(length_mismatch, &fault).has_value());
  EXPECT_EQ(fault, WireFault::kBadLength);
}

TEST(Tpdu, AckNakFeedbackRoundTrip) {
  AckTpdu ack{.vc = 5, .cumulative_ack = 100, .window = 16};
  const auto a = AckTpdu::decode(ack.encode());
  ASSERT_TRUE(a);
  EXPECT_EQ(a->cumulative_ack, 100u);
  EXPECT_EQ(a->window, 16u);

  NakTpdu nak;
  nak.vc = 5;
  nak.missing = {3, 7, 11};
  const auto n = NakTpdu::decode(nak.encode());
  ASSERT_TRUE(n);
  EXPECT_EQ(n->missing, nak.missing);

  FeedbackTpdu fb{.vc = 5, .free_slots = 3, .capacity = 16, .highest_osdu = 42, .paused = 1};
  const auto f = FeedbackTpdu::decode(fb.encode());
  ASSERT_TRUE(f);
  EXPECT_EQ(f->free_slots, 3u);
  EXPECT_EQ(f->capacity, 16u);
  EXPECT_EQ(f->highest_osdu, 42u);
  EXPECT_EQ(f->paused, 1);
}

// The encoders reserve their output once: the DT header from its constant,
// the table-driven TPDUs from the size their table gives.  A size that
// disagrees with what the writer emits fails here, as does a second
// allocation (capacity beyond the image).
TEST(Tpdu, ReservedSizesMatchWhatTheWritersEmit) {
  DataTpdu dt;
  dt.payload = PayloadView::adopt({1, 2, 3});
  net::Packet pkt;
  dt.encode_onto(pkt);
  EXPECT_EQ(pkt.payload.size(), kDtPacketHeaderBytes);
  const auto exact = [](const auto& pdu) {
    const auto image = pdu.encode();
    EXPECT_EQ(image.size(), wire::encoded_size(pdu));
    EXPECT_EQ(image.capacity(), image.size());
  };
  exact(FeedbackTpdu{});
  exact(ControlTpdu{});
  exact(NakTpdu{.vc = 5, .missing = {1, 2, 3}});
}

TEST(Tpdu, PeekTypeAndVc) {
  DataTpdu dt;
  dt.vc = 0xabcd;
  dt.payload = PayloadView::adopt({1});
  net::Packet pkt;
  dt.encode_onto(pkt);
  EXPECT_EQ(peek_type(pkt.payload), TpduType::kDT);
  EXPECT_EQ(peek_vc(pkt.payload), 0xabcdu);
  EXPECT_FALSE(peek_type({}).has_value());
}

TEST(Tpdu, MalformedInputRejected) {
  std::vector<std::uint8_t> junk{1, 2, 3};
  net::Packet junk_dt;
  junk_dt.payload = junk;
  EXPECT_FALSE(ControlTpdu::decode(junk).has_value());
  EXPECT_FALSE(DataTpdu::decode_packet(junk_dt).has_value());
  EXPECT_FALSE(AckTpdu::decode(junk).has_value());
  EXPECT_FALSE(NakTpdu::decode(junk).has_value());
  EXPECT_FALSE(FeedbackTpdu::decode(junk).has_value());
}

}  // namespace
}  // namespace cmtos::transport
