// Data-plane tests: OSDU boundary preservation, segmentation/reassembly,
// rate-based flow control, the window-based baseline, error-control
// classes, drop-at-source and delivery gating.

#include <gtest/gtest.h>

#include <set>

#include "fixtures.h"
#include "transport/tpdu.h"
#include "util/frame_pool.h"

namespace cmtos::test {
namespace {

using transport::Connection;
using transport::ErrorControl;
using transport::Osdu;
using transport::ProtocolProfile;
using transport::VcId;

/// Opens a VC between two bound ScriptedUsers and returns (source, sink).
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

/// Drains every deliverable OSDU from the sink.
std::vector<Osdu> drain(Connection& sink) {
  std::vector<Osdu> out;
  while (auto o = sink.receive()) out.push_back(std::move(*o));
  return out;
}

TEST(DataTransfer, SmallOsdusArriveInOrderWithBoundaries) {
  PairPlatform w;
  Wire wire(w, basic_request({w.a->id, 1}, {w.b->id, 2}, 100.0, 1024));
  ASSERT_NE(wire.source, nullptr);
  ASSERT_NE(wire.sink, nullptr);

  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(wire.source->submit(payload(100 + static_cast<std::size_t>(i), 7)));
  w.platform.run_until(2 * kSecond);

  const auto got = drain(*wire.sink);
  ASSERT_EQ(got.size(), 10u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].seq, i);
    EXPECT_EQ(got[i].data.size(), 100 + i);  // boundary preserved exactly
    EXPECT_EQ(got[i].data[0], 7);
  }
}

TEST(DataTransfer, LargeOsduIsFragmentedAndReassembled) {
  PairPlatform w;
  Wire wire(w, basic_request({w.a->id, 1}, {w.b->id, 2}, 10.0, 64 * 1024));
  ASSERT_NE(wire.source, nullptr);

  // 10,000 bytes: 8 fragments at 1400 B MTU payload.
  std::vector<std::uint8_t> big(10000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 31);
  auto copy = big;
  ASSERT_TRUE(wire.source->submit(std::move(copy)));
  w.platform.run_until(2 * kSecond);

  const auto got = drain(*wire.sink);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].data, big);  // byte-exact across fragmentation
  EXPECT_GE(wire.source->stats().tpdus_sent, 8);

  // Fragments that arrive in distinct frames (each re-wrapped on receipt)
  // cannot be re-joined by index arithmetic: reassembly gathers them with
  // one pool-backed copy, counted in the pool stats.
  net::Node& node_b = w.platform.network().node(w.b->id);
  net::Node::Handler data = node_b.handler(net::Proto::kTransportData);
  node_b.set_handler(net::Proto::kTransportData, [data](net::Packet&& pkt) {
    pkt.frame = PayloadView::adopt(pkt.frame.to_vector());
    data(std::move(pkt));
  });
  const auto before = FramePool::global().stats();
  copy = big;
  ASSERT_TRUE(wire.source->submit(std::move(copy)));
  w.platform.run_until(4 * kSecond);
  const auto regathered = drain(*wire.sink);
  ASSERT_EQ(regathered.size(), 1u);
  EXPECT_EQ(regathered[0].data, big);
  const auto after = FramePool::global().stats();
  EXPECT_EQ(after.copies - before.copies, 1);
  EXPECT_EQ(after.copied_bytes - before.copied_bytes, 10000);
}

TEST(DataTransfer, EmptyOsduIsLegal) {
  PairPlatform w;
  Wire wire(w, basic_request({w.a->id, 1}, {w.b->id, 2}, 10.0, 1024));
  ASSERT_TRUE(wire.source->submit(std::vector<std::uint8_t>{}));
  ASSERT_TRUE(wire.source->submit(payload(5, 9)));
  w.platform.run_until(kSecond);
  const auto got = drain(*wire.sink);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(got[0].data.empty());
  EXPECT_EQ(got[1].data.size(), 5u);
}

TEST(DataTransfer, EventFieldRidesWithOsdu) {
  PairPlatform w;
  Wire wire(w, basic_request({w.a->id, 1}, {w.b->id, 2}, 10.0, 1024));
  ASSERT_TRUE(wire.source->submit(payload(10, 1), 0xc0ffee));
  w.platform.run_until(kSecond);
  const auto got = drain(*wire.sink);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].event, 0xc0ffeeu);
}

TEST(DataTransfer, RatePacingSpreadsTransmissions) {
  // At 10 OSDU/s the source must not burst everything instantly.
  PairPlatform w;
  Wire wire(w, basic_request({w.a->id, 1}, {w.b->id, 2}, 10.0, 1024));
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(wire.source->submit(payload(1000, 1)));
  w.platform.run_until(150 * kMillisecond);
  // ~10/s * 0.15s => only 1-3 delivered so far, not all 8.
  EXPECT_LE(wire.sink->stats().osdus_completed, 4);
  w.platform.run_until(2 * kSecond);
  EXPECT_EQ(wire.sink->stats().osdus_completed, 8);
}

TEST(DataTransfer, SlowConsumerBackpressuresProducer) {
  auto req = basic_request({0, 1}, {1, 2}, 200.0, 1024);
  req.buffer_osdus = 4;
  PairPlatform w;
  req.src.node = w.a->id;
  req.dst.node = w.b->id;
  Wire wire(w, req);

  // Producer floods continuously; consumer never reads.  The pipeline
  // (send ring + in-flight + receive ring) is finite, so acceptance must
  // saturate well below the offered load.
  int accepted = 0;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 10; ++i) accepted += wire.source->submit(payload(500, 2));
    w.platform.run_until(w.platform.scheduler().now() + 50 * kMillisecond);
  }
  EXPECT_LT(accepted, 200);  // 1000 offered; backpressure bit hard
  // After saturation, submissions are refused outright.
  w.platform.run_until(w.platform.scheduler().now() + kSecond);
  int accepted_late = 0;
  for (int i = 0; i < 10; ++i) accepted_late += wire.source->submit(payload(500, 2));
  EXPECT_EQ(accepted_late, 0);
  // Nothing was lost: everything accepted is buffered or delivered, and
  // the consumer can still read it all out.
  EXPECT_EQ(wire.sink->stats().tpdus_lost, 0);
  int drained = 0;
  for (int round = 0; round < 80; ++round) {
    drained += static_cast<int>(drain(*wire.sink).size());
    w.platform.run_until(w.platform.scheduler().now() + 100 * kMillisecond);
  }
  EXPECT_EQ(drained, accepted);
}

TEST(DataTransfer, PauseSourceFreezesFlow) {
  PairPlatform w;
  Wire wire(w, basic_request({w.a->id, 1}, {w.b->id, 2}, 100.0, 1024));
  for (int i = 0; i < 50; ++i) (void)wire.source->submit(payload(100, 3));
  w.platform.run_until(100 * kMillisecond);
  wire.source->pause_source(true);
  const auto frozen_at = wire.sink->stats().osdus_completed;
  w.platform.run_until(kSecond);
  // At most one in-flight TPDU lands after the freeze.
  EXPECT_LE(wire.sink->stats().osdus_completed, frozen_at + 1);
  wire.source->pause_source(false);
  w.platform.run_until(3 * kSecond);
  EXPECT_GT(wire.sink->stats().osdus_completed, frozen_at + 10);
}

TEST(DataTransfer, DropAtSourceSkipsNewestAndSinkResyncs) {
  PairPlatform w;
  auto req = basic_request({w.a->id, 1}, {w.b->id, 2}, 50.0, 1024);
  req.buffer_osdus = 16;
  Wire wire(w, req);

  for (int i = 0; i < 10; ++i) ASSERT_TRUE(wire.source->submit(payload(200, 4)));
  // Queue holds several unsent OSDUs; drop 3 of the newest.
  const auto dropped = wire.source->drop_at_source(3);
  EXPECT_EQ(dropped, 3u);
  EXPECT_EQ(wire.source->stats().osdus_dropped_at_source, 3);
  for (int i = 10; i < 14; ++i) ASSERT_TRUE(wire.source->submit(payload(200, 4)));
  w.platform.run_until(3 * kSecond);

  const auto got = drain(*wire.sink);
  // 14 submitted, 3 dropped -> 11 delivered with a seq gap of exactly 3.
  ASSERT_EQ(got.size(), 11u);
  EXPECT_EQ(wire.sink->stats().osdus_skipped, 3);
  std::vector<std::uint32_t> seqs;
  for (const auto& o : got) seqs.push_back(o.seq);
  for (std::size_t i = 1; i < seqs.size(); ++i) EXPECT_GT(seqs[i], seqs[i - 1]);
  EXPECT_EQ(seqs.back(), 13u);
}

TEST(DataTransfer, DeliveryGateHoldsDataAtSink) {
  PairPlatform w;
  Wire wire(w, basic_request({w.a->id, 1}, {w.b->id, 2}, 100.0, 1024));
  wire.sink->set_delivery_enabled(false);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(wire.source->submit(payload(100, 5)));
  w.platform.run_until(kSecond);
  EXPECT_FALSE(wire.sink->receive().has_value());
  EXPECT_GE(wire.sink->stats().osdus_completed, 5);  // arrived, held
  wire.sink->set_delivery_enabled(true);
  EXPECT_EQ(drain(*wire.sink).size(), 5u);
}

TEST(DataTransfer, FlushDiscardsStaleMediaAndResyncs) {
  PairPlatform w;
  auto req = basic_request({w.a->id, 1}, {w.b->id, 2}, 100.0, 1024);
  req.buffer_osdus = 8;
  Wire wire(w, req);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(wire.source->submit(payload(100, 6)));
  w.platform.run_until(kSecond);
  // Stop-seek-restart (§6.2.1): flush both ends, then send new data.
  wire.source->flush();
  wire.sink->flush();
  EXPECT_FALSE(wire.sink->receive().has_value());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(wire.source->submit(payload(100, 9)));
  w.platform.run_until(2 * kSecond);
  const auto got = drain(*wire.sink);
  ASSERT_EQ(got.size(), 3u);
  for (const auto& o : got) EXPECT_EQ(o.data[0], 9);  // no stale bytes
}

// After a sink flush the first OSDU reassembled becomes the new base: a
// fragment stranded below it is released, never delivered, and its late
// sibling is a duplicate.
TEST(DataTransfer, FlushResyncsAtTheFirstReassembledOsdu) {
  PairPlatform w;
  Wire wire(w, basic_request({w.a->id, 1}, {w.b->id, 2}, 50.0, 4096));
  ASSERT_NE(wire.sink, nullptr);
  wire.sink->flush();
  inject_dt(w, wire.vc, 100, 40, 0, 2);  // OSDU 40, first of two fragments
  inject_dt(w, wire.vc, 101, 41, 0, 1);  // OSDU 41, whole
  const auto got = drain(*wire.sink);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].seq, 41u);
  EXPECT_EQ(wire.sink->stats().tpdus_dup_dropped, 0);

  inject_dt(w, wire.vc, 102, 40, 1, 2);  // OSDU 40's second fragment, late
  w.platform.run_until(w.platform.scheduler().now() + kSecond);
  EXPECT_TRUE(drain(*wire.sink).empty());
  EXPECT_EQ(wire.sink->stats().tpdus_dup_dropped, 1);
  EXPECT_EQ(wire.sink->stats().osdus_skipped, 0);  // a resync skips nothing
}

// Without correction a lost fragment is a hole only the timeout clears:
// the OSDU behind it waits out max(50 ms, 2 x jitter), is delivered once,
// and the lost fragment turning up late is a duplicate.
TEST(ErrorControl, LostFragmentIsSkippedAfterTheHoleTimeout) {
  PairPlatform w;
  auto req = basic_request({w.a->id, 1}, {w.b->id, 2}, 50.0, 4096);
  req.service_class.error_control = ErrorControl::kIndicate;
  Wire wire(w, req);  // 50 ms jitter: a 100 ms hole timeout
  ASSERT_NE(wire.sink, nullptr);
  inject_dt(w, wire.vc, 0, 0, 0, 2);  // OSDU 0 loses its second fragment
  inject_dt(w, wire.vc, 2, 1, 0, 1);  // OSDU 1, whole
  EXPECT_EQ(wire.sink->stats().tpdus_lost, 1);

  const Time t0 = w.platform.scheduler().now();
  w.platform.run_until(t0 + 80 * kMillisecond);
  EXPECT_TRUE(drain(*wire.sink).empty());
  EXPECT_EQ(wire.sink->stats().osdus_skipped, 0);

  w.platform.run_until(t0 + 500 * kMillisecond);
  const auto got = drain(*wire.sink);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].seq, 1u);
  EXPECT_EQ(wire.sink->stats().osdus_skipped, 1);

  inject_dt(w, wire.vc, 1, 0, 1, 2);  // the lost fragment, late
  EXPECT_EQ(wire.sink->stats().tpdus_dup_dropped, 1);
  w.platform.run_until(t0 + kSecond);
  EXPECT_TRUE(drain(*wire.sink).empty());
  EXPECT_EQ(wire.sink->stats().osdus_skipped, 1);
}

TEST(ErrorControl, LossWithoutCorrectionSkipsAndCounts) {
  net::LinkConfig lossy = lan_link();
  lossy.loss_rate = 0.2;
  PairPlatform w(lossy, 7);
  auto req = basic_request({w.a->id, 1}, {w.b->id, 2}, 100.0, 1024);
  req.service_class.error_control = ErrorControl::kIndicate;
  Wire wire(w, req);
  // A lossy link may eat the first CR/CC; handshake retransmission kicks
  // in every transport::kHandshakeRetransmit (plus jitter).
  w.platform.run_until(3 * kSecond);
  wire.source = w.a->entity.source(wire.vc);
  wire.sink = w.b->entity.sink(wire.vc);
  ASSERT_NE(wire.source, nullptr);

  int submitted = 0;
  for (int i = 0; i < 200; ++i) submitted += wire.source->submit(payload(200, 8));
  w.platform.run_until(10 * kSecond);
  const auto got = drain(*wire.sink);
  EXPECT_LT(got.size(), static_cast<std::size_t>(submitted));
  EXPECT_GT(wire.sink->stats().tpdus_lost, 0);
  // Delivered sequence strictly increases (in-order, gaps allowed).
  for (std::size_t i = 1; i < got.size(); ++i) EXPECT_GT(got[i].seq, got[i - 1].seq);
}

TEST(ErrorControl, NakRecoveryDeliversEverythingDespiteLoss) {
  net::LinkConfig lossy = lan_link();
  lossy.loss_rate = 0.1;
  PairPlatform w(lossy, 11);
  auto req = basic_request({w.a->id, 1}, {w.b->id, 2}, 50.0, 1024);
  req.service_class.error_control = ErrorControl::kCorrect;
  req.buffer_osdus = 32;
  Wire wire(w, req);
  ASSERT_NE(wire.source, nullptr);

  constexpr int kCount = 100;
  int submitted = 0;
  // Feed gradually so the send ring never rejects.
  for (int burst = 0; burst < kCount / 10; ++burst) {
    w.platform.run_until(w.platform.scheduler().now() + 200 * kMillisecond);
    for (int i = 0; i < 10; ++i) submitted += wire.source->submit(payload(300, 1));
    (void)drain(*wire.sink);
  }
  w.platform.run_until(w.platform.scheduler().now() + 5 * kSecond);
  (void)drain(*wire.sink);

  EXPECT_EQ(submitted, kCount);
  EXPECT_GT(wire.source->stats().tpdus_retransmitted, 0);
  // With NAK recovery everything (or nearly everything — retries are
  // bounded) arrives.
  EXPECT_GE(wire.sink->stats().osdus_delivered, kCount * 95 / 100);
}

// A correcting VC carrying one-TPDU OSDUs (audio blocks) only learns of a
// lost TPDU when the next one arrives, one OSDU period later; the repair
// then waits up to one more pacer period at the source.  The hole timeout
// must run from when delivery stalls (an OSDU queued behind the hole), not
// from the last in-order delivery, or every such repair arrives after the
// sink has already skipped the hole.
TEST(ErrorControl, NakRepairBeatsHoleTimeoutAtLowOsduRate) {
  PairPlatform w(lan_link(), 3);
  auto req = basic_request({w.a->id, 1}, {w.b->id, 2}, 30.0, 300);
  req.qos.preferred.delay_jitter = 10 * kMillisecond;  // hole timeout 50 ms
  req.service_class.error_control = ErrorControl::kCorrect;
  req.buffer_osdus = 32;
  Wire wire(w, req);
  ASSERT_NE(wire.source, nullptr);

  // Drop the first transmission of five TPDUs spread over the run.
  const std::set<std::uint32_t> victims = {5, 11, 19, 26, 40};
  int dropped = 0;
  net::Node& node_b = w.platform.network().node(w.b->id);
  net::Node::Handler data = node_b.handler(net::Proto::kTransportData);
  node_b.set_handler(net::Proto::kTransportData, [&, data](net::Packet&& pkt) {
    if (auto dt = transport::DataTpdu::decode_packet(pkt)) {
      if ((dt->flags & transport::kDtRetransmission) == 0 && victims.count(dt->tpdu_seq) > 0) {
        ++dropped;
        return;
      }
    }
    data(std::move(pkt));
  });

  // Paced like a live source: one OSDU per 1/30 s.
  int submitted = 0;
  std::size_t delivered = 0;
  for (int i = 0; i < 60; ++i) {
    submitted += wire.source->submit(payload(300, 5));
    w.platform.run_until(w.platform.scheduler().now() + 33 * kMillisecond);
    delivered += drain(*wire.sink).size();
  }
  w.platform.run_until(w.platform.scheduler().now() + kSecond);
  delivered += drain(*wire.sink).size();

  EXPECT_EQ(dropped, 5);
  EXPECT_EQ(wire.source->stats().tpdus_retransmitted, 5);
  EXPECT_EQ(wire.sink->stats().osdus_skipped, 0);
  EXPECT_EQ(delivered, static_cast<std::size_t>(submitted));
}

TEST(ErrorControl, CorruptionDetectedByCrc) {
  net::LinkConfig noisy = lan_link();
  noisy.bit_error_rate = 2e-5;
  PairPlatform w(noisy, 13);
  auto req = basic_request({w.a->id, 1}, {w.b->id, 2}, 100.0, 1024);
  req.service_class.error_control = ErrorControl::kIndicate;
  Wire wire(w, req);

  int submitted = 0;
  for (int i = 0; i < 150; ++i) submitted += wire.source->submit(payload(800, 2));
  w.platform.run_until(10 * kSecond);
  EXPECT_GT(wire.sink->stats().tpdus_corrupt, 0);
  // Corrupted TPDUs never surface as data.
  const auto got = drain(*wire.sink);
  for (const auto& o : got)
    for (auto b : o.data) EXPECT_EQ(b, 2);
}

TEST(WindowProfile, DeliversInOrderReliably) {
  net::LinkConfig lossy = lan_link();
  lossy.loss_rate = 0.05;
  PairPlatform w(lossy, 17);
  auto req = basic_request({w.a->id, 1}, {w.b->id, 2}, 50.0, 1024);
  req.service_class.profile = ProtocolProfile::kWindowBased;
  req.buffer_osdus = 32;
  Wire wire(w, req);
  ASSERT_NE(wire.source, nullptr);

  constexpr int kCount = 60;
  int submitted = 0;
  for (int burst = 0; burst < 6; ++burst) {
    for (int i = 0; i < 10; ++i) submitted += wire.source->submit(payload(300, 3));
    w.platform.run_until(w.platform.scheduler().now() + 500 * kMillisecond);
    (void)drain(*wire.sink);
  }
  w.platform.run_until(w.platform.scheduler().now() + 5 * kSecond);
  (void)drain(*wire.sink);
  EXPECT_EQ(submitted, kCount);
  // Go-back-N: everything submitted is eventually delivered, in order.
  EXPECT_EQ(wire.sink->stats().osdus_delivered, kCount);
  EXPECT_GT(wire.source->stats().tpdus_retransmitted, 0);
}

// Regression (retain-map eviction): in window mode the send window may be
// granted far past retain_limit_.  Evicting *un-acked* TPDUs from the
// retain map would make a single loss unrecoverable (go-back-N has no copy
// left to resend) and stall the circuit forever.  The fix evicts only
// acked entries and clamps the effective window to the retain bound.
TEST(WindowProfile, WindowLargerThanRetainLimitStillRecovers) {
  net::LinkConfig lossy = lan_link();
  lossy.loss_rate = 0.12;
  PairPlatform w(lossy, 23);
  auto req = basic_request({w.a->id, 1}, {w.b->id, 2}, 50.0, 1024);
  req.service_class.profile = ProtocolProfile::kWindowBased;
  req.buffer_osdus = 32;  // receiver grants ~32 TPDUs of window
  Wire wire(w, req);
  ASSERT_NE(wire.source, nullptr);
  // Retention far below the granted window: pre-fix, every send past 4
  // in-flight evicted an un-acked TPDU, so a loss among the evicted ones
  // stalled the circuit forever.  Each 10-submit burst below goes out
  // back-to-back (well past 4 in flight) before any AK returns.
  wire.source->set_retain_limit(4);

  constexpr int kCount = 60;
  int submitted = 0;
  for (int burst = 0; burst < 6; ++burst) {
    for (int i = 0; i < 10; ++i) submitted += wire.source->submit(payload(300, 5));
    w.platform.run_until(w.platform.scheduler().now() + kSecond);
    (void)drain(*wire.sink);
  }
  w.platform.run_until(w.platform.scheduler().now() + 15 * kSecond);
  (void)drain(*wire.sink);
  EXPECT_EQ(submitted, kCount);
  // Nothing may be stranded: every loss was recoverable from retention.
  EXPECT_EQ(wire.sink->stats().osdus_delivered, kCount);
}

// Regression (fragment-length math): OSDU sizes on the MTU boundary must
// produce exactly total/MTU fragments — an exact multiple must not emit a
// trailing zero-length fragment, and the empty OSDU is exactly one.
TEST(DataTransfer, FragmentCountsAtMtuBoundaries) {
  constexpr std::size_t kMtu = 1400;  // transport MTU (kMaxTpduPayload)
  PairPlatform w;
  Wire wire(w, basic_request({w.a->id, 1}, {w.b->id, 2}, 100.0, 8 * 1024));
  ASSERT_NE(wire.source, nullptr);

  ASSERT_TRUE(wire.source->submit(std::vector<std::uint8_t>{}));  // 1 TPDU
  ASSERT_TRUE(wire.source->submit(payload(kMtu, 1)));             // 1 TPDU
  ASSERT_TRUE(wire.source->submit(payload(2 * kMtu, 2)));         // 2 TPDUs
  ASSERT_TRUE(wire.source->submit(payload(2 * kMtu + 1, 3)));     // 3 TPDUs
  w.platform.run_until(2 * kSecond);

  EXPECT_EQ(wire.source->stats().tpdus_sent, 1 + 1 + 2 + 3);
  const auto got = drain(*wire.sink);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].data.size(), 0u);
  EXPECT_EQ(got[1].data.size(), kMtu);
  EXPECT_EQ(got[2].data.size(), 2 * kMtu);
  EXPECT_EQ(got[3].data.size(), 2 * kMtu + 1);
  for (std::size_t i = 1; i < got.size(); ++i)
    for (auto b : got[i].data) EXPECT_EQ(b, static_cast<std::uint8_t>(i));
}

// Regression (32-bit OSDU sequence wrap): the delivery cursor and the
// skipped-count arithmetic live on an unwrapped 64-bit timeline.  A stream
// crossing 2^32 must keep delivering in order, and a source-side drop
// spanning the wrap must count exactly the dropped OSDUs — not the 4-billion
// difference the raw 32-bit values suggest.
TEST(DataTransfer, OsduSequenceWrapDeliversAndCountsSkipsExactly) {
  PairPlatform w;
  auto req = basic_request({w.a->id, 1}, {w.b->id, 2}, 50.0, 1024);
  req.buffer_osdus = 16;
  Wire wire(w, req);
  ASSERT_NE(wire.source, nullptr);
  // Start the source three OSDUs shy of the wrap; resync the sink so it
  // anchors its timeline on whatever arrives (as after any seek).
  wire.source->set_next_osdu_seq(0xfffffffdu);
  wire.sink->flush();

  // Seqs fffffffd..2: the pacer sends the first immediately, the rest
  // queue in the ring.
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(wire.source->submit(payload(200, 4)));
  // Drop the 3 newest undelivered (seqs 0, 1, 2) — the skip interval
  // straddles the wrap point.
  EXPECT_EQ(wire.source->drop_at_source(3), 3u);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(wire.source->submit(payload(200, 4)));
  w.platform.run_until(3 * kSecond);

  const auto got = drain(*wire.sink);
  ASSERT_EQ(got.size(), 7u);  // 10 submitted, 3 dropped
  const std::uint32_t expect_seq[] = {0xfffffffdu, 0xfffffffeu, 0xffffffffu, 3, 4, 5, 6};
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i].seq, expect_seq[i]);
  EXPECT_EQ(wire.sink->stats().osdus_skipped, 3);
}

TEST(DataTransfer, StatsCountersConsistent) {
  PairPlatform w;
  auto req = basic_request({w.a->id, 1}, {w.b->id, 2}, 100.0, 1024);
  req.buffer_osdus = 32;
  Wire wire(w, req);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(wire.source->submit(payload(100, 1)));
  w.platform.run_until(2 * kSecond);
  (void)drain(*wire.sink);
  const auto& src = wire.source->stats();
  const auto& snk = wire.sink->stats();
  EXPECT_EQ(src.osdus_submitted, 20);
  EXPECT_EQ(src.tpdus_sent, 20);  // single-fragment OSDUs
  EXPECT_EQ(snk.tpdus_received, 20);
  EXPECT_EQ(snk.osdus_completed, 20);
  EXPECT_EQ(snk.osdus_delivered, 20);
  EXPECT_EQ(snk.tpdus_lost, 0);
  EXPECT_EQ(snk.tpdus_corrupt, 0);
}

}  // namespace
}  // namespace cmtos::test
