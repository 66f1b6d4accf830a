// Unit tests for the network substrate: links, routing, forwarding,
// reservation/admission control, degradation injection.

#include <gtest/gtest.h>

#include <algorithm>

#include <vector>

#include "net/network.h"
#include "sim/scheduler.h"

namespace cmtos::net {
namespace {

struct NetWorld {
  sim::Scheduler sched;
  Network net{sched, Rng(1)};
};

Packet make_packet(NodeId src, NodeId dst, std::size_t payload = 100,
                   Proto proto = Proto::kTransportData) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.proto = proto;
  p.payload.assign(payload, 0xaa);
  return p;
}

TEST(Link, SerialisationPlusPropagationDelay) {
  NetWorld w;
  LinkConfig cfg;
  cfg.bandwidth_bps = 1'000'000;  // 1 Mbit/s
  cfg.propagation_delay = 5 * kMillisecond;
  const NodeId a = w.net.add_node("a");
  const NodeId b = w.net.add_node("b");
  w.net.add_link(a, b, cfg);
  w.net.finalize_routes();

  Time arrival = -1;
  w.net.node(b).set_handler(Proto::kTransportData, [&](Packet&&) { arrival = w.sched.now(); });
  w.net.send(make_packet(a, b, 1000 - kPacketHeaderBytes));  // wire = 1000 B
  w.sched.run();
  // 1000 B at 1 Mbit/s = 8 ms serialisation + 5 ms propagation.
  EXPECT_EQ(arrival, 8 * kMillisecond + 5 * kMillisecond);
}

TEST(Link, BackToBackPacketsQueueBehindEachOther) {
  NetWorld w;
  LinkConfig cfg;
  cfg.bandwidth_bps = 8'000'000;  // 1 B/us
  cfg.propagation_delay = 0;
  const NodeId a = w.net.add_node("a");
  const NodeId b = w.net.add_node("b");
  w.net.add_link(a, b, cfg);
  w.net.finalize_routes();

  std::vector<Time> arrivals;
  w.net.node(b).set_handler(Proto::kTransportData,
                            [&](Packet&&) { arrivals.push_back(w.sched.now()); });
  w.net.send(make_packet(a, b, 968));  // wire 1000 B -> 1 ms
  w.net.send(make_packet(a, b, 968));
  w.sched.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 1 * kMillisecond);
  EXPECT_EQ(arrivals[1], 2 * kMillisecond);  // serialised after the first
}

TEST(Link, QueueOverflowDrops) {
  NetWorld w;
  LinkConfig cfg;
  cfg.bandwidth_bps = 8'000;  // very slow: 1 ms per byte
  cfg.queue_limit_packets = 4;
  const NodeId a = w.net.add_node("a");
  const NodeId b = w.net.add_node("b");
  w.net.add_link(a, b, cfg);
  w.net.finalize_routes();

  int received = 0;
  w.net.node(b).set_handler(Proto::kTransportData, [&](Packet&&) { ++received; });
  for (int i = 0; i < 20; ++i) w.net.send(make_packet(a, b, 10));
  w.sched.run();
  // 4 queued + 1 in serialisation survive at most.
  EXPECT_LE(received, 5);
  EXPECT_GT(w.net.link(a, b)->stats().dropped_queue_overflow, 0);
}

TEST(Link, BernoulliLossDropsApproximateFraction) {
  NetWorld w;
  LinkConfig cfg;
  cfg.loss_rate = 0.3;
  cfg.propagation_delay = 0;
  cfg.queue_limit_packets = 100000;
  const NodeId a = w.net.add_node("a");
  const NodeId b = w.net.add_node("b");
  w.net.add_link(a, b, cfg);
  w.net.finalize_routes();

  int received = 0;
  w.net.node(b).set_handler(Proto::kTransportData, [&](Packet&&) { ++received; });
  constexpr int kSent = 5000;
  for (int i = 0; i < kSent; ++i) w.net.send(make_packet(a, b, 10));
  w.sched.run();
  EXPECT_NEAR(static_cast<double>(received) / kSent, 0.7, 0.03);
}

TEST(Link, GilbertElliottProducesBursts) {
  NetWorld w;
  LinkConfig cfg;
  cfg.burst_loss = true;
  cfg.ge_p_good_to_bad = 0.02;
  cfg.ge_p_bad_to_good = 0.2;
  cfg.ge_loss_in_bad = 0.8;
  cfg.propagation_delay = 0;
  cfg.queue_limit_packets = 100000;
  const NodeId a = w.net.add_node("a");
  const NodeId b = w.net.add_node("b");
  w.net.add_link(a, b, cfg);
  w.net.finalize_routes();

  // Track the loss pattern via a sequence number in the payload size.
  std::vector<bool> got(3000, false);
  w.net.node(b).set_handler(Proto::kTransportData, [&](Packet&& p) {
    got[p.payload.size()] = true;
  });
  for (std::size_t i = 0; i < got.size(); ++i) w.net.send(make_packet(a, b, i));
  w.sched.run();

  int losses = 0, burst_pairs = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!got[i]) {
      ++losses;
      if (i > 0 && !got[i - 1]) ++burst_pairs;
    }
  }
  ASSERT_GT(losses, 20);
  // Burstiness: consecutive losses far more common than independent loss
  // at the same average rate would produce.
  const double p = static_cast<double>(losses) / static_cast<double>(got.size());
  const double expected_indep_pairs = p * static_cast<double>(losses);
  EXPECT_GT(burst_pairs, 2 * expected_indep_pairs);
}

TEST(Link, BitErrorsFlipRealPayloadBytes) {
  NetWorld w;
  LinkConfig cfg;
  cfg.bit_error_rate = 1e-4;  // 1000-byte packet: ~55% corruption chance
  cfg.queue_limit_packets = 100000;
  const NodeId a = w.net.add_node("a");
  const NodeId b = w.net.add_node("b");
  w.net.add_link(a, b, cfg);
  w.net.finalize_routes();

  // Every packet carries a known byte pattern; a corrupted delivery is one
  // whose *actual bytes* differ — there is no metadata flag any more.
  int corrupted = 0, total = 0;
  w.net.node(b).set_handler(Proto::kTransportData, [&](Packet&& p) {
    ++total;
    const bool damaged =
        std::any_of(p.payload.begin(), p.payload.end(), [](std::uint8_t x) { return x != 0xaa; });
    corrupted += damaged ? 1 : 0;
  });
  for (int i = 0; i < 2000; ++i) w.net.send(make_packet(a, b, 1000));
  w.sched.run();
  EXPECT_EQ(total, 2000);
  EXPECT_NEAR(static_cast<double>(corrupted) / total, 0.56, 0.05);
  // The link counted exactly the packets it damaged.
  EXPECT_EQ(w.net.link(a, b)->stats().corrupted, corrupted);
}

TEST(Link, DuplicationDeliversExtraCopies) {
  NetWorld w;
  LinkConfig cfg;
  cfg.dup_rate = 0.3;
  cfg.queue_limit_packets = 100000;
  const NodeId a = w.net.add_node("a");
  const NodeId b = w.net.add_node("b");
  w.net.add_link(a, b, cfg);
  w.net.finalize_routes();

  int total = 0;
  w.net.node(b).set_handler(Proto::kTransportData, [&](Packet&& p) {
    ++total;
    // Copies are byte-identical to the original.
    for (std::uint8_t x : p.payload) EXPECT_EQ(x, 0xaa);
  });
  const int sent = 2000;
  for (int i = 0; i < sent; ++i) w.net.send(make_packet(a, b, 100));
  w.sched.run();
  const auto& st = w.net.link(a, b)->stats();
  EXPECT_EQ(total, sent + st.duplicated);
  EXPECT_NEAR(static_cast<double>(st.duplicated) / sent, 0.3, 0.05);
}

TEST(Link, TruncationCutsWireBytes) {
  NetWorld w;
  LinkConfig cfg;
  cfg.truncate_rate = 0.5;
  cfg.queue_limit_packets = 100000;
  const NodeId a = w.net.add_node("a");
  const NodeId b = w.net.add_node("b");
  w.net.add_link(a, b, cfg);
  w.net.finalize_routes();

  int total = 0, shorter = 0;
  w.net.node(b).set_handler(Proto::kTransportData, [&](Packet&& p) {
    ++total;
    EXPECT_LE(p.payload.size(), 100u);  // never grows
    if (p.payload.size() < 100u) ++shorter;
  });
  const int sent = 2000;
  for (int i = 0; i < sent; ++i) w.net.send(make_packet(a, b, 100));
  w.sched.run();
  EXPECT_EQ(total, sent);  // truncation damages, never drops
  EXPECT_EQ(w.net.link(a, b)->stats().truncated, shorter);
  EXPECT_NEAR(static_cast<double>(shorter) / sent, 0.5, 0.05);
}

TEST(Link, ReorderingHoldsPacketsWithinWindow) {
  NetWorld w;
  LinkConfig cfg;
  cfg.bandwidth_bps = 40'000'000;  // 500 B packet = 100 us serialisation
  cfg.propagation_delay = 1 * kMillisecond;
  cfg.reorder_rate = 0.2;
  cfg.reorder_window = 5 * kMillisecond;
  cfg.queue_limit_packets = 100000;
  const NodeId a = w.net.add_node("a");
  const NodeId b = w.net.add_node("b");
  w.net.add_link(a, b, cfg);
  w.net.finalize_routes();

  // Sequence rides in the first payload bytes; record arrival order.
  std::vector<std::uint32_t> order;
  w.net.node(b).set_handler(Proto::kTransportData, [&](Packet&& p) {
    std::uint32_t seq = 0;
    for (int i = 0; i < 4; ++i)
      seq |= static_cast<std::uint32_t>(p.payload[static_cast<std::size_t>(i)]) << (8 * i);
    order.push_back(seq);
  });
  const std::uint32_t sent = 1000;
  for (std::uint32_t i = 0; i < sent; ++i) {
    auto p = make_packet(a, b, 500 - kPacketHeaderBytes);
    for (int j = 0; j < 4; ++j)
      p.payload[static_cast<std::size_t>(j)] = static_cast<std::uint8_t>(i >> (8 * j));
    w.net.send(std::move(p));
  }
  w.sched.run();
  ASSERT_EQ(order.size(), sent);
  std::size_t inversions = 0;
  std::size_t max_displacement = 0;
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const std::size_t seq = order[pos];
    if (seq != pos) {
      if (pos > 0 && order[pos] < order[pos - 1]) ++inversions;
      max_displacement =
          std::max(max_displacement, seq > pos ? seq - pos : pos - seq);
    }
  }
  EXPECT_GT(w.net.link(a, b)->stats().reordered, 100);
  EXPECT_GT(inversions, 0u);
  // Bounded displacement: a held packet can only be overtaken by the ~50
  // packets that serialise inside its 5 ms window (100 us each).
  EXPECT_LT(max_displacement, 120u);
}

TEST(Routing, ShortestPathInLine) {
  NetWorld w;
  const NodeId a = w.net.add_node("a");
  const NodeId b = w.net.add_node("b");
  const NodeId c = w.net.add_node("c");
  w.net.add_link(a, b, {});
  w.net.add_link(b, c, {});
  w.net.finalize_routes();
  EXPECT_EQ(w.net.path(a, c), (std::vector<NodeId>{a, b, c}));
  EXPECT_EQ(w.net.path(c, a), (std::vector<NodeId>{c, b, a}));
  EXPECT_EQ(w.net.path(a, a), (std::vector<NodeId>{a}));
}

TEST(Routing, PrefersFewerHops) {
  NetWorld w;
  const NodeId a = w.net.add_node("a");
  const NodeId b = w.net.add_node("b");
  const NodeId c = w.net.add_node("c");
  w.net.add_link(a, b, {});
  w.net.add_link(b, c, {});
  w.net.add_link(a, c, {});  // direct
  w.net.finalize_routes();
  EXPECT_EQ(w.net.path(a, c).size(), 2u);
}

TEST(Routing, UnreachableIsEmpty) {
  NetWorld w;
  const NodeId a = w.net.add_node("a");
  const NodeId b = w.net.add_node("b");
  w.net.add_node("island");
  w.net.add_link(a, b, {});
  w.net.finalize_routes();
  EXPECT_TRUE(w.net.path(a, 2).empty());
}

TEST(Routing, MultiHopForwarding) {
  NetWorld w;
  const NodeId a = w.net.add_node("a");
  const NodeId b = w.net.add_node("b");
  const NodeId c = w.net.add_node("c");
  w.net.add_link(a, b, {});
  w.net.add_link(b, c, {});
  w.net.finalize_routes();

  int hops = -1;
  w.net.node(c).set_handler(Proto::kTransportData, [&](Packet&& p) { hops = p.hops; });
  w.net.send(make_packet(a, c));
  w.sched.run();
  EXPECT_EQ(hops, 2);
}

TEST(Routing, LoopbackDeliversLocally) {
  NetWorld w;
  const NodeId a = w.net.add_node("a");
  w.net.finalize_routes();
  bool got = false;
  w.net.node(a).set_handler(Proto::kTransportData, [&](Packet&&) { got = true; });
  w.net.send(make_packet(a, a));
  w.sched.run();
  EXPECT_TRUE(got);
}

TEST(Reservation, AdmitsUpToReservableFraction) {
  NetWorld w;
  LinkConfig cfg;
  cfg.bandwidth_bps = 10'000'000;
  const NodeId a = w.net.add_node("a");
  const NodeId b = w.net.add_node("b");
  w.net.add_link(a, b, cfg);
  w.net.finalize_routes();

  auto r1 = w.net.reserve(a, b, 5'000'000);
  ASSERT_TRUE(r1.has_value());
  auto r2 = w.net.reserve(a, b, 4'000'000);
  ASSERT_TRUE(r2.has_value());
  // 9.0 of 9.0 Mbit/s now reserved.
  EXPECT_FALSE(w.net.reserve(a, b, 1).has_value());
  w.net.release(*r2);
  EXPECT_TRUE(w.net.reserve(a, b, 4'000'000).has_value());
}

TEST(Reservation, AllOrNothingAlongPath) {
  NetWorld w;
  LinkConfig fat;
  fat.bandwidth_bps = 100'000'000;
  LinkConfig thin;
  thin.bandwidth_bps = 1'000'000;
  const NodeId a = w.net.add_node("a");
  const NodeId b = w.net.add_node("b");
  const NodeId c = w.net.add_node("c");
  w.net.add_link(a, b, fat);
  w.net.add_link(b, c, thin);
  w.net.finalize_routes();

  // The thin link caps the path.
  EXPECT_FALSE(w.net.reserve(a, c, 2'000'000).has_value());
  auto ok = w.net.reserve(a, c, 500'000);
  ASSERT_TRUE(ok.has_value());
  // Both links carry the reservation.
  EXPECT_EQ(w.net.reserved_on(a, b), 500'000);
  EXPECT_EQ(w.net.reserved_on(b, c), 500'000);
  w.net.release(*ok);
  EXPECT_EQ(w.net.reserved_on(a, b), 0);
  EXPECT_EQ(w.net.reserved_on(b, c), 0);
}

TEST(Reservation, AdjustUpAndDown) {
  NetWorld w;
  LinkConfig cfg;
  cfg.bandwidth_bps = 10'000'000;
  const NodeId a = w.net.add_node("a");
  const NodeId b = w.net.add_node("b");
  w.net.add_link(a, b, cfg);
  w.net.finalize_routes();

  auto r = w.net.reserve(a, b, 4'000'000);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(w.net.adjust_reservation(*r, 8'000'000));
  EXPECT_EQ(w.net.reserved_on(a, b), 8'000'000);
  EXPECT_FALSE(w.net.adjust_reservation(*r, 10'000'000));  // over 90%
  EXPECT_EQ(w.net.reserved_on(a, b), 8'000'000);            // unchanged on failure
  EXPECT_TRUE(w.net.adjust_reservation(*r, 1'000'000));
  EXPECT_EQ(w.net.reserved_on(a, b), 1'000'000);
}

TEST(Reservation, DisabledAdmissionAcceptsEverything) {
  NetWorld w;
  LinkConfig cfg;
  cfg.bandwidth_bps = 1'000'000;
  const NodeId a = w.net.add_node("a");
  const NodeId b = w.net.add_node("b");
  w.net.add_link(a, b, cfg);
  w.net.finalize_routes();
  w.net.set_admission_control(false);
  EXPECT_TRUE(w.net.reserve(a, b, 50'000'000).has_value());
  EXPECT_TRUE(w.net.reserve(a, b, 50'000'000).has_value());
}

TEST(Reservation, AvailableBpsTracksPathMinimum) {
  NetWorld w;
  LinkConfig fat;
  fat.bandwidth_bps = 100'000'000;
  LinkConfig thin;
  thin.bandwidth_bps = 2'000'000;
  const NodeId a = w.net.add_node("a");
  const NodeId b = w.net.add_node("b");
  const NodeId c = w.net.add_node("c");
  w.net.add_link(a, b, fat);
  w.net.add_link(b, c, thin);
  w.net.finalize_routes();
  // The thin link's reservable 90 %.
  EXPECT_EQ(w.net.available_bps(a, c), 1'800'000);
  auto r = w.net.reserve(a, c, 500'000);
  ASSERT_TRUE(r);
  EXPECT_EQ(w.net.available_bps(a, c), 1'300'000);
}

TEST(Link, MidRunDegradationTakesEffect) {
  NetWorld w;
  const NodeId a = w.net.add_node("a");
  const NodeId b = w.net.add_node("b");
  w.net.add_link(a, b, {});
  w.net.finalize_routes();

  int received = 0;
  w.net.node(b).set_handler(Proto::kTransportData, [&](Packet&&) { ++received; });
  for (int i = 0; i < 100; ++i) w.net.send(make_packet(a, b, 10));
  w.sched.run();
  EXPECT_EQ(received, 100);

  w.net.link(a, b)->set_loss_rate(1.0);  // total blackout
  for (int i = 0; i < 100; ++i) w.net.send(make_packet(a, b, 10));
  w.sched.run();
  EXPECT_EQ(received, 100);
}

TEST(Network, PathDelayEstimateSumsHops) {
  NetWorld w;
  LinkConfig cfg;
  cfg.bandwidth_bps = 8'000'000;
  cfg.propagation_delay = 2 * kMillisecond;
  const NodeId a = w.net.add_node("a");
  const NodeId b = w.net.add_node("b");
  const NodeId c = w.net.add_node("c");
  w.net.add_link(a, b, cfg);
  w.net.add_link(b, c, cfg);
  w.net.finalize_routes();
  // Per hop: 1000 B at 8 Mbit/s = 1 ms + 2 ms prop.
  EXPECT_EQ(w.net.path_delay_estimate(a, c, 1000), 2 * (1 + 2) * kMillisecond);
}

}  // namespace
}  // namespace cmtos::net
