// Steady-state allocation discipline for the zero-copy media path
// (DESIGN.md "Two-world data plane").
//
// A paced 64 KiB stream is pumped over several regulation intervals.
// After a warmup window (pool magazines fill, rings and retain maps reach
// their high-water marks) the data plane must run out of recycled frames:
// the FramePool miss counter must stay at zero, and the per-OSDU heap
// allocation count must be flat from window to window.  A reintroduced
// per-fragment copy or per-packet buffer shows up here as a step in the
// allocs-per-OSDU curve long before it shows up in a wall-clock bench.
//
// The binary links bench/alloc_hooks.cpp, which replaces the global
// operator new with a counting one.

#include "alloc_hooks.h"

#include <gtest/gtest.h>

#include <cmath>

#include "fixtures.h"
#include "media/content.h"
#include "orch/opdu.h"
#include "transport/heartbeat.h"
#include "util/frame_pool.h"

namespace cmtos::test {
namespace {

struct Window {
  std::int64_t delivered = 0;
  std::int64_t heap_allocs = 0;
  std::int64_t pool_misses = 0;
  double allocs_per_osdu() const {
    return static_cast<double>(heap_allocs) /
           static_cast<double>(std::max<std::int64_t>(1, delivered));
  }
};

TEST(SteadyStateAlloc, MediaPathAllocationsFlatAfterWarmup) {
  net::LinkConfig link;
  link.bandwidth_bps = 1'000'000'000;
  link.propagation_delay = 1 * kMillisecond;
  link.media_batch_max = 32;
  PairPlatform w(link, 97);
  ScriptedUser src_user(w.a->entity), dst_user(w.b->entity);
  w.a->entity.bind(1, &src_user);
  w.b->entity.bind(2, &dst_user);

  constexpr std::size_t kOsduBytes = 64 * 1024;
  auto req = basic_request({w.a->id, 1}, {w.b->id, 2}, 250.0,
                           static_cast<std::int64_t>(kOsduBytes));
  req.service_class.profile = transport::ProtocolProfile::kRateBasedCm;
  req.service_class.error_control = transport::ErrorControl::kIndicate;
  req.buffer_osdus = 64;
  req.pacing_burst = 32;
  const auto vc = w.a->entity.t_connect_request(req);
  w.platform.run_until(500 * kMillisecond);

  auto* source = w.a->entity.source(vc);
  auto* sink = w.b->entity.sink(vc);
  ASSERT_NE(source, nullptr);
  ASSERT_NE(sink, nullptr);

  // One immutable template frame; every submission shares it by refcount,
  // so the steady state leases nothing new from the pool.
  const auto frame = media::make_frame_view(1, 0, kOsduBytes);

  auto pump_for = [&](Duration dur) {
    std::int64_t delivered = 0;
    const Time until = w.platform.scheduler().now() + dur;
    while (w.platform.scheduler().now() < until) {
      while (source->submit(frame)) {
      }
      w.platform.run_until(w.platform.scheduler().now() + 20 * kMillisecond);
      while (auto o = sink->receive()) {
        (void)o;
        ++delivered;
      }
    }
    return delivered;
  };

  // Warmup: regulation settles, magazines fill, rings hit capacity.
  (void)pump_for(2 * kSecond);

  constexpr int kWindows = 4;
  Window win[kWindows];
  for (int i = 0; i < kWindows; ++i) {
    const std::int64_t heap0 = bench::heap_allocs();
    const auto pool0 = FramePool::global().stats();
    win[i].delivered = pump_for(2 * kSecond);
    win[i].heap_allocs = bench::heap_allocs() - heap0;
    win[i].pool_misses = FramePool::global().stats().pool_misses - pool0.pool_misses;
  }

  for (int i = 0; i < kWindows; ++i) {
    ASSERT_GT(win[i].delivered, 0) << "window " << i << " delivered nothing";
    // Once warmed, the pool must never fall back to the heap.
    EXPECT_EQ(win[i].pool_misses, 0) << "pool miss in steady-state window " << i;
  }

  // Flat heap curve: every window's allocs-per-OSDU must match the first
  // measurement window within a small tolerance (the slack absorbs hash-map
  // rehashes and vector growth amortised across windows).
  const double base = win[0].allocs_per_osdu();
  for (int i = 1; i < kWindows; ++i) {
    const double apo = win[i].allocs_per_osdu();
    EXPECT_LE(std::abs(apo - base), 0.10 * base + 8.0)
        << "allocs/OSDU drifted: window 0 = " << base << ", window " << i << " = " << apo;
  }

  // Absolute ceiling: flatness alone would accept a per-fragment allocation
  // added uniformly to every window.  The ceiling is the measured level with
  // inline DT headers, capacity-keeping link queues, recycled packet
  // vectors, one reassembly window at the sink, heartbeat buffers kept
  // across ticks and one flat event heap per shard (~1.01 on GCC 12 /
  // libstdc++: the window's one map node per OSDU plus control traffic)
  // plus 25%, so one more allocation per OSDU fails it.
  constexpr double kMaxAllocsPerOsdu = 1.01 * 1.25;
  for (int i = 0; i < kWindows; ++i)
    EXPECT_LE(win[i].allocs_per_osdu(), kMaxAllocsPerOsdu)
        << "allocs/OSDU above ceiling in window " << i;
}

TEST(SteadyStateAlloc, OpduEncodeAllocatesOnlyItsImage) {
  // Opdu::encode reserves the exact size its field table gives: one
  // allocation, the returned vector, with or without a vcs list.
  constexpr int kEncodes = 100;
  for (std::size_t vcs : {0, 3}) {
    auto o = orch::Opdu::command(orch::OpduType::kRegulateSrc, 7, 9, 1, 3);
    o.vcs.resize(vcs);
    const std::int64_t heap0 = bench::heap_allocs();
    std::size_t bytes = 0;
    for (int i = 0; i < kEncodes; ++i) bytes += o.encode().size();
    EXPECT_LE(bench::heap_allocs() - heap0, kEncodes) << vcs << " vcs";
    EXPECT_EQ(bytes, kEncodes * wire::encoded_size(o));
    EXPECT_EQ(o.encode().capacity(), wire::encoded_size(o)) << vcs << " vcs";
  }
}

TEST(SteadyStateAlloc, HeartbeatExchangeAllocatesNothing) {
  // A rate-based sink whose application reads one OSDU per step reports a
  // changed free-slot count each step: one feedback-carrying heartbeat to
  // the source, answered by an ack heartbeat (liveness keepalives ride
  // along).  The source has nothing left to send, so heartbeats are the
  // only traffic, and once warmed an exchange must not touch the heap.
  PairPlatform w;
  transport::TransportConfig tc;
  tc.keepalive_interval = 30 * kMillisecond;
  tc.peer_dead_after = 10 * kSecond;
  w.a->entity.set_config(tc);
  w.b->entity.set_config(tc);
  ScriptedUser src_user(w.a->entity), dst_user(w.b->entity);
  w.a->entity.bind(1, &src_user);
  w.b->entity.bind(2, &dst_user);
  constexpr std::uint32_t kRing = 200;
  auto req = basic_request({w.a->id, 1}, {w.b->id, 2}, 100.0, 200);
  req.service_class.profile = transport::ProtocolProfile::kRateBasedCm;
  req.service_class.error_control = transport::ErrorControl::kNone;
  req.buffer_osdus = kRing;
  const auto vc = w.a->entity.t_connect_request(req);
  w.platform.run_until(500 * kMillisecond);
  auto* source = w.a->entity.source(vc);
  auto* sink = w.b->entity.sink(vc);
  ASSERT_NE(source, nullptr);
  ASSERT_NE(sink, nullptr);

  // Fill the sink's ring while its application reads nothing.
  for (std::uint32_t i = 0; i < kRing; ++i)
    ASSERT_TRUE(source->submit(std::vector<std::uint8_t>(200, 1)));
  w.platform.run_until(w.platform.scheduler().now() + kSecond);

  auto step = [&] {
    ASSERT_TRUE(sink->receive().has_value());
    w.platform.run_until(w.platform.scheduler().now() + 2 * transport::kFeedbackPeriod);
  };
  // Warmup, 6 s: the engines' scratch buffers grow to fit an exchange, and
  // each shard's event heap and slot pool reach their high-water marks.
  for (int i = 0; i < 150; ++i) step();

  const auto& to_source = *w.platform.network().link(w.b->id, w.a->id);
  const std::int64_t heartbeats0 = to_source.stats().packets_sent;
  const std::int64_t heap0 = bench::heap_allocs();
  constexpr int kSteps = 40;
  for (int i = 0; i < kSteps; ++i) step();
  const std::int64_t heap_allocs = bench::heap_allocs() - heap0;
  ASSERT_GE(to_source.stats().packets_sent - heartbeats0, kSteps);
  EXPECT_EQ(heap_allocs, 0);
}

}  // namespace
}  // namespace cmtos::test
