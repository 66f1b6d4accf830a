// Unit tests for the zero-copy payload substrate (util/frame_pool.h):
// lease/freeze/recycle, refcounting across copies and subviews, vector
// adoption, and the steady-state no-miss invariant.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "util/frame_pool.h"

namespace cmtos {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> v(n);
  std::iota(v.begin(), v.end(), seed);
  return v;
}

PayloadView make_view(FramePool& pool, const std::vector<std::uint8_t>& bytes) {
  FrameLease lease = pool.lease(bytes.size());
  std::memcpy(lease.data(), bytes.data(), bytes.size());
  return std::move(lease).freeze(bytes.size());
}

TEST(FramePool, LeaseFreezeRoundTrip) {
  FramePool pool;
  const auto bytes = pattern(3000, 7);
  const PayloadView v = make_view(pool, bytes);
  EXPECT_EQ(v.size(), bytes.size());
  EXPECT_EQ(v, bytes);
  EXPECT_NE(v.frame(), nullptr);
  EXPECT_EQ(v.offset(), 0u);
}

TEST(FramePool, RecyclesFramesSteadyState) {
  FramePool pool;
  pool.reset_stats();
  for (int i = 0; i < 100; ++i) {
    const PayloadView v = make_view(pool, pattern(4000, static_cast<std::uint8_t>(i)));
    EXPECT_EQ(v.size(), 4000u);
  }  // each view drops before the next lease: one warm frame recycles
  const auto st = pool.stats();
  EXPECT_EQ(st.pool_misses, 1);
  EXPECT_EQ(st.pool_hits, 99);
}

TEST(FramePool, SubviewSharesFrameWithoutCopy) {
  FramePool pool;
  const auto bytes = pattern(2048, 3);
  const PayloadView whole = make_view(pool, bytes);
  const PayloadView a = whole.subview(0, 1000);
  const PayloadView b = whole.subview(1000, 1048);
  EXPECT_EQ(a.frame(), whole.frame());
  EXPECT_EQ(b.frame(), whole.frame());
  EXPECT_EQ(b.offset(), 1000u);
  EXPECT_EQ(a.data(), whole.data());
  EXPECT_EQ(b.data(), whole.data() + 1000);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), bytes.begin()));
  EXPECT_TRUE(std::equal(b.begin(), b.end(), bytes.begin() + 1000));
}

TEST(FramePool, SubviewsKeepFrameAliveAfterParentDrops) {
  FramePool pool;
  pool.reset_stats();
  PayloadView tail;
  {
    const PayloadView whole = make_view(pool, pattern(512, 9));
    tail = whole.subview(500, 12);
  }
  // The frame must not have been recycled while `tail` still points in.
  const auto bytes = pattern(512, 9);
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(), bytes.begin() + 500));
  tail.reset();
  // Now it recycles: the next lease of the same class is a hit.
  const PayloadView again = make_view(pool, pattern(512, 1));
  EXPECT_EQ(pool.stats().pool_hits, 1);
  EXPECT_EQ(again.size(), 512u);
}

TEST(FramePool, ZeroLengthSubviewPinsNothing) {
  FramePool pool;
  const PayloadView whole = make_view(pool, pattern(64, 2));
  const PayloadView empty = whole.subview(32, 0);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.frame(), nullptr);
  EXPECT_EQ(empty, PayloadView{});
}

TEST(FramePool, AdoptWrapsVectorWithoutPool) {
  auto bytes = pattern(777, 5);
  const auto expect = bytes;
  const PayloadView v = PayloadView::adopt(std::move(bytes));
  EXPECT_EQ(v, expect);
  const PayloadView copy = v;  // refcount, not bytes
  EXPECT_EQ(copy.data(), v.data());
}

TEST(FramePool, AdoptEmptyVectorIsEmptyView) {
  const PayloadView v = PayloadView::adopt({});
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.frame(), nullptr);
}

TEST(FramePool, ToVectorAndEquality) {
  FramePool pool;
  const auto bytes = pattern(50, 1);
  const PayloadView v = make_view(pool, bytes);
  EXPECT_EQ(v.to_vector(), bytes);
  const PayloadView w = make_view(pool, bytes);
  EXPECT_EQ(v, w);          // content equality across distinct frames
  EXPECT_NE(v.data(), w.data());
}

TEST(FramePool, OversizeLeaseIsOneOff) {
  FramePool pool;
  pool.reset_stats();
  const std::size_t big = (1u << 20) + 1;
  FrameLease lease = pool.lease(big);
  EXPECT_GE(lease.capacity(), big);
  const PayloadView v = std::move(lease).freeze(big);
  EXPECT_EQ(v.size(), big);
  EXPECT_EQ(pool.stats().pool_misses, 1);
}

TEST(FramePool, DroppedLeaseReturnsFrameUnused) {
  FramePool pool;
  pool.reset_stats();
  { FrameLease lease = pool.lease(100); }
  { FrameLease lease = pool.lease(100); }
  const auto st = pool.stats();
  EXPECT_EQ(st.pool_misses, 1);
  EXPECT_EQ(st.pool_hits, 1);
}

TEST(FramePool, CrossThreadReleaseRecycles) {
  // Source thread leases, sink thread drops the last ref: the frame must
  // survive the handoff and recycle without corruption.
  auto& pool = FramePool::global();
  const auto bytes = pattern(4096, 42);
  for (int round = 0; round < 50; ++round) {
    PayloadView v = make_view(pool, bytes);
    std::thread sink([view = std::move(v), &bytes] {
      ASSERT_EQ(view.size(), bytes.size());
      EXPECT_TRUE(std::equal(view.begin(), view.end(), bytes.begin()));
    });
    sink.join();
  }
}

}  // namespace
}  // namespace cmtos
