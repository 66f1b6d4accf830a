// Real-concurrency tests for the §3.7 shared circular buffer
// (std::counting_semaphore contention between true threads).

#include <gtest/gtest.h>

#include <numeric>
#include <thread>

#include "transport/threaded_buffer.h"

namespace cmtos::transport {
namespace {

Osdu make(std::uint32_t seq, std::size_t bytes = 64) {
  Osdu o;
  o.seq = seq;
  o.data = cmtos::PayloadView::adopt(
      std::vector<std::uint8_t>(bytes, static_cast<std::uint8_t>(seq)));
  return o;
}

/// Spins until `count()` reaches `n`: the peer has missed the fast path and
/// is committed to waiting.  Gives up after 10 s, so a broken counter
/// fails the test (the caller still releases the peer) instead of hanging.
template <typename Count>
bool waiting(Count count, std::int64_t n) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (count() < n) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ThreadedBuffer, SingleThreadedFifo) {
  ThreadedStreamBuffer b(4);
  // One thread playing both SPSC roles: hold both role capabilities.
  ThreadRoleGuard prod(b.producer_role());
  ThreadRoleGuard cons(b.consumer_role());
  b.push(make(1));
  b.push(make(2));
  EXPECT_EQ(b.pop().seq, 1u);
  EXPECT_EQ(b.pop().seq, 2u);
}

TEST(ThreadedBuffer, AcquireReleaseZeroCopy) {
  ThreadedStreamBuffer b(2);
  ThreadRoleGuard prod(b.producer_role());
  ThreadRoleGuard cons(b.consumer_role());
  b.push(make(9, 128));
  Osdu* p = b.acquire();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->seq, 9u);
  EXPECT_EQ(p->data.size(), 128u);
  b.release();
}

TEST(ThreadedBuffer, TwoThreadsTransferEverythingInOrder) {
  constexpr int kCount = 50'000;
  ThreadedStreamBuffer b(64);
  std::vector<std::uint32_t> received;
  received.reserve(kCount);

  std::thread consumer([&] {
    ThreadRoleGuard cons(b.consumer_role());
    for (int i = 0; i < kCount; ++i) received.push_back(b.pop().seq);
  });
  std::thread producer([&] {
    ThreadRoleGuard prod(b.producer_role());
    for (int i = 0; i < kCount; ++i) b.push(make(static_cast<std::uint32_t>(i), 16));
  });
  producer.join();
  consumer.join();

  ASSERT_EQ(received.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(received[static_cast<std::size_t>(i)],
                                             static_cast<std::uint32_t>(i));
}

TEST(ThreadedBuffer, BlockingTimeAccumulatesForSlowConsumer) {
  // Deterministic form of "the producer outpaces the consumer": each
  // episode fills the ring uncontended, then the next push must block on
  // the full ring until a pop frees a slot (the statistic the orchestration
  // service consumes, §3.7/§6.3.1.2).  The pop is gated on the producer
  // having missed the fast path (its contended-wait count rose), so however
  // the threads are scheduled the push really waits.  Assertions are on the
  // counter and monotone accumulation, never on wall-clock thresholds.
  ThreadedStreamBuffer b(2);
  // The main thread seeds the ring (producer role) and drains it (consumer
  // role); the spawned thread takes over the producer role for the one
  // contended push per episode.
  ThreadRoleGuard prod(b.producer_role());
  ThreadRoleGuard cons(b.consumer_role());
  std::int64_t prev_ns = 0;
  for (int episode = 1; episode <= 3; ++episode) {
    b.push(make(0));
    b.push(make(1));  // ring now full, both pushes uncontended
    std::thread producer([&] {
      ThreadRoleGuard thread_prod(b.producer_role());
      b.push(make(2));  // full ring: must wait for the pop below
    });
    EXPECT_TRUE(waiting([&] { return b.producer_blocks(); }, episode));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(b.pop().seq, 0u);  // frees a slot, releases the producer
    producer.join();
    EXPECT_EQ(b.pop().seq, 1u);
    EXPECT_EQ(b.pop().seq, 2u);  // drain for the next episode
    EXPECT_EQ(b.producer_blocks(), episode);
    EXPECT_GT(b.producer_blocked_ns(), prev_ns);
    prev_ns = b.producer_blocked_ns();
  }
  EXPECT_EQ(b.consumer_blocks(), 0);
}

TEST(ThreadedBuffer, BlockingTimeAccumulatesForSlowProducer) {
  // Mirror image: each episode the consumer waits on the empty ring until
  // the delayed push arrives, gated on the consumer's contended-wait count.
  ThreadedStreamBuffer b(2);
  ThreadRoleGuard prod(b.producer_role());
  std::int64_t prev_ns = 0;
  for (int episode = 1; episode <= 3; ++episode) {
    std::thread consumer([&] {
      ThreadRoleGuard cons(b.consumer_role());
      EXPECT_EQ(b.pop().seq, static_cast<std::uint32_t>(episode));  // empty ring: must wait
    });
    EXPECT_TRUE(waiting([&] { return b.consumer_blocks(); }, episode));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    b.push(make(static_cast<std::uint32_t>(episode)));
    consumer.join();
    EXPECT_EQ(b.consumer_blocks(), episode);
    EXPECT_GT(b.consumer_blocked_ns(), prev_ns);
    prev_ns = b.consumer_blocked_ns();
  }
  EXPECT_EQ(b.producer_blocks(), 0);
}

TEST(ThreadedBuffer, ConsumerContendedWaitIsCounted) {
  // The semaphore's try_acquire fast path spins briefly, so contention
  // only registers when the peer is genuinely absent.  Push only once the
  // consumer has missed the fast path (its contended-wait count rose) and
  // assert on that counter, not on a wall-clock threshold, so the result
  // does not depend on how the threads are scheduled.
  ThreadedStreamBuffer b(2);
  ThreadRoleGuard prod(b.producer_role());
  std::thread consumer([&] {
    ThreadRoleGuard cons(b.consumer_role());
    EXPECT_EQ(b.pop().seq, 7u);
  });
  EXPECT_TRUE(waiting([&] { return b.consumer_blocks(); }, 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  b.push(make(7));
  consumer.join();
  EXPECT_EQ(b.consumer_blocks(), 1);
  EXPECT_GT(b.consumer_blocked_ns(), 0);
  EXPECT_EQ(b.producer_blocks(), 0);
}

TEST(ThreadedBuffer, ProducerContendedWaitIsCounted) {
  ThreadedStreamBuffer b(1);
  ThreadRoleGuard cons(b.consumer_role());
  {
    ThreadRoleGuard seed_prod(b.producer_role());
    b.push(make(0));  // fills the ring uncontended
  }
  std::thread producer([&] {
    ThreadRoleGuard prod(b.producer_role());
    b.push(make(1));  // ring full: must wait for the pop
  });
  EXPECT_TRUE(waiting([&] { return b.producer_blocks(); }, 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(b.pop().seq, 0u);
  producer.join();
  EXPECT_EQ(b.pop().seq, 1u);
  EXPECT_EQ(b.producer_blocks(), 1);
  EXPECT_GT(b.producer_blocked_ns(), 0);
}

TEST(ThreadedBuffer, CapacityOneDegenerate) {
  ThreadedStreamBuffer b(1);
  std::thread consumer([&] {
    ThreadRoleGuard cons(b.consumer_role());
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(b.pop().seq, static_cast<std::uint32_t>(i));
  });
  std::thread producer([&] {
    ThreadRoleGuard prod(b.producer_role());
    for (int i = 0; i < 1000; ++i) b.push(make(static_cast<std::uint32_t>(i), 8));
  });
  producer.join();
  consumer.join();
}

}  // namespace
}  // namespace cmtos::transport
