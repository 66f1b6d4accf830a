// Per-shard event queue tests (sim/node_runtime): far-future and
// sub-millisecond ordering, cancel/re-arm races at the same time, stale
// handles to reused slots, mass-cancel on crash-style teardown, the dead
// entry bound under arm/cancel churn, and a differential soak against a
// reference heap over seeded random schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/scheduler.h"
#include "util/time.h"

namespace cmtos::sim {
namespace {

TEST(EventQueue, DelaysFromMillisecondsToHoursFireInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  // Delays from milliseconds to hours, armed out of order.
  s.at(20000 * kSecond, [&] { order.push_back(4); });
  s.at(5 * kMillisecond, [&] { order.push_back(0); });
  s.at(100 * kSecond, [&] { order.push_back(2); });
  s.at(3 * kSecond, [&] { order.push_back(1); });
  s.at(10000 * kSecond, [&] { order.push_back(3); });
  EXPECT_EQ(s.run(), 5u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(s.now(), 20000 * kSecond);
}

TEST(EventQueue, CloseFarFutureTimesFireInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  // Far-future times a fraction of a second apart, the middle one armed
  // last: none may fire early or be lost.
  s.at(260 * kSecond, [&] { order.push_back(1); });
  s.at(261 * kSecond, [&] { order.push_back(2); });
  s.at(260 * kSecond + 500 * kMillisecond, [&] { order.push_back(3); });
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(s.now(), 261 * kSecond);
}

TEST(EventQueue, SubMillisecondTimesAndTiesFireInSeqOrder) {
  Scheduler s;
  std::vector<int> order;
  // Nanosecond times inside one millisecond order exactly; equal times
  // fire in insertion order.
  const Time base = 100 * kSecond;
  s.at(base + 900'000, [&] { order.push_back(2); });
  s.at(base + 100'000, [&] { order.push_back(1); });
  s.at(base + 900'000, [&] { order.push_back(3); });  // tie -> insertion order
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, CancelAndReArmAtSameTime) {
  Scheduler s;
  std::vector<int> order;
  const Time t = 50 * kSecond;
  EventHandle victim;  // armed below, after the armer, so it has a later seq
  s.at(t, [&] {
    // Runs at the same time as `victim` (earlier seq): cancelling and
    // re-arming at the current time must take effect within the instant.
    victim.cancel();
    s.at(t, [&] { order.push_back(2); });
    order.push_back(1);
  });
  victim = s.at(t, [&] { order.push_back(99); });
  EXPECT_EQ(s.run(), 2u);  // armer + re-armed; the cancelled victim never fires
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_FALSE(victim.pending());
}

TEST(EventQueue, CancelledThenReArmedHandleDoesNotAliasOldSlot) {
  Scheduler s;
  int fired = 0;
  EventHandle h1 = s.at(10 * kSecond, [&] { fired += 1; });
  h1.cancel();
  // The recycled slot holds a new seq; the stale handle must stay inert.
  EventHandle h2 = s.at(10 * kSecond, [&] { fired += 10; });
  h1.cancel();  // no-op: must not kill h2
  EXPECT_TRUE(h2.pending());
  s.run();
  EXPECT_EQ(fired, 10);
}

TEST(EventQueue, StaleHandleAndEntryDoNotTouchTheSlotsNewOccupant) {
  Scheduler s;
  NodeRuntime& rt = s.executor().add_shard();  // one slot, reused below
  std::vector<int> order;
  // A fired event's slot is reused: its stale handle must not cancel the
  // new occupant.
  EventHandle fired = rt.at(1 * kSecond, [&] { order.push_back(1); });
  ASSERT_EQ(s.run(1), 1u);
  EventHandle second = rt.at(3 * kSecond, [&] { order.push_back(3); });
  fired.cancel();
  EXPECT_TRUE(second.pending());
  // A cancelled event leaves a dead heap entry at 2 s naming the slot that
  // the next arm reuses: the entry must not run the occupant at 2 s.
  rt.at(2 * kSecond, [&] { order.push_back(99); }).cancel();
  EventHandle third = rt.at(4 * kSecond, [&] { order.push_back(4); });
  EXPECT_TRUE(third.pending());
  EXPECT_EQ(rt.live(), 2u);
  s.run_until(2 * kSecond + 500 * kMillisecond);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(s.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4}));
}

TEST(EventQueue, ArmCancelStormKeepsTheHeapWithinTwiceLivePlus64) {
  Scheduler s;
  NodeRuntime& rt = s.executor().add_shard();
  std::mt19937_64 rng(33);
  std::vector<EventHandle> handles;
  std::size_t worst = 0;
  // A keepalive-style storm: every step re-arms one of 500 timers (cancel,
  // then arm later), so dead entries pile up behind the live ones.
  for (int i = 0; i < 500; ++i)
    handles.push_back(rt.at(static_cast<Time>(rng() % (10 * kSecond)) + 1, [] {}));
  for (int step = 0; step < 200'000; ++step) {
    EventHandle& h = handles[rng() % handles.size()];
    h.cancel();
    h = rt.at(static_cast<Time>(rng() % (10 * kSecond)) + 1, [] {});
    ASSERT_EQ(rt.live(), handles.size());
    ASSERT_LE(rt.queued(), 2 * rt.live() + 64) << "step " << step;
    worst = std::max(worst, rt.queued());
  }
  EXPECT_GT(worst, rt.live());  // the bound was exercised, not vacuous
  EXPECT_EQ(s.run(), handles.size());
  EXPECT_EQ(rt.queued(), 0u);
}

TEST(EventQueue, KeyLayoutLimits) {
  // 24 slot bits and 40 seq bits share one 64-bit key; insert_direct
  // reports a contract violation past either cap.
  static_assert(NodeRuntime::kMaxSlots == std::uint64_t{1} << 24);
  static_assert(NodeRuntime::kMaxSeq == std::uint64_t{1} << 40);
  static_assert((NodeRuntime::kMaxSeq - 1) * NodeRuntime::kMaxSlots + (NodeRuntime::kMaxSlots - 1) ==
                ~std::uint64_t{0});
}

TEST(EventQueue, MassCancelOnCrashStyleTeardown) {
  Scheduler s;
  int fired = 0;
  std::mt19937_64 rng(7);
  std::vector<EventHandle> handles;
  // 10k timers spread over eight hours, as a node crash would leave behind
  // (keepalives, retransmits, regulation slots).
  for (int i = 0; i < 10000; ++i) {
    const Time t = static_cast<Time>(rng() % (30000ull * kSecond)) + 1;
    handles.push_back(s.at(t, [&] { ++fired; }));
  }
  EXPECT_EQ(s.pending(), 10000u);
  for (EventHandle& h : handles) h.cancel();
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.run(), 0u);
  EXPECT_EQ(fired, 0);
  // The queue stays usable after the mass cancel (compaction path).
  std::vector<int> order;
  s.at(s.now() + 5 * kSecond, [&] { order.push_back(1); });
  s.at(s.now() + 300 * kSecond, [&] { order.push_back(2); });
  EXPECT_EQ(s.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, DifferentialVsReferenceHeapOverSeededSchedules) {
  // Reference model: events fire in exact (time, seq) order, where seq is
  // the schedule-call order; cancelled events never fire.  Batches are
  // separated by run_until checkpoints.
  for (const std::uint64_t seed : {1ull, 7ull, 20260807ull}) {
    Scheduler s;
    std::mt19937_64 rng(seed);

    struct Ref {
      Time time = 0;
      std::uint64_t seq = 0;
      int id = 0;
    };
    std::vector<Ref> ref;          // live reference entries (not yet fired)
    std::vector<int> fired;        // actual firing order (by id)
    std::vector<int> expect;       // reference firing order (by id)
    std::vector<std::pair<int, EventHandle>> handles;
    std::uint64_t seq = 0;
    int next_id = 0;

    auto checkpoint = [&](Time until) {
      s.run_until(until);
      // Everything with time <= until fires, in (time, seq) order.
      std::stable_sort(ref.begin(), ref.end(), [](const Ref& a, const Ref& b) {
        if (a.time != b.time) return a.time < b.time;
        return a.seq < b.seq;
      });
      auto it = ref.begin();
      for (; it != ref.end() && it->time <= until; ++it) expect.push_back(it->id);
      ref.erase(ref.begin(), it);
    };

    for (int batch = 0; batch < 6; ++batch) {
      const Time now = s.now();
      for (int i = 0; i < 300; ++i) {
        // Delays from sub-millisecond to hours, with deliberate same-time
        // collisions to exercise seq tie-breaks.
        Time d = 0;
        switch (rng() % 5) {
          case 0: d = static_cast<Time>(rng() % (2 * kMillisecond)); break;
          case 1: d = static_cast<Time>(rng() % (60 * kMillisecond)); break;
          case 2: d = static_cast<Time>(rng() % (4 * kSecond)); break;
          case 3: d = static_cast<Time>(rng() % (300 * kSecond)); break;
          default: d = static_cast<Time>(rng() % (20000ull * kSecond)); break;
        }
        if (rng() % 8 == 0) d = (d / kSecond) * kSecond;  // exact-time collision
        const int id = next_id++;
        handles.emplace_back(id, s.at(now + d, [&fired, id] { fired.push_back(id); }));
        ref.push_back({now + d, seq++, id});
      }
      // Cancel a random slice of still-pending events.
      for (int i = 0; i < 60; ++i) {
        const std::size_t pick = rng() % handles.size();
        const int id = handles[pick].first;
        handles[pick].second.cancel();
        std::erase_if(ref, [id](const Ref& r) { return r.id == id; });
      }
      checkpoint(s.now() + static_cast<Time>(rng() % (500 * kSecond)));
    }
    checkpoint(40000 * kSecond);
    EXPECT_TRUE(ref.empty()) << "seed " << seed;
    EXPECT_EQ(fired, expect) << "seed " << seed;
    EXPECT_EQ(s.pending(), 0u);
  }
}

TEST(EventQueue, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    Scheduler s;
    std::mt19937_64 rng(99);
    std::vector<int> order;
    for (int i = 0; i < 2000; ++i) {
      const Time t = static_cast<Time>(rng() % (25000ull * kSecond)) + 1;
      const int id = i;
      EventHandle h = s.at(t, [&order, id] { order.push_back(id); });
      if (rng() % 4 == 0) h.cancel();
    }
    s.run();
    return order;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace cmtos::sim
