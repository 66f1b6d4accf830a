// Unit tests for transport::TimerSet — the keyed protocol-timer table.
//
// The invariant under test is "at most one live timer per (kind, key)":
// re-arming replaces the previous timer, cancel/cancel_key/cancel_all and
// the destructor drop slots, and a cancelled slot can never fire — not
// even when the cancel runs at the same simulated timestamp the timer was
// due.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/scheduler.h"
#include "transport/timer_set.h"

namespace cmtos::transport {
namespace {

constexpr std::uint64_t kVc = 7;

class TimerSetTest : public ::testing::Test {
 protected:
  TimerSetTest() : rt_(sched_.executor().add_shard()), timers_(rt_) {}

  sim::Scheduler sched_;
  sim::NodeRuntime& rt_;
  TimerSet timers_;
};

TEST_F(TimerSetTest, ArmLocalFiresOnceAtDeadline) {
  int fired = 0;
  timers_.arm_local(TimerKind::kRcrRetransmit, kVc, 100, [&] { ++fired; });
  EXPECT_TRUE(timers_.pending(TimerKind::kRcrRetransmit, kVc));

  sched_.run_until(99);
  EXPECT_EQ(fired, 0);
  sched_.run_until(100);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timers_.pending(TimerKind::kRcrRetransmit, kVc));

  sched_.run_until(1000);
  EXPECT_EQ(fired, 1);  // one-shot: never fires again
}

TEST_F(TimerSetTest, ArmGlobalFiresToo) {
  int fired = 0;
  timers_.arm_global(TimerKind::kOpTimeout, kVc, 50, [&] { ++fired; });
  EXPECT_TRUE(timers_.pending(TimerKind::kOpTimeout, kVc));
  sched_.run_until(50);
  EXPECT_EQ(fired, 1);
}

TEST_F(TimerSetTest, RearmReplacesThePreviousTimer) {
  int first = 0;
  int second = 0;
  timers_.arm_local(TimerKind::kCrRetransmit, kVc, 10, [&] { ++first; });
  timers_.arm_local(TimerKind::kCrRetransmit, kVc, 500, [&] { ++second; });
  // One live timer in the slot: the re-arm cancelled the first.
  EXPECT_EQ(rt_.live(), 1u);

  sched_.run_until(10);
  EXPECT_EQ(first, 0);  // the replaced timer's deadline passes silently
  sched_.run_until(500);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST_F(TimerSetTest, RepeatedRearmKeepsExactlyOneLiveTimer) {
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    timers_.arm_local(TimerKind::kRcrRetransmit, kVc,
                      100 + i, [&] { ++fired; });
    EXPECT_EQ(rt_.live(), 1u);
  }
  sched_.run_until(10'000);
  EXPECT_EQ(fired, 1);  // only the last arm survives
}

TEST_F(TimerSetTest, CancelPreventsFiringAndIsIdempotent) {
  int fired = 0;
  timers_.arm_local(TimerKind::kRenegRetransmit, kVc, 100, [&] { ++fired; });
  timers_.cancel(TimerKind::kRenegRetransmit, kVc);
  EXPECT_FALSE(timers_.pending(TimerKind::kRenegRetransmit, kVc));
  EXPECT_EQ(rt_.live(), 0u);

  timers_.cancel(TimerKind::kRenegRetransmit, kVc);  // empty slot: no effect
  timers_.cancel(TimerKind::kRcrRetransmit, kVc + 1);

  sched_.run_until(1000);
  EXPECT_EQ(fired, 0);
}

TEST_F(TimerSetTest, CancelAtTheDeadlineStillWins) {
  // The cancel runs as an event at the *same* timestamp the timer is due.
  // It was scheduled first, so it executes first (per-shard ties break by
  // insertion order) — and the cancelled slot must not fire afterwards.
  int fired = 0;
  rt_.at(100, [&] { timers_.cancel(TimerKind::kRenegRetransmit, kVc); });
  timers_.arm_local(TimerKind::kRenegRetransmit, kVc, 100, [&] { ++fired; });

  sched_.run_until(200);
  EXPECT_EQ(fired, 0);
}

TEST_F(TimerSetTest, RearmAtTheDeadlineSupersedesTheDueTimer) {
  // Same-timestamp re-arm: the protocol advancing at t exactly when the
  // retransmit was due must push the retransmit out, not double-fire.
  int old_fired = 0;
  int new_fired = 0;
  rt_.at(100, [&] {
    timers_.arm_local(TimerKind::kCrRetransmit, kVc, 50, [&] { ++new_fired; });
  });
  timers_.arm_local(TimerKind::kCrRetransmit, kVc, 100, [&] { ++old_fired; });

  sched_.run_until(1000);
  EXPECT_EQ(old_fired, 0);
  EXPECT_EQ(new_fired, 1);
}

TEST_F(TimerSetTest, KindsUnderOneKeyAreIndependentSlots) {
  std::vector<int> fired(3, 0);
  timers_.arm_local(TimerKind::kRcrRetransmit, kVc, 10, [&] { ++fired[0]; });
  timers_.arm_local(TimerKind::kRenegRetransmit, kVc, 20, [&] { ++fired[1]; });
  timers_.arm_local(TimerKind::kOpTimeout, kVc, 30, [&] { ++fired[2]; });
  EXPECT_EQ(rt_.live(), 3u);

  timers_.cancel(TimerKind::kRenegRetransmit, kVc);

  sched_.run_until(100);
  EXPECT_EQ(fired[0], 1);
  EXPECT_EQ(fired[1], 0);
  EXPECT_EQ(fired[2], 1);
}

TEST_F(TimerSetTest, SameKindDistinctKeysAreIndependentSlots) {
  int a = 0;
  int b = 0;
  timers_.arm_local(TimerKind::kRcrRetransmit, 1, 10, [&] { ++a; });
  timers_.arm_local(TimerKind::kRcrRetransmit, 2, 10, [&] { ++b; });
  EXPECT_EQ(rt_.live(), 2u);
  EXPECT_TRUE(timers_.pending(TimerKind::kRcrRetransmit, 1));
  EXPECT_TRUE(timers_.pending(TimerKind::kRcrRetransmit, 2));

  sched_.run_until(10);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
}

TEST_F(TimerSetTest, CancelKeyDropsEveryKindUnderTheKey) {
  int torn_down = 0;
  int other_vc = 0;
  timers_.arm_local(TimerKind::kRcrRetransmit, kVc, 10, [&] { ++torn_down; });
  timers_.arm_local(TimerKind::kRenegRetransmit, kVc, 20, [&] { ++torn_down; });
  timers_.arm_global(TimerKind::kOpTimeout, kVc, 30, [&] { ++torn_down; });
  timers_.arm_local(TimerKind::kRcrRetransmit, kVc + 1, 40, [&] { ++other_vc; });

  timers_.cancel_key(kVc);  // VC teardown
  EXPECT_EQ(rt_.live(), 1u);
  EXPECT_FALSE(timers_.pending(TimerKind::kRcrRetransmit, kVc));
  EXPECT_TRUE(timers_.pending(TimerKind::kRcrRetransmit, kVc + 1));

  sched_.run_until(100);
  EXPECT_EQ(torn_down, 0);
  EXPECT_EQ(other_vc, 1);
}

TEST_F(TimerSetTest, CancelAllDropsEverything) {
  int fired = 0;
  for (std::uint64_t key = 0; key < 8; ++key) {
    timers_.arm_local(TimerKind::kRcrRetransmit, key, 10 + key, [&] { ++fired; });
    timers_.arm_global(TimerKind::kOpTimeout, key, 20 + key, [&] { ++fired; });
  }
  EXPECT_EQ(rt_.live(), 16u);

  timers_.cancel_all();  // crash: all protocol timers die with the node
  EXPECT_EQ(rt_.live(), 0u);

  sched_.run_until(1000);
  EXPECT_EQ(fired, 0);
}

TEST_F(TimerSetTest, DestructorCancelsOutstandingTimers) {
  int fired = 0;
  {
    TimerSet doomed(rt_);
    doomed.arm_local(TimerKind::kRcrRetransmit, kVc, 100, [&] { ++fired; });
    EXPECT_EQ(rt_.live(), 1u);
  }
  EXPECT_EQ(rt_.live(), 0u);
  sched_.run_until(1000);
  EXPECT_EQ(fired, 0);
}

TEST_F(TimerSetTest, ExpiryCallbackMayRearmItsOwnSlot) {
  // The retransmit pattern: each expiry re-arms the same (kind, key) for
  // the next try.  The slot is re-armed from inside the firing event, so
  // the one-live-timer invariant must hold across the fire/re-arm edge.
  int tries = 0;
  std::function<void()> retransmit = [&] {
    ++tries;
    if (tries < 5) {
      timers_.arm_local(TimerKind::kCrRetransmit, kVc, 100, retransmit);
      EXPECT_EQ(rt_.live(), 1u);
    }
  };
  timers_.arm_local(TimerKind::kCrRetransmit, kVc, 100, retransmit);

  sched_.run_until(10'000);
  EXPECT_EQ(tries, 5);
  EXPECT_FALSE(timers_.pending(TimerKind::kCrRetransmit, kVc));
}

TEST_F(TimerSetTest, CancelThenRearmStartsAFreshTimer) {
  int first = 0;
  int second = 0;
  timers_.arm_local(TimerKind::kRenegRetransmit, kVc, 10, [&] { ++first; });
  timers_.cancel(TimerKind::kRenegRetransmit, kVc);
  timers_.arm_local(TimerKind::kRenegRetransmit, kVc, 50, [&] { ++second; });
  EXPECT_EQ(rt_.live(), 1u);

  sched_.run_until(100);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

}  // namespace
}  // namespace cmtos::transport
