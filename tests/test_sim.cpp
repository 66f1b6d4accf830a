// Unit tests for the discrete-event scheduler, the owning sim::Timer and
// skewed local clocks.

#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <functional>
#include <memory>
#include <vector>

#include "sim/clock.h"
#include "sim/scheduler.h"
#include "util/rng.h"
#include "util/slot_table.h"

namespace cmtos::sim {
namespace {

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.at(30, [&] { order.push_back(3); });
  s.at(10, [&] { order.push_back(1); });
  s.at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(Scheduler, TiesBreakByInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) s.at(5, [&order, i] { order.push_back(i); });
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, EventsMayScheduleEvents) {
  Scheduler s;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) s.after(10, chain);
  };
  s.after(10, chain);
  s.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(s.now(), 50);
}

TEST(Scheduler, RunUntilStopsAtHorizonAndAdvancesNow) {
  Scheduler s;
  int fired = 0;
  s.at(10, [&] { ++fired; });
  s.at(20, [&] { ++fired; });
  s.at(30, [&] { ++fired; });
  EXPECT_EQ(s.run_until(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), 20);
  EXPECT_EQ(s.run_until(100), 1u);
  EXPECT_EQ(s.now(), 100);
}

TEST(Scheduler, CancelPreventsFiring) {
  Scheduler s;
  int fired = 0;
  auto h = s.at(10, [&] { ++fired; });
  s.at(5, [&h] { h.cancel(); });
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(Scheduler, CancelAfterFireIsNoop) {
  Scheduler s;
  int fired = 0;
  auto h = s.at(10, [&] { ++fired; });
  s.run();
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash or affect anything
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, PendingReflectsState) {
  Scheduler s;
  EventHandle none;
  EXPECT_FALSE(none.pending());
  auto h = s.at(10, [] {});
  EXPECT_TRUE(h.pending());
  s.run();
  EXPECT_FALSE(h.pending());
}

TEST(Scheduler, RunWithLimit) {
  Scheduler s;
  int fired = 0;
  for (int i = 0; i < 10; ++i) s.at(i, [&] { ++fired; });
  EXPECT_EQ(s.run(3), 3u);
  EXPECT_EQ(fired, 3);
  s.run();
  EXPECT_EQ(fired, 10);
}

TEST(Scheduler, NegativeDelayClampsToNow) {
  Scheduler s;
  s.at(100, [] {});
  s.run();
  int fired = 0;
  s.after(-50, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 100);
}

// --- sim::Executor: event order across many shards, round structure at any
// worker count, idle edges ---

/// One fired event: (time, shard, per-shard insertion index).
struct Fired {
  Time time;
  std::uint32_t shard;
  int index;
  auto operator<=>(const Fired&) const = default;
};

TEST(Executor, RunFiresInTimeShardInsertionOrderAcrossManyShards) {
  Scheduler s;
  Executor& exec = s.executor();
  std::vector<NodeRuntime*> shards;
  for (int i = 0; i < 200; ++i) shards.push_back(&exec.add_shard());

  Rng rng(20261018);
  std::vector<Fired> expected;
  std::vector<Fired> fired;
  for (NodeRuntime* rt : shards) {
    const std::uint32_t id = rt->shard();
    int index = 0;
    // A cancelled event ahead of everything else on every third shard: the
    // shard's earliest entry is dead by the time the run starts.
    if (id % 3 == 0) rt->at(0, [] { ADD_FAILURE() << "cancelled event fired"; }).cancel();
    const int events = static_cast<int>(rng.uniform(0, 6));
    for (int k = 0; k < events; ++k, ++index) {
      // Coarse times give ties within a shard and across shards; every
      // tenth event lands six hours later.
      Time t = rng.uniform(1, 40) * kMillisecond;
      if (rng.uniform(0, 9) == 0) t += 6 * 3600 * kSecond;
      const Fired f{t, id, index};
      auto fn = [&fired, f] { fired.push_back(f); };
      if (rng.bernoulli(0.3)) {
        rt->at_global(t, fn);
      } else {
        rt->at(t, fn);
      }
      expected.push_back(f);
    }
    // Cancelling the shard's earliest live event leaves its bound stale.
    if (id % 5 == 1 && events > 0) {
      const Time early = rng.uniform(0, 2) * kMillisecond;
      rt->at_global(early, [] { ADD_FAILURE() << "cancelled event fired"; }).cancel();
    }
  }
  std::sort(expected.begin(), expected.end());
  // Single-step in uneven batches so every selection restarts from scratch.
  std::size_t total = 0;
  for (std::size_t batch = 1;; batch = batch % 7 + 1) {
    const std::size_t n = s.run(batch);
    total += n;
    if (n < batch) break;
  }
  EXPECT_EQ(total, expected.size());
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(s.pending(), 0u);
}

/// A world of `shards` runtimes whose local chains post deliveries to other
/// shards at least the lookahead ahead, plus control-shard global events;
/// returns per-shard fire logs and the round counts.
struct RoundWorld {
  std::vector<std::vector<std::int64_t>> logs;
  std::uint64_t serial_rounds = 0;
  std::uint64_t parallel_rounds = 0;
  std::size_t events = 0;
};

RoundWorld run_round_world(unsigned threads) {
  constexpr std::size_t kShards = 24;
  constexpr Duration kLookahead = kMillisecond;
  Scheduler s;
  Executor& exec = s.executor();
  exec.set_lookahead(kLookahead);
  s.set_threads(threads);
  std::vector<NodeRuntime*> rts;
  for (std::size_t i = 0; i < kShards; ++i) rts.push_back(&exec.add_shard());
  RoundWorld w;
  w.logs.resize(kShards);

  std::vector<std::function<void()>> ticks(kShards);
  for (std::size_t i = 0; i < kShards; ++i) {
    ticks[i] = [&, i] {
      NodeRuntime& rt = *rts[i];
      auto& log = w.logs[i];
      log.push_back(rt.now());
      // Every third shard delivers to a neighbour on every other tick.
      if (i % 3 == 0 && log.size() % 2 == 0) {
        const std::size_t to = (i * 7 + 5) % kShards;
        NodeRuntime& dst = *rts[to];
        const Time at = rt.now() + kLookahead + rt.rng().uniform(0, 500);
        dst.at(at, [&w, &dst, to, from = static_cast<Time>(i)] {
          w.logs[to].push_back(-dst.now() - from);
        });
      }
      const auto period = static_cast<Duration>(i % 5 + 1) * 300 * kMicrosecond;
      if (rt.now() < 400 * kMillisecond) rt.after(period, ticks[i]);
    };
    rts[i]->at(static_cast<Time>(i) * 10 * kMicrosecond, ticks[i]);
  }
  // Global control-shard events make some rounds serial.
  for (int k = 1; k <= 20; ++k) s.at(k * 17 * kMillisecond, [] {});
  for (int step = 1; step <= 5; ++step) w.events += s.run_until(step * 100 * kMillisecond);
  w.serial_rounds = exec.serial_rounds();
  w.parallel_rounds = exec.parallel_rounds();
  return w;
}

TEST(Executor, RoundsAndFireLogsMatchAtOneAndFourThreads) {
  const RoundWorld one = run_round_world(1);
  const RoundWorld four = run_round_world(4);
  EXPECT_GT(one.serial_rounds, 0u);
  EXPECT_GT(one.parallel_rounds, 0u);
  EXPECT_EQ(one.events, four.events);
  EXPECT_EQ(one.serial_rounds, four.serial_rounds);
  EXPECT_EQ(one.parallel_rounds, four.parallel_rounds);
  for (std::size_t i = 0; i < one.logs.size(); ++i)
    EXPECT_EQ(one.logs[i], four.logs[i]) << "shard " << i;
}

TEST(Executor, RunUntilAdvancesEveryClockWhenIdle) {
  {
    Scheduler s;
    Executor& exec = s.executor();
    NodeRuntime& rt = exec.add_shard();
    exec.add_shard();
    rt.at(5 * kMillisecond, [] { ADD_FAILURE() << "cancelled event fired"; }).cancel();
    EXPECT_EQ(s.run_until(10 * kMillisecond), 0u);
    for (std::uint32_t i = 0; i < exec.shard_count(); ++i)
      EXPECT_EQ(exec.shard(i).now(), 10 * kMillisecond);
  }
  {
    Scheduler s;
    Executor& exec = s.executor();
    for (int i = 0; i < 3; ++i) exec.add_shard();
    EXPECT_EQ(s.run_until(7 * kMillisecond), 0u);
    for (std::uint32_t i = 0; i < exec.shard_count(); ++i)
      EXPECT_EQ(exec.shard(i).now(), 7 * kMillisecond);
  }
}

// --- sim::Timer: at most one pending event, cancelled by re-arm, move-assign
// and destruction, so the record that owns it needs no cancel of its own ---

class TimerTest : public ::testing::Test {
 protected:
  TimerTest() : rt_(sched_.executor().add_shard()) {}

  /// A protocol record owning two timers (e.g. a retransmit and a timeout).
  struct Record {
    Timer retx;
    Timer timeout;
  };

  Scheduler sched_;
  NodeRuntime& rt_;
};

TEST_F(TimerTest, LocalArmFiresOnceAtDeadline) {
  int fired = 0;
  Timer t;
  t.after(rt_, 100, [&] { ++fired; });
  EXPECT_TRUE(t.pending());
  sched_.run_until(99);
  EXPECT_EQ(fired, 0);
  sched_.run_until(100);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.pending());
  sched_.run_until(1000);
  EXPECT_EQ(fired, 1);  // one-shot
}

TEST_F(TimerTest, GlobalArmFires) {
  int fired = 0;
  Timer node_timer;
  Timer facade_timer;
  node_timer.after_global(rt_, 50, [&] { ++fired; });
  facade_timer.after(sched_, 60, [&] { fired += 10; });
  EXPECT_TRUE(node_timer.pending());
  EXPECT_TRUE(facade_timer.pending());
  sched_.run_until(50);
  EXPECT_EQ(fired, 1);
  sched_.run_until(60);
  EXPECT_EQ(fired, 11);
}

TEST_F(TimerTest, RearmReplacesThePendingEvent) {
  int first = 0;
  int second = 0;
  Timer t;
  t.after(rt_, 10, [&] { ++first; });
  t.after(rt_, 500, [&] { ++second; });
  EXPECT_EQ(rt_.live(), 1u);
  sched_.run_until(10);
  EXPECT_EQ(first, 0);  // the replaced deadline passes silently
  sched_.run_until(500);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST_F(TimerTest, RepeatedRearmKeepsExactlyOnePendingEvent) {
  int fired = 0;
  Timer t;
  for (int i = 0; i < 100; ++i) {
    t.after(rt_, 100 + i, [&] { ++fired; });
    EXPECT_EQ(rt_.live(), 1u);
  }
  sched_.run_until(10'000);
  EXPECT_EQ(fired, 1);  // only the last arm fires
}

TEST_F(TimerTest, CancelIsIdempotent) {
  int fired = 0;
  Timer t;
  t.cancel();  // never armed: no effect
  t.after(rt_, 10, [&] { ++fired; });
  t.cancel();
  t.cancel();
  EXPECT_FALSE(t.pending());
  EXPECT_EQ(rt_.live(), 0u);
  sched_.run_until(100);
  EXPECT_EQ(fired, 0);
}

TEST_F(TimerTest, CancelThenRearmStartsAFreshEvent) {
  int first = 0;
  int second = 0;
  Timer t;
  t.after(rt_, 10, [&] { ++first; });
  t.cancel();
  t.after(rt_, 50, [&] { ++second; });  // a cancelled timer re-arms afresh
  EXPECT_TRUE(t.pending());
  EXPECT_EQ(rt_.live(), 1u);
  sched_.run_until(100);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST_F(TimerTest, CancelAtTheDeadlineWins) {
  // The cancel runs at the timestamp the timer is due; scheduled first, it
  // executes first (ties break by insertion order) and the timer never fires.
  int fired = 0;
  Timer t;
  rt_.at(100, [&] { t.cancel(); });
  t.after(rt_, 100, [&] { ++fired; });
  sched_.run_until(200);
  EXPECT_EQ(fired, 0);
}

TEST_F(TimerTest, RearmAtTheDeadlineSupersedesTheDueEvent) {
  int old_fired = 0;
  int new_fired = 0;
  Timer t;
  rt_.at(100, [&] { t.after(rt_, 50, [&] { ++new_fired; }); });
  t.after(rt_, 100, [&] { ++old_fired; });
  sched_.run_until(1000);
  EXPECT_EQ(old_fired, 0);
  EXPECT_EQ(new_fired, 1);
}

TEST_F(TimerTest, TimersInOneRecordAreIndependent) {
  std::vector<int> fired(2, 0);
  Record rec;
  rec.retx.after(rt_, 10, [&] { ++fired[0]; });
  rec.timeout.after(rt_, 20, [&] { ++fired[1]; });
  EXPECT_EQ(rt_.live(), 2u);
  rec.timeout.cancel();
  EXPECT_TRUE(rec.retx.pending());
  sched_.run_until(100);
  EXPECT_EQ(fired, (std::vector<int>{1, 0}));
}

TEST_F(TimerTest, TimersInDistinctRecordsAreIndependent) {
  int a_fired = 0;
  int b_fired = 0;
  Record a;
  Record b;
  a.retx.after(rt_, 10, [&] { ++a_fired; });
  b.retx.after(rt_, 10, [&] { ++b_fired; });
  EXPECT_EQ(rt_.live(), 2u);
  EXPECT_TRUE(a.retx.pending());
  EXPECT_TRUE(b.retx.pending());
  sched_.run_until(10);
  EXPECT_EQ(a_fired, 1);
  EXPECT_EQ(b_fired, 1);
}

TEST_F(TimerTest, ErasingARecordCancelsItsTimers) {
  int torn_down = 0;
  int other = 0;
  FlatMap<int, Record> table;
  table[1].retx.after(rt_, 10, [&] { ++torn_down; });
  table[1].timeout.after_global(rt_, 30, [&] { ++torn_down; });
  table[2].retx.after(rt_, 40, [&] { ++other; });
  table.erase(1);  // VC teardown
  EXPECT_EQ(rt_.live(), 1u);
  sched_.run_until(100);
  EXPECT_EQ(torn_down, 0);
  EXPECT_EQ(other, 1);
}

TEST_F(TimerTest, ClearingATableCancelsEveryTimer) {
  int fired = 0;
  FlatMap<int, Record> table;
  for (int key = 0; key < 8; ++key) {
    table[key].retx.after(rt_, 10 + key, [&] { ++fired; });
    table[key].timeout.after_global(rt_, 20 + key, [&] { ++fired; });
  }
  EXPECT_EQ(rt_.live(), 16u);
  table.clear();  // crash: every protocol timer dies with the node
  EXPECT_EQ(rt_.live(), 0u);
  sched_.run_until(1000);
  EXPECT_EQ(fired, 0);
}

TEST_F(TimerTest, DestructionCancels) {
  int fired = 0;
  {
    Timer doomed;
    doomed.after(rt_, 100, [&] { ++fired; });
    EXPECT_EQ(rt_.live(), 1u);
  }
  EXPECT_EQ(rt_.live(), 0u);
  sched_.run_until(1000);
  EXPECT_EQ(fired, 0);
}

TEST_F(TimerTest, CallbackMayRearmItsOwnTimer) {
  // The retransmit pattern: each expiry re-arms the same timer from inside
  // the firing event.
  int tries = 0;
  Timer t;
  std::function<void()> retransmit = [&] {
    if (++tries < 5) {
      t.after(rt_, 100, retransmit);
      EXPECT_EQ(rt_.live(), 1u);
    }
  };
  t.after(rt_, 100, retransmit);
  sched_.run_until(10'000);
  EXPECT_EQ(tries, 5);
  EXPECT_FALSE(t.pending());
}

TEST_F(TimerTest, MoveTransfersThePendingEvent) {
  int fired = 0;
  Timer src;
  src.after(rt_, 100, [&] { ++fired; });
  Timer dst(std::move(src));
  EXPECT_TRUE(dst.pending());
  // The moved-from Timer is inert: cancelling or destroying it leaves the
  // event with its new owner.
  EXPECT_FALSE(src.pending());
  src.cancel();
  { Timer gone(std::move(src)); }
  EXPECT_EQ(rt_.live(), 1u);
  sched_.run_until(100);
  EXPECT_EQ(fired, 1);
}

TEST_F(TimerTest, MoveAssignCancelsTheOverwrittenEvent) {
  int overwritten = 0;
  int moved = 0;
  Timer dst;
  Timer src;
  dst.after(rt_, 10, [&] { ++overwritten; });
  src.after(rt_, 20, [&] { ++moved; });
  dst = std::move(src);
  EXPECT_EQ(rt_.live(), 1u);
  sched_.run_until(100);
  EXPECT_EQ(overwritten, 0);
  EXPECT_EQ(moved, 1);
}

TEST_F(TimerTest, DestroyingTheOwnerInItsCallbackIsSafe) {
  // A timeout that drops its own record (op timed out, peer declared dead).
  int fired = 0;
  auto rec = std::make_unique<Record>();
  rec->timeout.after(rt_, 10, [&] {
    ++fired;
    rec.reset();
  });
  rec->retx.after(rt_, 20, [&] { ++fired; });
  sched_.run_until(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(rec, nullptr);
  EXPECT_EQ(rt_.live(), 0u);
}

TEST(LocalClock, PerfectClockIsIdentity) {
  LocalClock c;
  EXPECT_EQ(c.local_time(12345), 12345);
  EXPECT_EQ(c.true_duration(1000), 1000);
}

TEST(LocalClock, OffsetShifts) {
  LocalClock c(500, 0.0);
  EXPECT_EQ(c.local_time(1000), 1500);
}

TEST(LocalClock, DriftAccumulates) {
  LocalClock c(0, 100.0);  // +100 ppm: fast clock
  // After 1 true second the local clock reads 1s + 100us.
  EXPECT_EQ(c.local_time(1 * kSecond), 1 * kSecond + 100 * kMicrosecond);
}

TEST(LocalClock, TrueDurationInvertsDrift) {
  LocalClock c(0, 200.0);
  const Duration local = 1 * kSecond;
  const Duration truth = c.true_duration(local);
  // A fast clock reaches a local second in slightly less true time.
  EXPECT_LT(truth, local);
  // local_time(truth) ~= local (within 1ns rounding).
  EXPECT_NEAR(static_cast<double>(c.local_time(truth)), static_cast<double>(local), 1.5);
}

TEST(LocalClock, AdjustOffset) {
  LocalClock c(0, 0.0);
  c.adjust_offset(-250);
  EXPECT_EQ(c.local_time(1000), 750);
}

}  // namespace
}  // namespace cmtos::sim
