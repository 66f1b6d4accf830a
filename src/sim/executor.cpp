#include "sim/executor.h"

#include <algorithm>
#include <chrono>

#include "obs/trace.h"
#include "util/contract.h"

namespace cmtos::sim {
namespace {

// A handoff yield-spins up to kSpinLimit times before parking on the
// condvar: rounds are often far shorter than a futex sleep/wake.  A yield
// slower than kSlowYield handed the core to another thread, so the core is
// contended and the waiter parks at once rather than steal a peer's time.
constexpr int kSpinLimit = 4096;
constexpr auto kSlowYield = std::chrono::microseconds(50);

// A parallel round wakes the pool only when its queued events repay the
// handoff.  Spread over t threads, E events save E x (1 - 1/t) event
// costs, and the wake, the barrier and the workers' spin after the round
// cost about kHandoffEvents events, so the pool pays from
// kHandoffEvents x t / (t - 1) events on: 96 at 2 threads, 64 at 4.  Set
// from the city and the sharded claims row (DESIGN.md §10, "Which rounds
// wake the pool").
constexpr std::size_t kHandoffEvents = 48;

/// Waits until `ready()`, spinning then parking on `cv`.  The party that
/// makes `ready()` true calls wake(), so the park never misses the notify.
/// Returns true when it parked.
template <typename Ready>
bool await(Mutex& mu, CondVar& cv, const Ready& ready) {
  for (int spin = 0; spin < kSpinLimit; ++spin) {
    if (ready()) return false;
    const auto before = std::chrono::steady_clock::now();
    std::this_thread::yield();
    if (std::chrono::steady_clock::now() - before > kSlowYield) break;
  }
  const MutexLock lk(mu);
  cv.wait(mu, ready);
  return true;
}

/// Wakes the waiters of `cv` after a state change their predicate reads.
/// The empty critical section orders it: a waiter is either before its
/// predicate check (and will see the change) or parked inside wait (and
/// will get the notify), never between the two.
void wake(Mutex& mu, CondVar& cv) {
  { const MutexLock lk(mu); }
  cv.notify_all();
}

}  // namespace

thread_local NodeRuntime* Executor::current_ = nullptr;

Executor::Executor(std::uint64_t seed) : seed_(seed) {}

Executor::~Executor() { stop_workers(); }

NodeRuntime& Executor::add_shard() {
  const auto id = static_cast<std::uint32_t>(shards_.size());
  // splitmix-style per-shard stream derivation: equal executor seeds give
  // equal per-shard streams regardless of worker count.
  const std::uint64_t shard_seed = seed_ ^ (0x2545f4914f6cdd1dull * (id + 1));
  shards_.push_back(std::unique_ptr<NodeRuntime>(new NodeRuntime(this, id, shard_seed)));
  head_lb_.push_back(kTimeNever);
  global_lb_.push_back(kTimeNever);
  // Sized with the shard array, so building a round's list never allocates.
  round_shards_.reserve(head_lb_.capacity());
  return *shards_.back();
}

void Executor::set_threads(unsigned n) {
  if (n == 0) n = 1;
  if (n == threads_) return;
  stop_workers();
  threads_ = n;
  if (n > 1) start_workers(n - 1);
}

std::size_t Executor::live_events() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->live();
  return n;
}

Time Executor::probe(std::uint32_t i, bool global) {
  ++head_probes_;
  NodeRuntime& s = *shards_[i];
  if (global) return s.global_head_time();
  const NodeRuntime::HeapEntry* h = s.head();
  return h != nullptr ? h->time : kTimeNever;
}

Executor::Earliest Executor::earliest(bool global) {
  std::vector<Time>& lb = global ? global_lb_ : head_lb_;
  for (;;) {
    // The least bound (its first shard: ties go to the lowest index) and
    // the least bound among the other shards.
    std::uint32_t first = 0;
    Time m1 = kTimeNever;
    Time m2 = kTimeNever;
    for (std::uint32_t i = 0; i < lb.size(); ++i) {
      const Time t = lb[i];
      if (t < m1) {
        m2 = m1;
        m1 = t;
        first = i;
      } else if (t < m2) {
        m2 = t;
      }
    }
    if (m1 == kTimeNever) return {nullptr, kTimeNever};
    // Every bound is <= its shard's head, so a refreshed head below every
    // other bound is the earliest head.  A fire or cancel left the bound
    // stale-low otherwise: keep the refreshed head and rescan.
    const Time exact = probe(first, global);
    CMTOS_ASSERT(exact >= m1, "sched.head_bound");
    lb[first] = exact;
    if (exact == m1 || exact < m2) return {shards_[first].get(), exact};
  }
}

std::size_t Executor::run(std::size_t limit) {
  // Global single-stepping in (time, shard, seq) order — the fully serial
  // mode behind Scheduler::run(limit) and unit tests.
  std::size_t fired = 0;
  while (fired < limit) {
    NodeRuntime* best = earliest(false).shard;
    if (best == nullptr) {
      // Drained: every shard's clock joins the latest executed time, as at
      // the end of run_until, so work injected afterwards (Scheduler::now()
      // reads the control shard) is never scheduled behind a node's clock.
      Time latest = 0;
      for (auto& s : shards_) latest = std::max(latest, s->now());
      for (auto& s : shards_) s->set_now(latest);
      break;
    }
    best->execute_head();
    ++fired;
  }
  return fired;
}

std::size_t Executor::run_until(Time t) {
  fired_ = 0;
  const Time bound = t >= kTimeNever ? kTimeNever : t + 1;  // events at exactly t run
  for (;;) {
    const Time tmin = earliest(false).time;
    if (tmin >= bound) break;
    Time horizon = tmin > kTimeNever - lookahead_ ? kTimeNever : tmin + lookahead_;
    if (horizon > bound) horizon = bound;
    // Tracing serialises everything: the tracer's sim-time stamp and event
    // stream are global, and a deterministic trace byte order is part of
    // the determinism contract (DESIGN.md §10).
    const bool serial = obs::Tracer::global().enabled() || earliest(true).time < horizon;
    if (serial) {
      ++serial_rounds_;
      run_serial_round(horizon);
    } else {
      ++parallel_rounds_;
      run_parallel_round(horizon);
    }
  }
  for (auto& s : shards_) {
    if (s->now() < t) s->set_now(t);
  }
  return fired_;
}

void Executor::run_serial_round(Time horizon) {
  // Merged (time, shard, seq) order across all shards, including events
  // spawned mid-round below the horizon.  Cross-shard schedule calls insert
  // directly (no outbox) — serial rounds are serial at every thread count,
  // so the insertion order is deterministic by construction.
  for (;;) {
    const Earliest e = earliest(false);
    if (e.time >= horizon) return;
    e.shard->execute_head();
    ++fired_;
  }
}

void Executor::run_parallel_round(Time horizon) {
  parallel_phase_ = true;
  round_horizon_ = horizon;
  round_next_.store(0, std::memory_order_relaxed);
  round_fired_.store(0, std::memory_order_relaxed);
  round_probes_.store(0, std::memory_order_relaxed);
  // The round's shards: every shard whose bound is below the horizon.  A
  // bound never exceeds its head, so no runnable shard is left out; a
  // stale one finds its head past the horizon and stops at once.
  round_shards_.clear();
  for (std::uint32_t i = 0; i < shard_count(); ++i)
    if (head_lb_[i] < horizon) round_shards_.push_back(i);
  // Small-round elision: waking the pool costs more than draining one or
  // two shards, or a few dozen events, inline.  Which thread executes a
  // shard never affects event order (per-shard order plus the sorted
  // outbox drain carry determinism).  The runnable count runs at every
  // worker count and counts refreshed heads, never possibly stale bounds,
  // so head_probes stays reproducible; the event count runs only with a
  // pool and calls no probe.
  unsigned runnable = 0;
  for (const std::uint32_t i : round_shards_) {
    head_lb_[i] = probe(i, false);
    if (head_lb_[i] < horizon && ++runnable > 2) break;
  }
  if (!workers_.empty() && runnable > 2 && round_pays_for_pool(horizon)) {
    ++pool_rounds_;
    round_left_.store(0, std::memory_order_relaxed);
    const std::uint64_t gen = (round_word_.load(std::memory_order_relaxed) >> 32) + 1;
    round_word_.store(gen << 32, std::memory_order_release);
    wake(mu_, cv_start_);
    work_round();  // the calling thread participates
    // Every shard is claimed: close the round to late workers and wait only
    // for those that joined, so a worker the OS has not run cannot stall it.
    const auto joined = static_cast<unsigned>(
        round_word_.fetch_or(kRoundClosed, std::memory_order_acq_rel) & kJoinedMask);
    await(mu_, cv_done_, [&] { return round_left_.load(std::memory_order_acquire) == joined; });
    pool_events_ += round_fired_.load(std::memory_order_relaxed);
  } else {
    ++inline_rounds_;
    work_round();
  }
  parallel_phase_ = false;
  fired_ += round_fired_.load(std::memory_order_relaxed);
  head_probes_ += round_probes_.load(std::memory_order_relaxed);
  drain_outboxes();
}

bool Executor::round_pays_for_pool(Time horizon) const {
  const std::size_t want = kHandoffEvents * threads_ / (threads_ - 1);
  std::size_t n = 0;
  for (const std::uint32_t i : round_shards_) {
    n += shards_[i]->queued_before(horizon, want - n);
    if (n >= want) return true;
  }
  return false;
}

void Executor::work_round() {
  const auto n = static_cast<std::uint32_t>(round_shards_.size());
  std::size_t fired = 0;
  std::uint64_t probes = 0;
  for (;;) {
    const std::uint32_t k = round_next_.fetch_add(1, std::memory_order_relaxed);
    if (k >= n) break;
    const std::uint32_t i = round_shards_[k];
    NodeRuntime& s = *shards_[i];
    for (;;) {
      const NodeRuntime::HeapEntry* h = s.head();
      ++probes;
      // The shard stops at an empty queue, at the horizon, or in front of
      // a global event spawned mid-round (defer_global), which the next
      // (serial) round runs in merged order.  Only this thread writes the
      // shard's bound during the round: cross-shard inserts wait in
      // outboxes until the barrier.
      if (h == nullptr || h->time >= round_horizon_ || s.slots_[h->slot()].global) {
        head_lb_[i] = h != nullptr ? h->time : kTimeNever;
        break;
      }
      s.execute_head();
      ++fired;
    }
  }
  round_fired_.fetch_add(fired, std::memory_order_relaxed);
  round_probes_.fetch_add(probes, std::memory_order_relaxed);
}

void Executor::drain_outboxes() {
  // Only a shard that ran this round can hold outbox entries.  Each outbox
  // is already in its shard's (time, seq) order, so its index breaks ties.
  auto& keys = drained_;
  for (const std::uint32_t i : round_shards_) {
    const auto& out = shards_[i]->outbox_;
    for (std::uint32_t k = 0; k < out.size(); ++k) keys.push_back({out[k].src_time, i, k});
  }
  if (keys.empty()) return;
  std::sort(keys.begin(), keys.end(), [](const OutboxKey& a, const OutboxKey& b) {
    if (a.src_time != b.src_time) return a.src_time < b.src_time;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.idx < b.idx;
  });
  for (const OutboxKey& k : keys) {
    NodeRuntime::Deferred& d = shards_[k.shard]->outbox_[k.idx];
    // With a sound lookahead the delivery lands at or after the target's
    // clock; the clamp keeps a mid-run lookahead shrink deterministic
    // rather than time-travelling.
    const Time t = std::max(d.time, d.target->now());
    (void)d.target->insert_direct(t, std::move(d.fn), d.global);
  }
  keys.clear();
  for (const std::uint32_t i : round_shards_) shards_[i]->outbox_.clear();
}

void Executor::start_workers(unsigned n) {
  shutdown_.store(false, std::memory_order_relaxed);
  const std::uint64_t start_gen = round_word_.load(std::memory_order_relaxed) >> 32;
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this, start_gen] {
      std::uint64_t seen = start_gen;
      const auto fresh = [&] {
        return shutdown_.load(std::memory_order_acquire) ||
               (round_word_.load(std::memory_order_acquire) >> 32) != seen;
      };
      for (;;) {
        const bool parked = await(mu_, cv_start_, fresh);
        if (shutdown_.load(std::memory_order_acquire)) return;
        // Join the open round.  Only the current round is ever open, and a
        // count bumped on a closed one is dropped by the next publish.
        const std::uint64_t w = round_word_.fetch_add(1, std::memory_order_acq_rel);
        seen = w >> 32;
        if ((w & kRoundClosed) != 0) continue;
        if (parked) pool_wakes_.fetch_add(1, std::memory_order_relaxed);
        work_round();
        round_left_.fetch_add(1, std::memory_order_acq_rel);
        wake(mu_, cv_done_);
      }
    });
  }
}

void Executor::stop_workers() {
  if (workers_.empty()) return;
  shutdown_.store(true, std::memory_order_release);
  wake(mu_, cv_start_);
  for (auto& w : workers_) w.join();
  workers_.clear();
  shutdown_.store(false, std::memory_order_relaxed);
}

}  // namespace cmtos::sim
