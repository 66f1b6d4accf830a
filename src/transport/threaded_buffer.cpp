#include "transport/threaded_buffer.h"

#include "obs/trace.h"
#include "util/contract.h"

namespace cmtos::transport {

namespace {

/// Measures the blocking time of a semaphore acquire.  A fast path tries
/// try_acquire first so uncontended operation costs no clock reads.  A
/// contended wait is counted in `blocks` before it starts, so once the
/// count rises this side is committed to waiting and the peer's next
/// release ends that wait; the wait time goes to `blocked_ns` afterwards.
/// Returns true when the wait was contended (fast path missed).
template <typename Sem>
bool timed_acquire(Sem& sem, std::atomic<std::int64_t>& blocks,
                   std::atomic<std::int64_t>& blocked_ns) {
  if (sem.try_acquire()) return false;
  const auto t0 = std::chrono::steady_clock::now();
  blocks.fetch_add(1, std::memory_order_release);
  sem.acquire();
  const auto t1 = std::chrono::steady_clock::now();
  blocked_ns.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count(),
                       std::memory_order_relaxed);
  return true;
}

}  // namespace

ThreadedStreamBuffer::ThreadedStreamBuffer(std::size_t capacity)
    : slots_(capacity),
      free_slots_(static_cast<std::ptrdiff_t>(capacity)),
      filled_slots_(0) {
  CMTOS_ASSERT(capacity > 0, "tbuf.capacity");
}

void ThreadedStreamBuffer::push(Osdu&& osdu) {
  if (timed_acquire(free_slots_, producer_blocks_, producer_blocked_ns_))
    obs::Tracer::global().instant("ThreadedBuffer.producer_wait");
  CMTOS_DCHECK(tail_ < slots_.size());
  slots_[tail_] = std::move(osdu);
  tail_ = (tail_ + 1) % slots_.size();
  filled_slots_.release();
}

Osdu* ThreadedStreamBuffer::acquire() {
  if (timed_acquire(filled_slots_, consumer_blocks_, consumer_blocked_ns_))
    obs::Tracer::global().instant("ThreadedBuffer.consumer_wait");
  // acquire/release must alternate strictly: a second acquire would hand
  // out the same slot twice (consumer-thread state, so no atomics needed).
  CMTOS_ASSERT(!consumer_holds_slot_, "tbuf.acquire_unpaired");
  consumer_holds_slot_ = true;
  CMTOS_DCHECK(head_ < slots_.size());
  return &slots_[head_];
}

void ThreadedStreamBuffer::release() {
  CMTOS_ASSERT(consumer_holds_slot_, "tbuf.release_unpaired");
  consumer_holds_slot_ = false;
  head_ = (head_ + 1) % slots_.size();
  free_slots_.release();
}

Osdu ThreadedStreamBuffer::pop() {
  Osdu* p = acquire();
  Osdu v = std::move(*p);
  release();
  return v;
}

}  // namespace cmtos::transport
