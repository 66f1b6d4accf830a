// cmtos/transport/threaded_buffer.h
//
// Real-concurrency instantiation of the §3.7 shared circular buffer: a
// single-producer / single-consumer OSDU ring with std::counting_semaphore
// access contention between a true application thread and a true protocol
// thread, including the semaphore-wait-time accounting the paper's
// orchestration service consumes.
//
// The discrete-event simulation uses StreamBuffer (same semantics, modelled
// time); this class exists to demonstrate and benchmark the mechanism on
// real threads (experiment A3), including the zero-copy claim: the consumer
// reads the OSDU in place and releases the slot explicitly.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <semaphore>
#include <vector>

#include "transport/osdu.h"
#include "util/sync.h"

namespace cmtos::transport {

class ThreadedStreamBuffer {
 public:
  explicit ThreadedStreamBuffer(std::size_t capacity);

  std::size_t capacity() const { return slots_.size(); }

  /// The SPSC role capabilities.  Each side of the ring wraps its calls in
  /// a cmtos::ThreadRoleGuard on the matching role; Clang's thread-safety
  /// analysis then proves at compile time that producer-side state (tail_)
  /// and consumer-side state (head_, the acquire/release pairing flag) are
  /// never touched from the wrong side.  Zero runtime cost — the roles are
  /// phantom capabilities (util/sync.h).
  ThreadRole& producer_role() CMTOS_RETURN_CAPABILITY(producer_role_) {
    return producer_role_;
  }
  ThreadRole& consumer_role() CMTOS_RETURN_CAPABILITY(consumer_role_) {
    return consumer_role_;
  }

  /// Blocks until a slot is free, then moves `osdu` in.  Wait time is
  /// accumulated into producer_blocked_ns.
  void push(Osdu&& osdu) CMTOS_REQUIRES(producer_role_);

  /// Blocks until data is available and returns a pointer to the OSDU *in
  /// place* (zero copy).  The slot remains owned by the consumer until
  /// release() is called.  Wait time accumulates into consumer_blocked_ns.
  Osdu* acquire() CMTOS_REQUIRES(consumer_role_);

  /// Releases the slot returned by the last acquire().
  void release() CMTOS_REQUIRES(consumer_role_);

  /// Convenience: acquire + move out + release (one copy).
  Osdu pop() CMTOS_REQUIRES(consumer_role_);

  std::int64_t producer_blocked_ns() const { return producer_blocked_ns_.load(); }
  std::int64_t consumer_blocked_ns() const { return consumer_blocked_ns_.load(); }

  /// Number of contended waits (operations that did not take the
  /// try_acquire fast path) per side.  A wait is counted when it starts,
  /// so a count that has risen means that side is waiting for the peer.
  std::int64_t producer_blocks() const { return producer_blocks_.load(); }
  std::int64_t consumer_blocks() const { return consumer_blocks_.load(); }

 private:
  ThreadRole producer_role_;
  ThreadRole consumer_role_;

  // slots_ itself is shared: slot handoff is mediated by the semaphores,
  // which the role capabilities cannot express, so it stays unannotated.
  std::vector<Osdu> slots_;
  std::counting_semaphore<> free_slots_;
  std::counting_semaphore<> filled_slots_;
  std::size_t head_ CMTOS_GUARDED_BY(consumer_role_) = 0;  // consumer index
  std::size_t tail_ CMTOS_GUARDED_BY(producer_role_) = 0;  // producer index
  // acquire/release pairing flag (consumer thread only)
  bool consumer_holds_slot_ CMTOS_GUARDED_BY(consumer_role_) = false;
  std::atomic<std::int64_t> producer_blocked_ns_{0};
  std::atomic<std::int64_t> consumer_blocked_ns_{0};
  std::atomic<std::int64_t> producer_blocks_{0};
  std::atomic<std::int64_t> consumer_blocks_{0};
};

}  // namespace cmtos::transport
