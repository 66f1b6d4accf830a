// Global operator new/delete replacement that counts heap allocations, so
// the data-plane throughput benches can report allocations per delivered
// OSDU.  Include from the bench's own translation unit only (each bench is
// a single-TU binary; replacing the global allocation functions twice in
// one binary is an ODR violation).
//
// Only the two core forms are replaced; the array, nothrow and sized
// variants all funnel through these by default.  The aligned forms are
// replaced too because standard containers may over-align under some
// toolchains.

#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace cmtos::bench {

inline std::atomic<std::int64_t> g_heap_allocs{0};

/// Number of operator-new calls since process start.  Deterministic in a
/// single-threaded run, so snapshot deltas are diffable across runs.
inline std::int64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

}  // namespace cmtos::bench

void* operator new(std::size_t n) {
  cmtos::bench::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t n, std::align_val_t al) {
  cmtos::bench::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a, n ? n : 1) == 0) return p;
  throw std::bad_alloc();
}

// Once these are inlined into a delete of a new-expression, GCC sees free()
// on operator-new memory; the replacement new above is malloc-backed, so
// the pairing is correct.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
