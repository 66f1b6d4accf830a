// Global operator new/delete replacement: counts every allocation of the
// driver process and, while enabled, tracks live heap bytes through
// malloc_usable_size (the per-VC heap measurement).  The only translation
// unit of the binary that replaces the allocation functions.

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "harness.h"

namespace {

std::atomic<std::int64_t> g_allocs{0};
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<bool> g_track_bytes{false};

void* counted(void* p) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (g_track_bytes.load(std::memory_order_relaxed))
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  if (g_track_bytes.load(std::memory_order_relaxed))
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace perf {

std::int64_t heap_allocs() { return g_allocs.load(std::memory_order_relaxed); }
std::int64_t heap_live_bytes() { return g_live_bytes.load(std::memory_order_relaxed); }
void track_heap_bytes(bool on) { g_track_bytes.store(on, std::memory_order_relaxed); }

}  // namespace perf

void* operator new(std::size_t n) {
  if (void* p = std::malloc(n ? n : 1)) return counted(p);
  throw std::bad_alloc();
}

void* operator new(std::size_t n, std::align_val_t al) {
  const std::size_t a = static_cast<std::size_t>(al);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a, n ? n : 1) == 0)
    return counted(p);
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
