// Global operator new/delete replacement that counts heap allocations and
// net live bytes (malloc_usable_size), so the data-plane and scale claims
// can report allocations per delivered OSDU and heap bytes per VC.  Link
// this file into a binary at most once: it is the one translation unit
// that replaces the global allocation functions.
//
// Only the core forms are replaced; the array, nothrow and sized variants
// all funnel through these by default.  The aligned forms are replaced too
// because standard containers may over-align under some toolchains.

#include "alloc_hooks.h"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace cmtos::bench {
namespace {

std::atomic<std::int64_t> g_allocs{0};
std::atomic<std::int64_t> g_net_bytes{0};

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_net_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                        std::memory_order_relaxed);
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_net_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                        std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

std::int64_t heap_allocs() { return g_allocs.load(std::memory_order_relaxed); }
std::int64_t heap_bytes() { return g_net_bytes.load(std::memory_order_relaxed); }

}  // namespace cmtos::bench

void* operator new(std::size_t n) { return cmtos::bench::counted(std::malloc(n ? n : 1)); }

void* operator new(std::size_t n, std::align_val_t al) {
  const std::size_t a = static_cast<std::size_t>(al);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a, n ? n : 1) != 0) p = nullptr;
  return cmtos::bench::counted(p);
}

void operator delete(void* p) noexcept { cmtos::bench::release(p); }
void operator delete(void* p, std::size_t) noexcept { cmtos::bench::release(p); }
void operator delete(void* p, std::align_val_t) noexcept { cmtos::bench::release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { cmtos::bench::release(p); }
