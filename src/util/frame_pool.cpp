#include "util/frame_pool.h"

#include <algorithm>

#include "util/contract.h"
#include "util/sync.h"

namespace cmtos {

namespace {
// Size classes: powers of two from 1 KiB to 1 MiB.  Larger leases become
// one-off heap frames (counted as misses); the media path's OSDU sizes
// land comfortably inside the range.
constexpr int kMinClassShift = 10;
constexpr int kMaxClassShift = 20;
constexpr int kNumClasses = kMaxClassShift - kMinClassShift + 1;
// Magazine bounds: above the cap, half the magazine flushes to the depot;
// on an empty magazine, up to half a cap's worth is pulled back.
constexpr std::size_t kMagazineCap = 64;

/// Smallest class whose capacity covers `n`, or -1 when oversize.
int class_for(std::size_t n) {
  for (int c = 0; c < kNumClasses; ++c) {
    if ((std::size_t{1} << (kMinClassShift + c)) >= n) return c;
  }
  return -1;
}
}  // namespace

struct FramePool::Depot {
  Mutex mu;
  std::vector<FrameBuf*> free[kNumClasses] CMTOS_GUARDED_BY(mu);
};

struct FramePool::Magazine {
  FramePool* owner = nullptr;
  std::vector<FrameBuf*> free[kNumClasses];

  void flush() {
    if (owner == nullptr) return;
    Depot& depot = *owner->depot_;
    const MutexLock lock(depot.mu);
    for (int c = 0; c < kNumClasses; ++c) {
      auto& dst = depot.free[c];
      dst.insert(dst.end(), free[c].begin(), free[c].end());
      free[c].clear();
    }
  }
  ~Magazine() { flush(); }
};

void FrameBuf::release() {
  if (refs_.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  if (pool_ != nullptr) {
    pool_->release(this);
  } else {
    delete this;  // adopted vector or oversize one-off
  }
}

PayloadView FrameLease::freeze(std::size_t len) && {
  CMTOS_DCHECK(frame_ != nullptr);
  CMTOS_DCHECK(len <= frame_->capacity());
  FrameBuf* f = frame_;
  frame_ = nullptr;
  // The lease's reference transfers to the view.
  return PayloadView(f, 0, len, /*add_ref=*/false);
}

void FrameLease::drop() noexcept {
  if (frame_ != nullptr) {
    frame_->release();
    frame_ = nullptr;
  }
}

PayloadView PayloadView::adopt(std::vector<std::uint8_t>&& bytes) {
  if (bytes.empty()) return {};
  auto* f = new FrameBuf;
  f->storage_ = std::move(bytes);
  f->pool_ = nullptr;
  f->refs_.store(1, std::memory_order_relaxed);
  FramePool::global().adoptions_.fetch_add(1, std::memory_order_relaxed);
  return PayloadView(f, 0, f->storage_.size(), /*add_ref=*/false);
}

PayloadView PayloadView::subview(std::size_t off, std::size_t len) const {
  CMTOS_DCHECK(off + len <= len_);
  if (frame_ == nullptr || len == 0) {
    // A zero-length slice needs no frame pin (zero-length OSDUs exist).
    return {};
  }
  return PayloadView(frame_, off_ + off, len, /*add_ref=*/true);
}

PayloadView PayloadView::extend(std::size_t len) const {
  if (len == 0) return {};
  CMTOS_DCHECK(frame_ != nullptr);
  CMTOS_DCHECK(off_ + len <= frame_->capacity());
  return PayloadView(frame_, off_, len, /*add_ref=*/true);
}

FramePool::FramePool() : depot_(new Depot) {}

FramePool::~FramePool() {
  // Only non-global pools are ever destroyed (global() leaks by design);
  // their frames all sit in the depot because magazines serve the global
  // instance alone.  The depot lock is still taken for the sweep: a
  // release() racing destruction is already UB, but holding mu keeps the
  // declared guarded_by discipline intact on every depot access.
  if (depot_ == nullptr) return;
  {
    const MutexLock lock(depot_->mu);
    for (auto& cls : depot_->free) {
      for (FrameBuf* f : cls) delete f;
      cls.clear();
    }
  }
  delete depot_;
}

FramePool& FramePool::global() {
  // Leaked on purpose: shard worker threads flush their magazines at
  // thread exit, which must never race static destruction of the depot.
  static FramePool* pool = new FramePool;
  return *pool;
}

FramePool::Magazine& FramePool::magazine() {
  thread_local Magazine mag;
  if (mag.owner != this) {
    mag.flush();
    mag.owner = this;
  }
  return mag;
}

FrameLease FramePool::lease(std::size_t min_bytes) {
  const int c = class_for(min_bytes);
  if (c < 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    auto* f = new FrameBuf;
    f->storage_.resize(min_bytes);
    f->pool_ = nullptr;  // oversize: freed, not recycled
    f->refs_.store(1, std::memory_order_relaxed);
    return FrameLease(f);
  }

  FrameBuf* f = nullptr;
  const bool use_magazine = this == &global();
  if (use_magazine) {
    Magazine& mag = magazine();
    auto& shelf = mag.free[static_cast<std::size_t>(c)];
    if (!shelf.empty()) {
      f = shelf.back();
      shelf.pop_back();
    } else {
      // Refill half a magazine from the depot in one lock hold.
      const MutexLock lock(depot_->mu);
      auto& src = depot_->free[static_cast<std::size_t>(c)];
      const std::size_t take = std::min(src.size(), kMagazineCap / 2);
      if (take > 0) {
        shelf.insert(shelf.end(), src.end() - static_cast<std::ptrdiff_t>(take), src.end());
        src.resize(src.size() - take);
        f = shelf.back();
        shelf.pop_back();
      }
    }
  } else {
    const MutexLock lock(depot_->mu);
    auto& src = depot_->free[static_cast<std::size_t>(c)];
    if (!src.empty()) {
      f = src.back();
      src.pop_back();
    }
  }

  if (f != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    f = new FrameBuf;
    f->storage_.resize(std::size_t{1} << (kMinClassShift + c));
    f->pool_ = this;
    f->size_class_ = static_cast<std::uint8_t>(c);
  }
  f->refs_.store(1, std::memory_order_relaxed);
  return FrameLease(f);
}

void FramePool::release(FrameBuf* f) {
  const auto c = static_cast<std::size_t>(f->size_class_);
  if (this == &global()) {
    Magazine& mag = magazine();
    auto& shelf = mag.free[c];
    shelf.push_back(f);
    if (shelf.size() > kMagazineCap) {
      // Flush the older half to the depot in one lock hold.
      const MutexLock lock(depot_->mu);
      auto& dst = depot_->free[c];
      dst.insert(dst.end(), shelf.begin(),
                 shelf.begin() + static_cast<std::ptrdiff_t>(kMagazineCap / 2));
      shelf.erase(shelf.begin(), shelf.begin() + static_cast<std::ptrdiff_t>(kMagazineCap / 2));
    }
  } else {
    const MutexLock lock(depot_->mu);
    depot_->free[c].push_back(f);
  }
}

FramePoolStats FramePool::stats() const {
  FramePoolStats s;
  s.pool_hits = hits_.load(std::memory_order_relaxed);
  s.pool_misses = misses_.load(std::memory_order_relaxed);
  s.adoptions = adoptions_.load(std::memory_order_relaxed);
  s.copies = copies_.load(std::memory_order_relaxed);
  s.copied_bytes = copied_bytes_.load(std::memory_order_relaxed);
  return s;
}

void FramePool::count_copy(std::size_t bytes) {
  copies_.fetch_add(1, std::memory_order_relaxed);
  copied_bytes_.fetch_add(static_cast<std::int64_t>(bytes), std::memory_order_relaxed);
}

void FramePool::reset_stats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  adoptions_.store(0, std::memory_order_relaxed);
  copies_.store(0, std::memory_order_relaxed);
  copied_bytes_.store(0, std::memory_order_relaxed);
}

}  // namespace cmtos
