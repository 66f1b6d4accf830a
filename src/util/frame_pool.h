// cmtos/util/frame_pool.h
//
// Zero-copy payload substrate for the two-world data plane (DESIGN.md
// "Two-world data plane"): media payload bytes are written once, into a
// pooled refcounted FrameBuf, and every later stage — segmentation, the
// NAK retain map, link transit, reassembly, in-order delivery — holds a
// PayloadView (frame + offset + length).  Segmentation and reassembly
// become index arithmetic instead of memcpy, and the steady-state media
// path recycles frames instead of touching the heap.  Control-plane code
// keeps its ordinary vector idioms; nothing here is used there.
//
// Threading: a view created on the source shard is released on the sink
// shard, so the frame refcount is atomic.  Allocation and release go
// through per-thread magazines; the shared depot mutex is taken only when
// a magazine over- or underflows (a cold, amortised path), so the
// steady-state media path acquires no locks.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace cmtos {

class FramePool;
class PayloadView;
class FrameLease;

/// Pool statistics.  Plain atomics, deliberately NOT published to the obs
/// registry: the hit/miss split depends on cross-shard free timing and
/// would differ across --threads counts, breaking the byte-identical soak
/// snapshots (tests/determinism_check.py).  Benches and tests read them
/// directly via FramePool::stats().
struct FramePoolStats {
  std::int64_t pool_hits = 0;     // leases served from a magazine or the depot
  std::int64_t pool_misses = 0;   // leases that fell back to heap allocation
  std::int64_t adoptions = 0;     // heap vectors wrapped via PayloadView::adopt
  std::int64_t copies = 0;        // pool-backed copies (reassembly gather fallback)
  std::int64_t copied_bytes = 0;  // bytes moved by those copies
};

/// One pooled payload buffer.  Never handled directly by protocol code:
/// FrameLease writes it, PayloadView reads it, the pool recycles it when
/// the last view drops.
class FrameBuf {
 public:
  std::uint8_t* data() { return storage_.data(); }
  const std::uint8_t* data() const { return storage_.data(); }
  std::size_t capacity() const { return storage_.size(); }

 private:
  friend class FramePool;
  friend class PayloadView;
  friend class FrameLease;

  void add_ref() { refs_.fetch_add(1, std::memory_order_relaxed); }
  /// Returns the frame to its pool (or frees it) when the last ref drops.
  void release();

  std::vector<std::uint8_t> storage_;
  std::atomic<std::uint32_t> refs_{0};
  FramePool* pool_ = nullptr;  // home pool; nullptr = one-off (adopted/oversize)
  std::uint8_t size_class_ = 0;
};

/// An immutable, refcounted slice of a FrameBuf.  Cheap to copy (one
/// relaxed atomic increment), cheap to subdivide (subview is pure index
/// arithmetic) and safe to hand across shards.  The vector-compatible
/// surface (size/empty/begin/end/operator[]/==) keeps call sites and
/// tests unchanged.
class PayloadView {
 public:
  PayloadView() noexcept = default;
  PayloadView(const PayloadView& o) noexcept : frame_(o.frame_), off_(o.off_), len_(o.len_) {
    if (frame_ != nullptr) frame_->add_ref();
  }
  PayloadView(PayloadView&& o) noexcept : frame_(o.frame_), off_(o.off_), len_(o.len_) {
    o.frame_ = nullptr;
    o.off_ = 0;
    o.len_ = 0;
  }
  PayloadView& operator=(const PayloadView& o) noexcept {
    if (this != &o) {
      if (o.frame_ != nullptr) o.frame_->add_ref();
      reset();
      frame_ = o.frame_;
      off_ = o.off_;
      len_ = o.len_;
    }
    return *this;
  }
  PayloadView& operator=(PayloadView&& o) noexcept {
    if (this != &o) {
      reset();
      frame_ = o.frame_;
      off_ = o.off_;
      len_ = o.len_;
      o.frame_ = nullptr;
      o.off_ = 0;
      o.len_ = 0;
    }
    return *this;
  }
  ~PayloadView() { reset(); }

  /// Wraps an existing heap vector without copying (the compat path for
  /// submit(vector) callers).  One frame-header allocation; the vector's
  /// storage is freed when the last view drops.
  static PayloadView adopt(std::vector<std::uint8_t>&& bytes);

  std::size_t size() const noexcept { return len_; }
  bool empty() const noexcept { return len_ == 0; }
  const std::uint8_t* data() const noexcept {
    return frame_ != nullptr ? frame_->data() + off_ : nullptr;
  }
  std::span<const std::uint8_t> span() const noexcept { return {data(), len_}; }
  operator std::span<const std::uint8_t>() const noexcept { return span(); }
  const std::uint8_t* begin() const noexcept { return data(); }
  const std::uint8_t* end() const noexcept { return data() + len_; }
  std::uint8_t operator[](std::size_t i) const noexcept { return data()[i]; }

  /// Zero-copy sub-range sharing (and pinning) the same frame.
  PayloadView subview(std::size_t off, std::size_t len) const;

  /// A view over the same frame starting where this view starts, `len`
  /// bytes long.  `len` may exceed this view's own length (but not the
  /// frame capacity): reassembly re-joins contiguous fragments of one
  /// frame with it, turning an OSDU gather into index arithmetic.
  PayloadView extend(std::size_t len) const;

  /// The underlying frame (nullptr when empty) and the offset into it.
  /// Reassembly uses these to recognise fragments of one frame and
  /// re-join them without a gather copy.
  const FrameBuf* frame() const noexcept { return frame_; }
  std::size_t offset() const noexcept { return off_; }

  std::vector<std::uint8_t> to_vector() const { return {begin(), end()}; }

  void reset() noexcept {
    if (frame_ != nullptr) frame_->release();
    frame_ = nullptr;
    off_ = 0;
    len_ = 0;
  }

  friend bool operator==(const PayloadView& a, const PayloadView& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const PayloadView& a, const std::vector<std::uint8_t>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  friend class FramePool;
  friend class FrameLease;
  PayloadView(FrameBuf* f, std::size_t off, std::size_t len, bool add_ref) noexcept
      : frame_(f), off_(static_cast<std::uint32_t>(off)), len_(static_cast<std::uint32_t>(len)) {
    if (add_ref && frame_ != nullptr) frame_->add_ref();
  }

  FrameBuf* frame_ = nullptr;
  std::uint32_t off_ = 0;
  std::uint32_t len_ = 0;
};

/// Exclusive writable handle on a pooled frame: the media source writes
/// the payload bytes once, then freezes the frame into an immutable
/// PayloadView.  Dropping an unfrozen lease returns the frame unused.
class FrameLease {
 public:
  FrameLease() noexcept = default;
  FrameLease(const FrameLease&) = delete;
  FrameLease& operator=(const FrameLease&) = delete;
  FrameLease(FrameLease&& o) noexcept : frame_(o.frame_) { o.frame_ = nullptr; }
  FrameLease& operator=(FrameLease&& o) noexcept {
    if (this != &o) {
      drop();
      frame_ = o.frame_;
      o.frame_ = nullptr;
    }
    return *this;
  }
  ~FrameLease() { drop(); }

  explicit operator bool() const noexcept { return frame_ != nullptr; }
  std::uint8_t* data() noexcept { return frame_ != nullptr ? frame_->data() : nullptr; }
  std::size_t capacity() const noexcept { return frame_ != nullptr ? frame_->capacity() : 0; }

  /// Freezes the first `len` bytes into an immutable view, consuming the
  /// lease.  `len` must not exceed capacity().
  PayloadView freeze(std::size_t len) &&;

 private:
  friend class FramePool;
  explicit FrameLease(FrameBuf* f) noexcept : frame_(f) {}
  void drop() noexcept;

  FrameBuf* frame_ = nullptr;
};

/// Size-classed frame pool (powers of two, 1 KiB .. 1 MiB; larger leases
/// are one-off heap frames, counted as misses).  Per-thread magazines
/// front a mutex-guarded depot; see the header comment for the locking
/// story.  The process-wide instance (global()) is intentionally leaked at
/// exit so shard threads and static-destruction order cannot race it.
class FramePool {
 public:
  FramePool();
  ~FramePool();
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  static FramePool& global();

  /// A writable frame with capacity >= min_bytes.
  FrameLease lease(std::size_t min_bytes);

  FramePoolStats stats() const;
  /// Zeroes the counters (benches/tests isolate measurement windows).
  void reset_stats();

  /// Counts an explicit data-path copy performed by a caller (e.g. the
  /// reassembly gather fallback), so every media-byte copy shows up in
  /// stats() regardless of who performed it.
  void count_copy(std::size_t bytes);

 private:
  friend class FrameBuf;
  friend class PayloadView;
  friend class FrameLease;

  struct Depot;
  struct Magazine;

  void release(FrameBuf* f);
  Magazine& magazine();

  Depot* depot_ = nullptr;  // created lazily, owned

  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
  std::atomic<std::int64_t> adoptions_{0};
  std::atomic<std::int64_t> copies_{0};
  std::atomic<std::int64_t> copied_bytes_{0};
};

}  // namespace cmtos
