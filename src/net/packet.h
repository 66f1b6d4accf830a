// cmtos/net/packet.h
//
// The network-layer packet.  Payload bytes are the wire encoding of the
// layer above (transport TPDU, OPDU, RPC message); the remaining fields are
// the network header plus simulation-only metadata.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "net/address.h"
#include "util/frame_pool.h"
#include "util/time.h"

namespace cmtos::net {

/// Fixed network + link header overhead charged per packet, in bytes.
inline constexpr std::size_t kPacketHeaderBytes = 32;

/// Link-level scheduling class: lower value is served first.
enum class Priority : std::uint8_t {
  kControl = 0,  // connection management, OPDUs, RPC, acks/feedback
  kMedia = 1,    // CM data TPDUs
};
inline constexpr int kPriorityBands = 2;

/// A packet's wire bytes.  Up to kInlineBytes live inside the packet (every
/// data TPDU header, and the small control TPDUs), so building, copying and
/// queueing such a packet touches no heap; longer images (connection
/// management TPDUs, OPDUs, RPC bodies) live in a heap vector, adopted
/// without a copy when the encoder's vector is moved in.  The surface is
/// the subset of std::vector the codecs, the link impairments and the
/// tests use; being a contiguous range, it converts to a byte span.
class PacketBytes {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  PacketBytes() noexcept = default;
  PacketBytes(const PacketBytes& o) { assign(o.begin(), o.end()); }
  PacketBytes(PacketBytes&& o) noexcept : heap_(std::move(o.heap_)), inline_size_(o.inline_size_) {
    std::memcpy(inline_, o.inline_, inline_size_);
    o.clear();
  }
  PacketBytes& operator=(const PacketBytes& o) {
    if (this != &o) assign(o.begin(), o.end());
    return *this;
  }
  PacketBytes& operator=(PacketBytes&& o) noexcept {
    if (this != &o) {
      heap_ = std::move(o.heap_);
      inline_size_ = o.inline_size_;
      std::memcpy(inline_, o.inline_, inline_size_);
      o.clear();
    }
    return *this;
  }
  /// Adopts an encoder's vector: a long image keeps its heap buffer, a
  /// short one is copied inline.
  PacketBytes& operator=(std::vector<std::uint8_t>&& v) {
    if (v.size() <= kInlineBytes) {
      assign(v.begin(), v.end());
    } else {
      heap_ = std::move(v);
      inline_size_ = 0;
    }
    return *this;
  }
  PacketBytes& operator=(const std::vector<std::uint8_t>& v) {
    assign(v.begin(), v.end());
    return *this;
  }

  std::size_t size() const noexcept { return on_heap() ? heap_.size() : inline_size_; }
  bool empty() const noexcept { return size() == 0; }
  std::uint8_t* data() noexcept { return on_heap() ? heap_.data() : inline_; }
  const std::uint8_t* data() const noexcept { return on_heap() ? heap_.data() : inline_; }
  std::uint8_t* begin() noexcept { return data(); }
  std::uint8_t* end() noexcept { return data() + size(); }
  const std::uint8_t* begin() const noexcept { return data(); }
  const std::uint8_t* end() const noexcept { return data() + size(); }
  std::uint8_t& operator[](std::size_t i) noexcept { return data()[i]; }
  std::uint8_t operator[](std::size_t i) const noexcept { return data()[i]; }

  void clear() noexcept {
    heap_.clear();
    inline_size_ = 0;
  }
  template <std::input_iterator It>
  void assign(It first, It last) {
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    if (n <= kInlineBytes) {
      std::copy(first, last, inline_);
      heap_.clear();
      inline_size_ = static_cast<std::uint8_t>(n);
    } else {
      heap_.assign(first, last);
      inline_size_ = 0;
    }
  }
  void assign(std::size_t n, std::uint8_t value) {
    clear();
    resize(n, value);
  }
  /// Sets the size to `n`, keeping the first min(n, size()) bytes and
  /// filling any new ones with `value`.  A cut to kInlineBytes or fewer
  /// moves the bytes back inline.
  void resize(std::size_t n, std::uint8_t value = 0) {
    const std::size_t old = size();
    if (n <= kInlineBytes) {
      if (on_heap()) std::memcpy(inline_, heap_.data(), std::min(n, old));
      if (n > old) std::memset(inline_ + old, value, n - old);
      heap_.clear();
      inline_size_ = static_cast<std::uint8_t>(n);
    } else {
      if (!on_heap()) heap_.assign(inline_, inline_ + std::min(old, kInlineBytes));
      heap_.resize(n, value);
      inline_size_ = 0;
    }
  }
  /// Sets the size to `n` (at most kInlineBytes) with unspecified contents
  /// and returns the bytes to write: the fixed-size header encoders fill
  /// the inline area directly.
  std::span<std::uint8_t> overwrite_inline(std::size_t n) noexcept {
    heap_.clear();
    inline_size_ = static_cast<std::uint8_t>(std::min(n, kInlineBytes));
    return {inline_, inline_size_};
  }

 private:
  // The bytes live in heap_ exactly when it is non-empty, which only
  // happens for images longer than kInlineBytes.
  bool on_heap() const noexcept { return !heap_.empty(); }

  std::vector<std::uint8_t> heap_;
  std::uint8_t inline_size_ = 0;
  std::uint8_t inline_[kInlineBytes] = {};
};

struct Packet {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Proto proto = Proto::kTransportData;
  Priority priority = Priority::kMedia;
  /// Wire bytes of the layer above: the whole PDU for control packets, the
  /// header for data TPDUs (written straight into the inline area).  An
  /// impaired link mutates these in flight (bit flips, truncation) —
  /// receivers detect damage through their own PDU checksums, never
  /// through simulation metadata.
  PacketBytes payload;
  /// Zero-copy media payload body (two-world data plane): data TPDUs carry
  /// their serialized header in `payload` and the OSDU fragment here as a
  /// refcounted view into the source's frame, so link transit never copies
  /// media bytes.  Control-plane packets leave this empty.  Charged to the
  /// wire image by wire_size() exactly like inline payload bytes.
  PayloadView frame;

  // --- simulation metadata (not part of the wire image) ---
  /// True simulation time the packet entered the network at the source.
  Time injected_at = 0;
  /// Hop count so far, for diagnostics and TTL-style loop protection.
  int hops = 0;
  /// Unique id assigned at injection, for tracing.  Node-scoped (top bits
  /// carry the injecting shard) so parallel shards never share a counter.
  std::uint64_t id = 0;
  /// Set by the sending layer when the *terminal* delivery handler may
  /// touch shared cross-node state (control TPDUs walk reservations, RPC
  /// reaches orchestration state).  The executor then runs the delivery in
  /// a serial round.  Media/data traffic leaves this false and stays
  /// parallel.
  bool global_delivery = false;

  std::size_t wire_size() const {
    return payload.size() + frame.size() + kPacketHeaderBytes;
  }
};

/// Packet vectors that ride scheduler events: a paced burst's injection,
/// a link's media batch, a single packet in flight.  Their storage cycles
/// through a small per-thread cache — taken on the sending shard, moved
/// into the event's capture, given back by the event once its packets are
/// handed on — so the steady-state data path allocates no vector.  The
/// cache only reuses memory; nothing it holds decides behaviour.
std::vector<Packet> take_packet_vector(std::size_t capacity);
void give_packet_vector(std::vector<Packet>&& v);

}  // namespace cmtos::net
