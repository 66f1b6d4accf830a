#include "net/packet.h"

#include <array>

namespace cmtos::net {
namespace {

// Bounds: how many spare vectors a thread keeps per size class, and the
// largest capacity worth keeping (a media batch is at most
// media_batch_max packets).
constexpr std::size_t kSpareVectors = 16;
constexpr std::size_t kMaxSpareCapacity = 256;

struct Spares {
  std::array<std::vector<Packet>, kSpareVectors> v;
  std::size_t count = 0;
};

// Two size classes, one-packet vectors and batch vectors, so a single
// packet's vector is never grown into a batch's or a batch's pinned by a
// single packet.
Spares& spares(std::size_t capacity) {
  thread_local std::array<Spares, 2> classes;
  return classes[capacity > 1 ? 1 : 0];
}

}  // namespace

std::vector<Packet> take_packet_vector(std::size_t capacity) {
  Spares& s = spares(capacity);
  std::vector<Packet> v;
  if (s.count > 0) v = std::move(s.v[--s.count]);
  v.reserve(capacity);
  return v;
}

void give_packet_vector(std::vector<Packet>&& v) {
  v.clear();
  if (v.capacity() == 0 || v.capacity() > kMaxSpareCapacity) return;
  Spares& s = spares(v.capacity());
  if (s.count < kSpareVectors) s.v[s.count++] = std::move(v);
}

}  // namespace cmtos::net
