#include "media/content.h"

#include <algorithm>

#include "util/byte_io.h"
#include "util/checksum.h"
#include "util/rng.h"

namespace cmtos::media {

namespace {
constexpr std::size_t kHeaderBytes = 16;  // track(4) + index(4) + len(4) + crc(4)

void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Writes one frame (header + deterministic body) into `out`, which must
/// be exactly the frame size.  Shared by the heap and pooled variants so
/// both produce byte-identical frames.
void fill_frame(std::span<std::uint8_t> out, std::uint32_t track_id, std::uint32_t index) {
  const std::size_t body_len = out.size() - kHeaderBytes;
  const auto body = out.subspan(kHeaderBytes);
  Rng rng((static_cast<std::uint64_t>(track_id) << 32) | index);
  // All eight bytes of each draw, little-endian, so the body is the same on
  // every host.
  std::size_t i = 0;
  for (; i + 8 <= body_len; i += 8) {
    const std::uint64_t v = rng.next_u64();
    for (std::size_t k = 0; k < 8; ++k) body[i + k] = static_cast<std::uint8_t>(v >> (8 * k));
  }
  for (std::uint64_t v = rng.next_u64(); i < body_len; ++i, v >>= 8)
    body[i] = static_cast<std::uint8_t>(v);
  put_u32(out.data(), track_id);
  put_u32(out.data() + 4, index);
  put_u32(out.data() + 8, static_cast<std::uint32_t>(body_len));
  put_u32(out.data() + 12, crc32(body));
}

}  // namespace

std::vector<std::uint8_t> make_frame(std::uint32_t track_id, std::uint32_t index,
                                     std::size_t size) {
  std::vector<std::uint8_t> frame(std::max(size, kHeaderBytes));
  fill_frame(frame, track_id, index);
  return frame;
}

PayloadView make_frame_view(std::uint32_t track_id, std::uint32_t index, std::size_t size) {
  size = std::max(size, kHeaderBytes);
  FrameLease lease = FramePool::global().lease(size);
  fill_frame({lease.data(), size}, track_id, index);
  return std::move(lease).freeze(size);
}

std::optional<FrameHeader> verify_frame(std::span<const std::uint8_t> frame) {
  try {
    ByteReader r(frame);
    FrameHeader h;
    h.track_id = r.u32();
    h.index = r.u32();
    const std::uint32_t body_len = r.u32();
    const std::uint32_t crc = r.u32();
    if (frame.size() != kHeaderBytes + body_len) return std::nullopt;
    if (crc32(frame.subspan(kHeaderBytes)) != crc) return std::nullopt;
    return h;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

std::size_t VbrModel::frame_bytes(std::uint32_t index) const {
  // gop <= 0 selects constant-bit-rate mode: every frame is base_bytes
  // (plus wobble); the I/P pattern applies only when a GOP is configured.
  double size = static_cast<double>(base_bytes);
  if (gop > 0) {
    const bool i_frame = index % static_cast<std::uint32_t>(gop) == 0;
    size *= i_frame ? i_ratio : p_ratio;
  }
  // Deterministic wobble in [-wobble, +wobble].
  Rng rng(0x5eedull ^ index * 0x9e3779b97f4a7c15ull);
  size *= 1.0 + wobble * (2.0 * rng.next_double() - 1.0);
  return static_cast<std::size_t>(std::max(32.0, size));
}

}  // namespace cmtos::media
