// cmtos/util/byte_io.h
//
// Little-endian wire (de)serialisation helpers for protocol data units.
// All cmtos PDUs (transport headers, OPDUs, RPC messages) are encoded with
// these, so encodings are identical across hosts regardless of native
// byte order — exactly what a wire format requires.
//
// They are the codec's field kernels and inline into every encoder and
// decoder: a u16/u32/u64 field is one bounds check and one whole-word load
// or store on little-endian hosts (big-endian hosts assemble bytes), and
// the DecodeError throw of an underrun sits in one cold out-of-line
// function.

#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "util/contract.h"

namespace cmtos {

/// Checked narrowing for wire-width fields: converting a host-width value
/// into a narrower PDU field must not silently truncate.  The value is
/// round-tripped through the target type; a mismatch is a contract
/// violation ("byte_io.narrow") and the truncated value is returned (wire
/// formats stay total functions — release builds count and continue).
/// cmtos-lint (rule narrowing-in-codec) requires PDU encoders to use this
/// instead of a naked static_cast.
template <typename To, typename From>
constexpr To narrow(From v) {
  const To out = static_cast<To>(v);
  CMTOS_ASSERT(static_cast<From>(out) == v && ((out < To{}) == (v < From{})),
               "byte_io.narrow");
  return out;
}

/// Encodes an enum's underlying value into a u8 wire field, checking that
/// the value actually fits: enums grow members over protocol revisions, the
/// wire width does not.
template <typename E>
constexpr std::uint8_t wire_enum(E e) {
  static_assert(std::is_enum_v<E>);
  return narrow<std::uint8_t>(static_cast<std::underlying_type_t<E>>(e));
}

/// Append-only byte writer.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { raw(v); }
  void u32(std::uint32_t v) { raw(v); }
  void u64(std::uint64_t v) { raw(v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    u64(bits);
  }
  void bytes(std::span<const std::uint8_t> b) {
    out_.insert(out_.end(), b.begin(), b.end());
  }
  /// Length-prefixed (u32) byte string.
  void blob(std::span<const std::uint8_t> b) {
    u32(narrow<std::uint32_t>(b.size()));
    bytes(b);
  }
  void str(const std::string& s) {
    blob({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

  /// Appends an unsigned integer little-endian: its own bytes on a
  /// little-endian host.
  template <typename T>
  void raw(T v) {
    std::uint8_t b[sizeof(T)];
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(b, &v, sizeof(T));
    } else {
      // Byte extraction, truncation intended.  cmtos-lint: allow(narrowing-in-codec)
      for (std::size_t i = 0; i < sizeof(T); ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    out_.insert(out_.end(), b, b + sizeof(T));
  }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Thrown by ByteReader on truncated or malformed input.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Throws the ByteReader underrun; out of line and cold so the readers'
/// fast path stays small enough to inline.
[[noreturn, gnu::cold, gnu::noinline]] inline void throw_underrun() {
  throw DecodeError("byte stream underrun");
}

/// Why a PDU decode rejected its input.  Every decoder is total over
/// arbitrary bytes and classifies its refusals with this taxonomy; the
/// receive paths turn it into `wire.decode_failed{pdu,reason}` counters and
/// the peer-quarantine logic keys off it (checksum failures are line noise
/// and never blamed on the peer; a structurally invalid PDU that carries a
/// *valid* checksum can only come from a buggy or hostile sender).
enum class WireFault : std::uint8_t {
  kNone = 0,
  kChecksum = 1,   // trailing CRC-32 mismatch (bit errors on the wire)
  kTruncated = 2,  // byte stream underrun (reader ran past the span)
  kBadType = 3,    // unknown type tag / enum value out of range
  kBadLength = 4,  // length field inconsistent with the bytes present
};

inline const char* to_string(WireFault f) {
  switch (f) {
    case WireFault::kNone: return "none";
    case WireFault::kChecksum: return "checksum";
    case WireFault::kTruncated: return "truncated";
    case WireFault::kBadType: return "bad_type";
    case WireFault::kBadLength: return "bad_length";
  }
  return "?";
}

/// Sequential byte reader; throws DecodeError on underrun.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> in) : in_(in) {}

  std::uint8_t u8() { return le<std::uint8_t>(); }
  std::uint16_t u16() { return le<std::uint16_t>(); }
  std::uint32_t u32() { return le<std::uint32_t>(); }
  std::uint64_t u64() { return le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  std::vector<std::uint8_t> blob() {
    const std::uint32_t n = u32();
    auto b = take(n);
    return {b.begin(), b.end()};
  }
  std::string str() {
    const auto b = blob();
    return {b.begin(), b.end()};
  }
  std::size_t remaining() const { return in_.size() - pos_; }
  bool at_end() const { return remaining() == 0; }

  /// Reads one little-endian unsigned integer: one bounds check, one load
  /// on a little-endian host.
  template <typename T>
  T le() {
    const std::uint8_t* p = take(sizeof(T)).data();
    T v;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, p, sizeof(T));
    } else {
      v = 0;
      for (std::size_t i = 0; i < sizeof(T); ++i)
        v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
    }
    return v;
  }

 private:
  std::span<const std::uint8_t> take(std::size_t n) {
    if (remaining() < n) throw_underrun();
    auto s = in_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  std::span<const std::uint8_t> in_;
  std::size_t pos_ = 0;
};

}  // namespace cmtos
