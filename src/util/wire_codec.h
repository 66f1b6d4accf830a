// cmtos/util/wire_codec.h
//
// The codec engine of the flat control-plane PDUs (ControlTpdu, AckTpdu,
// NakTpdu, FeedbackTpdu, Opdu, RpcMsg).  Each PDU, and each struct nested
// in one, declares its fields once, in wire order, as a table
//
//   static constexpr auto wire_fields() {
//     return std::tuple{&AckTpdu::vc, &AckTpdu::cumulative_ack, &AckTpdu::window};
//   }
//
// and encode(), decode() and encoded_size() walk that one table.  A member
// is encoded by its type: an integer little-endian at its own width, a
// double as its IEEE-754 bits, an enum as one byte checked against its
// validity list (`wire_values(E)`, declared next to the enum and found by
// ADL), a std::string or byte vector as a u32 length and the bytes, any
// other std::vector as a u32 count and its entries, a struct with its own
// table inline.  A Bits<&S::a, &S::b, ...> entry packs bool members into
// one byte, member i at bit i.  A PDU of one fixed type names it as
// `kWireTag`: one byte ahead of the fields, written and checked only at
// the top level, so a nested or listed copy carries none.  The encoding
// ends with a CRC-32 trailer.
//
// decode() is total over arbitrary bytes (DESIGN.md §14) and runs inside
// decode_checked(), the one decode envelope, which the hand-written DT and
// heartbeat codecs share.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/byte_io.h"
#include "util/checksum.h"
#include "util/wire_hardening.h"

namespace cmtos::wire {

/// Table entry: bool members packed into one byte, member i at bit i
/// (decode ignores the unused bits).
template <auto... Members>
struct Bits {};

/// Validity list of an enum whose values run from 0 to Last without gaps.
template <auto Last>
constexpr auto upto() {
  using E = decltype(Last);
  std::array<E, static_cast<std::size_t>(Last) + 1> out{};
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = static_cast<E>(i);
  return out;
}

/// Verifies and strips the CRC-32 trailer (kChecksum; with hardening off,
/// the byzantine_storm_unhardened soak, the whole span is read unverified),
/// runs `read` over the body, and turns a ByteReader underrun into
/// kTruncated.  `read` returns kNone to accept, or kBadType / kBadLength.
/// The verdict goes to `fault` when non-null.
template <typename Read>
bool decode_checked(std::span<const std::uint8_t> in, WireFault* fault, Read&& read) {
  std::optional<std::span<const std::uint8_t>> body = in;
  if (hardening()) body = strip_crc32(in);
  WireFault f = WireFault::kChecksum;
  if (body) {
    try {
      ByteReader r(*body);
      f = read(r);
    } catch (const DecodeError&) {
      f = WireFault::kTruncated;
    }
  }
  if (fault != nullptr) *fault = f;
  return f == WireFault::kNone;
}

namespace detail {

template <typename V>
struct is_list : std::false_type {};
template <typename E>
struct is_list<std::vector<E>> : std::true_type {};

template <typename V>
inline constexpr bool is_blob =
    std::is_same_v<V, std::string> || std::is_same_v<V, std::vector<std::uint8_t>>;

template <typename T>
concept Tagged = requires { T::kWireTag; };

// Membership of an enum's validity list, as a 256-bit mask built once.
template <typename E>
bool valid(std::uint8_t v) {
  static constexpr auto kMask = [] {
    std::array<std::uint64_t, 4> mask{};
    for (const E e : wire_values(E{})) {
      const auto i = static_cast<std::size_t>(e);
      mask[i / 64] |= std::uint64_t{1} << (i % 64);
    }
    return mask;
  }();
  return ((kMask[v / 64] >> (v % 64)) & 1) != 0;
}

// Calls each.operator()<entry>() for every entry of T's table in order, so
// the walk sees each member pointer as a constant.
template <typename T, typename Each>
constexpr void for_each_entry(Each&& each) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (each.template operator()<std::get<I>(T::wire_fields())>(), ...);
  }(std::make_index_sequence<std::tuple_size_v<decltype(T::wire_fields())>>{});
}

}  // namespace detail

/// Wire bytes of `v` as a field: no tag, no trailer.  Of a default-made
/// list entry, the fewest bytes any entry takes.
template <typename V>
constexpr std::size_t value_size(const V& v) {
  if constexpr (std::is_enum_v<V>) {
    return 1;
  } else if constexpr (std::is_arithmetic_v<V>) {
    return sizeof(V);
  } else if constexpr (detail::is_blob<V>) {
    return 4 + v.size();
  } else if constexpr (detail::is_list<V>::value) {
    std::size_t n = 4;
    for (const auto& e : v) n += value_size(e);
    return n;
  } else {
    std::size_t n = 0;
    detail::for_each_entry<V>([&]<auto entry>() {
      if constexpr (std::is_member_object_pointer_v<decltype(entry)>) n += value_size(v.*entry);
      else n += 1;  // Bits
    });
    return n;
  }
}

/// Bytes encode(pdu) emits: tag, fields and CRC-32 trailer.
template <typename T>
constexpr std::size_t encoded_size(const T& pdu) {
  return (detail::Tagged<T> ? 1 : 0) + value_size(pdu) + 4;
}

template <typename T, auto... Ms>
void write_bits(ByteWriter& w, const T& obj, Bits<Ms...>) {
  unsigned byte = 0;
  unsigned bit = 1;
  ((byte |= (obj.*Ms) ? bit : 0u, bit <<= 1), ...);
  w.u8(narrow<std::uint8_t>(byte));
}

template <typename V>
void write_value(ByteWriter& w, const V& v) {
  if constexpr (std::is_enum_v<V>) {
    w.u8(wire_enum(v));
  } else if constexpr (std::is_same_v<V, double>) {
    w.f64(v);
  } else if constexpr (std::is_integral_v<V>) {
    w.raw(static_cast<std::make_unsigned_t<V>>(v));
  } else if constexpr (detail::is_blob<V>) {
    w.blob({reinterpret_cast<const std::uint8_t*>(v.data()), v.size()});
  } else if constexpr (detail::is_list<V>::value) {
    w.u32(narrow<std::uint32_t>(v.size()));
    for (const auto& e : v) write_value(w, e);
  } else {
    detail::for_each_entry<V>([&]<auto entry>() {
      if constexpr (std::is_member_object_pointer_v<decltype(entry)>) write_value(w, v.*entry);
      else write_bits(w, v, entry);
    });
  }
}

/// The encoding of `pdu`: tag, fields and CRC-32 trailer, in one
/// exact-size allocation.
template <typename T>
std::vector<std::uint8_t> encode(const T& pdu) {
  std::vector<std::uint8_t> out;
  out.reserve(encoded_size(pdu));
  ByteWriter w(out);
  if constexpr (detail::Tagged<T>) w.u8(wire_enum(T::kWireTag));
  write_value(w, pdu);
  append_crc32(out);
  return out;
}

template <typename T, auto... Ms>
void read_bits(ByteReader& r, T& obj, Bits<Ms...>) {
  const unsigned byte = r.u8();
  unsigned bit = 1;
  ((obj.*Ms = (byte & bit) != 0, bit <<= 1), ...);
}

// The read walk is inlined whole into each decode, as the hand-written
// decoders were: a step left out of line takes the PDU's address, and its
// fields then go through memory (ControlTpdu decodes 40 % slower).
template <typename V>
[[gnu::always_inline]] inline WireFault read_value(ByteReader& r, V& v);

template <auto entry, typename V>
[[gnu::always_inline]] inline WireFault read_entry(ByteReader& r, V& v) {
  if constexpr (std::is_member_object_pointer_v<decltype(entry)>) {
    return read_value(r, v.*entry);
  } else {
    read_bits(r, v, entry);
    return WireFault::kNone;
  }
}

// Reads the table's entries in order, stopping at the first refusal.
template <typename V, std::size_t... I>
[[gnu::always_inline]] inline WireFault read_fields(ByteReader& r, V& v,
                                                   std::index_sequence<I...>) {
  WireFault f = WireFault::kNone;
  (void)(((f = read_entry<std::get<I>(V::wire_fields())>(r, v)) == WireFault::kNone) && ...);
  return f;
}

/// Reads `v` as a field, stopping at the first refusal: an enum outside
/// its validity list (kBadType) or a list count the remaining bytes cannot
/// hold (kBadLength, refused before anything is reserved).
template <typename V>
[[gnu::always_inline]] inline WireFault read_value(ByteReader& r, V& v) {
  if constexpr (std::is_enum_v<V>) {
    const std::uint8_t raw = r.u8();
    if (!detail::valid<V>(raw)) return WireFault::kBadType;
    v = static_cast<V>(raw);
  } else if constexpr (std::is_same_v<V, double>) {
    v = r.f64();
  } else if constexpr (std::is_integral_v<V>) {
    v = static_cast<V>(r.le<std::make_unsigned_t<V>>());
  } else if constexpr (detail::is_blob<V>) {
    auto bytes = r.blob();
    if constexpr (std::is_same_v<V, std::string>) v.assign(bytes.begin(), bytes.end());
    else v = std::move(bytes);
  } else if constexpr (detail::is_list<V>::value) {
    const std::uint32_t n = r.u32();
    if (n > r.remaining() / value_size(typename V::value_type{})) return WireFault::kBadLength;
    v.resize(n);
    for (auto& e : v)
      if (const WireFault f = read_value(r, e); f != WireFault::kNone) return f;
  } else {
    using Fields = decltype(V::wire_fields());
    return read_fields(r, v, std::make_index_sequence<std::tuple_size_v<Fields>>{});
  }
  return WireFault::kNone;
}

/// Total decode of an encode() image; nullopt on refusal, with the reason
/// in `fault` when non-null.
template <typename T>
std::optional<T> decode(std::span<const std::uint8_t> in, WireFault* fault) {
  std::optional<T> pdu(std::in_place);
  const bool ok = decode_checked(in, fault, [&pdu](ByteReader& r) {
    if constexpr (detail::Tagged<T>) {
      if (r.u8() != wire_enum(T::kWireTag)) return WireFault::kBadType;
    }
    return read_value(r, *pdu);
  });
  if (!ok) pdu.reset();
  return pdu;
}

}  // namespace cmtos::wire
