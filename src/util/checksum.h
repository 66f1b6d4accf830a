// cmtos/util/checksum.h
//
// CRC-32 (IEEE 802.3 polynomial, reflected) used for transport-PDU error
// detection and for verifiable synthetic media content.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace cmtos {

/// Computes the CRC-32 of `data`, optionally continuing from a previous
/// value (pass the previous return value as `seed` to chain).  Runs the
/// widest kernel the CPU supports (detail::crc32_kernel()).
std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed = 0);

namespace detail {

/// The CRC-32 kernels (see checksum.cpp): slice-by-8 tables, the 128-bit
/// PCLMULQDQ fold and the 512-bit VPCLMULQDQ fold.
enum class CrcKernel : std::uint8_t { kTable, kFold128, kFold512 };

/// "table", "fold128" or "fold512".
const char* to_string(CrcKernel k);

/// Whether this CPU (and build target) can run kernel `k`.
bool crc32_kernel_supported(CrcKernel k);

/// The kernel crc32() dispatches to, chosen once from CPUID.
CrcKernel crc32_kernel();

/// crc32() through kernel `k`; nullopt when the CPU lacks it.  For tests
/// and benchmarks that compare kernels.
std::optional<std::uint32_t> crc32_with(CrcKernel k, std::span<const std::uint8_t> data,
                                        std::uint32_t seed = 0);

}  // namespace detail

/// Appends the CRC-32 of the current contents of `wire` as a little-endian
/// trailer.  Every control-plane PDU encoding (control TPDUs, OPDUs, RPC
/// messages) ends with this trailer now that links flip real wire bytes.
inline void append_crc32(std::vector<std::uint8_t>& wire) {
  const std::uint32_t c = crc32(wire);
  for (int i = 0; i < 4; ++i) wire.push_back(static_cast<std::uint8_t>(c >> (8 * i)));
}

/// Verifies and strips a trailing CRC-32: returns the body span (without
/// the 4-byte trailer) when the checksum matches, nullopt otherwise.  A
/// span shorter than the trailer itself cannot match.
inline std::optional<std::span<const std::uint8_t>> strip_crc32(
    std::span<const std::uint8_t> wire) {
  if (wire.size() < 4) return std::nullopt;
  const auto body = wire.first(wire.size() - 4);
  std::uint32_t got = 0;
  for (int i = 0; i < 4; ++i)
    got |= static_cast<std::uint32_t>(wire[wire.size() - 4 + static_cast<std::size_t>(i)])
           << (8 * i);
  if (crc32(body) != got) return std::nullopt;
  return body;
}

}  // namespace cmtos
