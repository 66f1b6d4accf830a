#include "transport/qos.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "net/packet.h"

namespace cmtos::transport {

namespace {
/// Data TPDU payload limit; OSDUs larger than this are segmented.
constexpr std::int64_t kMaxTpduPayload = 1400;
/// Transport header bytes per data TPDU (see tpdu.h; rounded up).
constexpr std::int64_t kTpduHeaderBytes = 64;
}  // namespace

std::int64_t QosParams::required_bps() const {
  // Per OSDU: payload + per-fragment transport and network headers.
  const std::int64_t frags = (max_osdu_bytes + kMaxTpduPayload - 1) / kMaxTpduPayload;
  const std::int64_t per_osdu_bytes =
      max_osdu_bytes +
      frags * (kTpduHeaderBytes + static_cast<std::int64_t>(net::kPacketHeaderBytes));
  return static_cast<std::int64_t>(std::ceil(osdu_rate * static_cast<double>(per_osdu_bytes) * 8.0));
}

std::string QosParams::to_string() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "rate=%.1f osdu/s, max_osdu=%lld B, delay<=%s, jitter<=%s, per<=%.2g, ber<=%.2g",
                osdu_rate, static_cast<long long>(max_osdu_bytes),
                format_time(end_to_end_delay).c_str(), format_time(delay_jitter).c_str(),
                packet_error_rate, bit_error_rate);
  return buf;
}

bool QosTolerance::acceptable(const QosParams& offer) const {
  // Higher-is-better axes.
  if (offer.osdu_rate < worst.osdu_rate || offer.max_osdu_bytes < worst.max_osdu_bytes)
    return false;
  // Lower-is-better axes.
  if (offer.end_to_end_delay > worst.end_to_end_delay) return false;
  if (offer.delay_jitter > worst.delay_jitter) return false;
  if (offer.packet_error_rate > worst.packet_error_rate) return false;
  if (offer.bit_error_rate > worst.bit_error_rate) return false;
  return true;
}

std::optional<QosParams> degrade_to_bandwidth(const QosTolerance& tol,
                                              std::int64_t available_bps) {
  QosParams p = tol.preferred;
  if (p.required_bps() <= available_bps) return p;
  // Scale the OSDU rate down toward the worst-acceptable rate.
  const double scale =
      static_cast<double>(available_bps) / static_cast<double>(p.required_bps());
  p.osdu_rate = std::max(tol.worst.osdu_rate, p.osdu_rate * scale);
  if (p.required_bps() <= available_bps) return p;
  return std::nullopt;
}

std::string QosViolation::to_string() const {
  std::string s;
  if (throughput) s += "throughput ";
  if (delay) s += "delay ";
  if (jitter) s += "jitter ";
  if (packet_errors) s += "packet-errors ";
  if (bit_errors) s += "bit-errors ";
  if (!s.empty()) s.pop_back();
  return s;
}

}  // namespace cmtos::transport
