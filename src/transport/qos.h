// cmtos/transport/qos.h
//
// Extended Quality of Service provision (paper §3.2).
//
// A continuous-media connection is characterised by the five parameters the
// paper takes from [Hehmann,90]:
//
//   * throughput          — here expressed as OSDUs/second plus a maximum
//                           OSDU size, from which the bandwidth demand is
//                           derived (the paper passes max OSDU size as a
//                           QoS parameter at connect time, §5);
//   * end-to-end delay    — upper bound, from human perceptual thresholds;
//   * delay jitter        — upper bound on delay variation;
//   * packet error rate   — tolerable fraction of lost/uncorrected TPDUs;
//   * bit error rate      — tolerable residual corruption fraction.
//
// "At connection establishment time it should be possible to quantify and
// express preferred, acceptable and unacceptable tolerance levels for each
// of these parameters" — QosTolerance carries a preferred and a
// worst-acceptable QosParams; anything beyond `worst` is unacceptable and
// causes connection rejection.  The agreed contract then holds for the
// connection lifetime (soft guarantee: violations are *indicated*, see
// transport/monitor.h).

#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "util/time.h"
#include "util/wire_codec.h"

namespace cmtos::transport {

struct QosParams {
  /// OSDUs (logical data units) per second the connection must carry.
  double osdu_rate = 25.0;
  /// Largest OSDU the user will submit; also the receive-buffer slot size
  /// lower bound (§5).
  std::int64_t max_osdu_bytes = 8 * 1024;
  /// Maximum acceptable end-to-end OSDU delay (source write → sink read).
  Duration end_to_end_delay = 100 * kMillisecond;
  /// Maximum acceptable delay variation.
  Duration delay_jitter = 20 * kMillisecond;
  /// Maximum acceptable fraction of OSDUs lost or uncorrectably damaged.
  double packet_error_rate = 0.01;
  /// Maximum acceptable residual bit error rate.
  double bit_error_rate = 1e-6;

  /// Network bandwidth demand implied by these parameters, including
  /// transport packetisation overhead.
  std::int64_t required_bps() const;

  std::string to_string() const;

  /// Fields in wire order (util/wire_codec.h).
  static constexpr auto wire_fields() {
    return std::tuple{&QosParams::osdu_rate,         &QosParams::max_osdu_bytes,
                      &QosParams::end_to_end_delay,  &QosParams::delay_jitter,
                      &QosParams::packet_error_rate, &QosParams::bit_error_rate};
  }

  friend bool operator==(const QosParams&, const QosParams&) = default;
};

/// Tolerance levels: `preferred` is what the user wants, `worst` is the
/// least acceptable service.  For each parameter, values between the two
/// (inclusive) are acceptable.
struct QosTolerance {
  QosParams preferred;
  QosParams worst;

  /// A tolerance demanding exactly `p` (preferred == worst).
  static QosTolerance exactly(const QosParams& p) { return {p, p}; }

  /// True if `offer` lies within [worst, preferred] on every axis
  /// (direction-aware: higher rate is better, lower delay is better, ...).
  bool acceptable(const QosParams& offer) const;

  static constexpr auto wire_fields() {
    return std::tuple{&QosTolerance::preferred, &QosTolerance::worst};
  }

  friend bool operator==(const QosTolerance&, const QosTolerance&) = default;
};

/// Degrades `want` toward `tol.worst` so that the bandwidth demand does not
/// exceed `available_bps`.  Returns nullopt if even the worst-acceptable
/// parameters do not fit.  Only the throughput axis is scaled; delay axes
/// are checked separately against path characteristics.
std::optional<QosParams> degrade_to_bandwidth(const QosTolerance& tol,
                                              std::int64_t available_bps);

/// Per-parameter comparison report used by the QoS monitor and tests.
struct QosViolation {
  bool throughput = false;
  bool delay = false;
  bool jitter = false;
  bool packet_errors = false;
  bool bit_errors = false;

  bool any() const { return throughput || delay || jitter || packet_errors || bit_errors; }
  std::string to_string() const;

  /// One byte on the wire, throughput at bit 0.
  static constexpr auto wire_fields() {
    return std::tuple{wire::Bits<&QosViolation::throughput, &QosViolation::delay,
                                 &QosViolation::jitter, &QosViolation::packet_errors,
                                 &QosViolation::bit_errors>{}};
  }

  friend bool operator==(const QosViolation&, const QosViolation&) = default;
};

}  // namespace cmtos::transport
