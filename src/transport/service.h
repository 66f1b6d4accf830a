// cmtos/transport/service.h
//
// The transport service interface: the OSI-style primitives of Tables 1-3,
// the class-of-service / protocol-profile selection of §3.4, and the
// TransportUser callback interface through which indications and confirms
// are delivered to the transport user (a Stream object, in the Lancaster
// platform; applications never see this interface directly, §4.1).

#pragma once

#include <cstdint>
#include <string>

#include "net/address.h"
#include "transport/qos.h"
#include "util/time.h"

namespace cmtos::transport {

/// Globally unique virtual-circuit identifier (allocating node id in the
/// high 32 bits, per-node counter in the low 32).
using VcId = std::uint64_t;
inline constexpr VcId kInvalidVc = 0;

/// §3.4: different protocols for different traffic types within a protocol
/// matrix.  kRateBasedCm is the paper's CM protocol ([Shepherd,91]-like,
/// rate-based flow control); kWindowBased is the conventional baseline the
/// paper argues against for CM, kept for the A2 ablation.
enum class ProtocolProfile : std::uint8_t {
  kRateBasedCm = 0,
  kWindowBased = 1,
};
constexpr auto wire_values(ProtocolProfile) { return wire::upto<ProtocolProfile::kWindowBased>(); }

/// §3.4: user-oriented error-control class selection: "(i) error detection
/// and indication, (ii) error detection and correction, and (iii) error
/// detection, correction, and indication."
enum class ErrorControl : std::uint8_t {
  kNone = 0,                 // detect and silently drop
  kIndicate = 1,             // (i)
  kCorrect = 2,              // (ii)
  kCorrectAndIndicate = 3,   // (iii)
};
constexpr auto wire_values(ErrorControl) { return wire::upto<ErrorControl::kCorrectAndIndicate>(); }

constexpr bool wants_indication(ErrorControl e) {
  return e == ErrorControl::kIndicate || e == ErrorControl::kCorrectAndIndicate;
}
constexpr bool wants_correction(ErrorControl e) {
  return e == ErrorControl::kCorrect || e == ErrorControl::kCorrectAndIndicate;
}

struct ServiceClass {
  ProtocolProfile profile = ProtocolProfile::kRateBasedCm;
  ErrorControl error_control = ErrorControl::kIndicate;

  /// Fields in wire order (util/wire_codec.h).
  static constexpr auto wire_fields() {
    return std::tuple{&ServiceClass::profile, &ServiceClass::error_control};
  }
};

/// Parameters of T-Connect.request (Table 1).  Three addresses support the
/// remote connection facility of §3.5 / Fig 2: `initiator` is the caller,
/// `src`/`dst` are the endpoints to be connected.  For a conventional
/// connect the caller "simply sets the initiator to be the same as the
/// source address".
struct ConnectRequest {
  net::NetAddress initiator;
  net::NetAddress src;
  net::NetAddress dst;
  ServiceClass service_class;
  QosTolerance qos;
  /// QoS-monitor sample period for T-QoS.indication generation (Table 2).
  Duration sample_period = 500 * kMillisecond;
  /// Receive/send ring capacity in OSDU slots.
  std::uint32_t buffer_osdus = 16;
  /// Importance class for preemptive admission: when admission control
  /// would refuse this connect, established VCs of *strictly lower*
  /// importance on the contended path may be preempted (kPreempted) to
  /// make room.  Equal importance never preempts.
  std::uint8_t importance = 1;
  /// Sink-side load shedding: when nonzero and the consumer stalls with
  /// the receive ring full, stale OSDUs are dropped from the front of the
  /// ring down to this percentage of capacity so fresh media keeps
  /// flowing (a late frame is worthless).  0 disables shedding.
  std::uint8_t shed_watermark_pct = 0;
  /// Rate-profile pacing granularity: fragments emitted per pacer tick.
  /// The average rate is unchanged (each tick sleeps burst x the per-TPDU
  /// interval); >1 trades pacing smoothness for per-fragment event
  /// overhead, which is what high-bandwidth streams want.  1 = one event
  /// per fragment (the legacy schedule, exactly).
  std::uint16_t pacing_burst = 1;
};

enum class DisconnectReason : std::uint8_t {
  kUserInitiated = 0,
  kRejectedByUser = 1,
  kNoResources = 2,         // admission control refused the reservation
  kUnreachable = 3,
  kQosUnachievable = 4,     // tolerance cannot be met even degraded
  kRenegotiationFailed = 5, // T-Renegotiate rejected; the VC itself survives
  kProtocolError = 6,
  kNoSuchTsap = 7,
  kPeerDead = 8,            // liveness timeout: the peer endpoint went silent
  kEntityFailure = 9,       // the local transport entity itself crashed
  kPreempted = 10,          // displaced by a higher-importance admission
  kPeerMisbehaving = 11,    // quarantine escalation: the peer keeps sending
                            // structurally invalid PDUs with valid checksums
};
constexpr auto wire_values(DisconnectReason) {
  return wire::upto<DisconnectReason::kPeerMisbehaving>();
}

std::string to_string(DisconnectReason r);

/// Measured QoS over one sample period, reported via T-QoS.indication
/// (Table 2) when the contract is violated and the service class includes
/// indication.
struct QosReport {
  VcId vc = kInvalidVc;
  Duration sample_period = 0;
  QosParams agreed;          // the contracted tolerance actually in force
  // Measured values over the period:
  double measured_osdu_rate = 0;
  Duration measured_mean_delay = 0;
  Duration measured_jitter = 0;
  double measured_packet_error_rate = 0;
  double measured_bit_error_rate = 0;
  QosViolation violations;   // which tolerance levels were violated
  /// True while the monitor is still in its warmup window: measurements are
  /// distorted by pipeline fill and any violations were *not* reported via
  /// T-QoS.indication.  Readers of the monitor's last report use this to
  /// separate fill artifacts from real degradation.
  bool warmup = false;
  /// Length of the current run of back-to-back violating periods, this one
  /// included.  A closed-loop QoS manager keys its degrade decision off
  /// this instead of counting indications itself (indications for an
  /// unchanged violation set are coalesced, so arrival count != periods).
  std::uint32_t consecutive_violation_periods = 0;
  /// Violating periods whose indication was suppressed (same parameter
  /// set) since the previous emitted indication.
  std::uint32_t coalesced_periods = 0;

  /// Fields in wire order (util/wire_codec.h); `warmup` stays local.
  static constexpr auto wire_fields() {
    return std::tuple{&QosReport::vc, &QosReport::sample_period, &QosReport::agreed,
                      &QosReport::measured_osdu_rate, &QosReport::measured_mean_delay,
                      &QosReport::measured_jitter, &QosReport::measured_packet_error_rate,
                      &QosReport::measured_bit_error_rate, &QosReport::violations,
                      &QosReport::consecutive_violation_periods, &QosReport::coalesced_periods};
  }
};

/// Callback interface implemented by transport users (Stream objects, test
/// fixtures, the orchestrator's control plane).  Methods correspond 1:1 to
/// the indication/confirm primitives of Tables 1-3.
class TransportUser {
 public:
  virtual ~TransportUser() = default;

  /// T-Connect.indication: a connect (possibly remote-initiated) addressed
  /// to a TSAP bound by this user.  Respond via TransportEntity::
  /// connect_response / disconnect_request.
  virtual void t_connect_indication(VcId vc, const ConnectRequest& req) = 0;

  /// T-Connect.confirm (delivered to the initiator; for a remote connect
  /// also to the source, §3.5: "passes all management responses ... to both
  /// the initiator and source addresses").
  virtual void t_connect_confirm(VcId vc, const QosParams& agreed) = 0;

  /// T-Disconnect.indication.
  virtual void t_disconnect_indication(VcId vc, DisconnectReason reason) = 0;

  /// T-QoS.indication (Table 2): contracted QoS degraded.
  virtual void t_qos_indication(VcId vc, const QosReport& report) {
    (void)vc;
    (void)report;
  }

  /// T-Renegotiate.indication (Table 3): the peer (or the provider)
  /// proposes new tolerance levels.  Respond via TransportEntity::
  /// renegotiate_response.
  virtual void t_renegotiate_indication(VcId vc, const QosTolerance& proposed) {
    (void)vc;
    (void)proposed;
  }

  /// T-Renegotiate.confirm: the new contract now in force.
  virtual void t_renegotiate_confirm(VcId vc, bool accepted, const QosParams& agreed) {
    (void)vc;
    (void)accepted;
    (void)agreed;
  }
};

}  // namespace cmtos::transport
