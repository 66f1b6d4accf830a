// cmtos/platform/qos_manager.h
//
// Closed-loop graceful degradation (§3.3 / §4.1.3 taken to its logical
// conclusion): the paper's transport *indicates* QoS violations and offers
// T-Renegotiate, but leaves the adaptation policy to the platform.  The
// QosManager is that policy: it derives a per-stream *degradation ladder*
// from the media description — successive rungs trade rate and fidelity
// for robustness, down to the acceptable floor — and walks it with a
// hysteresis state machine:
//
//   * degrade one rung after K consecutive violating sample periods
//     (the monitor's consecutive_violation_periods count, so indication
//     coalescing does not starve the loop);
//   * probe one rung back up after M consecutive clean ticks; a probe that
//     draws violations inside its validation window is rolled back and the
//     next probe waits twice as long (exponential backoff — the cooldown
//     that damps oscillation on a flapping link);
//   * never renegotiate below the floor; when even the floor draws
//     sustained violations the stream parks at the floor and keeps
//     indicating (the paper's soft guarantee: the VC stays up and the
//     violation is reported), and the capped probe backoff climbs it back
//     once the path clears.
//
// Each rung change is an automatic T-Renegotiate at the source entity; the
// new agreed OSDU rate is pushed into the HLO agent (retarget_stream_rate)
// so regulation targets shrink and grow in step with the contract.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "orch/hlo_agent.h"
#include "platform/media_qos.h"
#include "platform/stream.h"
#include "util/thread_annotations.h"

namespace cmtos::platform {

/// One rung of a degradation ladder: the media description presented to
/// the user level and the transport tolerance renegotiated for it.  The
/// tolerance is carried explicitly because rungs relax the error/jitter
/// axes as well as rate — re-deriving it from the media alone would snap
/// those back to the media defaults.
struct LadderRung {
  MediaQos media;
  transport::QosTolerance tolerance;
};

/// Rungs per ladder: preferred, two intermediate rungs, floor.
inline constexpr int kLadderRungs = 4;

/// Builds the degradation ladder for a media description.  Rung 0 is the
/// preferred service; each following rung interpolates toward the
/// worst-acceptable floor of to_transport_qos(preferred):
///   video — frame rate down, compression up, loss/jitter tolerance up;
///   audio — sample rate down (block rate is the sync ratio and is kept),
///           jitter/loss tolerance up;
///   text  — unit rate down.
/// The last rung is the floor; the ladder never goes below it.
std::vector<LadderRung> build_ladder(const MediaQos& preferred);

/// The pure hysteresis core, separated from the platform so the
/// no-oscillation property is unit-testable.  Feed it violation reports
/// and clean ticks; it answers with the rung transition to perform, at
/// most one in flight at a time.
class LadderState {
 public:
  /// K: consecutive violating sample periods before a degrade.
  static constexpr int kDegradeAfterPeriods = 2;

  enum class Action : std::uint8_t { kNone, kDegrade, kUpgrade };

  /// One violating sample period, with the monitor's run length.
  Action on_violation(std::uint32_t consecutive_periods);
  /// One clean tick (no violation reported since the previous tick).
  Action on_clean_tick();
  /// The renegotiation requested by the returned Action completed.
  void note_applied(Action act, bool ok);

  int level() const { return level_; }
  bool at_floor() const { return level_ == kLadderRungs - 1; }
  bool in_flight() const { return in_flight_; }
  bool probing() const { return validation_left_ > 0; }
  int backoff() const { return backoff_; }

 private:
  /// M: consecutive clean ticks before an upgrade probe (scaled by the
  /// current backoff factor).
  static constexpr int kUpgradeAfterClean = 4;
  /// Clean ticks a fresh upgrade must survive before it is trusted; a
  /// violation inside this window rolls the probe back and doubles the
  /// backoff.
  static constexpr int kValidationTicks = 3;
  /// Upper bound on the backoff factor.
  static constexpr int kBackoffCap = 4;

  int level_ = 0;
  int clean_ticks_ = 0;
  int validation_left_ = 0;  // >0: last upgrade still being validated
  int backoff_ = 1;
  bool in_flight_ = false;
};

class CMTOS_CONTROL_PLANE QosManager {
 public:
  explicit QosManager(Platform& platform);
  ~QosManager();

  QosManager(const QosManager&) = delete;
  QosManager& operator=(const QosManager&) = delete;

  /// Takes over `stream`'s QoS-degraded notifications and builds its
  /// ladder.  The stream must be connected and outlive the manager.
  void manage(Stream& stream);

  /// Wires the HLO agent: its escalation callback is pointed at this
  /// manager (kTransportTooSlow / kSinkAppSlow trigger the cross-stream
  /// policy below) and every rung change retargets the agent's rate for
  /// the affected VC.
  void attach_agent(orch::HloAgent& agent);

  /// HLO escalation entry (also callable directly by tests).  Policy:
  /// degrade the most expendable managed stream not already at its floor —
  /// video before text before audio — regardless of which VC missed its
  /// targets; audio intelligibility is sacrificed last (§3.2).  When every
  /// ladder is at its floor the escalation is dropped (the floor is never
  /// undercut).
  void on_escalation(transport::VcId vc, orch::MissDiagnosis diagnosis);

  /// Fires after every rung change with the newly agreed OSDU rate
  /// (observability for tests; the HLO retarget happens regardless).
  void set_on_rate_changed(std::function<void(transport::VcId, double)> fn) {
    on_rate_changed_ = std::move(fn);
  }

  /// Current rung of a managed stream (-1 when not managed).
  int ladder_level(const Stream& stream) const;

  struct Totals {
    std::int64_t degrades = 0;
    std::int64_t upgrades = 0;
  };
  const Totals& totals() const { return totals_; }

 private:
  struct Managed {
    Stream* stream = nullptr;
    std::vector<LadderRung> ladder;
    LadderState state;
    int media_rank = 0;  // degrade order: video 0, text 1, audio 2
    Time last_violation = kTimeNever;
    Time settle_until = 0;  // end of the transition-artifact grace window
    obs::Gauge* level_gauge = nullptr;
  };

  void on_indication(Managed& m, const transport::QosReport& report);
  void apply(Managed& m, LadderState::Action act);
  void tick();
  Managed* find(const Stream& stream);

  Platform& platform_;
  std::vector<std::unique_ptr<Managed>> managed_;
  orch::HloAgent* agent_ = nullptr;
  sim::Timer tick_event_;
  Totals totals_;
  std::function<void(transport::VcId, double)> on_rate_changed_;
};

}  // namespace cmtos::platform
