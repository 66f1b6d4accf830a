#include "platform/qos_manager.h"

#include <algorithm>
#include <cmath>

#include "util/contract.h"
#include "util/logging.h"

namespace cmtos::platform {

namespace {

/// Clean-tick cadence.
constexpr Duration kTickPeriod = 250 * kMillisecond;
/// A tick only counts as clean once the stream has been violation-free this
/// long (fresh indications veto upgrades immediately; this hold keeps the
/// first clean tick from firing right after a storm).
constexpr Duration kQuietAfter = kSecond;
/// Grace window after a rung change is applied.  The first sample period
/// after a renegotiation measures the *transition* — OSDUs paced at the old
/// rate against the new agreed rate, and the ring-residency shift shows up
/// as a one-off jitter spike — so violations inside this window hold the
/// quiet timer but are not charged against the probe.  A genuinely bad path
/// keeps violating past the window and still fails validation, so the
/// backoff property is preserved.
constexpr Duration kSettleAfterChange = 750 * kMillisecond;

/// Linear interpolation helper for ladder axes.
double lerp(double a, double b, double f) { return a + (b - a) * f; }
Duration lerp_d(Duration a, Duration b, double f) {
  return a + static_cast<Duration>(std::llround(static_cast<double>(b - a) * f));
}

int media_rank_of(const MediaQos& media) {
  if (std::holds_alternative<VideoQos>(media)) return 0;
  if (std::holds_alternative<TextQos>(media)) return 1;
  return 2;  // audio degrades last (§3.2: intelligibility)
}

}  // namespace

std::vector<LadderRung> build_ladder(const MediaQos& preferred) {
  const transport::QosTolerance base = to_transport_qos(preferred);
  std::vector<LadderRung> ladder;
  ladder.reserve(kLadderRungs);
  for (int i = 0; i < kLadderRungs; ++i) {
    const double f = static_cast<double>(i) / (kLadderRungs - 1);
    LadderRung rung;
    rung.media = preferred;
    if (auto* v = std::get_if<VideoQos>(&rung.media)) {
      // Rate toward the acceptable floor, compression up in step (the
      // paper's in-service compression-module insertion, §3.3).
      v->frames_per_second = lerp(v->frames_per_second, base.worst.osdu_rate, f);
      v->compression = v->compression * (1.0 + f);
    } else if (auto* a = std::get_if<AudioQos>(&rung.media)) {
      // The block rate is the orchestration sync ratio and is preserved;
      // fidelity degrades through the sample rate instead.
      a->sample_rate_hz =
          std::max(2000, static_cast<int>(lerp(a->sample_rate_hz, a->sample_rate_hz / 4.0, f)));
    } else if (auto* t = std::get_if<TextQos>(&rung.media)) {
      t->units_per_second = std::max(base.worst.osdu_rate, lerp(t->units_per_second, base.worst.osdu_rate, f));
    }
    // Preferred level of the rung: the interpolated media mapped down, with
    // the error/delay axes relaxed toward the floor explicitly (the media
    // mapping alone would reset them).
    const transport::QosTolerance rung_media_tol = to_transport_qos(rung.media);
    rung.tolerance.preferred = rung_media_tol.preferred;
    rung.tolerance.preferred.end_to_end_delay =
        lerp_d(base.preferred.end_to_end_delay, base.worst.end_to_end_delay, f);
    rung.tolerance.preferred.delay_jitter =
        lerp_d(base.preferred.delay_jitter, base.worst.delay_jitter, f);
    rung.tolerance.preferred.packet_error_rate =
        lerp(base.preferred.packet_error_rate, base.worst.packet_error_rate, f);
    rung.tolerance.preferred.bit_error_rate =
        lerp(base.preferred.bit_error_rate, base.worst.bit_error_rate, f);
    // The worst level is the global floor on every rung: renegotiation may
    // concede further, but never below what the user called acceptable.
    rung.tolerance.worst = base.worst;
    rung.tolerance.worst.max_osdu_bytes =
        std::min(rung.tolerance.worst.max_osdu_bytes, rung.tolerance.preferred.max_osdu_bytes);
    ladder.push_back(std::move(rung));
  }
  return ladder;
}

// ====================================================================
// LadderState — the hysteresis core
// ====================================================================

LadderState::Action LadderState::on_violation(std::uint32_t consecutive_periods) {
  clean_ticks_ = 0;
  if (in_flight_) return Action::kNone;
  if (validation_left_ > 0) {
    // The upgrade probe failed: roll straight back down and make the next
    // probe wait twice as long.  This is the anti-oscillation cooldown —
    // on a flapping link the probe cadence decays geometrically.
    validation_left_ = 0;
    backoff_ = std::min(backoff_ * 2, kBackoffCap);
    if (!at_floor()) {
      in_flight_ = true;
      return Action::kDegrade;
    }
    return Action::kNone;
  }
  if (static_cast<int>(consecutive_periods) >= kDegradeAfterPeriods && !at_floor()) {
    in_flight_ = true;
    return Action::kDegrade;
  }
  return Action::kNone;
}

LadderState::Action LadderState::on_clean_tick() {
  if (in_flight_) return Action::kNone;
  if (validation_left_ > 0) {
    if (--validation_left_ == 0 && level_ == 0) {
      // Fully recovered to the preferred rung and the probe held: forgive
      // the history.
      backoff_ = 1;
    }
    return Action::kNone;
  }
  ++clean_ticks_;
  if (level_ > 0 && clean_ticks_ >= kUpgradeAfterClean * backoff_) {
    in_flight_ = true;
    return Action::kUpgrade;
  }
  return Action::kNone;
}

void LadderState::note_applied(Action act, bool ok) {
  in_flight_ = false;
  clean_ticks_ = 0;
  if (!ok || act == Action::kNone) return;
  if (act == Action::kDegrade) {
    ++level_;
    CMTOS_ASSERT(level_ < kLadderRungs, "qosmgr.level_overrun");
    validation_left_ = 0;
  } else {
    --level_;
    CMTOS_ASSERT(level_ >= 0, "qosmgr.level_underrun");
    validation_left_ = kValidationTicks;
  }
}

// ====================================================================
// QosManager
// ====================================================================

QosManager::QosManager(Platform& platform) : platform_(platform) {
  tick_event_.after(platform_.scheduler(), kTickPeriod, [this] { tick(); });
}

QosManager::~QosManager() {
  for (auto& m : managed_) m->stream->set_on_qos_degraded(nullptr);
}

void QosManager::manage(Stream& stream) {
  CMTOS_ASSERT(find(stream) == nullptr, "qosmgr.duplicate_stream");
  auto m = std::make_unique<Managed>();
  m->stream = &stream;
  m->ladder = build_ladder(stream.media());
  m->media_rank = media_rank_of(stream.media());
  m->level_gauge =
      &obs::Registry::global().gauge("qos.ladder_level", {{"stream", stream.name()}});
  m->level_gauge->set(0);
  Managed* raw = m.get();
  stream.set_on_qos_degraded(
      [this, raw](const transport::QosReport& rep) { on_indication(*raw, rep); });
  managed_.push_back(std::move(m));
}

void QosManager::attach_agent(orch::HloAgent& agent) {
  agent_ = &agent;
  agent.set_escalation_callback(
      [this](transport::VcId vc, orch::MissDiagnosis d, const orch::RegulateIndication&) {
        on_escalation(vc, d);
      });
}

QosManager::Managed* QosManager::find(const Stream& stream) {
  for (auto& m : managed_)
    if (m->stream == &stream) return m.get();
  return nullptr;
}

int QosManager::ladder_level(const Stream& stream) const {
  for (const auto& m : managed_)
    if (m->stream == &stream) return m->state.level();
  return -1;
}

void QosManager::on_indication(Managed& m, const transport::QosReport& report) {
  const Time now = platform_.scheduler().now();
  m.last_violation = now;
  if (now < m.settle_until) {
    // Transition artifact: the sample period straddling a rung change
    // measures old-rate OSDUs against the new contract.  The violation
    // holds the quiet timer (last_violation above) but is not charged
    // against the ladder; a genuinely bad path keeps violating past the
    // window and is handled normally then.
    return;
  }
  // At the floor this is a no-op: the stream parks there, the VC keeps
  // running and the monitor keeps indicating.
  const auto act = m.state.on_violation(report.consecutive_violation_periods);
  if (act != LadderState::Action::kNone) apply(m, act);
}

void QosManager::tick() {
  const Time now = platform_.scheduler().now();
  for (auto& m : managed_) {
    if (!m->stream->connected()) continue;
    if (m->last_violation != kTimeNever && now - m->last_violation < kQuietAfter)
      continue;  // not quiet yet: neither clean nor violating
    const auto act = m->state.on_clean_tick();
    if (act != LadderState::Action::kNone) apply(*m, act);
  }
  tick_event_.after(platform_.scheduler(), kTickPeriod, [this] { tick(); });
}

void QosManager::on_escalation(transport::VcId vc, orch::MissDiagnosis diagnosis) {
  if (diagnosis != orch::MissDiagnosis::kTransportTooSlow &&
      diagnosis != orch::MissDiagnosis::kSinkAppSlow)
    return;
  // Cross-stream policy: shed load where it hurts least.  Video rungs go
  // first, then text, and audio only when nothing else is left; the VC the
  // HLO named merely tells us the session is in trouble.
  Managed* pick = nullptr;
  for (auto& m : managed_) {
    if (!m->stream->connected() || m->state.at_floor()) continue;
    if (pick == nullptr || m->media_rank < pick->media_rank) pick = m.get();
  }
  if (pick != nullptr &&
      (pick->state.in_flight() || platform_.scheduler().now() < pick->settle_until)) {
    // The most expendable stream is mid-renegotiation or still settling
    // into a fresh rung: adaptation is under way.  Degrading the next
    // medium up would sacrifice audio for a transient the video rung
    // change may already cure.
    return;
  }
  if (pick == nullptr) {
    // Everyone is already at their acceptable floor: the escalation cannot
    // be served by degradation.  The streams park at their floors and keep
    // indicating; the floor is never undercut.
    CMTOS_WARN("qosmgr", "escalation for vc %llu dropped: all ladders at floor",
               static_cast<unsigned long long>(vc));
    return;
  }
  CMTOS_INFO("qosmgr", "HLO escalation (%s, vc %llu): degrading stream %s",
             orch::to_string(diagnosis).c_str(), static_cast<unsigned long long>(vc),
             pick->stream->name().c_str());
  // The HLO applied its own fail threshold already; degrade directly.
  const auto act = pick->state.on_violation(LadderState::kDegradeAfterPeriods);
  if (act != LadderState::Action::kNone) apply(*pick, act);
}

void QosManager::apply(Managed& m, LadderState::Action act) {
  const int target =
      m.state.level() + (act == LadderState::Action::kDegrade ? 1 : -1);
  CMTOS_ASSERT(target >= 0 && target < static_cast<int>(m.ladder.size()),
               "qosmgr.target_rung");
  const LadderRung& rung = m.ladder[target];
  const transport::VcId vc = m.stream->vc();
  CMTOS_INFO("qosmgr", "stream %s: %s rung %d -> %d", m.stream->name().c_str(),
             act == LadderState::Action::kDegrade ? "degrade" : "upgrade",
             m.state.level(), target);
  Managed* raw = &m;
  m.stream->change_qos(
      rung.media, rung.tolerance,
      [this, raw, act, vc](bool ok, transport::QosParams agreed) {
        raw->state.note_applied(act, ok);
        raw->level_gauge->set(raw->state.level());
        if (ok) raw->settle_until = platform_.scheduler().now() + kSettleAfterChange;
        if (!ok) {
          CMTOS_WARN("qosmgr", "stream %s: renegotiation to rung %d failed",
                     raw->stream->name().c_str(), raw->state.level());
          return;
        }
        if (act == LadderState::Action::kDegrade) {
          ++totals_.degrades;
          obs::Registry::global()
              .counter("qos.degrade", {{"stream", raw->stream->name()}})
              .add();
        } else {
          ++totals_.upgrades;
          obs::Registry::global()
              .counter("qos.upgrade", {{"stream", raw->stream->name()}})
              .add();
        }
        if (agent_ != nullptr) agent_->retarget_stream_rate(vc, agreed.osdu_rate);
        if (on_rate_changed_) on_rate_changed_(vc, agreed.osdu_rate);
      });
}

}  // namespace cmtos::platform
