#include "orch/hlo_agent.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace cmtos::orch {

std::string to_string(MissDiagnosis d) {
  switch (d) {
    case MissDiagnosis::kOnTarget: return "on-target";
    case MissDiagnosis::kSourceAppSlow: return "source-app-slow";
    case MissDiagnosis::kSinkAppSlow: return "sink-app-slow";
    case MissDiagnosis::kTransportTooSlow: return "transport-too-slow";
  }
  return "?";
}

HloAgent::HloAgent(Llo& llo, OrchSessionId session, std::vector<OrchStreamSpec> streams,
                   OrchPolicy policy)
    : llo_(llo), session_(session), streams_(std::move(streams)), policy_(policy) {
  for (const auto& s : streams_) status_[s.vc.vc] = VcStatus{};
  llo_.set_regulate_callback(session_,
                             [this](const RegulateIndication& ind) { on_regulate(ind); });
  llo_.set_vc_dead_callback(session_,
                            [this](const EventIndication& ind) { on_vc_dead(ind); });
  llo_.set_superseded_callback(session_, [this] { on_superseded_nack(); });
}

HloAgent::~HloAgent() {
  llo_.set_regulate_callback(session_, nullptr);
  llo_.set_event_callback(session_, nullptr);
  llo_.set_vc_dead_callback(session_, nullptr);
  llo_.set_superseded_callback(session_, nullptr);
}

void HloAgent::set_epoch(std::uint32_t epoch) {
  epoch_ = epoch;
  llo_.set_session_epoch(session_, epoch);
}

void HloAgent::set_rate_scale(double scale) {
  // A federation root only ever needs small corrections; anything beyond a
  // few percent would visibly distort media rates, so the clamp is tight.
  rate_scale_ = std::clamp(scale, 0.9, 1.1);
}

void HloAgent::on_superseded_nack() {
  if (superseded_) return;  // several endpoints may fence us in one burst
  superseded_ = true;
  CMTOS_WARN("hlo", "session %llu: superseded at epoch %u, self-retiring",
             static_cast<unsigned long long>(session_), epoch_);
  obs::Registry::global()
      .counter("orch.superseded", {{"node", std::to_string(llo_.node_id())}})
      .add();
  // Self-retire: stop steering and give back every slot this incarnation
  // holds.  orch_release also sends kSessRel for any endpoint attachments
  // the successor has not already purged.
  running_ = false;
  tick_.cancel();
  llo_.orch_release(session_);
  established_ = false;
  if (on_superseded_) on_superseded_();
}

Time HloAgent::master_now() const {
  // "The master reference clock maintained at the orchestration node" (§5).
  auto& net = const_cast<Llo&>(llo_).network();
  return net.node(llo_.node_id()).clock().local_time(net.scheduler().now());
}

void HloAgent::establish(ResultFn done) {
  std::vector<OrchVcInfo> vcs;
  vcs.reserve(streams_.size());
  for (const auto& s : streams_) vcs.push_back(s.vc);
  llo_.orch_request(
      session_, std::move(vcs),
      [this, done = std::move(done)](bool ok, OrchReason reason) {
        established_ = ok;
        if (done) done(ok, reason);
      },
      policy_.allow_no_common_node);
}

void HloAgent::prime(bool flush, ResultFn done) { llo_.prime(session_, flush, std::move(done)); }

void HloAgent::start(ResultFn done) {
  llo_.start(session_, [this, done = std::move(done)](
                           bool ok, const FlatMap<transport::VcId, std::int64_t>& bases) {
    if (ok) {
      start_master_time_ = master_now();
      for (auto& [vc, st] : status_) {
        auto it = bases.find(vc);
        st.base_seq = it != bases.end() ? it->second : 0;
        st.last_delivered = st.base_seq - 1;
        st.last_target = -1;
        st.consecutive_misses = 0;
      }
      running_ = true;
      last_report_ = llo_.network().scheduler().now();
      if (policy_.regulate) interval_tick();
    }
    if (done) done(ok, ok ? OrchReason::kOk : OrchReason::kTimeout);
  });
}

void HloAgent::stop(ResultFn done) {
  running_ = false;
  tick_.cancel();
  llo_.stop(session_, std::move(done));
}

void HloAgent::release() {
  running_ = false;
  tick_.cancel();
  llo_.orch_release(session_);
  established_ = false;
}

void HloAgent::add_stream(OrchStreamSpec spec, ResultFn done) {
  llo_.add(session_, spec.vc,
           [this, spec, done = std::move(done)](bool ok, OrchReason reason) {
             if (ok) {
               streams_.push_back(spec);
               auto& st = status_[spec.vc.vc];
               // Joining mid-session: base the newcomer where the master
               // clock says the group currently is.
               const double elapsed = to_seconds(master_now() - start_master_time_);
               st.base_seq = running_ ? -std::llround(elapsed * spec.osdu_rate) : 0;
               st.last_delivered = -1;
             }
             if (done) done(ok, reason);
           });
}

void HloAgent::remove_stream(transport::VcId vc, ResultFn done) {
  llo_.remove(session_, vc, [this, vc, done = std::move(done)](bool ok, OrchReason reason) {
    if (ok) {
      streams_.erase(std::remove_if(streams_.begin(), streams_.end(),
                                    [&](const OrchStreamSpec& s) { return s.vc.vc == vc; }),
                     streams_.end());
      status_.erase(vc);
    }
    if (done) done(ok, reason);
  });
}

bool HloAgent::retarget_stream_rate(transport::VcId vc, double osdu_rate) {
  if (osdu_rate <= 0) return false;
  for (auto& s : streams_) {
    if (s.vc.vc != vc) continue;
    auto it = status_.find(vc);
    if (it != status_.end() && running_) {
      // Keep media time continuous: position_seconds must read the same
      // immediately before and after the rate swap, so rebase base_seq
      // around the current position at the *new* rate.
      const double pos = position_seconds(s);
      it->second.base_seq = it->second.last_delivered + 1 + it->second.catch_up_in_flight -
                            std::llround(pos * osdu_rate);
    }
    s.osdu_rate = osdu_rate;
    return true;
  }
  return false;
}

void HloAgent::register_event(transport::VcId vc, std::uint64_t pattern, std::uint64_t mask) {
  llo_.register_event(session_, vc, pattern, mask);
}

void HloAgent::set_event_callback(std::function<void(const EventIndication&)> fn) {
  llo_.set_event_callback(session_, std::move(fn));
}

double HloAgent::position_seconds(const OrchStreamSpec& s) const {
  auto it = status_.find(s.vc.vc);
  if (it == status_.end() || s.osdu_rate <= 0) return 0;
  const VcStatus& st = it->second;
  return static_cast<double>(st.last_delivered - st.base_seq + 1 + st.catch_up_in_flight) /
         s.osdu_rate;
}

double HloAgent::step_seconds() const {
  double period = 0;
  for (const auto& s : streams_)
    if (s.osdu_rate > 0) period = std::max(period, 1.0 / s.osdu_rate);
  return period;
}

void HloAgent::on_vc_dead(const EventIndication& ind) {
  streams_.erase(std::remove_if(streams_.begin(), streams_.end(),
                                [&](const OrchStreamSpec& s) { return s.vc.vc == ind.vc; }),
                 streams_.end());
  status_.erase(ind.vc);
  CMTOS_WARN("hlo", "session %llu: vc %llu dead, %zu stream(s) remain",
             static_cast<unsigned long long>(session_),
             static_cast<unsigned long long>(ind.vc), streams_.size());
  if (streams_.empty()) {
    // Nothing left to orchestrate; the regulation loop winds down.
    running_ = false;
    tick_.cancel();
  }
  if (on_vc_dead_) on_vc_dead_(ind);
}

void HloAgent::interval_tick() {
  // A crashed LLO means this agent's node died: stop rearming (a failover
  // supervisor will notice via last_report_time and re-elect elsewhere).
  if (!running_ || llo_.down() || streams_.empty()) return;
  const std::uint32_t id = next_interval_id_++;
  obs::Tracer::global().instant("HLO.interval_tick", static_cast<int>(llo_.node_id()), 0,
                                "{\"interval_id\": " + std::to_string(id) + "}");

  // The agent compensates "for any relative speed up or slow down among
  // the orchestrated connections" (§5).  Each stream's target is a *rate*
  // over the interval — the paper's ((target# - current#) / interval) —
  // anchored at the sink's own current position (relative target), plus a
  // correction term that removes part of the stream's relative skew from
  // the group reference position.  Positions read here are one report old,
  // but since only *relative* skew feeds the correction, the common-mode
  // staleness cancels.
  const bool have_positions = next_interval_id_ > 2;
  const double interval_s = to_seconds(policy_.interval);

  double reference = 0;
  if (have_positions) {
    for (const auto& s : streams_) reference += position_seconds(s);
    reference /= static_cast<double>(streams_.size());
  }

  // The federation root's bend, carried as media time: a few percent of
  // a one-OSDU interval target rounds away, so the credit acts only once
  // it amounts to a whole step, and then on every stream in this interval
  // alike.  A step ahead drops at the sources, a step back lowers the
  // targets.  The credit holds one excursion: it clears once the root
  // stops bending.
  const double step_s = step_seconds();
  int step = 0;
  if (rate_scale_ == 1.0) {
    bend_credit_s_ = 0;
  } else {
    bend_credit_s_ += (rate_scale_ - 1.0) * interval_s;
    if (step_s > 0 && std::abs(bend_credit_s_) >= step_s) {
      step = bend_credit_s_ > 0 ? 1 : -1;
      bend_credit_s_ -= step * step_s;
    }
  }

  for (const auto& s : streams_) {
    auto& st = status_[s.vc.vc];
    double correction_s = 0;
    if (have_positions && s.osdu_rate > 0) {
      const double rel = position_seconds(s) - reference;  // + = ahead of group
      st.skew_ema_s = 0.7 * st.skew_ema_s + 0.3 * rel;
      // Deadband of one own-OSDU period: below that, the position
      // quantisation noise would dominate the correction.
      const double deadband = 1.0 / s.osdu_rate;
      if (std::abs(st.skew_ema_s) > deadband) {
        // Remove half the estimated skew per interval, bounded to half an
        // interval so corrections stay spread out (§6.3.1.1: avoid jitter).
        correction_s = std::clamp(-0.5 * st.skew_ema_s, -interval_s / 2, interval_s / 2);
      }
    }
    // The LLO's slot controller tolerates ~1 OSDU of slack per interval;
    // subtracting the previous interval's overshoot stops that slack from
    // compounding into a sustained rate error.  A bend step moves every
    // stream by the same media time, so the intra-domain rate ratios (the
    // sync relationship) are preserved.
    const std::int64_t step_osdus = step * std::llround(step_s * s.osdu_rate);
    const std::int64_t delta = std::max<std::int64_t>(
        0, std::llround((interval_s + correction_s) * s.osdu_rate) - st.overshoot +
               std::min<std::int64_t>(step_osdus, 0));
    const std::int64_t catch_up = std::max<std::int64_t>(step_osdus, 0);
    // A catch-up's gap reaches the sink one pipeline later; one the sink
    // never showed as a skip (the source had nothing to drop, or a render
    // masked it) stops counting after kCatchUpLandsWithin.
    if (catch_up > 0) {
      st.catch_up_in_flight += catch_up;
      st.catch_up_age = 0;
    } else if (st.catch_up_in_flight > 0 &&
               (st.catch_up_age += policy_.interval) > kCatchUpLandsWithin) {
      st.catch_up_in_flight = 0;
    }
    st.last_target = delta;  // interpreted against interval_start_seq on report
    llo_.regulate(session_, s.vc.vc, delta, s.max_drop_per_interval, policy_.interval, id,
                  static_cast<std::uint32_t>(catch_up));
  }

  // Federation digest: the whole domain compressed into O(1) numbers once
  // per interval.  Computed only when a parent is listening and positions
  // exist (the first tick has no report to summarise).
  if (on_aggregate_ && have_positions && !streams_.empty()) {
    DomainAggregate agg;
    agg.interval_id = id;
    agg.vc_count = streams_.size();
    double pos_sum = 0;
    for (const auto& s : streams_) pos_sum += position_seconds(s);
    agg.mean_position_s = pos_sum / static_cast<double>(streams_.size());
    agg.osdu_period_s = step_s;
    double err_sum = 0;
    for (const auto& s : streams_) {
      agg.max_abs_skew_s =
          std::max(agg.max_abs_skew_s, std::abs(position_seconds(s) - agg.mean_position_s));
      auto it = status_.find(s.vc.vc);
      if (it != status_.end()) err_sum += std::abs(it->second.last_error_osdus);
    }
    agg.mean_abs_error_osdus = err_sum / static_cast<double>(streams_.size());
    agg.reports = reports_window_;
    reports_window_ = 0;
    on_aggregate_(agg);
  }

  // The interval timer runs off the orchestrating node's clock (the master
  // reference), not ideal simulation time.  It is a node-local event: the
  // tick only reads agent state and issues regulate() fan-outs, so
  // steady-state orchestration never forces a serial executor round.
  tick_.after(llo_.entity().runtime(), llo_.entity().to_true(policy_.interval),
              [this] { interval_tick(); });
}

void HloAgent::on_regulate(const RegulateIndication& ind) {
  last_report_ = llo_.network().scheduler().now();
  ++reports_processed_;
  ++reports_window_;
  auto it = status_.find(ind.vc);
  if (it == status_.end()) return;
  VcStatus& st = it->second;
  ++st.intervals;
  if (ind.partial && ind.delivered_seq < 0) {
    // The sink's report was lost or late: no position information this
    // interval.  Keeping the previous estimate is far safer than treating
    // "unknown" as position zero, which would read as a huge skew and
    // trigger a violent correction.
    if (on_interval_) on_interval_(ind, st.last_target);
    return;
  }
  st.last_delivered = ind.delivered_seq;
  st.drops_total += ind.dropped;
  // last_target is the delta set for the interval; the report echoes the
  // interval-begin position, so the absolute miss is directly computable.
  std::int64_t error = ind.interval_start_seq + st.last_target - ind.delivered_seq;
  // drop_newest leaves a gap in the sequence numbers, so the sink's
  // position takes a source drop as a skip one pipeline later.  The
  // position counted a catch-up when it was asked for, so its skip is no
  // overshoot.
  if (error < 0 && st.catch_up_in_flight > 0) {
    const std::int64_t skipped = std::min(-error, st.catch_up_in_flight);
    st.catch_up_in_flight -= skipped;
    error += skipped;
  }
  st.last_error_osdus = static_cast<double>(error);
  st.overshoot = std::clamp<std::int64_t>(-error, 0, 4);

  // §6.3.1.2 diagnosis from the semaphore blocking times.
  MissDiagnosis diag = MissDiagnosis::kOnTarget;
  if (st.last_error_osdus > policy_.tolerance_osdus) {
    const Duration half = policy_.interval / 2;
    if (ind.src_proto_blocked > half) {
      diag = MissDiagnosis::kSourceAppSlow;  // protocol starved: app slow producing
    } else if (ind.sink_proto_blocked > half) {
      diag = MissDiagnosis::kSinkAppSlow;  // ring stayed full: app slow consuming
    } else {
      diag = MissDiagnosis::kTransportTooSlow;  // throughput presumably too low
    }
    ++st.consecutive_misses;
  } else {
    st.consecutive_misses = 0;
  }
  st.last_diagnosis = diag;

  // Per-VC regulation health for registry snapshots (bench JSON / dashboards).
  const obs::Labels labels = {{"vc", std::to_string(ind.vc)}};
  auto& reg = obs::Registry::global();
  reg.set_gauge("hlo.last_error_osdus", st.last_error_osdus, labels);
  reg.histogram("hlo.abs_error_osdus", labels).observe(std::abs(st.last_error_osdus));
  if (diag != MissDiagnosis::kOnTarget) {
    reg.counter("hlo.missed_intervals", labels).add();
    obs::Tracer::global().instant("HLO.miss", static_cast<int>(llo_.node_id()),
                                  static_cast<int>(ind.vc & 0xffffffffu),
                                  "{\"diagnosis\": \"" + to_string(diag) + "\"}");
  }

  if (on_interval_) on_interval_(ind, st.last_target);

  if (st.consecutive_misses >= policy_.fail_threshold) {
    st.consecutive_misses = 0;  // escalate once per run of misses
    if (diag == MissDiagnosis::kSourceAppSlow || diag == MissDiagnosis::kSinkAppSlow) {
      llo_.delayed(session_, ind.vc, diag == MissDiagnosis::kSourceAppSlow,
                   std::llround(st.last_error_osdus));
    }
    if (on_escalate_) on_escalate_(ind.vc, diag, ind);
  }
}

}  // namespace cmtos::orch
