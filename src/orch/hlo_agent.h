// cmtos/orch/hlo_agent.h
//
// The HLO agent (§5, Fig 6): one per orchestrated group, running on the
// orchestrating node, driving the LLO in a continuous feedback loop.
//
// "The HLO agent supplies the LLO with rate targets for each orchestrated
// VC over specified intervals.  These targets ensure that each orchestrated
// VC runs at the required rate, relative to the master reference clock
// maintained at the orchestration node ...  The LLO attempts to meet the
// required rate target over each interval for each VC, and reports back at
// the end of the interval on its actual success or failure.  Then, on the
// basis of these reports, the HLO agent sets new targets for the next
// interval which compensate for any relative speed up or slow down among
// the orchestrated connections."
//
// The agent also performs the §6.3.1.2 diagnosis: the four blocking times
// in each Orch.Regulate.indication identify *which* component (source
// application, sink application, or the transport itself) is responsible
// for a missed target, and the agent escalates accordingly (Orch.Delayed
// to a slow application thread; an escalation callback — typically wired
// to T-Renegotiate — when the transport is the bottleneck).

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "orch/llo.h"
#include "util/time.h"

namespace cmtos::orch {

/// One stream under orchestration: its VC geometry, nominal rate (from the
/// agreed QoS — "the ability to create related VCS with the same QoS ...
/// in the required ratio", §3.6) and loss budget.
struct OrchStreamSpec {
  OrchVcInfo vc;
  /// Nominal OSDU rate; the rate *ratios* between streams define the
  /// synchronisation relationship (e.g. 10 audio OSDUs per video frame).
  double osdu_rate = 25.0;
  /// max-drop# per interval; 0 for no-loss media such as voice (§6.3.1.1).
  std::uint32_t max_drop_per_interval = 0;
};

struct OrchPolicy {
  /// Regulation interval length (Fig 6).
  Duration interval = 100 * kMillisecond;
  /// Acceptable position error (in OSDUs) before an interval counts as a
  /// miss ("how 'strict' the continuous synchronisation should be", §5).
  double tolerance_osdus = 2.0;
  /// Consecutive misses before escalation ("the HLO agent [takes]
  /// appropriate action ... if the LLO consistently fails to meet
  /// targets"): Orch.Delayed to an app-slow side, and the escalation
  /// callback for every diagnosis.
  int fail_threshold = 5;

  /// When false the agent primes and starts the group atomically but runs
  /// no continuous regulation afterwards — the "event-driven sync only"
  /// baseline the F6 experiment contrasts against.
  bool regulate = true;

  /// §7 extension: permit orchestration of VCs with no common node.  The
  /// orchestrating node becomes the one touching the most VCs; regulation
  /// works unchanged because targets are relative to each sink's own
  /// position, and the clock-sync function bounds any residual datum error.
  bool allow_no_common_node = false;
};

/// Per-interval digest a domain HLO pushes up a federation tree (see
/// orch/federation.h): the whole domain compressed into O(1) numbers, so a
/// root orchestrator steering N domains processes N aggregates per
/// interval instead of N x VCs individual regulation reports.
struct DomainAggregate {
  std::uint32_t interval_id = 0;
  std::size_t vc_count = 0;
  double mean_position_s = 0;       // domain media-time datum
  double osdu_period_s = 0;         // the domain's step: its slowest stream's OSDU period
  double max_abs_skew_s = 0;        // worst intra-domain relative skew
  double mean_abs_error_osdus = 0;  // mean |target error| at last report
  std::uint64_t reports = 0;        // per-VC reports folded in since last digest
};

/// The agent's diagnosis of a missed target (§6.3.1.2).
enum class MissDiagnosis {
  kOnTarget,
  kSourceAppSlow,     // source app threads blocked the protocol (Orch.Delayed)
  kSinkAppSlow,       // sink app not consuming (Orch.Delayed)
  kTransportTooSlow,  // protocol throughput too low (candidate for T-Renegotiate)
};

std::string to_string(MissDiagnosis d);

class HloAgent {
 public:
  using ResultFn = Llo::ResultFn;

  /// `llo` must be the LLO instance at the orchestrating node.
  HloAgent(Llo& llo, OrchSessionId session, std::vector<OrchStreamSpec> streams,
           OrchPolicy policy);
  ~HloAgent();

  HloAgent(const HloAgent&) = delete;
  HloAgent& operator=(const HloAgent&) = delete;

  OrchSessionId session_id() const { return session_; }
  const OrchPolicy& policy() const { return policy_; }
  Llo& llo() { return llo_; }

  /// Fencing epoch this agent stamps on every OPDU (via the session table).
  /// Must be set before establish(); a failover supervisor assigns each
  /// re-elected agent a strictly higher epoch than its predecessor.
  void set_epoch(std::uint32_t epoch);
  std::uint32_t epoch() const { return epoch_; }

  /// True once an endpoint fenced this agent (kEpochNack): a re-elected
  /// successor owns the session now.  The agent has already stopped
  /// regulating and released its session state when this reads true.
  bool superseded() const { return superseded_; }
  /// Fires (once) when the agent self-retires on supersession.
  void set_on_superseded(std::function<void()> fn) { on_superseded_ = std::move(fn); }

  /// Orch.request to all involved LLOs; must complete before prime/start.
  void establish(ResultFn done);
  /// Orch.Prime: fill the pipelines; confirm fires when every sink's
  /// receive buffers are full.
  void prime(bool flush, ResultFn done);
  /// Orch.Start: atomically release all sinks and begin the regulation
  /// feedback loop.
  void start(ResultFn done);
  /// Orch.Stop: freeze all VCs and suspend regulation.
  void stop(ResultFn done);
  /// Orch.Release.
  void release();

  void add_stream(OrchStreamSpec spec, ResultFn done);
  void remove_stream(transport::VcId vc, ResultFn done);

  /// Retargets a stream's nominal OSDU rate after a QoS renegotiation (the
  /// graceful-degradation loop: a degraded VC flows fewer OSDUs per second,
  /// so its regulation targets must shrink in step or every interval counts
  /// as a miss).  Rebases the stream so its media-time position is
  /// continuous across the rate change.  Returns false for unknown VCs.
  bool retarget_stream_rate(transport::VcId vc, double osdu_rate);

  /// Orch.Event registration/delivery passthrough.
  void register_event(transport::VcId vc, std::uint64_t pattern, std::uint64_t mask = ~0ull);
  void set_event_callback(std::function<void(const EventIndication&)> fn);

  // --- diagnostics / instrumentation ---
  struct VcStatus {
    std::int64_t base_seq = 0;           // position base captured at start
    std::int64_t last_target = -1;       // delta (OSDUs) set for the last interval
    std::int64_t last_delivered = -1;
    double skew_ema_s = 0;               // smoothed relative skew estimate
    std::int64_t overshoot = 0;          // OSDUs delivered beyond last target
    double last_error_osdus = 0;         // target - delivered at interval end
    int consecutive_misses = 0;
    std::int64_t drops_total = 0;
    // Catch-up drops asked of the source whose sequence gap has not reached
    // the sink yet: counted in the media position at once, absorbed when
    // the sink skips the gap, retired kCatchUpLandsWithin after the last.
    std::int64_t catch_up_in_flight = 0;
    Duration catch_up_age = 0;
    std::int64_t intervals = 0;
    MissDiagnosis last_diagnosis = MissDiagnosis::kOnTarget;
  };
  const std::map<transport::VcId, VcStatus>& status() const { return status_; }
  bool running() const { return running_; }
  const std::vector<OrchStreamSpec>& streams() const { return streams_; }

  /// True simulation time of the last merged Orch.Regulate.indication (set
  /// to the start time when regulation begins).  A supervisor watching for
  /// orchestrator death reads this: an agent that misses several
  /// regulate-report windows in a row is presumed dead (its node crashed or
  /// was partitioned away).
  Time last_report_time() const { return last_report_; }

  /// Fires on every merged Orch.Regulate.indication, with the target that
  /// was set for that interval (benches record the full time series).
  void set_interval_callback(
      std::function<void(const RegulateIndication&, std::int64_t target)> fn) {
    on_interval_ = std::move(fn);
  }
  /// Fires when a VC misses its target `fail_threshold` times in a row.
  void set_escalation_callback(
      std::function<void(transport::VcId, MissDiagnosis, const RegulateIndication&)> fn) {
    on_escalate_ = std::move(fn);
  }
  /// Fires after a dead VC has been dropped from the group (the LLO
  /// reported kVcDead; event_value carries the transport DisconnectReason).
  void set_vc_dead_callback(std::function<void(const EventIndication&)> fn) {
    on_vc_dead_ = std::move(fn);
  }

  // --- federation hooks (orch/federation.h) ---

  /// Merged Orch.Regulate.indications this agent has processed: the
  /// federation acceptance counter (a root HLO must see aggregates, never
  /// this firehose).
  std::uint64_t reports_processed() const { return reports_processed_; }

  /// Fires once per regulation interval (from the second tick on, when
  /// positions exist) with the whole domain digested into a
  /// DomainAggregate.  Runs on the orchestrating node's shard — a
  /// federation root marshals it into a global event before touching
  /// cross-domain state.
  void set_aggregate_callback(std::function<void(const DomainAggregate&)> fn) {
    on_aggregate_ = std::move(fn);
  }

  /// Inter-domain alignment knob: scales every stream's target rate by
  /// `scale` (clamped to [0.9, 1.1]) so a federation root can nudge a whole
  /// domain that has drifted ahead of or behind its siblings.  Intra-domain
  /// ratios — the synchronisation relationship — are untouched.  The bend
  /// accumulates as media time and acts in whole steps of the domain's
  /// slowest OSDU period, on every stream in the same interval: a step
  /// ahead drops at the sources, a step back lowers the targets.
  void set_rate_scale(double scale);
  double rate_scale() const { return rate_scale_; }

 private:
  void interval_tick();
  void on_regulate(const RegulateIndication& ind);
  void on_vc_dead(const EventIndication& ind);
  void on_superseded_nack();
  /// Orchestrating node's local clock (the master reference / datum).
  Time master_now() const;
  /// Media-time position of a stream, in seconds since its base, counting
  /// its catch-up drops still in flight.
  double position_seconds(const OrchStreamSpec& s) const;
  /// The domain's step: the OSDU period of its slowest stream.
  double step_seconds() const;

  Llo& llo_;
  OrchSessionId session_;
  std::vector<OrchStreamSpec> streams_;
  OrchPolicy policy_;

  bool established_ = false;
  bool running_ = false;
  bool superseded_ = false;
  std::uint32_t epoch_ = 1;
  Time start_master_time_ = 0;
  Time last_report_ = 0;
  std::uint32_t next_interval_id_ = 1;
  sim::Timer tick_;
  // Ordered per-stream iteration feeds interval_tick and status(); the
  // federation bounds a domain agent to tens of VCs, never the 10k table.
  std::map<transport::VcId, VcStatus> status_;  // cmtos-analyze: allow(hot-path-map)
  std::function<void(const RegulateIndication&, std::int64_t)> on_interval_;
  std::function<void(transport::VcId, MissDiagnosis, const RegulateIndication&)> on_escalate_;
  std::function<void(const EventIndication&)> on_vc_dead_;
  std::function<void()> on_superseded_;

  // federation state
  std::uint64_t reports_processed_ = 0;
  std::uint64_t reports_window_ = 0;  // reports since the last aggregate
  double rate_scale_ = 1.0;
  double bend_credit_s_ = 0;  // the bend not yet taken as a whole step
  /// A source drop reaches the sink about one pipeline later (1.3 s in the
  /// city); a catch-up still unseen after this never will be.
  static constexpr Duration kCatchUpLandsWithin = 5 * kSecond;
  std::function<void(const DomainAggregate&)> on_aggregate_;
};

}  // namespace cmtos::orch
