// city_orch: the city_soak topology — a core switch, 12 districts of one
// media server and 8 workstations (121 nodes), 96 stored-video streams
// (10 fps, 512 B frames) orchestrated as 12 FederatedHlo domains under a
// FailoverFleet, plus 32-slot cross-district VC churn.  District server
// clocks drift over +/-2000 ppm, so the domains drift apart and the
// federation root has to steer them.  Frames are one fragment each: the
// work is orchestration, media and the executor's round structure, not CRC.

#include <algorithm>
#include <unordered_map>

#include "harness.h"
#include "media/sink.h"
#include "media/stored_server.h"
#include "orch/failover.h"
#include "orch/federation.h"
#include "platform/stream.h"
#include "util/rng.h"

namespace perf {
namespace {

using cmtos::kMillisecond;
using cmtos::kSecond;

constexpr int kDistricts = 12;
constexpr int kWsPerDistrict = 8;
constexpr int kStreams = kDistricts * kWsPerDistrict;
constexpr cmtos::net::Tsap kChurnTsap = 900;
constexpr std::size_t kChurnSlots = 32;
constexpr Duration kSlice = 50 * kMillisecond;  // one churn op per slice
constexpr double kMaxDriftPpm = 2000;

/// Churn endpoint on one workstation.  Callbacks run on that node's
/// shard, so each user keeps its own records (no shared writes).
class ChurnUser : public cmtos::transport::TransportUser {
 public:
  explicit ChurnUser(cmtos::transport::TransportEntity& e) : entity_(e) {}
  void t_connect_indication(cmtos::transport::VcId vc,
                            const cmtos::transport::ConnectRequest&) override {
    entity_.connect_response(vc, true);
  }
  void t_connect_confirm(cmtos::transport::VcId vc, const cmtos::transport::QosParams&) override {
    ++confirmed;
    confirm_at[vc] = entity_.scheduler().now();
  }
  void t_disconnect_indication(cmtos::transport::VcId vc,
                               cmtos::transport::DisconnectReason) override {
    ++disconnected;
    indicated_at.emplace(vc, entity_.scheduler().now());
  }

  std::int64_t confirmed = 0;
  std::int64_t disconnected = 0;
  std::unordered_map<cmtos::transport::VcId, Time> confirm_at;
  std::unordered_map<cmtos::transport::VcId, Time> indicated_at;

 private:
  cmtos::transport::TransportEntity& entity_;
};

struct District {
  cmtos::platform::Host* hub = nullptr;
  cmtos::platform::Host* server = nullptr;
  std::vector<cmtos::platform::Host*> ws;
  std::unique_ptr<cmtos::media::StoredMediaServer> store;
};

struct ChurnSlot {
  std::size_t src_user = 0;
  cmtos::transport::TransportEntity* src_entity = nullptr;
  cmtos::transport::VcId vc = cmtos::transport::kInvalidVc;
};

class CityWorld final : public World {
 public:
  CityWorld(std::uint64_t seed, unsigned threads) : World(seed), rng_(seed ^ 0xc17c17c17ull) {
    platform_.set_threads(threads);
  }

  ~CityWorld() override {
    // The federation and fleet reference sessions and sinks; tear down in
    // dependency order before the platform goes.
    fed_.reset();
    fleet_.reset();
  }

  void setup(SetupPhases& ph) override {
    double t = wall_s();
    build();
    ph.build_s = wall_s() - t;

    t = wall_s();
    connect_streams();
    ph.connect_s = wall_s() - t;

    t = wall_s();
    orchestrate();
    ph.orchestrate_s = wall_s() - t;

    // Open the churn slots and run one simulated second of churn.
    t = wall_s();
    slots_.resize(kChurnSlots);
    for (auto& slot : slots_) open_slot(slot);
    const Time until = sim_.now() + kSecond;
    while (sim_.now() < until) step();
    ph.warmup_s = wall_s() - t;
  }

  std::int64_t delivered() override { return delivered_; }

  void step() override {
    if (epoch_open_ && epoch_last_.empty() && sim_.now() >= epoch_end_) mark_epoch_end();
    sim_.run_until(sim_.now() + kSlice);
    if (churning_) churn_once();
    scan_records();
    if (epoch_open_ && sim_.now() <= epoch_end_) sample_skew();
  }

  void open_epoch() override {
    epoch_open_ = true;
    epoch_start_ = sim_.now();
    epoch_end_ = epoch_start_ + epoch();
    grace_end_ = epoch_end_ + grace();
    epoch_first_.clear();
    for (std::size_t i = 0; i < stream_src_.size(); ++i) epoch_first_.push_back(produced(i));
    render0_ = render_ticks();
  }

  SimMetrics close_epoch() override {
    SimMetrics m = epoch_;
    for (std::size_t i = 0; i < stream_src_.size(); ++i)
      m.accepted += epoch_last_[i] - epoch_first_[i];
    const auto [frames, starved] = render_ticks();
    m.ticks = (frames + starved) - (render0_.first + render0_.second);
    m.empty_ticks = starved - render0_.second;
    m.skew_max_ms = skew_max_s_ * 1e3;

    // Setup operations: stream connects and the federated primitives.
    m.ops += kStreams + 3;
    m.ops_failed += (kStreams - streams_connected_) + !established_ + !primed_ + !started_;
    for (const auto& [user, vc, t_req] : epoch_connects_) {
      const auto& cu = *churn_users_[user];
      const auto it = cu.confirm_at.find(vc);
      ++m.ops;
      if (it == cu.confirm_at.end() || it->second > grace_end_) {
        ++m.ops_failed;
      } else {
        m.connect_ms.push_back(cmtos::to_seconds(it->second - t_req) * 1e3);
      }
    }
    for (const auto& [user, vc] : epoch_releases_) {
      const auto& cu = *churn_users_[user];
      const auto it = cu.indicated_at.find(vc);
      ++m.ops;
      if (it == cu.indicated_at.end() || it->second > grace_end_) ++m.ops_failed;
    }
    epoch_open_ = false;
    return m;
  }

  void finish(Checks& c) override {
    churning_ = false;
    sim_.run_for(kSecond);  // settle the last opens and releases
    c.expect(streams_connected_ == kStreams, "all 96 streams connected");
    c.expect(established_ && primed_ && started_, "federation established, primed and started");
    if (!fleet_) return;
    c.expect(admission_failures_ == 0, "every churn open admitted");
    std::int64_t confirmed = 0, disconnected = 0;
    for (const auto& u : churn_users_) {
      confirmed += u->confirmed;
      disconnected += u->disconnected;
    }
    c.expect(confirmed == churn_opens_, "every churn open confirmed");
    c.expect(disconnected == 2 * churn_releases_, "every churn release indicated at both ends");
    std::int64_t frames_min = -1, integrity = 0;
    for (const auto& s : sinks_) {
      const auto f = s->stats().frames_rendered;
      frames_min = frames_min < 0 ? f : std::min(frames_min, f);
      integrity += s->stats().integrity_failures;
    }
    c.expect(frames_min > 0, "every sink rendered");
    c.expect(integrity == 0, "no frame failed its integrity check");
    const auto root_agg = fed_->root_aggregates_processed();
    std::uint64_t reports = 0;
    for (std::size_t d = 0; d < fed_->domain_count(); ++d)
      reports += fed_->domain_reports_processed(d);
    c.expect(root_agg >= 10 * kDistricts, "root ingested aggregates");
    c.expect(reports >= 4 * root_agg, "fan-in held (domains absorb per-VC reports)");
    for (std::size_t d = 0; d < fed_->domain_count(); ++d) {
      const double scale = fed_->domain_rate_scale(d);
      c.expect(scale >= 0.95 && scale <= 1.05, "root steering within the rate-scale clamp");
    }
    c.expect(fed_->max_domain_skew_s() < 0.5, "federation aligned");
    c.expect(fleet_->orphaned() == 0, "no orphaned session");
    for (std::size_t d = 0; d < fleet_->session_count(); ++d)
      c.expect(fleet_->supervisor(d).failovers() == 0, "no spurious failover");
    c.expect(registry_counter_total("contract.violations") == 0, "no contract violations");
  }

  LayerCounts counts() override {
    LayerCounts lc;
    lc.delivered = delivered_;
    lc.delivered_bytes = delivered_bytes_;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      const auto vc = streams_[i]->vc();
      const auto* src = platform_.host(stream_src_[i].node).entity.source(vc);
      if (src == nullptr) continue;
      lc.tpdus_sent += src->stats().tpdus_sent;
      lc.tpdus_retx += src->stats().tpdus_retransmitted;
      lc.data_link_tx += src->stats().tpdus_sent * stream_hops_[i];
    }
    for (const auto& [a, b] : links_) {
      for (auto [x, y] : {std::pair{a, b}, std::pair{b, a}}) {
        const auto& ls = platform_.network().link(x, y)->stats();
        lc.link_packets += ls.packets_sent;
        lc.link_bytes += ls.bytes_sent;
        lc.queue_drops += ls.dropped_queue_overflow;
      }
    }
    for (std::size_t d = 0; d < fed_->domain_count(); ++d)
      lc.domain_reports += static_cast<std::int64_t>(fed_->domain_reports_processed(d));
    lc.root_aggregates = static_cast<std::int64_t>(fed_->root_aggregates_processed());
    for (std::size_t i = 0; i < stream_src_.size(); ++i) {
      const auto& ts = districts_[i / kWsPerDistrict].store->stats(stream_src_[i].tsap);
      lc.frames_produced += ts.frames_produced;
      lc.producer_blocked += ts.production_blocked_events;
    }
    return lc;
  }

  std::size_t live_vcs() override { return kStreams + kChurnSlots; }

  Extras extras() override {
    std::int64_t integrity = 0;
    for (const auto& s : sinks_) integrity += s->stats().integrity_failures;
    return {{"orch.establish_sim_ms", establish_ms_},
            {"orch.prime_sim_ms", prime_ms_},
            {"orch.regulation_drops", static_cast<double>(registry_counter_total("orch.osdus_dropped"))},
            {"media.integrity_failures", static_cast<double>(integrity)}};
  }

  Duration epoch() const override { return 40 * kSecond; }
  Duration grace() const override { return 3 * kSecond; }

 private:
  void build() {
    // Drifts evenly spread over +/-2000 ppm; the seed picks which district
    // gets which, so every seed sees the same spread.
    std::vector<double> drift(kDistricts);
    for (int d = 0; d < kDistricts; ++d)
      drift[static_cast<std::size_t>(d)] = -kMaxDriftPpm + 2 * kMaxDriftPpm * d / (kDistricts - 1);
    for (int d = kDistricts - 1; d > 0; --d)
      std::swap(drift[static_cast<std::size_t>(d)],
                drift[static_cast<std::size_t>(rng_.uniform(0, d))]);

    auto link = [&](cmtos::net::NodeId a, cmtos::net::NodeId b, std::int64_t bps) {
      cmtos::net::LinkConfig cfg;
      cfg.bandwidth_bps = bps;
      cfg.propagation_delay = 1 * kMillisecond + rng_.uniform(0, 50) * cmtos::kMicrosecond;
      platform_.network().add_link(a, b, cfg);
      links_.emplace_back(a, b);
    };
    auto& core = platform_.add_host("core");
    for (int d = 0; d < kDistricts; ++d) {
      District dist;
      const std::string dn = "d" + std::to_string(d);
      dist.hub = &platform_.add_host(dn + "-hub");
      dist.server = &platform_.add_host(dn + "-srv",
                                        cmtos::sim::LocalClock(0, drift[static_cast<std::size_t>(d)]));
      link(core.id, dist.hub->id, 100'000'000);
      link(dist.hub->id, dist.server->id, 10'000'000);
      for (int w = 0; w < kWsPerDistrict; ++w) {
        auto& h = platform_.add_host(dn + "-ws" + std::to_string(w));
        link(dist.hub->id, h.id, 10'000'000);
        dist.ws.push_back(&h);
      }
      districts_.push_back(std::move(dist));
    }
    platform_.network().finalize_routes();
  }

  void connect_streams() {
    cmtos::platform::VideoQos vq;
    vq.frames_per_second = 10;
    for (int d = 0; d < kDistricts; ++d) {
      District& dist = districts_[static_cast<std::size_t>(d)];
      dist.store = std::make_unique<cmtos::media::StoredMediaServer>(platform_, *dist.server,
                                                                     "store" + std::to_string(d));
      for (int w = 0; w < kWsPerDistrict; ++w) {
        cmtos::media::TrackConfig track;
        track.track_id = static_cast<std::uint32_t>(d * kWsPerDistrict + w + 1);
        track.vbr.base_bytes = 512;
        vbr_ = track.vbr;
        const auto src = dist.store->add_track(static_cast<cmtos::net::Tsap>(100 + w), track);
        stream_src_.push_back(src);
        auto* ws = dist.ws[static_cast<std::size_t>(w)];
        stream_hops_.push_back(
            static_cast<std::int64_t>(platform_.network().path(src.node, ws->id).size()) - 1);
        cmtos::media::RenderConfig rc;
        rc.expect_track = track.track_id;
        sinks_.push_back(std::make_unique<cmtos::media::RenderingSink>(platform_, *ws,
                                                                       cmtos::net::Tsap{200}, rc));
        auto& s = streams_.emplace_back(std::make_unique<cmtos::platform::Stream>(
            platform_, *ws, "s" + std::to_string(track.track_id)));
        s->set_buffer_osdus(8);
        Span span("Stream::connect");
        s->connect(src, {ws->id, cmtos::net::Tsap{200}}, cmtos::platform::MediaQos{vq}, {},
                   [this](bool ok, auto) { streams_connected_ += ok; });
      }
    }
    sim_.run_until(2 * kSecond);
    record_cursor_.assign(sinks_.size(), 0);
    for (District& dist : districts_)
      for (auto* h : dist.ws) {
        churn_users_.push_back(std::make_unique<ChurnUser>(h->entity));
        h->entity.bind(kChurnTsap, churn_users_.back().get());
      }
  }

  void orchestrate() {
    cmtos::orch::FederationPolicy fp;
    fp.domain.interval = 100 * kMillisecond;
    fp.domain.allow_no_common_node = true;
    fed_ = std::make_unique<cmtos::orch::FederatedHlo>(platform_.orchestrator(), fp);
    std::vector<std::vector<cmtos::orch::OrchStreamSpec>> domains(kDistricts);
    for (int d = 0; d < kDistricts; ++d)
      for (int w = 0; w < kWsPerDistrict; ++w)
        domains[static_cast<std::size_t>(d)].push_back(
            streams_[static_cast<std::size_t>(d * kWsPerDistrict + w)]->orch_spec(2));

    const Time t_orch = sim_.now();
    bool accepted = false;
    {
      Span span("orchestrate");
      accepted = fed_->orchestrate(std::move(domains), [this](bool ok, auto) {
        established_ = ok;
        established_at_ = platform_.scheduler().now();
      });
    }
    if (!accepted) return;
    sim_.run_until(4 * kSecond);
    establish_ms_ = cmtos::to_seconds(established_at_ - t_orch) * 1e3;

    fleet_ = std::make_unique<cmtos::orch::FailoverFleet>(
        platform_.scheduler(), platform_.orchestrator(),
        [this](cmtos::net::NodeId n) { return &platform_.host(n).llo; },
        [this](cmtos::net::NodeId n) { return platform_.node_alive(n); });
    fed_->adopt_failover(*fleet_);

    const Time t_prime = sim_.now();
    {
      Span span("prime");
      fed_->prime(false, [this](bool ok, auto) {
        primed_ = ok;
        primed_at_ = platform_.scheduler().now();
      });
    }
    sim_.run_until(6 * kSecond);
    prime_ms_ = cmtos::to_seconds(primed_at_ - t_prime) * 1e3;
    {
      Span span("start");
      fed_->start([this](bool ok, auto) { started_ = ok; });
    }
    sim_.run_until(7 * kSecond);
  }

  void open_slot(ChurnSlot& slot) {
    const int sd = static_cast<int>(rng_.uniform(0, kDistricts - 1));
    const int dd = (sd + 1 + static_cast<int>(rng_.uniform(0, kDistricts - 2))) % kDistricts;
    const int sw = static_cast<int>(rng_.uniform(0, kWsPerDistrict - 1));
    const int dw = static_cast<int>(rng_.uniform(0, kWsPerDistrict - 1));
    auto* src = districts_[static_cast<std::size_t>(sd)].ws[static_cast<std::size_t>(sw)];
    auto* dst = districts_[static_cast<std::size_t>(dd)].ws[static_cast<std::size_t>(dw)];
    slot.src_user = static_cast<std::size_t>(sd * kWsPerDistrict + sw);
    slot.src_entity = &src->entity;
    {
      Span span("t_connect_request");
      slot.vc = src->entity.t_connect_request(
          low_rate_request({src->id, kChurnTsap}, {dst->id, kChurnTsap}));
    }
    ++churn_opens_;
    if (slot.vc == cmtos::transport::kInvalidVc) {
      ++admission_failures_;
      return;
    }
    if (epoch_open_ && sim_.now() < epoch_end_)
      epoch_connects_.push_back({slot.src_user, slot.vc, sim_.now()});
  }

  /// Releases the next slot round-robin and reopens it elsewhere.
  void churn_once() {
    ChurnSlot& slot = slots_[next_slot_];
    next_slot_ = (next_slot_ + 1) % slots_.size();
    if (slot.vc != cmtos::transport::kInvalidVc) {
      {
        Span span("t_disconnect_request");
        slot.src_entity->t_disconnect_request(slot.vc);
      }
      ++churn_releases_;
      if (epoch_open_ && sim_.now() < epoch_end_) epoch_releases_.emplace_back(slot.src_user, slot.vc);
    }
    open_slot(slot);
  }

  /// Frames stream `i`'s server has submitted so far; a stream's OSDU
  /// sequence numbers are its production indices.
  std::int64_t produced(std::size_t i) const {
    return districts_[i / kWsPerDistrict].store->stats(stream_src_[i].tsap).frames_produced;
  }

  void mark_epoch_end() {
    for (std::size_t i = 0; i < stream_src_.size(); ++i) epoch_last_.push_back(produced(i));
  }

  std::pair<std::int64_t, std::int64_t> render_ticks() const {
    std::int64_t frames = 0, starved = 0;
    for (const auto& s : sinks_) {
      frames += s->stats().frames_rendered;
      starved += s->stats().starvation_events;
    }
    return {frames, starved};
  }

  /// Consumes new render records: delivered totals, and the epoch's
  /// per-OSDU delay and lateness.
  void scan_records() {
    for (std::size_t i = 0; i < sinks_.size(); ++i) {
      const auto& recs = sinks_[i]->records();
      for (std::size_t& k = record_cursor_[i]; k < recs.size(); ++k) {
        const auto& r = recs[k];
        ++delivered_;
        delivered_bytes_ += static_cast<std::int64_t>(vbr_.frame_bytes(r.frame_index));
        if (!epoch_open_ || r.true_time > grace_end_ || epoch_first_.empty()) continue;
        const auto seq = static_cast<std::int64_t>(r.seq);
        const bool closed = !epoch_last_.empty();
        if (seq < epoch_first_[i] || (closed && seq >= epoch_last_[i])) continue;
        if (r.true_time - r.true_delay >= epoch_end_) continue;
        ++epoch_.delivered;
        const double ms = cmtos::to_seconds(r.true_delay) * 1e3;
        epoch_.delay_ms.push_back(ms);
        if (r.true_delay > deadline(i)) ++epoch_.late;
      }
    }
  }

  /// Delivery deadline of a stream's frames: the agreed transport delay
  /// plus the play-out buffering the stream asked for (its 8-OSDU sink
  /// ring and the equal source ring, at the agreed rate).
  Duration deadline(std::size_t i) const {
    const auto& q = streams_[i]->agreed_qos();
    const double rate = q.osdu_rate > 0 ? q.osdu_rate : 10.0;
    return q.end_to_end_delay + static_cast<Duration>(2 * 8 / rate * 1e9);
  }

  void sample_skew() {
    const Time now = sim_.now();
    for (int d = 0; d < kDistricts; ++d) {
      double lo = 1e300, hi = -1e300;
      for (int w = 0; w < kWsPerDistrict; ++w) {
        const auto& s = *sinks_[static_cast<std::size_t>(d * kWsPerDistrict + w)];
        if (s.last_seq() < 0) continue;
        const double p = s.position_seconds_at(now);
        lo = std::min(lo, p);
        hi = std::max(hi, p);
      }
      if (hi >= lo) skew_max_s_ = std::max(skew_max_s_, hi - lo);
    }
  }

  cmtos::Rng rng_;
  std::vector<District> districts_;
  std::vector<std::pair<cmtos::net::NodeId, cmtos::net::NodeId>> links_;
  std::vector<std::unique_ptr<cmtos::media::RenderingSink>> sinks_;
  std::vector<std::unique_ptr<cmtos::platform::Stream>> streams_;
  std::vector<cmtos::net::NetAddress> stream_src_;
  std::vector<std::int64_t> stream_hops_;
  cmtos::media::VbrModel vbr_;
  std::vector<std::unique_ptr<ChurnUser>> churn_users_;
  std::unique_ptr<cmtos::orch::FederatedHlo> fed_;
  std::unique_ptr<cmtos::orch::FailoverFleet> fleet_;

  int streams_connected_ = 0;
  bool established_ = false, primed_ = false, started_ = false;
  Time established_at_ = 0, primed_at_ = 0;
  double establish_ms_ = 0, prime_ms_ = 0;

  std::vector<ChurnSlot> slots_;
  std::size_t next_slot_ = 0;
  bool churning_ = true;
  std::int64_t churn_opens_ = 0, churn_releases_ = 0, admission_failures_ = 0;

  std::vector<std::size_t> record_cursor_;
  std::int64_t delivered_ = 0, delivered_bytes_ = 0;

  bool epoch_open_ = false;
  Time epoch_start_ = 0, epoch_end_ = 0, grace_end_ = 0;
  std::vector<std::int64_t> epoch_first_, epoch_last_;
  std::pair<std::int64_t, std::int64_t> render0_{0, 0};
  SimMetrics epoch_;
  double skew_max_s_ = 0;
  struct PendingConnect {
    std::size_t user;
    cmtos::transport::VcId vc;
    Time t_req;
  };
  std::vector<PendingConnect> epoch_connects_;
  std::vector<std::pair<std::size_t, cmtos::transport::VcId>> epoch_releases_;
};

}  // namespace

std::unique_ptr<World> make_city(std::uint64_t seed, unsigned threads) {
  return std::make_unique<CityWorld>(seed, threads);
}

}  // namespace perf
