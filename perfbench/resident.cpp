// resident_10k: 10,000 resident VCs on 10 host pairs (1 OSDU/s contract,
// no media), a steady connect/disconnect churn every 4 ms of simulated
// time, and one bulk_64k-shaped pump alongside.  The cost is per-VC
// housekeeping: timer-wheel events, feedback, keepalive and liveness
// timers, the connection manager, flat tables and admission.

#include <deque>
#include <unordered_map>

#include "pump.h"

namespace perf {
namespace {

constexpr std::size_t kPairs = 10;
constexpr std::size_t kVcsPerPair = 1000;
constexpr int kChurnEverySlices = 2;  // one open+close per 4 ms

class ResidentWorld;

/// Endpoint user on one side of one host pair; reports to the world.
class PairUser : public cmtos::transport::TransportUser {
 public:
  PairUser(ResidentWorld& w, cmtos::transport::TransportEntity& e) : world_(w), entity_(e) {}
  void t_connect_indication(cmtos::transport::VcId vc,
                            const cmtos::transport::ConnectRequest&) override {
    entity_.connect_response(vc, true);
  }
  void t_connect_confirm(cmtos::transport::VcId vc, const cmtos::transport::QosParams&) override;
  void t_disconnect_indication(cmtos::transport::VcId vc,
                               cmtos::transport::DisconnectReason) override;

 private:
  ResidentWorld& world_;
  cmtos::transport::TransportEntity& entity_;
};

class ResidentWorld final : public World {
 public:
  explicit ResidentWorld(std::uint64_t seed) : World(seed), seed_(seed), rng_(seed ^ 0x10c0ull) {}

  void setup(SetupPhases& ph) override {
    double t = wall_s();
    cmtos::net::LinkConfig link;
    link.bandwidth_bps = 100'000'000;
    for (std::size_t i = 0; i < kPairs; ++i) {
      auto& s = platform_.add_host("src" + std::to_string(i));
      auto& d = platform_.add_host("dst" + std::to_string(i));
      link.propagation_delay = 1 * cmtos::kMillisecond + rng_.uniform(0, 10) * cmtos::kMicrosecond;
      platform_.network().add_link(s.id, d.id, link);
      srcs_.push_back(&s);
      dsts_.push_back(&d);
    }
    auto& ps = platform_.add_host("pump-src");
    auto& pd = platform_.add_host("pump-dst");
    platform_.network().add_link(ps.id, pd.id, pump_link(rng_));
    platform_.network().finalize_routes();
    pump_src_ = &ps;
    pump_dst_ = &pd;
    for (std::size_t i = 0; i < kPairs; ++i) {
      users_.push_back(std::make_unique<PairUser>(*this, srcs_[i]->entity));
      srcs_[i]->entity.bind(1, users_.back().get());
      users_.push_back(std::make_unique<PairUser>(*this, dsts_[i]->entity));
      dsts_[i]->entity.bind(2, users_.back().get());
    }
    live_.resize(kPairs);
    pump_ = std::make_unique<Pump>(ps, pd, seed_);
    ph.build_s = wall_s() - t;

    // Ramp: one connect per pair per millisecond, then settle until all
    // confirm.  The even pacing spreads the VCs' 20 ms feedback timers over
    // every phase; batched opens would align them into bursts that overflow
    // the link queues and drop handshakes.
    t = wall_s();
    const std::int64_t bytes0 = heap_live_bytes();
    for (std::size_t v = 0; v < kVcsPerPair; ++v) {
      for (std::size_t i = 0; i < kPairs; ++i) open_vc(i);
      sim_.run_for(cmtos::kMillisecond);
    }
    const Time give_up = sim_.now() + 3 * cmtos::kSecond;
    while (confirmed_ < static_cast<std::int64_t>(kPairs * kVcsPerPair) && sim_.now() < give_up)
      sim_.run_for(10 * cmtos::kMillisecond);
    ramp_confirmed_ = confirmed_;
    heap_bytes_per_vc_ = static_cast<double>(heap_live_bytes() - bytes0) /
                         static_cast<double>(std::max<std::int64_t>(1, ramp_confirmed_));
    pump_->connect(sim_);
    ph.connect_s = wall_s() - t;

    // No seeded start phase here: churn opens keep one fixed offset from
    // the 1 ms grid of the resident VCs' timers for every seed.
    t = wall_s();
    const Time until = sim_.now() + cmtos::kSecond;
    while (sim_.now() < until) step();
    ph.warmup_s = wall_s() - t;
  }

  std::int64_t delivered() override { return pump_->delivered(); }

  void step() override {
    if (churning_ && ++slice_ % kChurnEverySlices == 0) churn_op();
    pump_->step(sim_);
  }

  void open_epoch() override {
    epoch_start_ = sim_.now();
    epoch_end_ = epoch_start_ + epoch();
    grace_end_ = epoch_end_ + grace();
    pump_->open_epoch(epoch_start_, epoch_end_, grace_end_);
    epoch_open_ = true;
  }

  SimMetrics close_epoch() override {
    SimMetrics m;
    pump_->close_epoch(m);
    m.ops = 1 + static_cast<std::int64_t>(epoch_connects_.size() + epoch_releases_.size());
    m.ops_failed = pump_->connected() ? 0 : 1;
    for (const auto& [vc, t_req] : epoch_connects_) {
      const auto it = confirm_at_.find(vc);
      if (it == confirm_at_.end() || it->second > grace_end_) {
        ++m.ops_failed;
      } else {
        m.connect_ms.push_back(cmtos::to_seconds(it->second - t_req) * 1e3);
      }
    }
    for (const auto vc : epoch_releases_) {
      const auto it = indications_.find(vc);
      if (it == indications_.end() || it->second < 2) ++m.ops_failed;
    }
    epoch_open_ = false;
    return m;
  }

  void finish(Checks& c) override {
    churning_ = false;
    sim_.run_for(cmtos::kSecond);
    pump_->check(c);
    c.expect(ramp_confirmed_ == static_cast<std::int64_t>(kPairs * kVcsPerPair),
             "exactly 10,000 resident VCs confirmed");
    c.expect(failed_requests_ == 0, "every connect request accepted");
    c.expect(confirmed_ == ramp_confirmed_ + churn_ops_, "every churn open confirmed");
    c.expect(indicated_ == 2 * churn_ops_, "every churn release indicated at both ends");
  }

  LayerCounts counts() override {
    LayerCounts lc;
    lc.delivered = pump_->delivered();
    lc.delivered_bytes = pump_->delivered_bytes();
    if (const auto* s = pump_->source_stats()) {
      lc.tpdus_sent = s->tpdus_sent;
      lc.tpdus_retx = s->tpdus_retransmitted;
      lc.data_link_tx = s->tpdus_sent;  // one hop; resident VCs carry no data
    }
    auto add_link = [&](cmtos::net::NodeId a, cmtos::net::NodeId b) {
      for (auto [x, y] : {std::pair{a, b}, std::pair{b, a}}) {
        const auto& ls = platform_.network().link(x, y)->stats();
        lc.link_packets += ls.packets_sent;
        lc.link_bytes += ls.bytes_sent;
        lc.queue_drops += ls.dropped_queue_overflow;
      }
    };
    for (std::size_t i = 0; i < kPairs; ++i) add_link(srcs_[i]->id, dsts_[i]->id);
    add_link(pump_src_->id, pump_dst_->id);
    return lc;
  }

  std::size_t live_vcs() override {
    std::size_t n = 1;
    for (const auto& l : live_) n += l.size();
    return n;
  }

  Extras extras() override { return {{"transport.heap_bytes_per_vc", heap_bytes_per_vc_}}; }

  Duration epoch() const override { return 4 * cmtos::kSecond; }
  Duration grace() const override { return 1500 * cmtos::kMillisecond; }

  // --- user callbacks ---
  // VC ids are network-unique (the allocating node sits in the high bits).
  void on_confirm(cmtos::transport::VcId vc) {
    ++confirmed_;
    confirm_at_[vc] = sim_.now();
  }
  void on_disconnect(cmtos::transport::VcId vc) {
    ++indicated_;
    if (sim_.now() <= grace_end_) ++indications_[vc];
  }

 private:
  void open_vc(std::size_t i) {
    auto req = low_rate_request({srcs_[i]->id, 1}, {dsts_[i]->id, 2});
    req.buffer_osdus = 4;
    cmtos::transport::VcId vc = cmtos::transport::kInvalidVc;
    {
      Span span("t_connect_request");
      vc = srcs_[i]->entity.t_connect_request(req);
    }
    if (vc == cmtos::transport::kInvalidVc) {
      ++failed_requests_;
      return;
    }
    live_[i].push_back(vc);
    if (epoch_open_ && sim_.now() < epoch_end_) epoch_connects_.emplace_back(vc, sim_.now());
  }

  /// Closes the oldest VC of a seeded pair and opens a replacement.
  void churn_op() {
    const auto i = static_cast<std::size_t>(rng_.uniform(0, kPairs - 1));
    if (!live_[i].empty()) {
      const auto vc = live_[i].front();
      live_[i].pop_front();
      {
        Span span("t_disconnect_request");
        srcs_[i]->entity.t_disconnect_request(vc);
      }
      if (epoch_open_ && sim_.now() < epoch_end_) epoch_releases_.push_back(vc);
    }
    ++churn_ops_;
    open_vc(i);
  }

  std::uint64_t seed_;
  cmtos::Rng rng_;
  std::vector<cmtos::platform::Host*> srcs_, dsts_;
  cmtos::platform::Host* pump_src_ = nullptr;
  cmtos::platform::Host* pump_dst_ = nullptr;
  std::vector<std::unique_ptr<PairUser>> users_;
  std::vector<std::deque<cmtos::transport::VcId>> live_;
  std::unique_ptr<Pump> pump_;

  bool churning_ = true;
  std::int64_t slice_ = 0;
  std::int64_t churn_ops_ = 0;
  std::int64_t failed_requests_ = 0;
  std::int64_t confirmed_ = 0;
  std::int64_t ramp_confirmed_ = 0;
  std::int64_t indicated_ = 0;
  double heap_bytes_per_vc_ = 0;

  bool epoch_open_ = false;
  Time epoch_start_ = 0;
  Time epoch_end_ = 0;
  Time grace_end_ = 0;
  std::vector<std::pair<cmtos::transport::VcId, Time>> epoch_connects_;
  std::vector<cmtos::transport::VcId> epoch_releases_;
  std::unordered_map<cmtos::transport::VcId, Time> confirm_at_;
  std::unordered_map<cmtos::transport::VcId, int> indications_;
};

void PairUser::t_connect_confirm(cmtos::transport::VcId vc, const cmtos::transport::QosParams&) {
  world_.on_confirm(vc);
}

void PairUser::t_disconnect_indication(cmtos::transport::VcId vc,
                                       cmtos::transport::DisconnectReason) {
  world_.on_disconnect(vc);
}

}  // namespace

std::unique_ptr<World> make_resident(std::uint64_t seed) {
  return std::make_unique<ResidentWorld>(seed);
}

}  // namespace perf
