// bulk_64k: one 64 KiB pump over a clean 1 Gbit/s link.  Each OSDU is 47
// fragments of 1400 B, so per-fragment work dominates: CRC, the DT codec
// and segmentation, link batches, simulator events and the frame pool.

#include "pump.h"

namespace perf {
namespace {

class BulkWorld final : public World {
 public:
  explicit BulkWorld(std::uint64_t seed) : World(seed), seed_(seed) {}

  void setup(SetupPhases& ph) override {
    double t = wall_s();
    cmtos::Rng rng(seed_ ^ 0xb01c64ull);
    src_ = &platform_.add_host("src");
    dst_ = &platform_.add_host("dst");
    platform_.network().add_link(src_->id, dst_->id, pump_link(rng));
    platform_.network().finalize_routes();
    pump_ = std::make_unique<Pump>(*src_, *dst_, seed_);
    ph.build_s = wall_s() - t;

    t = wall_s();
    pump_->connect(sim_);
    ph.connect_s = wall_s() - t;

    // Seeded start phase (shifts the refill slices against the pacer),
    // then one simulated second of pumping to fill the pipeline.
    t = wall_s();
    sim_.run_for(rng.uniform(0, 3999) * cmtos::kMicrosecond);
    const Time until = sim_.now() + cmtos::kSecond;
    while (pump_->connected() && sim_.now() < until) pump_->step(sim_);
    ph.warmup_s = wall_s() - t;
  }

  std::int64_t delivered() override { return pump_->delivered(); }

  void step() override { pump_->step(sim_); }

  void open_epoch() override {
    const Time now = sim_.now();
    pump_->open_epoch(now, now + epoch(), now + epoch() + grace());
  }

  SimMetrics close_epoch() override {
    SimMetrics m;
    pump_->close_epoch(m);
    m.ops = 1;  // the pump's connect
    m.ops_failed = pump_->connected() ? 0 : 1;
    m.connect_ms.push_back(pump_->connect_ms());
    return m;
  }

  void finish(Checks& c) override { pump_->check(c); }

  LayerCounts counts() override {
    LayerCounts lc;
    lc.delivered = pump_->delivered();
    lc.delivered_bytes = pump_->delivered_bytes();
    if (const auto* s = pump_->source_stats()) {
      lc.tpdus_sent = s->tpdus_sent;
      lc.tpdus_retx = s->tpdus_retransmitted;
      lc.data_link_tx = s->tpdus_sent;  // one hop
    }
    for (auto [a, b] : {std::pair{src_->id, dst_->id}, std::pair{dst_->id, src_->id}}) {
      const auto& ls = platform_.network().link(a, b)->stats();
      lc.link_packets += ls.packets_sent;
      lc.link_bytes += ls.bytes_sent;
      lc.queue_drops += ls.dropped_queue_overflow;
    }
    return lc;
  }

  std::size_t live_vcs() override { return 1; }
  Duration epoch() const override { return 12 * cmtos::kSecond; }
  Duration grace() const override { return 1500 * cmtos::kMillisecond; }

 private:
  std::uint64_t seed_;
  cmtos::platform::Host* src_ = nullptr;
  cmtos::platform::Host* dst_ = nullptr;
  std::unique_ptr<Pump> pump_;
};

}  // namespace

std::unique_ptr<World> make_bulk(std::uint64_t seed) {
  return std::make_unique<BulkWorld>(seed);
}

}  // namespace perf
