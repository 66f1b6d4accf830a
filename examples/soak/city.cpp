// city.cpp — city-scale federated orchestration rows.
//
// The largest topology in the repo: a core switch fanning out to 12
// district hubs, each district holding one media server and 8 workstations
// (121 nodes total).  Every district server feeds one video stream to each
// of its workstations (96 streams), the 12 districts are orchestrated as the
// domains of one FederatedHlo (per-VC regulation reports stay inside each
// district; the root sees only per-domain digests), and a FailoverFleet
// watches every domain session.  On top of the steady media load, a churn
// mixer keeps opening and closing cross-district transport VCs, exercising
// the flat session/VC tables under continuous admit/release while 96
// reservations stay pinned.
//
//   steady   the full city runs with no churn: every stream renders, every
//            domain regulates, the root ingests only aggregates
//   churn    same city plus 200 cross-district VC open/close cycles over
//            32 rotating slots; every open must be admitted and confirmed
//
// Each of the 121 nodes is its own event shard, so these rows are where the
// sharded executor has the most parallel work; perfbench's `city_orch`
// workload reports the speedup (sim.parallel_speedup).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "media/sink.h"
#include "media/stored_server.h"
#include "orch/failover.h"
#include "orch/federation.h"
#include "platform/host.h"
#include "platform/stream.h"
#include "soak.h"
#include "util/rng.h"

namespace cmtos::soak {
namespace {

constexpr int kDistricts = 12;
constexpr int kWsPerDistrict = 8;
constexpr net::Tsap kChurnTsap = 900;

/// Auto-accepting endpoint for the churn VCs; one per workstation, shared
/// by every slot that lands there.
class ChurnUser : public transport::TransportUser {
 public:
  explicit ChurnUser(transport::TransportEntity& entity) : entity_(&entity) {}
  void t_connect_indication(transport::VcId vc, const transport::ConnectRequest&) override {
    entity_->connect_response(vc, true);
  }
  void t_connect_confirm(transport::VcId, const transport::QosParams&) override {
    ++confirmed;
  }
  void t_disconnect_indication(transport::VcId, transport::DisconnectReason) override {
    ++disconnected;
  }
  int confirmed = 0;
  int disconnected = 0;

 private:
  transport::TransportEntity* entity_;
};

/// A low-rate control-class request for the churn VCs (tiny reservation,
/// so 32 concurrent slots never pressure the 96 pinned video contracts).
transport::ConnectRequest churn_request(net::NetAddress src, net::NetAddress dst) {
  transport::ConnectRequest req;
  req.initiator = src;
  req.src = src;
  req.dst = dst;
  req.qos.preferred.osdu_rate = 1.0;
  req.qos.preferred.max_osdu_bytes = 256;
  req.qos.preferred.end_to_end_delay = 200 * kMillisecond;
  req.qos.preferred.delay_jitter = 50 * kMillisecond;
  req.qos.preferred.packet_error_rate = 0.02;
  req.qos.preferred.bit_error_rate = 1e-5;
  req.qos.worst = req.qos.preferred;
  req.qos.worst.osdu_rate = 0.25;
  req.qos.worst.end_to_end_delay = kSecond;
  req.qos.worst.delay_jitter = 200 * kMillisecond;
  req.qos.worst.packet_error_rate = 0.1;
  req.qos.worst.bit_error_rate = 1e-3;
  return req;
}

struct District {
  platform::Host* hub = nullptr;
  platform::Host* server = nullptr;
  std::vector<platform::Host*> ws;
  std::unique_ptr<media::StoredMediaServer> store;
};

struct City {
  explicit City(std::uint64_t seed, unsigned threads) : platform(seed) {
    platform.set_threads(threads);
    core = &platform.add_host("core");

    // Fan-out tree: trunks are 100 Mbit/s, the access links 10 Mbit/s.
    // Each district's 8 video reservations (~0.5 Mbit/s each) ride the
    // hub--server access link; churn VCs cross the core.
    net::LinkConfig trunk;
    trunk.bandwidth_bps = 100'000'000;
    trunk.propagation_delay = 1 * kMillisecond;
    net::LinkConfig access;
    access.bandwidth_bps = 10'000'000;
    access.propagation_delay = 1 * kMillisecond;

    for (int d = 0; d < kDistricts; ++d) {
      District dist;
      const std::string dn = "d" + std::to_string(d);
      dist.hub = &platform.add_host(dn + "-hub");
      dist.server = &platform.add_host(dn + "-srv");
      platform.network().add_link(core->id, dist.hub->id, trunk);
      platform.network().add_link(dist.hub->id, dist.server->id, access);
      for (int w = 0; w < kWsPerDistrict; ++w) {
        auto& h = platform.add_host(dn + "-ws" + std::to_string(w));
        platform.network().add_link(dist.hub->id, h.id, access);
        dist.ws.push_back(&h);
      }
      districts.push_back(std::move(dist));
    }
    platform.network().finalize_routes();

    // Media plane: one stored track per workstation, rendered there.
    platform::VideoQos vq;
    vq.frames_per_second = 10;
    int connected = 0;
    for (int d = 0; d < kDistricts; ++d) {
      District& dist = districts[d];
      dist.store = std::make_unique<media::StoredMediaServer>(
          platform, *dist.server, "store" + std::to_string(d));
      for (int w = 0; w < kWsPerDistrict; ++w) {
        media::TrackConfig track;
        track.track_id = static_cast<std::uint32_t>(d * kWsPerDistrict + w + 1);
        track.vbr.base_bytes = 512;
        const net::NetAddress src =
            dist.store->add_track(static_cast<net::Tsap>(100 + w), track);
        media::RenderConfig rc;
        rc.expect_track = track.track_id;
        sinks.push_back(std::make_unique<media::RenderingSink>(platform, *dist.ws[w],
                                                               net::Tsap{200}, rc));
        auto& s = streams.emplace_back(std::make_unique<platform::Stream>(
            platform, *dist.ws[w], "s" + std::to_string(track.track_id)));
        s->set_buffer_osdus(8);
        s->connect(src, {dist.ws[w]->id, net::Tsap{200}}, platform::MediaQos{vq}, {},
                   [&](bool ok, auto) { connected += ok; });
      }
    }
    platform.run_until(2 * kSecond);
    streams_connected = connected;

    // Churn endpoints: every workstation can terminate (and originate)
    // cross-district slots at a well-known TSAP.
    for (District& dist : districts)
      for (platform::Host* h : dist.ws) {
        churn_users.push_back(std::make_unique<ChurnUser>(h->entity));
        h->entity.bind(kChurnTsap, churn_users.back().get());
      }
  }

  platform::Host* ws(int district, int w) { return districts[district].ws[w]; }

  platform::Platform platform;
  platform::Host* core = nullptr;
  std::vector<District> districts;
  std::vector<std::unique_ptr<media::RenderingSink>> sinks;
  std::vector<std::unique_ptr<platform::Stream>> streams;
  std::vector<std::unique_ptr<ChurnUser>> churn_users;
  int streams_connected = 0;
};

/// One rotating churn slot: a cross-district VC owned by its source ws.
struct ChurnSlot {
  transport::TransportEntity* src_entity = nullptr;
  transport::VcId vc = transport::kInvalidVc;
};

/// Opens a fresh cross-district VC for `slot`; returns false on admission
/// failure (which the oracle treats as fatal — the reservations are sized
/// so the city never runs out of room for the churn class).
bool open_slot(City& city, Rng& rng, ChurnSlot& slot) {
  const int sd = static_cast<int>(rng.uniform(0, kDistricts - 1));
  const int dd = (sd + 1 + static_cast<int>(rng.uniform(0, kDistricts - 2))) % kDistricts;
  platform::Host* src = city.ws(sd, static_cast<int>(rng.uniform(0, kWsPerDistrict - 1)));
  platform::Host* dst = city.ws(dd, static_cast<int>(rng.uniform(0, kWsPerDistrict - 1)));
  slot.src_entity = &src->entity;
  slot.vc = src->entity.t_connect_request(
      churn_request({src->id, kChurnTsap}, {dst->id, kChurnTsap}));
  return slot.vc != transport::kInvalidVc;
}

struct ChurnStats {
  int attempted = 0;
  int admission_failures = 0;
};

/// Disconnect + reopen one slot (round-robin), the steady open/close mixer
/// that beats on the flat VC tables while the media plane stays pinned.
void churn_once(City& city, Rng& rng, std::vector<ChurnSlot>& slots, std::size_t& next,
                ChurnStats& stats) {
  ChurnSlot& slot = slots[next];
  next = (next + 1) % slots.size();
  if (slot.vc != transport::kInvalidVc) slot.src_entity->t_disconnect_request(slot.vc);
  ++stats.attempted;
  if (!open_slot(city, rng, slot)) ++stats.admission_failures;
}

bool run_city(City& city, bool churn, std::uint64_t seed) {
  if (city.streams_connected != kDistricts * kWsPerDistrict)
    return fail("not every media stream connected");

  // Federate: one domain per district.  Within a district the server
  // touches all 8 streams, so the §7 most-touches election seats the
  // domain agent on the district server.
  orch::FederationPolicy fp;
  fp.domain.interval = 100 * kMillisecond;
  fp.domain.allow_no_common_node = true;
  orch::FederatedHlo fed(city.platform.orchestrator(), fp);

  std::vector<std::vector<orch::OrchStreamSpec>> domains(kDistricts);
  for (int d = 0; d < kDistricts; ++d)
    for (int w = 0; w < kWsPerDistrict; ++w)
      domains[d].push_back(city.streams[static_cast<std::size_t>(d * kWsPerDistrict + w)]
                               ->orch_spec(2));

  bool established = false;
  if (!fed.orchestrate(std::move(domains), [&](bool ok, auto) { established = ok; }))
    return fail("federated orchestrate rejected");
  if (fed.domain_count() != kDistricts) return fail("domain count");
  for (int d = 0; d < kDistricts; ++d)
    if (fed.domain(static_cast<std::size_t>(d))->orchestrating_node() !=
        city.districts[static_cast<std::size_t>(d)].server->id)
      return fail("district server not elected as domain orchestrator");
  city.platform.run_until(4 * kSecond);
  if (!established) return fail("federation not established");

  orch::FailoverFleet fleet(
      city.platform.scheduler(), city.platform.orchestrator(),
      [&](net::NodeId n) { return &city.platform.host(n).llo; },
      [&](net::NodeId n) { return city.platform.node_alive(n); });
  fed.adopt_failover(fleet);
  if (fleet.session_count() != kDistricts) return fail("fleet adoption");

  bool primed = false, started = false;
  fed.prime(false, [&](bool ok, auto) { primed = ok; });
  city.platform.run_until(6 * kSecond);
  if (!primed) return fail("prime barrier");
  fed.start([&](bool ok, auto) { started = ok; });
  city.platform.run_until(7 * kSecond);
  if (!started) return fail("start barrier");

  // Churn window: 7 s .. 17 s.  One op every 50 ms over 32 rotating
  // slots, driven from the control shard between scheduler rounds (the
  // mixer itself is deterministic at every thread count).
  Rng rng(seed ^ 0xc17c17c17ull);
  std::vector<ChurnSlot> slots;
  ChurnStats stats;
  std::size_t next = 0;
  if (churn) {
    slots.resize(32);
    for (auto& slot : slots) {
      ++stats.attempted;
      if (!open_slot(city, rng, slot)) ++stats.admission_failures;
    }
  }
  Time t = city.platform.scheduler().now();
  for (int op = 0; op < 200; ++op) {
    t += 50 * kMillisecond;
    city.platform.run_until(t);
    if (churn) churn_once(city, rng, slots, next, stats);
  }
  city.platform.run_until(t + kSecond);  // settle the last opens

  // ---- Oracles ----
  if (stats.admission_failures != 0) return fail("churn admission failure");
  int confirmed = 0, disconnected = 0;
  for (const auto& u : city.churn_users) {
    confirmed += u->confirmed;
    disconnected += u->disconnected;
  }
  if (confirmed != stats.attempted) return fail("churn opens not all confirmed");
  // Each release produces two indications: the courtesy one to the
  // requesting endpoint's bound user and the DR-driven one at the peer.
  if (churn && disconnected != 2 * 200) return fail("churn releases not all seen");

  // Every workstation rendered; no stream starved anywhere in the city.
  std::int64_t frames_total = 0, frames_min = -1;
  for (const auto& sink : city.sinks) {
    const std::int64_t f = sink->stats().frames_rendered;
    frames_total += f;
    frames_min = frames_min < 0 ? f : std::min(frames_min, f);
  }
  if (frames_min <= 0) return fail("a sink rendered nothing");

  // The fan-in held: domains absorbed the per-VC report firehose and the
  // root saw only O(domains) digests per interval.
  const std::uint64_t root_agg = fed.root_aggregates_processed();
  std::uint64_t domain_reports = 0;
  for (std::size_t d = 0; d < fed.domain_count(); ++d)
    domain_reports += fed.domain_reports_processed(d);
  if (root_agg < 10 * kDistricts) return fail("root starved of aggregates");
  if (domain_reports < 4 * root_agg) return fail("fan-in ratio collapsed");
  for (std::size_t d = 0; d < fed.domain_count(); ++d) {
    if (fed.domain_rate_scale(d) < 0.95 || fed.domain_rate_scale(d) > 1.05)
      return fail("root steering outside the imperceptibility clamp");
  }
  if (fed.max_domain_skew_s() >= 0.5) return fail("federation misaligned");

  // Nothing failed over in a fault-free run.
  if (fleet.orphaned() != 0) return fail("orphaned session");
  for (std::size_t d = 0; d < fleet.session_count(); ++d)
    if (fleet.supervisor(d).failovers() != 0) return fail("spurious failover");

  std::printf("city: nodes=%zu districts=%d streams=%d/%d\n", city.platform.host_count(),
              kDistricts, city.streams_connected, kDistricts * kWsPerDistrict);
  std::printf("churn: attempted=%d confirmed=%d released=%d failures=%d\n", stats.attempted,
              confirmed, disconnected, stats.admission_failures);
  std::printf("federation: root_aggregates=%llu domain_reports=%llu fanin=%.1f\n",
              static_cast<unsigned long long>(root_agg),
              static_cast<unsigned long long>(domain_reports),
              root_agg > 0 ? static_cast<double>(domain_reports) / static_cast<double>(root_agg)
                           : 0.0);
  std::printf("render: frames_total=%lld frames_min=%lld\n",
              static_cast<long long>(frames_total), static_cast<long long>(frames_min));
  return true;
}

bool steady(std::uint64_t seed, unsigned threads) {
  City city(seed, threads);
  return run_city(city, false, seed);
}

bool churn(std::uint64_t seed, unsigned threads) {
  City city(seed, threads);
  return run_city(city, true, seed);
}

}  // namespace

std::vector<Scenario> city_scenarios() {
  return {
      {"steady", steady},
      {"churn", churn},
  };
}

}  // namespace cmtos::soak
