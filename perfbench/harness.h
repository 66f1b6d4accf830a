// perfbench/harness.h
//
// Shared machinery of the cmtos benchmark driver: process clocks, the
// allocation hook, in-memory wall-clock spans (traced runs only), the timed
// run_until wrapper every workload drives the simulator through, and the
// World interface the three workloads implement.
//
// Every measurement is taken from outside the library: spans wrap the
// driver's own calls into a layer's public API, counts come from public
// accessors (VcStats, LinkStats, FramePool stats, executor round counters,
// the obs registry) and from the driver's operator-new hook.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "platform/host.h"

namespace perf {

using cmtos::Duration;
using cmtos::Time;

// ---------------------------------------------------------------------------
// Process clocks and memory
// ---------------------------------------------------------------------------

double wall_s();        // steady clock, seconds
double cpu_s();         // user + system CPU of the whole process, seconds
double peak_rss_mib();  // high-water resident set size

// Allocation hook (alloc_hook.cpp): every global operator new is counted;
// live heap bytes are tracked only after track_heap_bytes(true), which must
// be called once, before the first world exists (a free of a block
// allocated while tracking was off would otherwise be subtracted).
std::int64_t heap_allocs();
std::int64_t heap_live_bytes();
void track_heap_bytes(bool on);

double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1]; 0 for an empty set.
double quantile(std::vector<double> v, double q);

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent and run id of every driver call into a
// layer, plus counts taken at the span's close.  Kept in memory (bounded),
// aggregated per name online, written out at exit.
// ---------------------------------------------------------------------------

class Spans {
 public:
  static Spans& get();

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_run(int run, std::string label);

  /// Opens a span nested in the innermost open one.
  void open(const char* name);
  /// Closes the innermost span, attaching simulator counts (0 when n/a).
  void close(std::int64_t events, std::int64_t pending);

  /// Records a labelled snapshot of counters at a phase boundary.
  void snapshot(const std::string& label, std::vector<std::pair<std::string, double>> values);

  struct Agg {
    std::int64_t count = 0;
    double total_s = 0;
  };
  /// Mean wall duration of spans called `name`, in ns (0 if none).
  double mean_ns(const char* name) const;

  bool write(const std::string& path, const std::string& meta_json) const;

 private:
  struct Open {
    const char* name;
    double t0;
    std::int64_t id;
    std::int64_t allocs0;
  };
  struct Rec {
    const char* name;
    double t0, t1;
    std::int64_t id, parent;
    int run;
    std::int64_t events, allocs, pending;
  };
  static constexpr std::size_t kMaxRecords = 400'000;

  bool enabled_ = false;
  int run_ = 0;
  std::int64_t next_id_ = 1;
  std::vector<Open> stack_;
  std::vector<Rec> recs_;
  std::int64_t dropped_ = 0;
  // Keyed by content: equal literals in different translation units need
  // not share an address.
  std::unordered_map<std::string_view, Agg> agg_;
  std::vector<std::pair<int, std::string>> runs_;
  std::vector<std::pair<std::string, std::vector<std::pair<std::string, double>>>> snaps_;
};

/// RAII span around one driver call; inert when tracing is off.
class Span {
 public:
  explicit Span(const char* name) : on_(Spans::get().enabled()) {
    if (on_) Spans::get().open(name);
  }
  ~Span() {
    if (on_) Spans::get().close(events_, pending_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void counts(std::int64_t events, std::int64_t pending) {
    events_ = events;
    pending_ = pending;
  }

 private:
  bool on_;
  std::int64_t events_ = 0;
  std::int64_t pending_ = 0;
};

// ---------------------------------------------------------------------------
// The simulator boundary: every workload advances time through Sim.
// ---------------------------------------------------------------------------

class Sim {
 public:
  explicit Sim(cmtos::platform::Platform& p) : p_(p) {}
  Time now() { return p_.scheduler().now(); }
  /// Scheduler::run_until with its event count and wall time accumulated.
  void run_until(Time t);
  void run_for(Duration d) { run_until(now() + d); }
  std::int64_t events() const { return events_; }
  double busy_s() const { return busy_s_; }

 private:
  cmtos::platform::Platform& p_;
  std::int64_t events_ = 0;
  double busy_s_ = 0;
};

// ---------------------------------------------------------------------------
// Workload interface
// ---------------------------------------------------------------------------

/// Wall seconds of each setup phase.
struct SetupPhases {
  double build_s = 0;
  double connect_s = 0;
  double orchestrate_s = 0;
  double warmup_s = 0;
};

/// Simulated-time outcomes over the fixed-length epoch at the start of the
/// timed window: a pure function of the seed.
struct SimMetrics {
  std::vector<double> delay_ms;    // per OSDU accepted in the epoch and delivered in time
  std::int64_t accepted = 0;       // OSDUs accepted (submitted) in the epoch
  std::int64_t delivered = 0;      // ... of those, delivered by epoch end + grace
  std::int64_t late = 0;           // ... delivered but past the delivery deadline
  std::vector<double> connect_ms;  // request -> t_connect_confirm
  std::int64_t ops = 0;            // non-OSDU operations attempted
  std::int64_t ops_failed = 0;
  double skew_max_ms = 0;
  std::int64_t ticks = 0;          // consumer ticks (render / drain)
  std::int64_t empty_ticks = 0;    // ... that found nothing to consume

  friend bool operator==(const SimMetrics&, const SimMetrics&) = default;
};

/// Cumulative counters; the driver differences two snapshots.
struct LayerCounts {
  std::int64_t delivered = 0;        // OSDUs handed to sink applications
  std::int64_t delivered_bytes = 0;
  std::int64_t tpdus_sent = 0;       // data TPDUs (incl. retransmissions)
  std::int64_t tpdus_retx = 0;
  std::int64_t data_link_tx = 0;     // data TPDU link transmissions (sent x hops)
  std::int64_t link_packets = 0;
  std::int64_t link_bytes = 0;
  std::int64_t queue_drops = 0;
  std::int64_t domain_reports = 0;
  std::int64_t root_aggregates = 0;
  std::int64_t frames_produced = 0;
  std::int64_t producer_blocked = 0;
};

struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Named extra per-layer values a workload measures itself.
using Extras = std::vector<std::pair<std::string, double>>;

class World {
 public:
  virtual ~World() = default;
  cmtos::platform::Platform& platform() { return platform_; }
  Sim& sim() { return sim_; }

  /// World build through warm-up: everything before the timed window.
  virtual void setup(SetupPhases& phases) = 0;
  /// Advances one slice of simulated time with the workload's load.
  virtual void step() = 0;
  /// Starts the simulated-metrics epoch [now, now + epoch()).
  virtual void open_epoch() = 0;
  /// Collects the epoch's outcomes; valid once now >= epoch end + grace().
  virtual SimMetrics close_epoch() = 0;
  /// Stops issuing operations, lets in-flight ones settle and checks every
  /// correctness property of the run.
  virtual void finish(Checks& checks) = 0;
  /// OSDUs handed to sink applications so far (cheap; read every slice).
  virtual std::int64_t delivered() = 0;
  virtual LayerCounts counts() = 0;
  virtual std::size_t live_vcs() = 0;
  virtual Extras extras() { return {}; }

  virtual Duration epoch() const = 0;
  virtual Duration grace() const = 0;

 protected:
  explicit World(std::uint64_t seed) : platform_(seed), sim_(platform_) {}

  cmtos::platform::Platform platform_;
  Sim sim_;
};

std::unique_ptr<World> make_bulk(std::uint64_t seed);
std::unique_ptr<World> make_resident(std::uint64_t seed);
std::unique_ptr<World> make_city(std::uint64_t seed, unsigned threads);

/// Connect request of a low-rate, dataless VC (1 OSDU/s, 256 B): the
/// resident population and the churn slots.
cmtos::transport::ConnectRequest low_rate_request(cmtos::net::NetAddress src,
                                                 cmtos::net::NetAddress dst);

/// Sums one counter across every label set of the global obs registry.
std::int64_t registry_counter_total(const std::string& name);

// ---------------------------------------------------------------------------
// Layer probes (traced runs only; probes.cpp)
// ---------------------------------------------------------------------------

struct ProbeShapes {
  std::size_t fragment_bytes = 1400;  // DT fragment payload size
  std::size_t live_timers = 0;        // workload's live event population
};

/// Runs every probe; returns named per-layer values.
Extras run_probes(const ProbeShapes& shapes);

}  // namespace perf
