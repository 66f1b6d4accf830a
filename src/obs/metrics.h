// cmtos/obs/metrics.h
//
// The metrics registry: named counters, gauges and histograms with
// free-form labels (per-VC, per-node, per-bench-configuration), snapshot-
// able to JSON.  This is the measurement backbone the orchestration paper
// implies but never shows: every number that used to live in an ad-hoc
// fprintf — TPDU loss counts, blocking times, regulation drops, bench
// headline results — gets a stable name here so benches can emit
// machine-readable output and later perf work can diff runs.
//
// Most series are owned: the registry holds the instrument and callers
// keep its handle.  Per-entity statistics are pulled instead: an entity
// that already keeps its numbers in plain structs attaches a collector,
// and every snapshot (to_json, size, total) visits it, so those series
// live exactly as long as the entity reports them.
//
// Concurrency: instrument handles returned by the registry are stable for
// the registry's lifetime.  Counter is safe for concurrent increment and
// Gauge uses atomic store/load; Histogram is intended for the
// single-threaded simulation and must not be shared across threads without
// external synchronisation.  Collectors read shard-owned state, so
// to_json(), size() and total() run only outside run_until, while no shard
// executes.  clear() drops every owned instrument, including handles a
// live entity may have cached: call it only when no such entity exists.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/sync.h"

namespace cmtos::obs {

/// Metric labels: ordered key/value pairs.  Part of the metric identity —
/// counter("x", {{"vc","1"}}) and counter("x", {{"vc","2"}}) are distinct
/// instruments.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void add(std::int64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-layout histogram: 64 power-of-two buckets (upper bound 2^i for
/// bucket i; values <= 1 land in bucket 0) plus exact count/sum/min/max.
/// Enough resolution for order-of-magnitude latency work without
/// per-instrument configuration.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void observe(double v);

  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  /// Approximate quantile (bucket upper bound); q in [0,1].
  double quantile(double q) const;
  const std::array<std::int64_t, kBuckets>& buckets() const { return buckets_; }

 private:
  std::array<std::int64_t, kBuckets> buckets_{};
  std::int64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Receives the series a collector reports at snapshot time.  A series
/// reported twice (same name and labels) adds.
class Emitter {
 public:
  void counter(std::string_view name, const Labels& labels, std::int64_t v);
  void gauge(std::string_view name, const Labels& labels, double v);

 private:
  friend class Registry;
  struct Series {
    std::string name;
    Labels labels;
    bool is_counter = false;
    std::int64_t count = 0;
    double value = -0.0;  // the additive identity: one report stays bit-exact
  };
  Emitter() = default;
  Series& at(std::string_view name, const Labels& labels, bool is_counter);
  /// Keyed like the registry's own entries, so both sort alike.
  std::map<std::string, Series> series_;
};

/// Reports an entity's current series.  It must not call back into the
/// registry (the snapshot holds the registry lock while it runs).
using Collector = std::function<void(Emitter&)>;

/// A named collection of instruments.  Lookup-or-create is mutex-guarded
/// and deterministic (series serialize in sorted key order); hold the
/// returned reference rather than re-looking-up on hot paths.  Pulled
/// series sort among the owned ones by the same key, and series with the
/// same name and labels add.
class Registry {
 public:
  /// Keeps one collector attached; destroying it detaches the collector
  /// and its series leave every later snapshot.
  class Attachment {
   public:
    Attachment(const Attachment&) = delete;
    Attachment& operator=(const Attachment&) = delete;
    ~Attachment() { reg_->detach(id_); }

   private:
    friend class Registry;
    Attachment(Registry* reg, std::uint64_t id) : reg_(reg), id_(id) {}
    Registry* reg_;
    std::uint64_t id_;
  };

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, const Labels& labels = {});

  /// Convenience: create-or-update a gauge in one call (bench headline
  /// metrics).
  void set_gauge(const std::string& name, double v, const Labels& labels = {}) {
    gauge(name, labels).set(v);
  }

  [[nodiscard]] Attachment attach(Collector collector);

  /// Distinct series, owned and pulled.
  std::size_t size() const;
  /// Sum of every counter series named `name`, owned and pulled.  Unlike
  /// counter() it never creates a series.
  std::int64_t total(const std::string& name) const;
  void clear();

  /// Snapshot as a JSON object: {"meta":{...},"metrics":[...]}.  `meta`
  /// entries (e.g. bench name, run parameters) are emitted as strings.
  std::string to_json(const Labels& meta = {}) const;

  /// Writes to_json() to `path`.  Returns false on I/O failure.
  bool write_json(const std::string& path, const Labels& meta = {}) const;

  /// Process-wide registry the protocol stack publishes into.
  static Registry& global();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Labels labels;
    Kind kind;
    std::unique_ptr<Counter> c;
    std::unique_ptr<Gauge> g;
    std::unique_ptr<Histogram> h;
  };
  Entry& find_or_create(const std::string& name, const Labels& labels, Kind kind);
  void detach(std::uint64_t id);
  /// Runs every collector: the pulled series by key.
  std::map<std::string, Emitter::Series> pull() const CMTOS_REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<std::string, Entry> entries_ CMTOS_GUARDED_BY(mu_);
  std::map<std::uint64_t, Collector> collectors_ CMTOS_GUARDED_BY(mu_);
  std::uint64_t next_collector_ CMTOS_GUARDED_BY(mu_) = 0;
};

}  // namespace cmtos::obs
