#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "obs/json.h"
#include "util/contract.h"

namespace cmtos::obs {

namespace {

// Export contract violations through the metrics registry: release builds
// continue past a violated invariant, so the counter is the only way an
// operator sees one.  Installed via static initialisation — this TU is in
// every cmtos binary (Registry::global() is referenced throughout), so
// linking cmtos_obs is enough to get `contract.violations{check=...}`.
[[maybe_unused]] const bool g_contract_hook_installed = [] {
  contract::set_metric_hook([](const char* check) {
    Registry::global().counter("contract.violations", {{"check", check}}).add();
  });
  return true;
}();

std::string key_of(std::string_view name, const Labels& labels) {
  // '\x1f' cannot appear in sane metric names/labels; it keeps the key
  // unambiguous and the map ordering stable and human-sensible.
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1f';
    key += v;
  }
  return key;
}

[[noreturn]] void throw_kind_mismatch(std::string_view name) {
  throw std::logic_error("obs::Registry: metric '" + std::string(name) +
                         "' reported with a different type");
}

}  // namespace

void Histogram::observe(double v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }
  ++count_;
  sum_ += v;
  std::size_t idx = 0;
  if (v > 1.0) {
    const double lg = std::ceil(std::log2(v));
    idx = lg >= static_cast<double>(kBuckets - 1) ? kBuckets - 1
                                                  : static_cast<std::size_t>(lg);
  }
  ++buckets_[idx];
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  // Nearest-rank: the smallest value with at least ceil(q * count) samples
  // at or below it.
  auto want = static_cast<std::int64_t>(std::ceil(q * static_cast<double>(count_)));
  if (want < 1) want = 1;
  if (want > count_) want = count_;
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= want) return std::ldexp(1.0, static_cast<int>(i));  // 2^i upper bound
  }
  return max_;
}

Registry::Entry& Registry::find_or_create(const std::string& name, const Labels& labels,
                                          Kind kind) {
  const MutexLock lock(mu_);
  auto [it, inserted] = entries_.try_emplace(key_of(name, labels));
  Entry& e = it->second;
  if (inserted) {
    e.name = name;
    e.labels = labels;
    e.kind = kind;
    switch (kind) {
      case Kind::kCounter: e.c = std::make_unique<Counter>(); break;
      case Kind::kGauge: e.g = std::make_unique<Gauge>(); break;
      case Kind::kHistogram: e.h = std::make_unique<Histogram>(); break;
    }
  } else if (e.kind != kind) {
    throw std::logic_error("obs::Registry: metric '" + name +
                           "' re-registered with a different type");
  }
  return e;
}

Counter& Registry::counter(const std::string& name, const Labels& labels) {
  return *find_or_create(name, labels, Kind::kCounter).c;
}

Gauge& Registry::gauge(const std::string& name, const Labels& labels) {
  return *find_or_create(name, labels, Kind::kGauge).g;
}

Histogram& Registry::histogram(const std::string& name, const Labels& labels) {
  return *find_or_create(name, labels, Kind::kHistogram).h;
}

Registry::Attachment Registry::attach(Collector collector) {
  const MutexLock lock(mu_);
  const std::uint64_t id = next_collector_++;
  collectors_.emplace(id, std::move(collector));
  return Attachment(this, id);
}

void Registry::detach(std::uint64_t id) {
  const MutexLock lock(mu_);
  collectors_.erase(id);
}

Emitter::Series& Emitter::at(std::string_view name, const Labels& labels, bool is_counter) {
  auto [it, inserted] = series_.try_emplace(key_of(name, labels));
  Series& s = it->second;
  if (inserted) {
    s.name = name;
    s.labels = labels;
    s.is_counter = is_counter;
  } else if (s.is_counter != is_counter) {
    throw_kind_mismatch(name);
  }
  return s;
}

void Emitter::counter(std::string_view name, const Labels& labels, std::int64_t v) {
  at(name, labels, true).count += v;
}

void Emitter::gauge(std::string_view name, const Labels& labels, double v) {
  at(name, labels, false).value += v;
}

std::map<std::string, Emitter::Series> Registry::pull() const {
  Emitter out;
  for (const auto& [id, collect] : collectors_) collect(out);
  return std::move(out.series_);
}

std::size_t Registry::size() const {
  const MutexLock lock(mu_);
  std::size_t n = entries_.size();
  for (const auto& [key, p] : pull()) n += entries_.count(key) == 0 ? 1 : 0;
  return n;
}

std::int64_t Registry::total(const std::string& name) const {
  const MutexLock lock(mu_);
  std::int64_t sum = 0;
  for (const auto& [key, e] : entries_)
    if (e.kind == Kind::kCounter && e.name == name) sum += e.c->value();
  for (const auto& [key, p] : pull())
    if (p.is_counter && p.name == name) sum += p.count;
  return sum;
}

void Registry::clear() {
  const MutexLock lock(mu_);
  entries_.clear();
}

std::string Registry::to_json(const Labels& meta) const {
  const MutexLock lock(mu_);
  const auto pulled = pull();
  std::string out = "{\n  \"meta\": {";
  bool first = true;
  for (const auto& [k, v] : meta) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + json_escape(k) + "\": \"" + json_escape(v) + "\"";
  }
  out += "},\n  \"metrics\": [";
  first = true;
  // Owned and pulled series in one key order; a pulled series with an
  // owned series' key adds into it.
  std::map<std::string_view, std::pair<const Entry*, const Emitter::Series*>> rows;
  for (const auto& [key, e] : entries_) rows[key].first = &e;
  for (const auto& [key, p] : pulled) rows[key].second = &p;
  for (const auto& [key, row] : rows) {
    const auto [e, p] = row;
    const Kind kind = e != nullptr ? e->kind : p->is_counter ? Kind::kCounter : Kind::kGauge;
    if (p != nullptr && kind != (p->is_counter ? Kind::kCounter : Kind::kGauge))
      throw_kind_mismatch(p->name);
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"" + json_escape(e != nullptr ? e->name : p->name) +
           "\", \"labels\": {";
    bool lf = true;
    for (const auto& [k, v] : e != nullptr ? e->labels : p->labels) {
      if (!lf) out += ", ";
      lf = false;
      out += "\"" + json_escape(k) + "\": \"" + json_escape(v) + "\"";
    }
    out += "}, ";
    switch (kind) {
      case Kind::kCounter: {
        std::int64_t v = e != nullptr ? e->c->value() : 0;
        if (p != nullptr) v += p->count;
        out += "\"type\": \"counter\", \"value\": " + std::to_string(v);
        break;
      }
      case Kind::kGauge: {
        double v = e != nullptr ? e->g->value() : p->value;
        if (e != nullptr && p != nullptr) v += p->value;
        out += "\"type\": \"gauge\", \"value\": " + json_number(v);
        break;
      }
      case Kind::kHistogram:
        out += "\"type\": \"histogram\", \"count\": " + std::to_string(e->h->count()) +
               ", \"sum\": " + json_number(e->h->sum()) +
               ", \"min\": " + json_number(e->h->min()) +
               ", \"max\": " + json_number(e->h->max()) +
               ", \"mean\": " + json_number(e->h->mean()) +
               ", \"p50\": " + json_number(e->h->quantile(0.50)) +
               ", \"p99\": " + json_number(e->h->quantile(0.99));
        break;
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool Registry::write_json(const std::string& path, const Labels& meta) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = to_json(meta);
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

Registry& Registry::global() {
  static Registry* g = new Registry();  // leaked: outlives all static users
  return *g;
}

}  // namespace cmtos::obs
