#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.h"

namespace perf {

double wall_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve and would
  // report the launching process's peak when that was larger.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size());
  std::size_t i = rank <= 1 ? 0 : static_cast<std::size_t>(rank + 0.999999999) - 1;
  return v[std::min(i, v.size() - 1)];
}

// --- Spans -------------------------------------------------------------------

Spans& Spans::get() {
  static Spans s;
  return s;
}

void Spans::set_run(int run, std::string label) {
  run_ = run;
  runs_.emplace_back(run, std::move(label));
}

void Spans::open(const char* name) {
  stack_.push_back({name, wall_s(), next_id_++, heap_allocs()});
}

void Spans::close(std::int64_t events, std::int64_t pending) {
  const Open o = stack_.back();
  stack_.pop_back();
  const double t1 = wall_s();
  Agg& a = agg_[o.name];
  ++a.count;
  a.total_s += t1 - o.t0;
  if (recs_.size() >= kMaxRecords) {
    ++dropped_;
    return;
  }
  const std::int64_t parent = stack_.empty() ? 0 : stack_.back().id;
  recs_.push_back({o.name, o.t0, t1, o.id, parent, run_, events, heap_allocs() - o.allocs0,
                   pending});
}

void Spans::snapshot(const std::string& label,
                     std::vector<std::pair<std::string, double>> values) {
  snaps_.emplace_back(label, std::move(values));
}

double Spans::mean_ns(const char* name) const {
  const auto it = agg_.find(name);
  if (it == agg_.end() || it->second.count == 0) return 0;
  return it->second.total_s * 1e9 / static_cast<double>(it->second.count);
}

bool Spans::write(const std::string& path, const std::string& meta_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double base = recs_.empty() ? 0 : recs_.front().t0;
  std::fprintf(f, "{\"meta\": %s,\n\"runs\": {", meta_json.c_str());
  for (std::size_t i = 0; i < runs_.size(); ++i)
    std::fprintf(f, "%s\"%d\": \"%s\"", i ? ", " : "", runs_[i].first, runs_[i].second.c_str());
  std::fprintf(f, "},\n\"span_fields\": [\"id\", \"parent\", \"run\", \"name\", \"start_us\", "
                  "\"dur_us\", \"events\", \"allocs\", \"pending\"],\n\"spans_dropped\": %lld,\n"
                  "\"spans\": [\n",
               static_cast<long long>(dropped_));
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    std::fprintf(f, "%s[%lld, %lld, %d, \"%s\", %.3f, %.3f, %lld, %lld, %lld]", i ? ",\n" : "",
                 static_cast<long long>(r.id), static_cast<long long>(r.parent), r.run, r.name,
                 (r.t0 - base) * 1e6, (r.t1 - r.t0) * 1e6, static_cast<long long>(r.events),
                 static_cast<long long>(r.allocs), static_cast<long long>(r.pending));
  }
  std::fprintf(f, "\n],\n\"totals\": {");
  bool first = true;
  for (const auto& [name, a] : agg_) {
    std::fprintf(f, "%s\"%.*s\": {\"count\": %lld, \"total_s\": %.9f}", first ? "" : ", ",
                 static_cast<int>(name.size()), name.data(),
                 static_cast<long long>(a.count), a.total_s);
    first = false;
  }
  std::fprintf(f, "},\n\"snapshots\": [");
  for (std::size_t i = 0; i < snaps_.size(); ++i) {
    std::fprintf(f, "%s\n{\"label\": \"%s\"", i ? "," : "", snaps_[i].first.c_str());
    for (const auto& [k, v] : snaps_[i].second) std::fprintf(f, ", \"%s\": %.17g", k.c_str(), v);
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// --- Sim ---------------------------------------------------------------------

void Sim::run_until(Time t) {
  Span span("run_until");
  const double t0 = wall_s();
  const auto n = static_cast<std::int64_t>(p_.scheduler().run_until(t));
  busy_s_ += wall_s() - t0;
  events_ += n;
  span.counts(n, static_cast<std::int64_t>(p_.scheduler().pending()));
}

// --- workloads -----------------------------------------------------------------

cmtos::transport::ConnectRequest low_rate_request(cmtos::net::NetAddress src,
                                                 cmtos::net::NetAddress dst) {
  cmtos::transport::ConnectRequest req;
  req.initiator = req.src = src;
  req.dst = dst;
  auto& pref = req.qos.preferred;
  pref.osdu_rate = 1.0;
  pref.max_osdu_bytes = 256;
  pref.end_to_end_delay = 200 * cmtos::kMillisecond;
  pref.delay_jitter = 50 * cmtos::kMillisecond;
  pref.packet_error_rate = 0.02;
  pref.bit_error_rate = 1e-5;
  req.qos.worst = pref;
  req.qos.worst.osdu_rate = 0.25;
  req.qos.worst.end_to_end_delay = cmtos::kSecond;
  req.qos.worst.delay_jitter = 200 * cmtos::kMillisecond;
  req.qos.worst.packet_error_rate = 0.1;
  req.qos.worst.bit_error_rate = 1e-3;
  return req;
}

// --- obs registry ------------------------------------------------------------

std::int64_t registry_counter_total(const std::string& name) {
  const std::string json = cmtos::obs::Registry::global().to_json();
  const std::string needle = "\"name\": \"" + name + "\"";
  std::int64_t total = 0;
  std::size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    const std::size_t eol = json.find('\n', pos);
    const std::size_t val = json.find("\"value\": ", pos);
    if (val != std::string::npos && (eol == std::string::npos || val < eol))
      total += std::strtoll(json.c_str() + val + 9, nullptr, 10);
    pos += needle.size();
  }
  return total;
}

}  // namespace perf
