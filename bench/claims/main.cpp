// claims — the one paper-claims driver: every result EXPERIMENTS.md quotes
// is a row of the claim table (claims.h), with its oracles in C++.
//
//   $ ./claims --list
//   $ ./claims --claim connect.latency
//   $ ./claims --claim multiplex --json BENCH_multiplex.json
//   $ ./claims                      # every row, in table order
//
// --claim takes a row name or an area (the part before the dot) and runs
// every matching row.  --seed overrides each row's committed seed.  After
// the rows the driver checks the oracle every row shares — no contract
// violation — then writes the metrics snapshot (--json) and closes the
// Chrome trace-event file (--trace).  The snapshot's meta names the claim
// and stamps the machine and build as perfbench's result files do:
// revision (--revision, "unknown" without it), cpu, nproc, build_type,
// compiler and crc_kernel (the CRC-32 kernel this CPU dispatches to, which
// the wall-clock series depend on).
//
// Exit status: 0 when every oracle held, 1 when one failed, 2 on a usage
// error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "claims.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "run_meta.h"

int main(int argc, char** argv) {
  using namespace cmtos;
  using namespace cmtos::bench;
  std::vector<Claim> table;
  for (auto area : {regulation_claims, prime_start_claims, connect_claims, qos_monitor_claims,
                    renegotiate_claims, orchestration_claims, event_claims, multiplex_claims,
                    rate_vs_window_claims, admission_claims, failover_claims, scale_claims})
    for (const Claim& c : area()) table.push_back(c);

  const char* usage =
      "usage: claims [--claim NAME|AREA] [--seed N] [--json PATH] [--trace PATH]\n"
      "              [--revision R]\n"
      "       claims --list\n";
  std::string only;
  std::string json_path;
  std::string trace_path;
  std::string revision = "unknown";
  bool seeded = false;
  std::uint64_t seed = 0;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--list") == 0) {
      for (const Claim& c : table) std::printf("%s\n", c.name);
      return 0;
    } else if (std::strcmp(argv[i], "--claim") == 0 && has_value) {
      only = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      seeded = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && has_value) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && has_value) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--revision") == 0 && has_value) {
      revision = argv[++i];
    } else {
      std::fputs(usage, stderr);
      return 2;
    }
  }

  std::vector<const Claim*> rows;
  for (const Claim& c : table) {
    const std::string name = c.name;
    if (only.empty() || name == only || name.rfind(only + ".", 0) == 0) rows.push_back(&c);
  }
  if (rows.empty()) {
    std::fprintf(stderr, "claims: unknown claim '%s' (see --list)\n", only.c_str());
    std::fputs(usage, stderr);
    return 2;
  }

  if (!trace_path.empty() && !obs::Tracer::global().start(trace_path))
    std::fprintf(stderr, "warning: cannot open trace file %s\n", trace_path.c_str());
  bool passed = true;
  for (const Claim* c : rows) {
    const std::uint64_t row_seed = seeded ? seed : c->seed;
    std::printf("\n=== %s ===\n(reproduces: %s)\n\n", c->name, c->artifact);
    Oracle check;
    c->run(row_seed, check);
    const bool ok = check.passed();
    std::printf("\nclaims: %s seed %llu: %s\n", c->name,
                static_cast<unsigned long long>(row_seed), ok ? "OK" : "FAILED");
    passed = passed && ok;
  }
  if (obs::Registry::global().total("contract.violations") != 0) {
    std::fprintf(stderr, "claims: FAILED: contract violations\n");
    passed = false;
  }

  if (!trace_path.empty()) obs::Tracer::global().stop();
  if (!json_path.empty()) {
    const std::string claim = only.empty() ? "all" : only;
    obs::Labels meta = {{"claim", claim}};
    stamp_run_meta(meta, revision);
    if (!obs::Registry::global().write_json(json_path, meta))
      std::fprintf(stderr, "warning: cannot write metrics to %s\n", json_path.c_str());
  }
  return passed ? 0 : 1;
}
