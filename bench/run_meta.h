// The machine and build stamp of a driver's --json meta, shared by the
// claims and soak drivers (perfbench stamps its result files alike):
// revision, cpu, nproc, build_type, compiler and crc_kernel (the CRC-32
// kernel this CPU dispatches to, which wall-clock series depend on).
// The including target defines CMTOS_RUN_BUILD_TYPE and CMTOS_RUN_COMPILER.

#pragma once

#include <fstream>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "util/checksum.h"

namespace cmtos::bench {

inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

/// Appends the stamp to `meta`.
inline void stamp_run_meta(obs::Labels& meta, const std::string& revision) {
  meta.emplace_back("revision", revision);
  meta.emplace_back("cpu", cpu_model());
  meta.emplace_back("nproc", std::to_string(std::thread::hardware_concurrency()));
  meta.emplace_back("build_type", CMTOS_RUN_BUILD_TYPE);
  meta.emplace_back("compiler", CMTOS_RUN_COMPILER);
  meta.emplace_back("crc_kernel", cmtos::detail::to_string(cmtos::detail::crc32_kernel()));
}

}  // namespace cmtos::bench
