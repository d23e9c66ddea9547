// The build and host context every hand-rolled BENCH_*.json report records
// at its top level: the build type (a Debug number says nothing about
// speed) and the CPU count it ran on. google-benchmark reports carry
// num_cpus in their own "context" block.
#pragma once

#include <thread>

#include "util/json.h"

namespace ipsa::bench {

inline void AddReportContext(util::Json& report) {
#ifdef NDEBUG
  report["ipsa_build_type"] = "release";
#else
  report["ipsa_build_type"] = "debug";
#endif
  report["num_cpus"] = std::thread::hardware_concurrency();
}

}  // namespace ipsa::bench
