// Differential execution of one fuzz case over every execution path.
//
// Five configurations process the identical (program, traffic, churn)
// schedule:
//   pbm-interp    PISA device, interpreter for every stage of the plan
//   pbm-spec      PISA device, compiled stages in the plan
//   ipbm-interp   IPSA device, interpreter for every stage of the plan
//   ipbm-spec     IPSA device, compiled stages in the plan, per packet
//   ipbm-parallel IPSA device, compiled stages + 4-worker batch executor
//
// The PISA configurations full-reload v2 at the update op (entries restored
// from the controller shadow); the IPSA configurations apply the in-situ
// snippet. The paper's equivalence claim is checked as: bit-identical TX
// streams per port, identical per-packet results, equal per-segment table
// hit/miss deltas, matching telemetry counters, and a config epoch that
// advances across the update on every device.
#pragma once

#include <string>

#include "testing/generator.h"
#include "util/status.h"

namespace ipsa::testing {

struct DiffOptions {
  // Enables arch::SetCompiledStageFault for the lifetime of the run: the
  // compiled configurations then intentionally diverge from the
  // interpreter, proving the harness detects/shrinks/replays real bugs.
  bool inject_fault = false;
  uint32_t parallel_workers = 4;
};

struct DiffReport {
  bool diverged = false;
  std::string detail;  // first divergence, human-readable
};

// Runs one case through all five configurations. A Status error means the
// case could not even execute (a front-end or harness defect — also a
// failure for the fuzzer, just a different kind).
Result<DiffReport> RunCase(const CaseFile& c, const DiffOptions& options = {});

// True when the case fails under `options` (diverges or errors) — the
// shrinker's predicate.
bool CaseFails(const CaseFile& c, const DiffOptions& options);

// Greedily shrinks a failing case: drops packet ops, entry ops, the update
// op, apply blocks (with their tables/entries) and unreferenced leaf
// headers, keeping each removal only while the failure persists. Returns
// the re-rendered minimal case.
Result<CaseFile> ShrinkCase(const GeneratedCase& gen,
                            const DiffOptions& options = {});

}  // namespace ipsa::testing
