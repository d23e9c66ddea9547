// Generic, descriptor-driven packet parsing.
//
// IPSA mode (`ParseUntil`): just-in-time parsing — a stage requests the
// header instances its matcher/executor needs; parsing resumes from the last
// parsed header and stops as soon as all requested instances are in the PHV
// (paper §2.1). Already-parsed headers are never re-parsed.
//
// PISA mode (`ParseAll`): the standalone front-end parser walks the whole
// parse graph before the pipeline.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "arch/context.h"
#include "util/status.h"

namespace ipsa::arch {

struct ParseStats {
  uint32_t headers_parsed = 0;
  uint64_t bytes_parsed = 0;
  uint64_t cycles = 0;
};

class ParseEngine {
 public:
  // Cycle cost per extracted header (state transition + extract).
  static constexpr uint64_t kCyclesPerHeader = 1;

  // Parses forward until every id in `wanted` is a valid PHV instance, the
  // parse chain ends, or the packet is exhausted. Missing headers are not an
  // error (a v6-only stage simply doesn't fire on a v4 packet). Compiled
  // stages pass the parse set they resolved to ids at compile time.
  static Result<ParseStats> ParseUntil(PacketContext& ctx,
                                       std::span<const HeaderId> wanted);
  // The same by instance name (the interpreter): names resolve to ids
  // through the context's registry first.
  static Result<ParseStats> ParseUntil(PacketContext& ctx,
                                       const std::vector<std::string>& wanted);

  // Parses the entire chain (PISA front parser).
  static Result<ParseStats> ParseAll(PacketContext& ctx);

 private:
  // Parses exactly one more header; returns false when the chain ends.
  static Result<bool> ParseNext(PacketContext& ctx, ParseStats& stats);
};

}  // namespace ipsa::arch
