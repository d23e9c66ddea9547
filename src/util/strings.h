// Small string helpers shared by the compilers and the controller CLI.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ipsa::util {

// Splits on `sep`, optionally keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep,
                               bool keep_empty = false);

// Splits on runs of whitespace (never returns empty fields).
std::vector<std::string> SplitWhitespace(std::string_view s);

std::string_view TrimView(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);

// Parses a decimal or 0x-prefixed integer.
std::optional<uint64_t> ParseUint(std::string_view s);

// Joins items with `sep`.
std::string Join(const std::vector<std::string>& items, std::string_view sep);

// printf-style formatting into std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace ipsa::util
