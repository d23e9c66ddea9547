// Tokenizer shared by the rP4 and P4-16-subset parsers (both are C-like).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace ipsa::rp4 {

enum class TokKind {
  kIdent,
  kNumber,
  kPunct,  // one of the multi/single-char operators below
  kEof,
};

// A token's text is a view into the source it was cut from, which must
// outlive the token (the parsers tokenize and parse inside one call).
struct Token {
  TokKind kind = TokKind::kEof;
  std::string_view text;
  uint64_t number = 0;  // valid for kNumber
  uint32_t line = 0;
  uint32_t col = 0;

  bool Is(std::string_view t) const { return text == t; }
  bool IsIdent(std::string_view t) const {
    return kind == TokKind::kIdent && text == t;
  }
};

// Tokenizes `source`; strips //-comments and /*...*/ comments. Numbers may
// be decimal, 0x-hex, or P4 width-prefixed (e.g. 8w255, 0x1f) — the width
// prefix is accepted and ignored (widths come from declarations).
Result<std::vector<Token>> Tokenize(std::string_view source);

// Cursor over a token stream with error reporting.
class TokenCursor {
 public:
  explicit TokenCursor(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  const Token& Peek(size_t ahead = 0) const;
  const Token& Next();
  bool AtEnd() const { return Peek().kind == TokKind::kEof; }

  // Consumes the token if it matches.
  bool TryConsume(std::string_view text);
  Status Expect(std::string_view text);
  Result<std::string> ExpectIdent();
  Result<uint64_t> ExpectNumber();

  Status ErrorHere(const std::string& message) const;

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace ipsa::rp4
