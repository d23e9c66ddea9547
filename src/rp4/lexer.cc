#include "rp4/lexer.h"

#include "util/strings.h"

namespace ipsa::rp4 {

namespace {

// Punctuators: every two-char one is tried before any single char.
constexpr std::string_view kPuncts2[] = {
    "<<", ">>", "==", "!=", "<=", ">=", "&&", "||", "::",
};
constexpr std::string_view kPuncts1 = "{}()[];:,.=<>+-*/&|^!~@";

// The C-locale <cctype> classes, without a library call per character.
constexpr bool IsSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}
constexpr bool IsDigit(char c) { return c >= '0' && c <= '9'; }
constexpr bool IsAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
constexpr bool IsAlnum(char c) { return IsAlpha(c) || IsDigit(c); }

// The punctuator at the front of `rest`, or an empty view.
std::string_view MatchPunct(std::string_view rest) {
  if (rest.size() >= 2) {
    for (std::string_view p : kPuncts2) {
      if (rest[0] == p[0] && rest[1] == p[1]) return p;
    }
  }
  const size_t at = kPuncts1.find(rest[0]);
  return at == std::string_view::npos ? std::string_view{}
                                      : kPuncts1.substr(at, 1);
}

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view source) {
  std::vector<Token> tokens;
  size_t i = 0;
  uint32_t line = 1, col = 1;

  auto advance = [&](size_t n) {
    for (size_t k = 0; k < n; ++k) {
      if (i + k < source.size() && source[i + k] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    i += n;
  };

  while (i < source.size()) {
    char c = source[i];
    if (IsSpace(c)) {
      advance(1);
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < source.size()) {
      if (source[i + 1] == '/') {
        while (i < source.size() && source[i] != '\n') advance(1);
        continue;
      }
      if (source[i + 1] == '*') {
        advance(2);
        while (i + 1 < source.size() &&
               !(source[i] == '*' && source[i + 1] == '/')) {
          advance(1);
        }
        if (i + 1 >= source.size()) {
          return InvalidArgument("unterminated block comment at line " +
                                 std::to_string(line));
        }
        advance(2);
        continue;
      }
    }
    // Identifiers / keywords.
    // A token never spans a newline, so it only moves the column.
    if (IsAlpha(c) || c == '_') {
      size_t start = i;
      uint32_t tline = line, tcol = col;
      while (i < source.size() && (IsAlnum(source[i]) || source[i] == '_')) {
        ++i;
      }
      col += static_cast<uint32_t>(i - start);
      tokens.push_back(Token{TokKind::kIdent, source.substr(start, i - start),
                             0, tline, tcol});
      continue;
    }
    // Numbers (decimal, hex, optional P4 `Nw`/`Ns` width prefix).
    if (IsDigit(c)) {
      size_t start = i;
      uint32_t tline = line, tcol = col;
      while (i < source.size() && IsAlnum(source[i])) ++i;
      col += static_cast<uint32_t>(i - start);
      const std::string_view text = source.substr(start, i - start);
      // Strip a width prefix like "8w" or "16s".
      std::string_view value_text = text;
      for (size_t w = 0; w < text.size(); ++w) {
        if (text[w] == 'w' || text[w] == 's') {
          bool all_digits = w > 0;
          for (size_t d = 0; d < w; ++d) {
            if (!IsDigit(text[d])) {
              all_digits = false;
              break;
            }
          }
          if (all_digits) value_text = text.substr(w + 1);
          break;
        }
      }
      uint64_t value = 0;
      if (value_text.size() > 2 &&
          (value_text[1] == 'x' || value_text[1] == 'X')) {
        auto parsed = util::ParseUint(value_text);
        if (!parsed) {
          return InvalidArgument("bad hex literal '" + std::string(text) +
                                 "' at line " + std::to_string(tline));
        }
        value = *parsed;
      } else {
        auto parsed = util::ParseUint(value_text);
        if (!parsed) {
          return InvalidArgument("bad numeric literal '" + std::string(text) +
                                 "' at line " + std::to_string(tline));
        }
        value = *parsed;
      }
      tokens.push_back(Token{TokKind::kNumber, text, value, tline, tcol});
      continue;
    }
    // Punctuators.
    if (std::string_view p = MatchPunct(source.substr(i)); !p.empty()) {
      tokens.push_back(Token{TokKind::kPunct, p, 0, line, col});
      i += p.size();
      col += static_cast<uint32_t>(p.size());
    } else {
      return InvalidArgument(std::string("unexpected character '") + c +
                             "' at line " + std::to_string(line));
    }
  }
  tokens.push_back(Token{TokKind::kEof, {}, 0, line, col});
  return tokens;
}

const Token& TokenCursor::Peek(size_t ahead) const {
  size_t idx = pos_ + ahead;
  if (idx >= tokens_.size()) idx = tokens_.size() - 1;  // EOF sentinel
  return tokens_[idx];
}

const Token& TokenCursor::Next() {
  const Token& t = tokens_[pos_];
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return t;
}

bool TokenCursor::TryConsume(std::string_view text) {
  if (Peek().text == text && Peek().kind != TokKind::kEof) {
    Next();
    return true;
  }
  return false;
}

Status TokenCursor::Expect(std::string_view text) {
  if (!TryConsume(text)) {
    return ErrorHere("expected '" + std::string(text) + "'");
  }
  return OkStatus();
}

Result<std::string> TokenCursor::ExpectIdent() {
  if (Peek().kind != TokKind::kIdent) {
    return ErrorHere("expected identifier");
  }
  return std::string(Next().text);
}

Result<uint64_t> TokenCursor::ExpectNumber() {
  if (Peek().kind != TokKind::kNumber) {
    return ErrorHere("expected number");
  }
  return Next().number;
}

Status TokenCursor::ErrorHere(const std::string& message) const {
  const Token& t = Peek();
  return InvalidArgument(message + " at line " + std::to_string(t.line) +
                         ":" + std::to_string(t.col) + " (got '" +
                         std::string(t.kind == TokKind::kEof ? "<eof>" : t.text) +
                         "')");
}

}  // namespace ipsa::rp4
