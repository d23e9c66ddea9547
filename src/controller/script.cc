#include "controller/script.h"

#include <cctype>
#include <string_view>
#include <vector>

#include "rp4/parser.h"
#include "util/strings.h"

namespace ipsa::controller {

namespace {

using Flags = std::map<std::string_view, std::string_view, std::less<>>;

// Extracts `--flag value` pairs from tokens[start..]. Views into the line.
Result<Flags> ParseFlags(const std::vector<std::string_view>& tokens,
                         size_t start) {
  Flags flags;
  for (size_t i = start; i < tokens.size(); i += 2) {
    if (!util::StartsWith(tokens[i], "--")) {
      return InvalidArgument("expected --flag, got '" + std::string(tokens[i]) +
                             "'");
    }
    if (i + 1 >= tokens.size()) {
      return InvalidArgument("flag '" + std::string(tokens[i]) +
                             "' needs a value");
    }
    flags[tokens[i].substr(2)] = tokens[i + 1];
  }
  return flags;
}

// The whitespace-separated words of `line`, as views into it.
void SplitWords(std::string_view line, std::vector<std::string_view>& out) {
  out.clear();
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    const size_t start = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i > start) out.push_back(line.substr(start, i - start));
  }
}

}  // namespace

Result<compiler::UpdateRequest> ParseScript(const std::string& script_text,
                                            const SnippetResolver& resolver) {
  compiler::UpdateRequest request;
  bool have_load = false;

  // Lines and words are views into `script_text`; only the values the
  // request keeps are copied out.
  std::vector<std::string_view> tokens;
  std::string_view rest = script_text;
  while (!rest.empty()) {
    const size_t eol = rest.find('\n');
    std::string_view line = rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view{}
                                         : rest.substr(eol + 1);
    if (auto pos = line.find("//"); pos != std::string_view::npos) {
      line = line.substr(0, pos);
    }
    if (auto pos = line.find('#'); pos != std::string_view::npos) {
      line = line.substr(0, pos);
    }
    SplitWords(line, tokens);
    if (tokens.empty()) continue;
    const std::string cmd(tokens[0]);

    if (cmd == "load" || cmd == "update") {
      if (tokens.size() < 2) return InvalidArgument(cmd + ": missing file");
      IPSA_ASSIGN_OR_RETURN(Flags flags, ParseFlags(tokens, 2));
      auto it = flags.find("func_name");
      if (it == flags.end()) {
        return InvalidArgument(cmd + ": missing --func_name");
      }
      request.func_name = std::string(it->second);
      if (resolver == nullptr) {
        return FailedPrecondition(cmd + ": no snippet resolver provided");
      }
      IPSA_ASSIGN_OR_RETURN(std::string source,
                            resolver(std::string(tokens[1])));
      IPSA_ASSIGN_OR_RETURN(rp4::Rp4Program snippet,
                            rp4::ParseRp4Snippet(source));
      request.snippet = std::move(snippet);
      request.update = cmd == "update";
      have_load = true;
    } else if (cmd == "remove") {
      IPSA_ASSIGN_OR_RETURN(Flags flags, ParseFlags(tokens, 1));
      auto it = flags.find("func_name");
      if (it == flags.end()) {
        return InvalidArgument("remove: missing --func_name");
      }
      request.func_name = std::string(it->second);
      request.remove = true;
    } else if (cmd == "add_link") {
      if (tokens.size() != 3) {
        return InvalidArgument("add_link: expected two stage names");
      }
      request.add_links.emplace_back(tokens[1], tokens[2]);
    } else if (cmd == "del_link") {
      if (tokens.size() != 3) {
        return InvalidArgument("del_link: expected two stage names");
      }
      request.del_links.emplace_back(tokens[1], tokens[2]);
    } else if (cmd == "link_header") {
      IPSA_ASSIGN_OR_RETURN(Flags flags, ParseFlags(tokens, 1));
      if (!flags.count("pre") || !flags.count("next") || !flags.count("tag")) {
        return InvalidArgument("link_header: need --pre --next --tag");
      }
      auto tag = util::ParseUint(flags["tag"]);
      if (!tag) return InvalidArgument("link_header: bad tag");
      request.link_headers.push_back(compiler::HeaderLinkCmd{
          std::string(flags["pre"]), std::string(flags["next"]), *tag});
    } else if (cmd == "unlink_header") {
      IPSA_ASSIGN_OR_RETURN(Flags flags, ParseFlags(tokens, 1));
      if (!flags.count("pre") || !flags.count("tag")) {
        return InvalidArgument("unlink_header: need --pre --tag");
      }
      auto tag = util::ParseUint(flags["tag"]);
      if (!tag) return InvalidArgument("unlink_header: bad tag");
      // Unlink is expressed as a link command with empty `next`.
      request.link_headers.push_back(
          compiler::HeaderLinkCmd{std::string(flags["pre"]), "", *tag});
    } else {
      return InvalidArgument("unknown script command '" + cmd + "'");
    }
  }

  if (!have_load && !request.remove) {
    return InvalidArgument("script has neither a load nor a remove command");
  }
  return request;
}

}  // namespace ipsa::controller
