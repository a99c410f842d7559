// Token stream for the indexer. Deliberately small: identifiers, numbers,
// string/char literals, multi-char punctuation the indexer cares about
// ("::", "->"), comments (mined for miniraid-lint suppressions), and
// preprocessor lines (kept out of the tokens, so macro *definitions* never
// leak tokens while macro *invocations* in normal code are seen verbatim;
// include targets and the include guard are recorded on the SourceFile).

#include <cctype>
#include <cstring>
#include <sstream>

#include "analyzer.h"

namespace miniraid {
namespace analyze {

namespace {

// Records `// miniraid-lint: allow(rule-a, rule-b)` for `line` and line+1
// (a same-line or preceding-line comment).
void ParseAllowComment(const std::string& comment, int line, SourceFile* out) {
  size_t at = comment.find("miniraid-lint:");
  if (at == std::string::npos) return;
  size_t open = comment.find("allow(", at);
  if (open == std::string::npos) return;
  size_t close = comment.find(')', open);
  if (close == std::string::npos) return;
  std::string inner = comment.substr(open + 6, close - open - 6);
  std::string rule;
  auto flush = [&] {
    if (!rule.empty()) {
      out->allow[line].insert(rule);
      out->allow[line + 1].insert(rule);
      rule.clear();
    }
  };
  for (char c : inner) {
    if (c == ',') {
      flush();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      rule.push_back(c);
    }
  }
  flush();
}

// Records what the per-file rules need from the preprocessor line `text`
// (the part after '#'), the `index`-th directive of the file: a quoted
// include target, or the macro of an opening `#ifndef X` / `#define X`.
void RecordDirective(const std::string& text, int line, int index,
                     std::string* opening_ifndef, SourceFile* out) {
  std::istringstream is(text);
  std::string name, arg;
  is >> name >> arg;
  if (name == "include" && arg.size() > 2 && arg.front() == '"') {
    out->includes.emplace_back(arg.substr(1, arg.find('"', 1) - 1), line);
  } else if (index == 0 && name == "ifndef") {
    *opening_ifndef = arg;
  } else if (index == 1 && name == "define" && arg == *opening_ifndef) {
    out->guard = arg;
  }
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

SourceFile LexFile(const std::string& path, const std::string& content) {
  SourceFile out;
  out.path = path;
  const size_t n = content.size();
  size_t i = 0;
  int line = 1;
  bool at_line_start = true;
  int directives = 0;
  std::string opening_ifndef;

  auto push = [&](Token::Kind kind, std::string text) {
    Token t;
    t.kind = kind;
    t.text = std::move(text);
    t.line = line;
    out.tokens.push_back(std::move(t));
  };

  while (i < n) {
    char c = content[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Preprocessor line: skip to end of line, honouring continuations.
    if (c == '#' && at_line_start) {
      const size_t start = i + 1;
      const int start_line = line;
      while (i < n) {
        if (content[i] == '\n') {
          if (i > 0 && content[i - 1] == '\\') {
            ++line;
            ++i;
            continue;
          }
          break;
        }
        ++i;
      }
      const std::string text = content.substr(start, i - start);
      RecordDirective(text, start_line, directives++, &opening_ifndef, &out);
      ParseAllowComment(text, start_line, &out);
      continue;
    }
    at_line_start = false;
    // Comments.
    if (c == '/' && i + 1 < n && content[i + 1] == '/') {
      size_t end = content.find('\n', i);
      if (end == std::string::npos) end = n;
      ParseAllowComment(content.substr(i, end - i), line, &out);
      i = end;
      continue;
    }
    if (c == '/' && i + 1 < n && content[i + 1] == '*') {
      size_t start_line = line;
      size_t end = content.find("*/", i + 2);
      if (end == std::string::npos) end = n;
      std::string body = content.substr(i, end - i);
      ParseAllowComment(body, static_cast<int>(start_line), &out);
      for (char bc : body) {
        if (bc == '\n') ++line;
      }
      i = (end == n) ? n : end + 2;
      continue;
    }
    // Raw string literal.
    if (c == 'R' && i + 1 < n && content[i + 1] == '"') {
      size_t paren = content.find('(', i + 2);
      if (paren != std::string::npos) {
        std::string delim(")");
        delim.append(content, i + 2, paren - i - 2);
        delim.push_back('"');
        size_t end = content.find(delim, paren + 1);
        if (end == std::string::npos) end = n;
        for (size_t k = i; k < end && k < n; ++k) {
          if (content[k] == '\n') ++line;
        }
        push(Token::kString, "\"\"");
        i = (end == n) ? n : end + delim.size();
        continue;
      }
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      char quote = c;
      size_t start = i++;
      while (i < n && content[i] != quote) {
        if (content[i] == '\\') ++i;
        if (i < n && content[i] == '\n') ++line;
        ++i;
      }
      if (i < n) ++i;  // closing quote
      push(Token::kString, content.substr(start, i - start));
      continue;
    }
    // Identifier / keyword.
    if (IsIdentStart(c)) {
      size_t start = i;
      while (i < n && IsIdentChar(content[i])) ++i;
      push(Token::kIdent, content.substr(start, i - start));
      continue;
    }
    // Number (digits, hex, suffixes, and simple floats).
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      while (i < n && (IsIdentChar(content[i]) || content[i] == '.' ||
                       ((content[i] == '+' || content[i] == '-') && i > start &&
                        (content[i - 1] == 'e' || content[i - 1] == 'E')))) {
        ++i;
      }
      push(Token::kNumber, content.substr(start, i - start));
      continue;
    }
    // Punctuation: keep "::" and "->" fused; everything else single-char.
    if (c == ':' && i + 1 < n && content[i + 1] == ':') {
      push(Token::kPunct, "::");
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && content[i + 1] == '>') {
      push(Token::kPunct, "->");
      i += 2;
      continue;
    }
    push(Token::kPunct, std::string(1, c));
    ++i;
  }
  return out;
}

const char* CtxName(Ctx ctx) {
  switch (ctx) {
    case Ctx::kNone:
      return "none";
    case Ctx::kManaging:
      return "managing";
    case Ctx::kLoop:
      return "loop";
    case Ctx::kClient:
      return "client";
    case Ctx::kAny:
      return "any";
  }
  return "none";
}

Ctx ParseCtx(const std::string& name) {
  if (name == "managing") return Ctx::kManaging;
  if (name == "loop") return Ctx::kLoop;
  if (name == "client") return Ctx::kClient;
  if (name == "any") return Ctx::kAny;
  return Ctx::kNone;
}

}  // namespace analyze
}  // namespace miniraid
